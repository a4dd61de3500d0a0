"""YAML experiment configs: one structured file per experiment.

Field names and defaults are documented in the README. Parsing is the one
validation boundary: each value is cast and checked by the engine's own rule
for it, for every run the experiment will make, and a failure is a
``ConfigError`` carrying the dotted path of the field (e.g. ``noise.q``). A
field that no step of the experiment's parse reads is an error too.
"""

from __future__ import annotations

import math
import reprlib
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from . import data, metrics, models, valuation
from .dp import MODES, NoiseConfig, burn_in_count, calibrate_sigma, check_delta, mechanism
from .experiments import RUNNERS
from .valuation import SemivalueSpec


class ConfigError(ValueError):
    """A config that fails at ``field_path`` ("" for the file or its root)."""

    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}" if field_path else message)


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return mapping[key]


class _Fields(dict):
    """A copy of the config mapping at the dotted ``path`` that records the
    keys the parse reads. ``parse_config`` makes the root one and ``_section``
    one per section, however often it is taken; all join the ``sections`` list
    that ``parse_config`` checks for keys no step read."""

    def __init__(self, mapping: dict, path: str, sections: list):
        super().__init__(mapping)
        self.path, self.read, self.sections = path, set(), sections
        sections.append(self)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)


def _section(doc: dict, key: str, path: str = "") -> dict:
    """The mapping under ``key`` ({} when absent or null), recording its reads
    in the section's one recorder when ``doc`` records its own."""
    value = doc.get(key)
    dotted = f"{path}.{key}" if path else key
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(dotted, "must be a mapping")
    if not isinstance(doc, _Fields):
        return value
    fields = next((fields for fields in doc.sections if fields.path == dotted), None)
    return _Fields(value, dotted, doc.sections) if fields is None else fields


@contextmanager
def _field(path: str):
    """Report a failed cast, engine check, read or YAML parse as a ConfigError on ``path``."""
    try:
        yield
    except ConfigError:
        raise
    except (TypeError, ValueError, OSError, yaml.YAMLError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _integer(value) -> int:
    """An integer field: an int or an integral float, never a fraction, a
    string or a boolean, and within numpy's int64, the C long of the arrays
    a count sizes and indexes (2**63 and 1e308 are not)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    elif isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"must be an integer, got {value!r}")
    if not -2**63 <= value < 2**63:
        raise ValueError(f"must fit a 64-bit integer, got {reprlib.repr(value)}")
    return value


def _number(value) -> float:
    """A float field: a finite int or float, never a string, a boolean, or
    YAML's .nan or .inf, nor an integer too large for a float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"must be a finite number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"must be a number a float can hold, got {reprlib.repr(value)}") from None


def _boolean(value) -> bool:
    """A boolean field: only YAML true or false."""
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _list(value, empty: bool = False) -> list | tuple:
    """A list field: a YAML sequence, never a scalar, which would be read
    character by character or not at all, and not empty unless ``empty``,
    since an empty one runs nothing. No entry repeats (``==``, so 10 and
    10.0 are one entry): a repeat would run again and be written twice."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"must be a list, got {value!r}")
    if not (value or empty):
        raise ValueError("must not be empty")
    for i, item in enumerate(value):
        if item in value[:i]:
            raise ValueError(f"repeats the entry {item!r}")
    return value


def _entries(cast=lambda entry: entry):
    """The cast of a list field: ``_list``'s rules, then ``cast`` on each entry."""
    return lambda value: tuple(cast(entry) for entry in _list(value))


def _set(obj, path: str, section: dict, key: str, cast, attr: str | None = None):
    """``obj`` with ``attr`` (``key`` by default) set from ``section[key]`` if
    given; ``replace`` re-runs the dataclass's checks, reported at ``path.key``."""
    if section.get(key) is None:
        return obj
    with _field(f"{path}.{key}"):
        return replace(obj, **{attr or key: cast(section[key])})


CORRUPT_SEED_OFFSET = 1000  # keeps a trial's corruption draws apart from its synth draws


@dataclass
class DatasetSection:
    synth: dict | None = None  # the shape arguments of synth_classification
    loaded: data.PartitionedDataset | None = None  # csv, read once here
    corrupt_ratio: float = 0.0
    corrupted: int = 0  # labels that corrupt_ratio flips
    partition_mode: str = "per-sample"
    n_parties: int = 400
    party_size: int | None = None

    @property
    def labels(self) -> np.ndarray:
        """Every label the source yields: the synth classes, or the csv's
        training and test labels."""
        if self.loaded is None:
            return np.arange(self.synth["n_classes"], dtype=np.float64)
        return np.concatenate([self.loaded.labels, self.loaded.test_labels])

    @property
    def n_features(self) -> int:
        """Feature columns of every build, before a model's bias column."""
        return self.synth["d_feat"] if self.loaded is None else self.loaded.features.shape[1]

    def build(self, seed: int) -> data.PartitionedDataset:
        """The dataset of ``seed``: the synth draw or the loaded csv, its
        labels corrupted and its rows partitioned as the section says."""
        if self.synth is None:
            ds = self.loaded
        else:
            ds = data.synth_classification(seed=seed, **self.synth)
        if self.corrupt_ratio > 0:
            ds = data.corrupt_labels(ds, self.corrupt_ratio, seed + CORRUPT_SEED_OFFSET)
        if self.partition_mode != "per-sample":
            ds = data.partition(ds, self.n_parties, self.partition_mode, size=self.party_size)
        return ds


@dataclass(frozen=True)
class OracleSection:
    n: int
    semivalues: tuple[SemivalueSpec, ...]
    tolerance: float


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    output_dir: str
    # dataset, model, utility and semivalue are None for oracle-check, which
    # scores a random game of its own
    dataset: DatasetSection | None
    model: models.ModelSpec | None
    noise: NoiseConfig  # at budget k (1 where k is no chain's budget); federated's at its rounds
    utility: str | None
    semivalue: SemivalueSpec | None  # over the dataset's parties
    trials: int | None  # seeds of noisy-label and similarity; None for the other kinds
    # the kind's parsed block (None for valuation); similarity's is the corr_x
    # mechanism at each of its ``ks``, noisy-label's the (label, mechanism) runs
    plan: (metrics.Probe | metrics.Removal | valuation.Federated | OracleSection
           | tuple[NoiseConfig, ...] | tuple[tuple[str, NoiseConfig], ...] | None)
    raw: dict

    def run(self, seed: int) -> valuation.RunConfig:
        """The run of the config's own mechanism on the dataset of ``seed``, at
        master seed ``seed``; a driver that runs another mechanism, or records
        gradients, ``dataclasses.replace``s it in."""
        return valuation.RunConfig(self.dataset.build(seed), self.model, self.utility,
                                   self.noise, self.semivalue, seed)


def _parse_dataset(section: dict) -> DatasetSection:
    ds = DatasetSection()
    source = section.get("source", "synth")
    if source not in ("synth", "csv"):
        raise ConfigError("dataset.source", f"must be synth or csv, got {source!r}")
    if source == "synth":
        ds.synth = {"n_samples": 400, "n_test": 200, "d_feat": 10, "n_classes": 2, "separation": 3.0}
        for key, default in ds.synth.items():
            with _field(f"dataset.{key}"):
                cast = _number if key == "separation" else _integer
                ds.synth[key] = cast(section.get(key, default))
                data.check_synth(**ds.synth)
        task, rows = "classification", ds.synth["n_samples"]
    else:
        path = _require(section, "path", "dataset")
        if not isinstance(path, str) or not path:  # open() takes an integer as a file descriptor
            raise ConfigError("dataset.path", f"must be a non-empty string, got {path!r}")
        with _field("dataset.label"):
            schema = data.CsvSchema(_require(section, "label", "dataset"))
        for key, cast in (("task", str), ("standardize", _boolean), ("test_rows", _integer)):
            schema = _set(schema, "dataset", section, key, cast)
        with _field("dataset.path"):
            try:
                ds.loaded = loaded = data.load_csv(path, schema)
            except data.SplitError as exc:
                raise ConfigError("dataset.test_rows", str(exc)) from exc
        with _field("dataset.test_rows"):
            models.check_test_split(loaded.test_features, loaded.test_labels)
        task, rows = loaded.task, loaded.n_train
    with _field("dataset.corrupt_ratio"):
        ds.corrupt_ratio = _number(section.get("corrupt_ratio", 0.0))
        ds.corrupted = data.corruption_count(rows, ds.corrupt_ratio, task)
    part = _section(section, "partition", "dataset")
    with _field("dataset.partition.mode"):
        ds.partition_mode = data.partition_mode(part.get("mode", "per-sample"))
    ds.n_parties = rows  # per-sample: every row is a party
    if ds.partition_mode != "per-sample":
        with _field("dataset.partition.n_parties"):
            ds.n_parties = _integer(_require(part, "n_parties", "dataset.partition"))
            data.party_layout(rows, ds.n_parties, "equal-chunks")
    if ds.partition_mode == "by-size":
        with _field("dataset.partition.size"):
            ds.party_size = _integer(_require(part, "size", "dataset.partition"))
            data.party_layout(rows, ds.n_parties, "by-size", ds.party_size)
    return ds


def _parse_model(section: dict) -> models.ModelSpec:
    init_section = _section(section, "init", "model")
    with _field("model.init.kind"):
        init = models.InitSpec(init_section.get("kind", "zeros"))
    if init.kind == "gaussian":  # a zeros init has no scale
        init = _set(init, "model.init", init_section, "scale", _number)
    loss = section.get("loss", "logistic_l2")
    with _field("model.loss"):
        spec = models.ModelSpec(loss, 0.05, init, l2=0.01 if loss == "logistic_l2" else 0.0)
    for key, cast in (("learning_rate", _number), ("l2", _number), ("add_bias", _boolean)):
        spec = _set(spec, "model", section, key, cast)
    return spec


# kinds that run one mode; the probe freezes the plain chain and replays probe.modes
_KIND_MODES = {"similarity": "corr_x", "federated": "fl_schedule", "variance-probe": "iid"}
_CHAIN_AT_K = ("valuation", "removal", "noisy-label")  # the kinds that run a chain at budget k


def _parse_noise(doc: dict, kind: str) -> NoiseConfig:
    """The mechanism at budget ``k`` (at 1 where no chain runs at k): the mode
    (the one ``kind`` runs, if it runs one), sigma given directly or
    calibrated from epsilon/delta, and the burn-in share. A no_dp mode reads
    no sigma, but for noisy-label, whose other runs take it."""
    with _field("k"):
        k = _integer(doc.get("k", 100))
        noise = NoiseConfig(1.0, 0.0, k if kind in _CHAIN_AT_K else 1)
    section = _section(doc, "noise")
    noise = _set(noise, "noise", section, "clip_norm", _number)
    runs = _KIND_MODES.get(kind)
    mode = section.get("mode", runs or "iid")
    if runs and mode != runs:
        raise ConfigError("noise.mode", f"the {kind} experiment runs {runs}, got {mode!r}")
    if mode != "no_dp" and mode not in MODES:
        raise ConfigError("noise.mode", f"unknown noise mode {mode!r}")
    if mode != "no_dp" or kind == "noisy-label":
        noise = _set(noise, "noise", section, "sigma", _number, "noise_multiplier")
        if section.get("sigma") is None:
            if section.get("epsilon") is not None:
                with _field("noise.delta"):
                    delta = check_delta(_number(section.get("delta", 5e-5)))
                with _field("noise.epsilon"):
                    sigma = calibrate_sigma(_number(section["epsilon"]), delta)
                noise = replace(noise, noise_multiplier=sigma)
            elif mode != "no_dp":
                raise ConfigError("noise.sigma", "either sigma or epsilon must be given")
    with _field("noise.q"):
        q = None if section.get("q") is None else _number(section["q"])
    # a q given to a mode without burn-in is rejected by NoiseConfig, not dropped
    with _field("noise.q" if q is not None or mode == "corr_y" else "noise.mode"):
        return replace(mechanism(noise, mode, noise.budget, q), q=q)


def _with_sigma_g_sq(doc: dict, noise: NoiseConfig, modes) -> NoiseConfig:
    """``noise`` with ``noise.sigma_g_sq``, the variance-aware diagonal, read
    only when one of the runs' ``modes`` is a combiner that uses it."""
    if not any(mode in ("corr_x", "corr_y") for mode in modes):
        return noise
    return _set(noise, "noise", _section(doc, "noise"), "sigma_g_sq", _number)


def _parse_probe(section: dict, noise: NoiseConfig) -> metrics.Probe:
    """The probe block, then its noise and every budget's mechanism of each mode."""
    probe = metrics.Probe()
    for key, cast, attr in (("ks", _entries(_integer), None), ("noise_trials", _integer, "trials"),
                            ("modes", _entries(), None)):
        probe = _set(probe, "probe", section, key, cast, attr)
    if "corr_y" in probe.modes:  # the one mode with a burn-in
        probe = _set(probe, "probe", section, "q", _number)
    with _field("noise.sigma"):
        metrics.probe_sigma(noise.noise_multiplier)
    with _field("probe.q"):
        for k in probe.ks:
            probe.mechanisms(noise, k)
    return probe


def _parse_similarity(section: dict, noise: NoiseConfig) -> tuple[NoiseConfig, ...]:
    with _field("similarity.ks"):
        return tuple(valuation.estimable(mechanism(noise, noise.mode, _integer(k)))
                     for k in _list(section.get("ks", (100, 200))))


def _parse_federated(section: dict, noise: NoiseConfig, utility: str, semivalue: SemivalueSpec
                     ) -> tuple[NoiseConfig, valuation.Federated]:
    """The mechanism at ``federated.rounds`` and the federated block."""
    with _field("utility"):
        valuation.federated_utility(utility)
    with _field("semivalue.kind"):
        valuation.federated_semivalue(semivalue.kind)
    with _field("federated.rounds"):
        noise = mechanism(noise, noise.mode, _integer(section.get("rounds", 10)))
    plan = valuation.Federated()
    for key, cast in (("permutations", _integer), ("q", _number)):
        plan = _set(plan, "federated", section, key, cast)
    with _field("federated.q"):
        burn_in_count(noise.budget, plan.q)
    return noise, plan


def _root(doc) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError("", "config root must be a mapping")
    return doc


def noisy_label_runs(doc: dict) -> tuple[tuple[str, NoiseConfig], ...]:
    """The (label, mechanism) runs of one noisy-label seed, parsed from the
    config's ``k``, ``noise`` and ``noisy_label`` sections alone, so no dataset
    is read: each mode at the burn-in share q (``noise.q`` by default), then
    the q_grid ablation, where q = 0 is the square corr_x matrix. Each
    mechanism runs once, under one label: a repeat would count as a second,
    independent draw."""
    noise = _parse_noise(_root(doc), "noisy-label")
    section = _section(doc, "noisy_label")
    k, q = noise.budget, None
    with _field("noisy_label.modes"):
        modes = _list(section.get("modes", ("no_dp", "iid", "corr_y")), empty=True)
    if "corr_y" in modes:  # an unset q fails below, at the corr_y run
        with _field("noisy_label.q"):
            q = noise.q if section.get("q") is None else _number(section["q"])
    noise = _with_sigma_g_sq(doc, noise, (*modes, "corr_x") if section.get("q_grid") else modes)
    labels: dict[NoiseConfig, str] = {}  # each mechanism in the plan and its label

    def add(path: str, label: str, run: NoiseConfig):
        if run in labels:
            raise ConfigError(path, f"{label!r} repeats the mechanism of the run {labels[run]!r}")
        labels[run] = label

    for mode in modes:
        with _field("noisy_label.q" if mode == "corr_y" else "noisy_label.modes"):
            run = valuation.estimable(mechanism(noise, mode, k, q))
        add("noisy_label.modes", mode, run)
    with _field("noisy_label.q_grid"):
        for qq in _list(section.get("q_grid") or (), empty=True):
            qq = _number(qq)
            burn_in_count(k, qq)
            label, mode = (f"corr_y(q={qq})", "corr_y") if qq > 0 else ("corr_x", "corr_x")
            add("noisy_label.q_grid", label, valuation.estimable(mechanism(noise, mode, k, qq)))
    if not labels:
        raise ConfigError("noisy_label.modes", "must not be empty without a q_grid")
    return tuple((label, run) for run, label in labels.items())


def _parse_oracle(section: dict) -> OracleSection:
    with _field("oracle.n"):
        n = valuation.enumerable_parties(_integer(section.get("n", 4)))
    with _field("oracle.kinds"):
        specs = tuple(SemivalueSpec(kind, 4.0, 1.0)
                      for kind in _list(section.get("kinds", ("shapley", "banzhaf"))))
    with _field("oracle.tolerance"):
        tolerance = _number(section.get("tolerance", 1e-10))
    return OracleSection(n, specs, tolerance)


def parse_config(doc: dict) -> ExperimentConfig:
    raw = _root(doc)
    sections: list[_Fields] = []
    doc = _Fields(raw, "", sections)
    kind = _require(doc, "experiment", "")
    if not isinstance(kind, str) or kind not in RUNNERS:
        raise ConfigError("experiment", f"unknown kind {kind!r}")
    with _field("seed"):
        seed = valuation.seed_value(_integer(doc.get("seed", 0)))
    output_dir = doc.get("output_dir", f"out/{kind}")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir", f"must be a non-empty string, got {output_dir!r}")

    dataset = model = utility = semivalue = None  # the oracle check reads none of them
    if kind != "oracle-check":
        dataset = _parse_dataset(_section(doc, "dataset"))
        if kind == "noisy-label" and dataset.corrupted == 0:
            raise ConfigError("dataset.corrupt_ratio",
                              "noisy-label detection needs at least one corrupted label")
        model = _parse_model(_section(doc, "model"))
        with _field("model.loss"):
            models.check_labels(model.loss_kind, dataset.labels)
        with _field("model.add_bias"):
            models.check_dimension(dataset.n_features + model.add_bias)
    noise = _parse_noise(doc, kind)
    if kind in ("valuation", "removal", "similarity"):  # each runs noise.mode alone
        noise = _with_sigma_g_sq(doc, noise, (noise.mode,))
    if kind in ("valuation", "removal"):  # the one chain each runs, at budget k
        with _field("k"):
            valuation.estimable(noise)

    if kind != "oracle-check":
        utility = doc.get("utility", "neg_test_loss")
        with _field("utility"):
            models.check_labels(models.utility_kind(utility), dataset.labels)
        semi = _section(doc, "semivalue")
        with _field("semivalue.kind"):
            semivalue = SemivalueSpec(semi.get("kind", "shapley"))
            valuation.weighable_parties(dataset.n_parties)
        if semivalue.kind == "beta":
            for key in ("alpha", "beta"):
                semivalue = _set(semivalue, "semivalue", semi, key, _number)

    trials = None
    if kind in ("noisy-label", "similarity"):
        with _field("trials"):
            trials = _integer(doc.get("trials", 5))
        if trials < 1:
            raise ConfigError("trials", "must be >= 1")

    plan = None
    if kind == "variance-probe":
        plan = _parse_probe(_section(doc, "probe"), noise)
        noise = _with_sigma_g_sq(doc, noise, plan.modes)
    elif kind == "removal":
        plan, section = metrics.Removal(), _section(doc, "removal")
        for key, cast in (("fractions", _entries(_number)), ("orders", _entries())):
            plan = _set(plan, "removal", section, key, cast)
    elif kind == "similarity":
        plan = _parse_similarity(_section(doc, "similarity"), noise)
    elif kind == "federated":
        noise, plan = _parse_federated(_section(doc, "federated"), noise, utility, semivalue)
    elif kind == "noisy-label":
        plan = noisy_label_runs(doc)
    elif kind == "oracle-check":
        plan = _parse_oracle(_section(doc, "oracle"))
    for fields in sections:
        for key in fields:
            if key not in fields.read:
                path = f"{fields.path}.{key}" if fields.path else str(key)
                raise ConfigError(path, f"not read by the {kind} experiment this config defines")
    return ExperimentConfig(
        kind=kind,
        seed=seed,
        output_dir=output_dir,
        dataset=dataset,
        model=model,
        noise=noise,
        utility=utility,
        semivalue=semivalue,
        trials=trials,
        plan=plan,
        raw=raw,
    )


class _UniqueKeyLoader(yaml.SafeLoader):
    """``yaml.safe_load``'s loader, but a key repeated in one mapping is an
    error where ``safe_load`` keeps its last value. Keys merged in by ``<<``
    may still be overridden."""

    def construct_mapping(self, node, deep=False):
        own = [key for key, _ in node.value if key.tag != "tag:yaml.org,2002:merge"]
        mapping = super().construct_mapping(node, deep)  # rejects an unhashable key
        seen = set()
        for key_node in own:
            key = self.construct_object(key_node)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping", node.start_mark,
                    f"found the key {key!r} a second time", key_node.start_mark)
            seen.add(key)
        return mapping


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError("", f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh, _field(""):
        doc = yaml.load(fh, _UniqueKeyLoader)
    return parse_config(doc)


def echo_config(cfg: ExperimentConfig) -> str:
    """The config as given, re-serialized with sorted keys; round-trips
    losslessly through YAML."""
    return yaml.safe_dump(cfg.raw, sort_keys=True)
