"""YAML experiment configs: one structured file per experiment.

Field names and defaults are documented in the README. Parsing is the one
validation boundary: each value is cast and checked by the engine's own rule
for it, for every run the experiment will make, and a failure is a
``ConfigError`` carrying the dotted path of the field (e.g. ``noise.q``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import yaml

from . import data, metrics, models, valuation
from .dp import NoiseConfig, burn_in_count, calibrate_sigma, mechanism
from .experiments import RUNNERS
from .valuation import SemivalueSpec


class ConfigError(ValueError):
    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return mapping[key]


def _section(doc: dict, key: str, path: str = "") -> dict:
    """The mapping under ``key`` ({} when absent or null)."""
    value = doc.get(key)
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{path}.{key}" if path else key, "must be a mapping")
    return value


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
    string or a boolean."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"must be an integer, got {value!r}")
    return value


def _number(value) -> float:
    """A float field: an int or a float, never a string or a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"must be a number, got {value!r}")
    return float(value)


def _boolean(value) -> bool:
    """A boolean field: only YAML true or false."""
    if not isinstance(value, bool):
        raise ValueError(f"must be true or false, got {value!r}")
    return value


def _set(obj, path: str, section: dict, key: str, cast, attr: str | None = None):
    """``obj`` with ``attr`` (``key`` by default) set from ``section[key]`` if
    given; ``replace`` re-runs the dataclass's checks, reported at ``path.key``."""
    if section.get(key) is None:
        return obj
    with _field(f"{path}.{key}"):
        return replace(obj, **{attr or key: cast(section[key])})


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


@dataclass
class ProbeSection:
    ks: tuple[int, ...] = (50, 100, 200, 400, 800)
    noise_trials: int = 500
    modes: tuple[str, ...] = ("iid", "corr_x")
    q: float = 0.5


@dataclass(frozen=True)
class RemovalSection:
    fractions: tuple[float, ...]
    orders: tuple[str, ...]


@dataclass(frozen=True)
class FederatedSection:
    noise: NoiseConfig  # fl_schedule, one release per round
    permutations: int
    q: float


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
    dataset: DatasetSection
    model: models.ModelSpec
    noise: NoiseConfig  # at budget k
    utility: str
    semivalue: SemivalueSpec  # over the dataset's parties
    trials: int
    # the kind's parsed block (None for valuation); similarity's is the corr_x
    # mechanism at each of its ``ks``, noisy-label's the (label, mechanism) runs
    plan: (ProbeSection | RemovalSection | FederatedSection | OracleSection
           | tuple[NoiseConfig, ...] | tuple[tuple[str, NoiseConfig], ...] | None)
    raw: dict


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
        path = str(_require(section, "path", "dataset"))
        with _field("dataset.label"):
            schema = data.CsvSchema(str(_require(section, "label", "dataset")))
        for key, cast in (("task", str), ("standardize", _boolean), ("test_rows", _integer)):
            schema = _set(schema, "dataset", section, key, cast)
        with _field("dataset.path"):
            ds.loaded = loaded = data.load_csv(path, schema)
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
    init = _set(init, "model.init", init_section, "scale", _number)
    loss = section.get("loss", "logistic_l2")
    with _field("model.loss"):
        spec = models.ModelSpec(loss, 0.05, init, l2=0.01 if loss == "logistic_l2" else 0.0)
    for key, cast in (("learning_rate", _number), ("l2", _number), ("add_bias", _boolean)):
        spec = _set(spec, "model", section, key, cast)
    return spec


def _parse_noise(doc: dict) -> NoiseConfig:
    """The mechanism at budget ``k``: sigma given directly or calibrated from
    epsilon/delta, then the mode and its burn-in share."""
    with _field("k"):
        noise = NoiseConfig(1.0, 0.0, _integer(doc.get("k", 100)))
    section = _section(doc, "noise")
    for key, attr in (("clip_norm", None), ("sigma_g_sq", None), ("sigma", "noise_multiplier")):
        noise = _set(noise, "noise", section, key, _number, attr)
    mode = section.get("mode", "iid")
    if section.get("sigma") is None:
        if section.get("epsilon") is not None:
            with _field("noise.delta"):
                delta = _number(section.get("delta", 5e-5))
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


def _parse_probe(section: dict, noise: NoiseConfig) -> ProbeSection:
    """The probe block, checked by the probe's own rules for every budget
    and mode it will run."""
    p = ProbeSection()
    with _field("probe.ks"):
        p.ks = metrics.probe_budgets(_integer(k) for k in section.get("ks", p.ks))
    with _field("probe.noise_trials"):
        p.noise_trials = metrics.probe_trials(_integer(section.get("noise_trials", p.noise_trials)))
    with _field("probe.modes"):
        p.modes = tuple(metrics.probe_mode(m) for m in section.get("modes", p.modes))
    with _field("probe.q"):
        p.q = _number(section.get("q", p.q))
    for k in p.ks:
        with _field("probe.ks"):  # the noiseless chain frozen at k
            valuation.estimable(noise.with_budget(k))
        for mode in p.modes:
            with _field("probe.q"):
                probe_noise = mechanism(noise, mode, k, p.q)
            with _field("noise.sigma_g_sq"):
                metrics.prefix_mean_only(probe_noise)
    return p


def _parse_removal(section: dict) -> RemovalSection:
    with _field("removal.fractions"):
        fractions = metrics.removal_fractions(
            _number(f) for f in section.get("fractions", (0.0, 0.1, 0.2, 0.3, 0.4)))
    with _field("removal.orders"):
        orders = tuple(metrics.removal_order(o)
                       for o in section.get("orders", ("highest-first", "random")))
    return RemovalSection(fractions, orders)


def _parse_similarity(section: dict, noise: NoiseConfig) -> tuple[NoiseConfig, ...]:
    with _field("similarity.ks"):
        return tuple(valuation.estimable(mechanism(noise, "corr_x", _integer(k)))
                     for k in section.get("ks", (100, 200)))


def _parse_federated(section: dict, noise: NoiseConfig, utility: str) -> FederatedSection:
    with _field("utility"):
        valuation.federated_utility(utility)
    with _field("federated.rounds"):
        noise = mechanism(noise, "fl_schedule", _integer(section.get("rounds", 10)))
    with _field("federated.permutations"):
        perms = valuation.federated_permutations(_integer(section.get("permutations", 100)))
    with _field("federated.q"):
        q = _number(section.get("q", 0.2))
        burn_in_count(noise.budget, q)
    return FederatedSection(noise, perms, q)


def _root(doc) -> dict:
    if not isinstance(doc, dict):
        raise ConfigError("", "config root must be a mapping")
    return doc


def noisy_label_runs(doc: dict) -> tuple[tuple[str, NoiseConfig], ...]:
    """The (label, mechanism) runs of one noisy-label seed, parsed from the
    config's ``k``, ``noise`` and ``noisy_label`` sections alone, so no dataset
    is read: each mode at the burn-in share q (``noise.q`` by default), then
    the q_grid ablation, where q = 0 is the square corr_x matrix."""
    noise = _parse_noise(_root(doc))
    section = _section(doc, "noisy_label")
    k = noise.budget
    with _field("noisy_label.q"):
        q = noise.q if section.get("q") is None else _number(section["q"])
        burn_in_count(k, q or 0.0)  # an unset q fails below, at the corr_y run
    runs = []
    for mode in section.get("modes", ("no_dp", "iid", "corr_y")):
        with _field("noisy_label.q" if mode == "corr_y" else "noisy_label.modes"):
            runs.append((mode, valuation.estimable(mechanism(noise, mode, k, q))))
    with _field("noisy_label.q_grid"):
        for qq in section.get("q_grid", ()) or ():
            qq = _number(qq)
            burn_in_count(k, qq)
            label, mode = (f"corr_y(q={qq})", "corr_y") if qq > 0 else ("corr_x", "corr_x")
            runs.append((label, valuation.estimable(mechanism(noise, mode, k, qq))))
    return tuple(runs)


def _parse_oracle(section: dict) -> OracleSection:
    with _field("oracle.n"):
        n = valuation.enumerable_parties(_integer(section.get("n", 4)))
    with _field("oracle.kinds"):
        specs = tuple(SemivalueSpec(kind, n, 4.0, 1.0)
                      for kind in section.get("kinds", ("shapley", "banzhaf")))
    with _field("oracle.tolerance"):
        tolerance = _number(section.get("tolerance", 1e-10))
    return OracleSection(n, specs, tolerance)


def parse_config(doc: dict) -> ExperimentConfig:
    doc = _root(doc)
    kind = _require(doc, "experiment", "")
    if not isinstance(kind, str) or kind not in RUNNERS:
        raise ConfigError("experiment", f"unknown kind {kind!r}")
    with _field("seed"):
        seed = valuation.seed_value(_integer(doc.get("seed", 0)))
    output_dir = doc.get("output_dir", f"out/{kind}")
    if not isinstance(output_dir, str) or not output_dir:
        raise ConfigError("output_dir", f"must be a non-empty string, got {output_dir!r}")

    dataset = _parse_dataset(_section(doc, "dataset"))
    if kind == "noisy-label" and dataset.corrupted == 0:
        raise ConfigError("dataset.corrupt_ratio",
                          "noisy-label detection needs at least one corrupted label")
    model = _parse_model(_section(doc, "model"))
    with _field("model.loss"):
        models.check_labels(model, dataset.labels)
    noise = _parse_noise(doc)
    if kind in ("valuation", "removal", "variance-probe"):  # one chain at budget k
        with _field("k"):
            valuation.estimable(noise)

    utility = doc.get("utility", "neg_test_loss")
    with _field("utility"):
        models.utility_kind(utility)

    semi = _section(doc, "semivalue")
    with _field("semivalue.kind"):
        semivalue = SemivalueSpec(semi.get("kind", "shapley"), dataset.n_parties)
    for key in ("alpha", "beta"):
        semivalue = _set(semivalue, "semivalue", semi, key, _number)

    with _field("trials"):
        trials = _integer(doc.get("trials", 5))
    if trials < 1:
        raise ConfigError("trials", "must be >= 1")

    plan = None
    if kind == "variance-probe":
        plan = _parse_probe(_section(doc, "probe"), noise)
    elif kind == "removal":
        plan = _parse_removal(_section(doc, "removal"))
    elif kind == "similarity":
        plan = _parse_similarity(_section(doc, "similarity"), noise)
    elif kind == "federated":
        plan = _parse_federated(_section(doc, "federated"), noise, utility)
    elif kind == "noisy-label":
        plan = noisy_label_runs(doc)
    elif kind == "oracle-check":
        plan = _parse_oracle(_section(doc, "oracle"))
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
        raw=doc,
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError("", f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh, _field(""):
        doc = yaml.safe_load(fh)
    return parse_config(doc)


def echo_config(cfg: ExperimentConfig) -> str:
    """Re-serialize the parsed config; round-trips losslessly through YAML."""
    return yaml.safe_dump(cfg.raw, sort_keys=True)
