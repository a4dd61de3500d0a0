"""YAML experiment configs: one structured file per experiment.

Field names and defaults are documented in the README. Validation errors
carry the dotted path of the offending field (e.g. ``noise.q``).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from . import metrics
from .dp import NoiseConfig, calibrate_sigma

EXPERIMENT_KINDS = (
    "valuation",
    "noisy-label",
    "removal",
    "variance-probe",
    "similarity",
    "federated",
    "oracle-check",
)


class ConfigError(ValueError):
    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        super().__init__(f"{field_path}: {message}")


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"{path}.{key}" if path else key, "missing required field")
    return mapping[key]


def _opt(mapping: dict, key: str, default=None):
    return mapping.get(key, default)


@contextmanager
def _field(path: str):
    """Report a failed engine check inside the block as a ConfigError on ``path``."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ConfigError(path, str(exc)) from exc


@dataclass
class DatasetSection:
    source: str = "synth"
    # synth
    n_samples: int = 400
    n_test: int = 200
    d_feat: int = 10
    n_classes: int = 2
    separation: float = 3.0
    # csv
    path: str | None = None
    label: str | None = None
    task: str = "classification"
    standardize: bool = False
    test_rows: int = 0
    # shared
    corrupt_ratio: float = 0.0
    corrupt_seed_offset: int = 1000
    partition_mode: str = "per-sample"
    n_parties: int | None = None
    party_size: int | None = None


@dataclass
class ModelSection:
    loss: str = "logistic_l2"
    learning_rate: float = 0.05
    l2: float = 0.01
    init_kind: str = "zeros"
    init_scale: float = 0.1
    add_bias: bool = True


@dataclass
class NoiseSection:
    clip_norm: float = 1.0
    mode: str = "iid"
    sigma: float | None = None
    epsilon: float | None = None
    delta: float = 5e-5
    q: float | None = None
    sigma_g_sq: float | None = None

    def resolve_sigma(self) -> float:
        if self.sigma is not None:
            return self.sigma
        if self.epsilon is not None:
            return calibrate_sigma(self.epsilon, self.delta)
        raise ConfigError("noise.sigma", "either sigma or epsilon must be given")


@dataclass
class ProbeSection:
    ks: tuple[int, ...] = (50, 100, 200, 400, 800)
    noise_trials: int = 500
    modes: tuple[str, ...] = ("iid", "corr_x")
    q: float = 0.5


@dataclass
class ExperimentConfig:
    kind: str
    seed: int
    k: int
    output_dir: str
    dataset: DatasetSection
    model: ModelSection
    noise: NoiseSection
    utility: str = "neg_test_loss"
    semivalue_kind: str = "shapley"
    semivalue_alpha: float = 1.0
    semivalue_beta: float = 1.0
    trials: int = 5
    probe: ProbeSection | None = None  # variance-probe only
    extra: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)


def _parse_dataset(section: dict) -> DatasetSection:
    ds = DatasetSection()
    ds.source = _opt(section, "source", "synth")
    if ds.source not in ("synth", "csv"):
        raise ConfigError("dataset.source", f"must be synth or csv, got {ds.source!r}")
    for key in ("n_samples", "n_test", "d_feat", "n_classes"):
        if key in section:
            val = int(section[key])
            if val < 1:
                raise ConfigError(f"dataset.{key}", "must be >= 1")
            setattr(ds, key, val)
    if "separation" in section:
        ds.separation = float(section["separation"])
        if ds.separation <= 0:
            raise ConfigError("dataset.separation", "must be positive")
    if ds.source == "csv":
        ds.path = _require(section, "path", "dataset")
        if not Path(ds.path).exists():
            raise ConfigError("dataset.path", f"file not found: {ds.path}")
        ds.label = _require(section, "label", "dataset")
        ds.task = _opt(section, "task", "classification")
        ds.standardize = bool(_opt(section, "standardize", False))
        ds.test_rows = int(_opt(section, "test_rows", 0))
    ds.corrupt_ratio = float(_opt(section, "corrupt_ratio", 0.0))
    if not (0.0 <= ds.corrupt_ratio < 1.0):
        raise ConfigError("dataset.corrupt_ratio", "must lie in [0, 1)")
    part = _opt(section, "partition", {"mode": "per-sample"})
    ds.partition_mode = _opt(part, "mode", "per-sample")
    if ds.partition_mode not in ("per-sample", "equal-chunks", "by-size"):
        raise ConfigError("dataset.partition.mode", f"unknown mode {ds.partition_mode!r}")
    if ds.partition_mode != "per-sample":
        ds.n_parties = int(_require(part, "n_parties", "dataset.partition"))
        if ds.n_parties < 1:
            raise ConfigError("dataset.partition.n_parties", "must be >= 1")
    if ds.partition_mode == "by-size":
        ds.party_size = int(_require(part, "size", "dataset.partition"))
        if ds.party_size < 1:
            raise ConfigError("dataset.partition.size", "must be >= 1")
    return ds


def _parse_model(section: dict) -> ModelSection:
    m = ModelSection()
    m.loss = _opt(section, "loss", "logistic_l2")
    if m.loss not in ("mse_linear", "logistic_l2"):
        raise ConfigError("model.loss", f"unknown loss {m.loss!r}")
    m.learning_rate = float(_opt(section, "learning_rate", 0.05))
    if m.learning_rate <= 0:
        raise ConfigError("model.learning_rate", "must be positive")
    m.l2 = float(_opt(section, "l2", 0.01 if m.loss == "logistic_l2" else 0.0))
    if m.loss == "logistic_l2" and m.l2 <= 0:
        raise ConfigError("model.l2", "logistic_l2 needs a positive l2 penalty")
    if m.loss == "mse_linear" and m.l2 != 0:
        raise ConfigError("model.l2", "l2 penalty only applies to logistic_l2")
    init = _opt(section, "init", {"kind": "zeros"})
    m.init_kind = _opt(init, "kind", "zeros")
    if m.init_kind not in ("zeros", "gaussian"):
        raise ConfigError("model.init.kind", f"unknown init {m.init_kind!r}")
    m.init_scale = float(_opt(init, "scale", 0.1))
    if m.init_kind == "gaussian" and m.init_scale <= 0:
        raise ConfigError("model.init.scale", "must be positive")
    m.add_bias = bool(_opt(section, "add_bias", True))
    return m


def _parse_noise(section: dict, k: int) -> NoiseSection:
    ns = NoiseSection()
    ns.clip_norm = float(_opt(section, "clip_norm", 1.0))
    if ns.clip_norm <= 0:
        raise ConfigError("noise.clip_norm", "must be positive")
    ns.mode = _opt(section, "mode", "iid")
    if ns.mode not in ("iid", "corr_x", "corr_y", "fl_schedule", "no_dp"):
        raise ConfigError("noise.mode", f"unknown mode {ns.mode!r}")
    if "sigma" in section and section["sigma"] is not None:
        ns.sigma = float(section["sigma"])
        if ns.sigma < 0:
            raise ConfigError("noise.sigma", "must be >= 0")
    if "epsilon" in section and section["epsilon"] is not None:
        ns.epsilon = float(section["epsilon"])
        if ns.epsilon <= 0:
            raise ConfigError("noise.epsilon", "must be positive")
    ns.delta = float(_opt(section, "delta", 5e-5))
    if not (0.0 < ns.delta < 1.0):
        raise ConfigError("noise.delta", "must lie in (0, 1)")
    if ns.mode == "no_dp":
        ns.sigma = 0.0
        ns.mode = "iid"
    elif ns.sigma is None and ns.epsilon is None:
        raise ConfigError("noise.sigma", "either sigma or epsilon must be given")
    if "q" in section and section["q"] is not None:
        ns.q = float(section["q"])
        if ns.mode != "corr_y":
            raise ConfigError("noise.q", "q only applies to corr_y")
        with _field("noise.q"):
            NoiseConfig(ns.clip_norm, 0.0, k, "corr_y", ns.q)
    elif ns.mode == "corr_y":
        raise ConfigError("noise.q", "corr_y requires a burn-in ratio q")
    if "sigma_g_sq" in section and section["sigma_g_sq"] is not None:
        ns.sigma_g_sq = float(section["sigma_g_sq"])
        if ns.sigma_g_sq < 0:
            raise ConfigError("noise.sigma_g_sq", "must be >= 0")
    return ns


def _parse_probe(section: dict, noise: NoiseSection) -> ProbeSection:
    """The probe block, checked by the probe's own rules for every budget
    and mode it will run."""
    p = ProbeSection()
    with _field("probe.ks"):
        p.ks = metrics.probe_budgets(_opt(section, "ks", p.ks))
    with _field("probe.noise_trials"):
        p.noise_trials = metrics.probe_trials(int(_opt(section, "noise_trials", p.noise_trials)))
    with _field("probe.modes"):
        p.modes = tuple(metrics.probe_mode(m) for m in _opt(section, "modes", p.modes))
    with _field("probe.q"):
        p.q = float(_opt(section, "q", p.q))
    base = NoiseConfig(noise.clip_norm, 0.0, 1, sigma_g_sq=noise.sigma_g_sq)
    for mode in p.modes:
        for k in p.ks:
            with _field("probe.q"):
                probe_noise = metrics.probe_noise(base, mode, k, p.q)
            with _field("noise.sigma_g_sq"):
                metrics.prefix_mean_only(probe_noise)
    return p


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("", "config root must be a mapping")
    kind = _require(doc, "experiment", "")
    if kind not in EXPERIMENT_KINDS:
        raise ConfigError("experiment", f"unknown kind {kind!r}")
    seed = int(_opt(doc, "seed", 0))
    k = int(_opt(doc, "k", 100))
    if k < 1:
        raise ConfigError("k", "must be >= 1")
    output_dir = _opt(doc, "output_dir", f"out/{kind}")

    dataset = _parse_dataset(_opt(doc, "dataset", {}) or {})
    model = _parse_model(_opt(doc, "model", {}) or {})
    noise = _parse_noise(_opt(doc, "noise", {}) or {}, k)

    utility = _opt(doc, "utility", "neg_test_loss")
    if utility not in ("neg_test_loss", "test_accuracy"):
        raise ConfigError("utility", f"unknown utility {utility!r}")

    semi = _opt(doc, "semivalue", {"kind": "shapley"}) or {}
    semi_kind = _opt(semi, "kind", "shapley")
    if semi_kind not in ("shapley", "banzhaf", "beta", "loo"):
        raise ConfigError("semivalue.kind", f"unknown kind {semi_kind!r}")
    alpha = float(_opt(semi, "alpha", 1.0))
    beta = float(_opt(semi, "beta", 1.0))
    if semi_kind == "beta" and (alpha <= 0 or beta <= 0):
        raise ConfigError("semivalue.alpha", "beta semivalue needs alpha, beta > 0")

    trials = int(_opt(doc, "trials", 5))
    if trials < 1:
        raise ConfigError("trials", "must be >= 1")

    probe = None
    if kind == "variance-probe":
        probe = _parse_probe(_opt(doc, "probe", {}) or {}, noise)

    extra_keys = ("removal", "federated", "noisy_label", "similarity", "oracle")
    extra = {key: doc[key] for key in extra_keys if key in doc}
    return ExperimentConfig(
        kind=kind,
        seed=seed,
        k=k,
        output_dir=output_dir,
        dataset=dataset,
        model=model,
        noise=noise,
        utility=utility,
        semivalue_kind=semi_kind,
        semivalue_alpha=alpha,
        semivalue_beta=beta,
        trials=trials,
        probe=probe,
        extra=extra,
        raw=doc,
    )


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError("", f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    return parse_config(doc)


def echo_config(cfg: ExperimentConfig) -> str:
    """Re-serialize the parsed config; round-trips losslessly through YAML."""
    return yaml.safe_dump(cfg.raw, sort_keys=True)
