"""Experiment drivers behind the CLI: each kind builds its datasets, runs the
engine, and returns a result document plus summary rows for the CSV."""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from . import data as data_mod
from . import _kernels, metrics, models
from .dp import NoiseConfig
from .valuation import (
    RunConfig,
    exact_semivalue,
    permutation_expectation,
    run_federated,
    run_valuation,
)

if TYPE_CHECKING:
    from .config import ExperimentConfig

CORRUPT_SEED_OFFSET = 1000  # keeps a trial's corruption draws apart from its synth draws


def build_dataset(cfg: ExperimentConfig, seed: int) -> data_mod.PartitionedDataset:
    d = cfg.dataset
    if d.synth is None:
        ds = d.loaded
    else:
        ds = data_mod.synth_classification(seed=seed, **d.synth)
    if d.corrupt_ratio > 0:
        ds = data_mod.corrupt_labels(ds, d.corrupt_ratio, seed + CORRUPT_SEED_OFFSET)
    if d.partition_mode != "per-sample":
        ds = data_mod.partition(ds, d.n_parties, d.partition_mode, size=d.party_size)
    return ds


def build_run(cfg: ExperimentConfig, ds, seed: int, noise: NoiseConfig | None = None, **kw) -> RunConfig:
    """The run of ``noise`` (the config's own mechanism by default) on ``ds``."""
    return RunConfig(
        dataset=ds,
        model=cfg.model,
        utility=cfg.utility,
        noise=noise or cfg.noise,
        semivalue=cfg.semivalue,
        master_seed=seed,
        **kw,
    )


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def run_valuation_experiment(cfg: ExperimentConfig):
    ds = build_dataset(cfg, cfg.seed)
    run = build_run(cfg, ds, cfg.seed)
    res = run_valuation(run)
    rows = [["party", "psi", "mu", "s_sq", "mean_adjusted"]]
    for j in range(res.n_parties):
        mav = res.mean_adjusted_var[j]
        rows.append(
            [str(j), _fmt(res.psi[j]), _fmt(res.mu[j]), _fmt(res.s_sq[j]),
             "" if np.isnan(mav) else _fmt(mav)]
        )
    doc = {
        "kind": "valuation",
        "psi": [format(v, ".17g") for v in res.psi],
        "mu": [format(v, ".17g") for v in res.mu],
        "s_sq": [format(v, ".17g") for v in res.s_sq],
        "permutations_used": run.noise.budget,
        "burn_in_dropped": run.noise.burn_in,
    }
    return doc, rows, {}


def run_noisy_label_experiment(cfg: ExperimentConfig):
    rows = [["mode", "seed", "auc"]]
    aucs: dict[str, list[float]] = {}
    for seed_idx in range(cfg.trials):
        seed = cfg.seed + seed_idx
        ds = build_dataset(cfg, seed)
        mask = _party_mask(ds)
        for label, noise in cfg.plan:
            res = run_valuation(build_run(cfg, ds, seed, noise))
            auc = metrics.auc_roc(-res.psi, mask)
            aucs.setdefault(label, []).append(auc)
            rows.append([label, str(seed), _fmt(auc)])
    summary = {}
    for mode, vals in aucs.items():
        arr = np.array(vals)
        stderr = arr.std(ddof=1) / np.sqrt(len(arr)) if len(arr) > 1 else 0.0
        summary[mode] = {"mean": arr.mean(), "stderr": stderr}
        rows.append([f"{mode}:mean/stderr", _fmt(arr.mean()), _fmt(stderr)])
    doc = {
        "kind": "noisy-label",
        "auc": {m: [float(v) for v in vals] for m, vals in aucs.items()},
        "summary": {m: {k2: float(v2) for k2, v2 in s.items()} for m, s in summary.items()},
    }
    return doc, rows, {}


def _party_mask(ds: data_mod.PartitionedDataset) -> np.ndarray:
    """Party-level corruption flag: any corrupted member marks the party."""
    return np.bincount(ds.party_of, weights=ds.corruption_mask, minlength=ds.n_parties) > 0


def run_removal_experiment(cfg: ExperimentConfig):
    ds = build_dataset(cfg, cfg.seed)
    run = build_run(cfg, ds, cfg.seed)
    res = run_valuation(run)
    task = res.task

    def trainer(keep: np.ndarray, seed: int) -> float:
        return _kernels.utility_np(models.train_one_pass(run.model, task, keep, seed), task)

    rows = [["order", "fraction", "score", "stderr"]]
    tidy = [["order", "fraction", "seed", "score"]]
    curves = {}
    for order in cfg.plan.orders:
        curve = metrics.removal_curve(res.psi, ds.n_parties, trainer, order, cfg.plan.fractions)
        curves[order] = curve
        for i, f in enumerate(curve.fractions):
            se = _fmt(curve.stderr[i]) if curve.stderr else ""
            rows.append([order, _fmt(f), _fmt(curve.scores[i]), se])
        for seed, row in enumerate(curve.per_seed):
            for f, score in zip(curve.fractions, row):
                tidy.append([order, _fmt(f), str(seed), _fmt(score)])
    doc = {
        "kind": "removal",
        "curves": {
            order: {
                "fractions": list(c.fractions),
                "scores": list(c.scores),
                "stderr": list(c.stderr) if c.stderr else None,
            }
            for order, c in curves.items()
        },
    }
    return doc, rows, {"removal_samples.csv": tidy}


def run_variance_probe_experiment(cfg: ExperimentConfig):
    ks, trials, modes, q = cfg.plan.ks, cfg.plan.noise_trials, cfg.plan.modes, cfg.plan.q
    ds = build_dataset(cfg, cfg.seed)
    base = build_run(cfg, ds, cfg.seed)
    rows = [["mode", "k", "variance", "slope"]]
    tidy = [["mode", "k", "trial", "party", "psi"]]
    trial_ids = [str(trial) for trial in range(trials)]
    out = {}
    probes = metrics.variance_scaling_probe(modes, ks, base, trials, seed=cfg.seed, q=q)
    for mode in modes:
        probe = probes[mode]
        out[mode] = {"ks": list(probe.ks), "variances": list(probe.variances), "slope": probe.slope}
        for k, v in zip(probe.ks, probe.variances):
            rows.append([mode, str(k), _fmt(v), ""])
        rows.append([mode, "slope", _fmt(probe.slope), ""])
        for k, draws in probe.samples.items():
            for party, row in enumerate(draws.tolist()):  # Python floats format like _fmt
                k_id, party_id = str(k), str(party)
                tidy.extend([mode, k_id, trial, party_id, format(psi, ".6g")]
                            for trial, psi in zip(trial_ids, row))
    return {"kind": "variance-probe", "probes": out}, rows, {"probe_samples.csv": tidy}


def run_similarity_experiment(cfg: ExperimentConfig):
    rows = [["k", "seed", "delta_cos", "delta_l2"]]
    out = {}
    for noise in cfg.plan:
        k = noise.budget
        per_seed = []
        for seed_idx in range(cfg.trials):
            seed = cfg.seed + seed_idx
            ds = build_dataset(cfg, seed)
            run = build_run(cfg, ds, seed, noise, record_gradients=True)
            res = run_valuation(run)
            rep = metrics.grad_similarity(res.g_hat, res.g_tilde, res.g_star)
            per_seed.append((rep.delta_cos, rep.delta_l2))
            rows.append([str(k), str(seed), _fmt(rep.delta_cos), _fmt(rep.delta_l2)])
        arr = np.array(per_seed)
        out[str(k)] = {"delta_cos": arr[:, 0].tolist(), "delta_l2": arr[:, 1].tolist()}
    return {"kind": "similarity", "results": out}, rows, {}


def run_federated_experiment(cfg: ExperimentConfig):
    fed = cfg.plan
    ds = build_dataset(cfg, cfg.seed)
    run = build_run(cfg, ds, cfg.seed, fed.noise)
    psi = run_federated(run, fed.permutations, q=fed.q)
    rows = [["party", "psi"]] + [[str(j), _fmt(v)] for j, v in enumerate(psi)]
    return {"kind": "federated", "psi": [format(v, ".17g") for v in psi]}, rows, {}


def run_oracle_check_experiment(cfg: ExperimentConfig):
    n, tol = cfg.plan.n, cfg.plan.tolerance
    rng = np.random.default_rng(cfg.seed)
    table = {tuple(sorted(s)): float(rng.standard_normal()) for s in _powerset(n)}

    def v(subset):
        return table[tuple(sorted(subset))]

    rows = [["kind", "max_abs_diff", "pass"]]
    worst = 0.0
    for spec in cfg.plan.semivalues:
        diff = float(np.max(np.abs(exact_semivalue(v, spec) - permutation_expectation(v, spec))))
        worst = max(worst, diff)
        rows.append([spec.kind, format(diff, ".3e"), str(diff < tol)])
    ok = worst < tol
    doc = {"kind": "oracle-check", "max_abs_diff": worst, "pass": bool(ok)}
    if not ok:
        raise RuntimeError(f"oracle check failed: max |diff| = {worst:.3e} >= {tol}")
    return doc, rows, {}


def _powerset(n: int):
    for mask in range(1 << n):
        yield tuple(i for i in range(n) if mask >> i & 1)


RUNNERS = {
    "valuation": run_valuation_experiment,
    "noisy-label": run_noisy_label_experiment,
    "removal": run_removal_experiment,
    "variance-probe": run_variance_probe_experiment,
    "similarity": run_similarity_experiment,
    "federated": run_federated_experiment,
    "oracle-check": run_oracle_check_experiment,
}
