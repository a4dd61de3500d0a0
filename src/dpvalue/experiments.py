"""Experiment drivers behind the CLI: each kind takes its runs from the
config (``ExperimentConfig.run``), runs the engine, and returns a result
document plus its tables, each the text of one CSV file by name
(``summary.csv`` and any per-sample table)."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import replace
from typing import TYPE_CHECKING

import numpy as np

from . import metrics
from .valuation import (coalitions, exact_semivalue, permutation_expectation, run_federated,
                        run_valuation)

if TYPE_CHECKING:
    from .config import ExperimentConfig
    from .data import PartitionedDataset


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def _csv(rows) -> str:
    """A table's text as ``csv.writer`` writes its rows, one line each."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _exact(field: str, values) -> list[str]:
    """A per-party result as round-trip strings. JSON's ``allow_nan=False``
    does not look inside a string, so a value that is not finite is refused
    here, naming its field and party."""
    for party, v in enumerate(values):
        if not math.isfinite(v):
            raise ValueError(f"{field} of party {party} is {v}, which the result cannot hold: "
                             "the run's values overflowed; lower model.l2 or model.learning_rate")
    return [format(v, ".17g") for v in values]


def _sample_lines(mode: str, k: int, draws) -> str:
    """probe_samples.csv's lines ``mode,k,trial,party,psi`` of one mode and
    budget, for each party's row of trials in ``draws``: one join of
    f-strings per party, the bytes ``csv.writer`` writes for the same fields,
    none of which needs quoting. Python floats format like ``_fmt``."""
    head = f"{mode},{k},"
    return "".join(["".join([f"{head}{trial},{party},{psi:.6g}\n"
                             for trial, psi in enumerate(row)])
                    for party, row in enumerate(draws.tolist())])


def run_valuation_experiment(cfg: ExperimentConfig):
    res = run_valuation(cfg.run(cfg.seed))
    rows = [["party", "psi", "mu", "s_sq", "mean_adjusted"]]
    for j in range(res.n_parties):
        mav = res.mean_adjusted_var[j]
        rows.append(
            [str(j), _fmt(res.psi[j]), _fmt(res.mu[j]), _fmt(res.s_sq[j]),
             "" if np.isnan(mav) else _fmt(mav)]
        )
    doc = {
        "kind": "valuation",
        "psi": _exact("psi", res.psi),
        "mu": _exact("mu", res.mu),
        "s_sq": _exact("s_sq", res.s_sq),
        "permutations_used": cfg.noise.budget,
        "burn_in_dropped": cfg.noise.burn_in,
    }
    return doc, {"summary.csv": _csv(rows)}


def run_noisy_label_experiment(cfg: ExperimentConfig):
    rows = [["mode", "seed", "auc"]]
    aucs: dict[str, list[float]] = {}
    for seed_idx in range(cfg.trials):
        seed = cfg.seed + seed_idx
        base = cfg.run(seed)
        mask = _party_mask(base.dataset)
        corrupted = int(mask.sum())
        if not 0 < corrupted < len(mask):  # the draw decides it, so no parse can check it
            raise ValueError(
                f"seed {seed} has {corrupted} corrupted parties of {len(mask)}, and the AUC needs "
                "a corrupted and a clean one: change dataset.corrupt_ratio or dataset.partition")
        for label, noise in cfg.plan:
            res = run_valuation(replace(base, noise=noise))
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
    return doc, {"summary.csv": _csv(rows)}


def _party_mask(ds: PartitionedDataset) -> np.ndarray:
    """Party-level corruption flag: any corrupted member marks the party."""
    return np.logical_or.reduceat(ds.corruption_mask, ds.ptr[:-1])


def run_removal_experiment(cfg: ExperimentConfig):
    res = run_valuation(cfg.run(cfg.seed))
    rows = [["order", "fraction", "score", "stderr"]]
    tidy = [["order", "fraction", "seed", "score"]]
    curves = metrics.removal_curve(res.psi, cfg.model, res.task, cfg.plan)
    for order, curve in curves.items():
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
    return doc, {"summary.csv": _csv(rows), "removal_samples.csv": _csv(tidy)}


def run_variance_probe_experiment(cfg: ExperimentConfig):
    base = cfg.run(cfg.seed)
    rows = [["mode", "k", "variance", "slope"]]
    samples = ["mode,k,trial,party,psi\n"]
    out = {}
    for mode, probe in metrics.variance_scaling_probe(cfg.plan, base, cfg.seed).items():
        out[mode] = {"ks": list(probe.ks), "variances": list(probe.variances), "slope": probe.slope}
        for k, v in zip(probe.ks, probe.variances):
            rows.append([mode, str(k), _fmt(v), ""])
        rows.append([mode, "slope", _fmt(probe.slope), ""])
        samples.extend(_sample_lines(mode, k, draws) for k, draws in probe.samples.items())
    return ({"kind": "variance-probe", "probes": out},
            {"summary.csv": _csv(rows), "probe_samples.csv": "".join(samples)})


def run_similarity_experiment(cfg: ExperimentConfig):
    rows = [["k", "seed", "delta_cos", "delta_l2"]]
    out = {}
    bases = [cfg.run(cfg.seed + seed_idx) for seed_idx in range(cfg.trials)]  # built once a seed
    for noise in cfg.plan:
        k = noise.budget
        per_seed = []
        for base in bases:
            res = run_valuation(replace(base, noise=noise, record_gradients=True))
            rep = metrics.grad_similarity(res.g_hat, res.g_tilde, res.g_star)
            per_seed.append((rep.delta_cos, rep.delta_l2))
            rows.append([str(k), str(base.master_seed), _fmt(rep.delta_cos), _fmt(rep.delta_l2)])
        arr = np.array(per_seed)
        out[str(k)] = {"delta_cos": arr[:, 0].tolist(), "delta_l2": arr[:, 1].tolist()}
    return {"kind": "similarity", "results": out}, {"summary.csv": _csv(rows)}


def run_federated_experiment(cfg: ExperimentConfig):
    psi = run_federated(cfg.run(cfg.seed), cfg.plan)
    rows = [["party", "psi"]] + [[str(j), _fmt(v)] for j, v in enumerate(psi)]
    return ({"kind": "federated", "psi": _exact("psi", psi)},
            {"summary.csv": _csv(rows)})


def run_oracle_check_experiment(cfg: ExperimentConfig):
    n, tol = cfg.plan.n, cfg.plan.tolerance
    rng = np.random.default_rng(cfg.seed)
    # one game value per coalition, keyed by its sorted members as both oracles ask
    v = dict(zip(coalitions(n), rng.standard_normal(1 << n).tolist())).__getitem__
    rows = [["kind", "max_abs_diff", "pass"]]
    worst = 0.0
    for spec in cfg.plan.semivalues:
        diff = float(np.max(np.abs(exact_semivalue(v, spec, n)
                                   - permutation_expectation(v, spec, n))))
        worst = max(worst, diff)
        rows.append([spec.kind, format(diff, ".3e"), str(diff < tol)])
    ok = worst < tol
    doc = {"kind": "oracle-check", "max_abs_diff": worst, "pass": bool(ok)}
    if not ok:
        raise RuntimeError(f"oracle check failed: max |diff| = {worst:.3e} >= {tol}")
    return doc, {"summary.csv": _csv(rows)}


RUNNERS = {
    "valuation": run_valuation_experiment,
    "noisy-label": run_noisy_label_experiment,
    "removal": run_removal_experiment,
    "variance-probe": run_variance_probe_experiment,
    "similarity": run_similarity_experiment,
    "federated": run_federated_experiment,
    "oracle-check": run_oracle_check_experiment,
}
