"""Experiment drivers behind the CLI: each kind builds its datasets, runs the
engine, and returns a result document plus summary rows for the CSV."""

from __future__ import annotations

import numpy as np

from . import data as data_mod
from . import metrics, models
from .config import ExperimentConfig
from .dp import NoiseConfig
from .valuation import (
    RunConfig,
    SemivalueSpec,
    exact_semivalue,
    permutation_expectation,
    run_federated,
    run_valuation,
)


def build_dataset(cfg: ExperimentConfig, seed: int) -> data_mod.PartitionedDataset:
    d = cfg.dataset
    if d.source == "csv":
        schema = data_mod.CsvSchema(
            label=d.label,
            task=d.task,
            standardize=d.standardize,
            test_rows=d.test_rows,
        )
        ds = data_mod.load_csv(d.path, schema)
    else:
        ds = data_mod.synth_classification(
            d.n_samples, d.d_feat, d.n_classes, seed, d.separation, n_test=d.n_test
        )
    if d.corrupt_ratio > 0:
        ds = data_mod.corrupt_labels(ds, d.corrupt_ratio, seed + d.corrupt_seed_offset)
    if d.partition_mode != "per-sample":
        ds = data_mod.partition(ds, d.n_parties, d.partition_mode, size=d.party_size)
    return ds


def build_model(cfg: ExperimentConfig) -> models.ModelSpec:
    sec = cfg.model
    return models.ModelSpec(
        loss_kind=sec.loss,
        learning_rate=sec.learning_rate,
        init=models.InitSpec(sec.init_kind, sec.init_scale),
        l2=sec.l2,
        add_bias=sec.add_bias,
    )


def build_noise(cfg: ExperimentConfig, k: int, mode: str | None = None, q: float | None = None) -> NoiseConfig:
    sec = cfg.noise
    mode = mode if mode is not None else sec.mode
    sigma = sec.resolve_sigma()
    if mode == "no_dp":
        mode, sigma = "iid", 0.0
    return NoiseConfig(
        clip_norm=sec.clip_norm,
        noise_multiplier=sigma,
        budget=k,
        mode=mode,
        q=q if q is not None else (sec.q if mode == "corr_y" else None),
        sigma_g_sq=sec.sigma_g_sq,
    )


def build_run(cfg: ExperimentConfig, ds, seed: int, mode=None, q=None, k=None, **kw) -> RunConfig:
    k = k if k is not None else cfg.k
    mspec = build_model(cfg)
    uspec = models.UtilitySpec(cfg.utility, ds.test_features, ds.test_labels)
    semi = SemivalueSpec(cfg.semivalue_kind, ds.n_parties, cfg.semivalue_alpha, cfg.semivalue_beta)
    return RunConfig(
        dataset=ds,
        model=mspec,
        utility=uspec,
        noise=build_noise(cfg, k, mode=mode, q=q),
        semivalue=semi,
        k=k,
        master_seed=seed,
        **kw,
    )


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


def run_valuation_experiment(cfg: ExperimentConfig):
    ds = build_dataset(cfg, cfg.seed)
    res = run_valuation(build_run(cfg, ds, cfg.seed))
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
        "permutations_used": res.permutations_used,
        "burn_in_dropped": res.burn_in_dropped,
    }
    return doc, rows, {}


def run_noisy_label_experiment(cfg: ExperimentConfig):
    section = cfg.extra.get("noisy_label", {})
    modes = section.get("modes", ["no_dp", "iid", "corr_y"])
    q = section.get("q", cfg.noise.q)
    q_grid = section.get("q_grid")
    rows = [["mode", "seed", "auc"]]
    aucs: dict[str, list[float]] = {}
    for seed_idx in range(cfg.trials):
        seed = cfg.seed + seed_idx
        ds = build_dataset(cfg, seed)
        if ds.corruption_mask is None or not ds.corruption_mask.any():
            raise ValueError("noisy-label experiment needs dataset.corrupt_ratio > 0")
        mask = _party_mask(ds)
        for mode in modes:
            run_q = q if mode == "corr_y" else None
            res = run_valuation(build_run(cfg, ds, seed, mode=mode, q=run_q))
            auc = metrics.auc_roc(-res.psi, mask)
            aucs.setdefault(mode, []).append(auc)
            rows.append([mode, str(seed), _fmt(auc)])
        if q_grid:
            for qq in q_grid:
                label = f"corr_y(q={qq})" if qq > 0 else "corr_x"
                mode = "corr_y" if qq > 0 else "corr_x"
                res = run_valuation(build_run(cfg, ds, seed, mode=mode, q=qq if qq > 0 else None))
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
    mask = np.zeros(ds.n_parties, dtype=bool)
    for j in range(ds.n_parties):
        members = ds.party_members(j)
        mask[j] = bool(ds.corruption_mask[members].any())
    return mask


def run_removal_experiment(cfg: ExperimentConfig):
    section = cfg.extra.get("removal", {})
    fractions = section.get("fractions", [0.0, 0.1, 0.2, 0.3, 0.4])
    orders = section.get("orders", ["highest-first", "random"])
    ds = build_dataset(cfg, cfg.seed)
    mspec = build_model(cfg)
    uspec = models.UtilitySpec(cfg.utility, ds.test_features, ds.test_labels)
    res = run_valuation(build_run(cfg, ds, cfg.seed))

    def trainer(keep: np.ndarray, seed: int) -> float:
        theta = models.train_one_pass(mspec, ds.features, ds.labels, ds.party_of, keep, seed)
        return models.utility(uspec, mspec, theta)

    rows = [["order", "fraction", "score", "stderr"]]
    tidy = [["order", "fraction", "seed", "score"]]
    curves = {}
    for order in orders:
        curve = metrics.removal_curve(res.psi, ds.n_parties, trainer, order, fractions)
        curves[order] = curve
        for i, f in enumerate(curve.fractions):
            se = curve.stderr[i] if curve.stderr else ""
            rows.append([order, _fmt(f), _fmt(curve.scores[i]), _fmt(se) if se != "" else ""])
        if curve.per_seed is not None:
            for seed, row in enumerate(curve.per_seed):
                for f, score in zip(curve.fractions, row):
                    tidy.append([order, _fmt(f), str(seed), _fmt(score)])
        else:
            for f, score in zip(curve.fractions, curve.scores):
                tidy.append([order, _fmt(f), "0", _fmt(score)])
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
    ks, trials, modes, q = cfg.probe.ks, cfg.probe.noise_trials, cfg.probe.modes, cfg.probe.q
    ds = build_dataset(cfg, cfg.seed)
    base = build_run(cfg, ds, cfg.seed)
    rows = [["mode", "k", "variance", "slope"]]
    tidy = [["mode", "k", "trial", "party", "psi"]]
    out = {}
    for mode in modes:
        probe = metrics.variance_scaling_probe(
            mode, ks, base, trials, seed=cfg.seed, q=q, keep_samples=True
        )
        out[mode] = {"ks": list(probe.ks), "variances": list(probe.variances), "slope": probe.slope}
        for k, v in zip(probe.ks, probe.variances):
            rows.append([mode, str(k), _fmt(v), ""])
        rows.append([mode, "slope", _fmt(probe.slope), ""])
        for k, draws in probe.samples.items():
            for party in range(draws.shape[0]):
                for trial in range(draws.shape[1]):
                    tidy.append([mode, str(k), str(trial), str(party), _fmt(draws[party, trial])])
    return {"kind": "variance-probe", "probes": out}, rows, {"probe_samples.csv": tidy}


def run_similarity_experiment(cfg: ExperimentConfig):
    section = cfg.extra.get("similarity", {})
    ks = section.get("ks", [100, 200])
    rows = [["k", "seed", "delta_cos", "delta_l2"]]
    out = {}
    for k in ks:
        per_seed = []
        for seed_idx in range(cfg.trials):
            seed = cfg.seed + seed_idx
            ds = build_dataset(cfg, seed)
            run = build_run(cfg, ds, seed, mode="corr_x", k=k, record_gradients=True)
            res = run_valuation(run)
            rep = metrics.grad_similarity(
                res.gradients["g_hat"], res.gradients["g_tilde"], res.gradients["g_star"]
            )
            per_seed.append((rep.delta_cos, rep.delta_l2))
            rows.append([str(k), str(seed), _fmt(rep.delta_cos), _fmt(rep.delta_l2)])
        arr = np.array(per_seed)
        out[str(k)] = {"delta_cos": arr[:, 0].tolist(), "delta_l2": arr[:, 1].tolist()}
    return {"kind": "similarity", "results": out}, rows, {}


def run_federated_experiment(cfg: ExperimentConfig):
    section = cfg.extra.get("federated", {})
    rounds = section.get("rounds", 10)
    perms = section.get("permutations", 100)
    q = section.get("q", 0.2)
    ds = build_dataset(cfg, cfg.seed)
    run = build_run(cfg, ds, cfg.seed, mode="fl_schedule", k=rounds)
    psi = run_federated(run, rounds, perms, q=q)
    rows = [["party", "psi"]] + [[str(j), _fmt(v)] for j, v in enumerate(psi)]
    return {"kind": "federated", "psi": [format(v, ".17g") for v in psi]}, rows, {}


def run_oracle_check_experiment(cfg: ExperimentConfig):
    section = cfg.extra.get("oracle", {})
    n = section.get("n", 4)
    kinds = section.get("kinds", ["shapley", "banzhaf"])
    tol = section.get("tolerance", 1e-10)
    rng = np.random.default_rng(cfg.seed)
    table = {tuple(sorted(s)): float(rng.standard_normal()) for s in _powerset(n)}

    def v(subset):
        return table[tuple(sorted(subset))]

    rows = [["kind", "max_abs_diff", "pass"]]
    worst = 0.0
    for kind in kinds:
        spec = SemivalueSpec(kind, n, 4.0, 1.0)
        diff = float(np.max(np.abs(exact_semivalue(v, spec) - permutation_expectation(v, spec))))
        worst = max(worst, diff)
        rows.append([kind, format(diff, ".3e"), str(diff < tol)])
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
