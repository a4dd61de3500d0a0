"""The benchmark's workloads: experiment configs generated from a seed, plus
what the benchmark computes about them from their shapes alone (model steps,
expected call counts of the hot layers) and the paper invariants checked on
their outputs.

Every workload keeps its shapes fixed and moves only the seeds with the
benchmark seed, so runs at different seeds do the same amount of work. At
benchmark seed 0 every config seed equals the one shipped in ``configs/``.
The configs are copied here rather than read from ``configs/`` so that
editing a shipped example cannot change what the benchmark measures.
"""

from __future__ import annotations

import copy
import math

# metrics.removal_curve averages the random removal order over this many seeds.
REMOVAL_RANDOM_SEEDS = 5

# The noisy-label experiment of configs/noisy_label.yaml (400 per-sample
# parties, 10 features plus bias, 200 logistic test rows, Banzhaf; no_dp, iid
# and corr_y at q=0.9), with k and trials cut so one run takes a few seconds.
NOISY_LABEL = {
    "experiment": "noisy-label",
    "seed": 0,
    "k": 20,
    "trials": 2,
    "dataset": {"source": "synth", "n_samples": 400, "n_test": 200, "d_feat": 10,
                "separation": 5.0, "corrupt_ratio": 0.3},
    "model": {"loss": "logistic_l2", "learning_rate": 0.01, "l2": 0.01},
    "utility": "neg_test_loss",
    "noise": {"clip_norm": 1.0, "epsilon": 6.0, "delta": 5.0e-5, "mode": "corr_y", "q": 0.9},
    "semivalue": {"kind": "banzhaf"},
    "noisy_label": {"modes": ["no_dp", "iid", "corr_y"], "q": 0.9},
}
# The same shape run once as a plain valuation (corr_y), whose result.json
# carries psi itself at 17 digits; AUC alone would hide small changes to psi.
NOISY_LABEL_PSI = {key: value for key, value in NOISY_LABEL.items()
                   if key not in ("trials", "noisy_label")}
NOISY_LABEL_PSI["experiment"] = "valuation"

# configs/variance_probe.yaml at its shipped size, which is also the shape of
# acceptance criteria 02 and 03.
VARIANCE_PROBE = {
    "experiment": "variance-probe",
    "seed": 9,
    "k": 50,
    "dataset": {"source": "synth", "n_samples": 60, "n_test": 64, "d_feat": 6,
                "separation": 3.0, "partition": {"mode": "equal-chunks", "n_parties": 6}},
    "model": {"loss": "mse_linear", "learning_rate": 0.05, "l2": 0},
    "utility": "neg_test_loss",
    "noise": {"clip_norm": 1.0, "epsilon": 1.0, "delta": 5.0e-5, "mode": "iid"},
    "probe": {"ks": [50, 100, 200, 400, 800], "noise_trials": 500,
              "modes": ["iid", "corr_x", "corr_y"], "q": 0.5},
}

# The remaining shipped configs, unchanged. similarity is the shape of
# acceptance criterion 08.
SIMILARITY = {
    "experiment": "similarity",
    "seed": 100,
    "k": 200,
    "trials": 5,
    "dataset": {"source": "synth", "n_samples": 40, "n_test": 60, "d_feat": 8,
                "separation": 3.0},
    "model": {"loss": "logistic_l2", "learning_rate": 0.05, "l2": 0.01},
    "utility": "neg_test_loss",
    "noise": {"clip_norm": 1.0, "epsilon": 4.0, "mode": "corr_x"},
    "similarity": {"ks": [100, 200]},
}
FEDERATED = {
    "experiment": "federated",
    "seed": 3,
    "k": 10,
    "dataset": {"source": "synth", "n_samples": 60, "n_test": 100, "d_feat": 6,
                "separation": 4.0, "partition": {"mode": "equal-chunks", "n_parties": 6}},
    "model": {"loss": "logistic_l2", "learning_rate": 0.2, "l2": 0.01},
    "utility": "test_accuracy",
    "noise": {"clip_norm": 1.0, "epsilon": 6.0, "mode": "fl_schedule"},
    "federated": {"rounds": 10, "permutations": 100, "q": 0.2},
}
REMOVAL = {
    "experiment": "removal",
    "seed": 7,
    "k": 150,
    "dataset": {"source": "synth", "n_samples": 120, "n_test": 150, "d_feat": 8,
                "separation": 4.0, "partition": {"mode": "equal-chunks", "n_parties": 30}},
    "model": {"loss": "logistic_l2", "learning_rate": 0.05, "l2": 0.01},
    "utility": "test_accuracy",
    "noise": {"clip_norm": 1.0, "sigma": 0.0, "mode": "iid"},
    "removal": {"fractions": [0.0, 0.1, 0.2, 0.3, 0.4],
                "orders": ["highest-first", "lowest-first", "random"]},
}
ORACLE_CHECK = {
    "experiment": "oracle-check",
    "seed": 5,
    "k": 1,
    "noise": {"sigma": 0.0},
    "oracle": {"n": 4, "kinds": ["shapley", "banzhaf", "beta"], "tolerance": 1.0e-10},
}

WORKLOADS = {
    "noisy-label": {"noisy_label": NOISY_LABEL, "valuation": NOISY_LABEL_PSI},
    "variance-probe": {"variance_probe": VARIANCE_PROBE},
    "diagnostics": {"similarity": SIMILARITY, "federated": FEDERATED,
                    "removal": REMOVAL, "oracle_check": ORACLE_CHECK},
}


def configs(workload: str, seed: int) -> dict[str, dict]:
    """The workload's configs for one benchmark seed, keyed by config name."""
    out = {}
    for name, base in WORKLOADS[workload].items():
        cfg = copy.deepcopy(base)
        cfg["seed"] = base["seed"] + seed
        out[name] = cfg
    return out


def _n_parties(cfg: dict) -> int:
    ds = cfg["dataset"]
    part = ds.get("partition")
    return part["n_parties"] if part else ds["n_samples"]


def _chains(cfg: dict) -> list[int]:
    """Budgets k of every permutation chain the config runs."""
    kind = cfg["experiment"]
    if kind == "noisy-label":
        return [cfg["k"]] * cfg["trials"] * len(cfg["noisy_label"]["modes"])
    if kind == "variance-probe":
        return list(cfg["probe"]["ks"]) * len(cfg["probe"]["modes"])
    if kind == "similarity":
        return [k for k in cfg["similarity"]["ks"] for _ in range(cfg["trials"])]
    if kind in ("valuation", "removal"):
        return [cfg["k"]]
    return []


def _probe_replays(cfg: dict) -> list[int]:
    """Retained iterations k - k*q of every noise replay of the probe."""
    probe = cfg["probe"]
    return [
        k - (int(round(k * probe["q"])) if mode == "corr_y" else 0)
        for mode in probe["modes"] for k in probe["ks"]
    ]


def steps(cfg: dict) -> int:
    """Model steps (one update then one utility evaluation) the config runs.

    A chain takes k*n steps, a probe noise replay trials*(k - k*q)*n and
    federated attribution rounds*permutations*n. The removal retraining and
    the oracle check evaluate the utility once per model, not per step, and
    count nothing.
    """
    kind = cfg["experiment"]
    if kind == "oracle-check":
        return 0
    n = _n_parties(cfg)
    total = sum(k * n for k in _chains(cfg))
    if kind == "variance-probe":
        total += sum(cfg["probe"]["noise_trials"] * kk * n for kk in _probe_replays(cfg))
    if kind == "federated":
        fed = cfg["federated"]
        total += fed["rounds"] * fed["permutations"] * n
    return total


def expected_calls(cfg: dict) -> dict[str, int]:
    """Calls of the hot layer functions, counted from the config's shapes."""
    kind = cfg["experiment"]
    calls = {"kernels.utility_np": 0, "kernels.party_grad_np": 0, "metrics.utility_rows": 0}
    if kind == "oracle-check":
        return calls
    n = _n_parties(cfg)
    for k in _chains(cfg):
        calls["kernels.utility_np"] += k * (n + 1)
        calls["kernels.party_grad_np"] += k * n
    if kind == "variance-probe":
        calls["metrics.utility_rows"] += sum(kk * n for kk in _probe_replays(cfg))
    elif kind == "federated":
        fed = cfg["federated"]
        calls["kernels.utility_np"] += fed["rounds"] * fed["permutations"] * (n + 1)
        calls["kernels.party_grad_np"] += fed["rounds"] * n
    elif kind == "removal":
        fractions = cfg["removal"]["fractions"]
        kept = sum(n - int(f * n) for f in fractions)
        curves = sum(REMOVAL_RANDOM_SEEDS if o == "random" else 1 for o in cfg["removal"]["orders"])
        calls["kernels.utility_np"] += curves * len(fractions)
        calls["kernels.party_grad_np"] += curves * kept
    return calls


def invariant_failures(cfg: dict, doc: dict) -> list[str]:
    """Paper invariants of the acceptance test run at this config's shape.

    Bounds are those of tests/test_acceptance.py, unchanged. The noisy-label
    workload runs far below criterion 07's k=500, so only its AUC range is
    checked there.
    """
    kind = cfg["experiment"]
    bad = []
    if kind == "variance-probe":
        p = doc["probes"]
        if not 0.8 <= p["iid"]["slope"] <= 1.2:
            bad.append(f"iid slope {p['iid']['slope']:.4f} outside [0.8, 1.2]")
        if not p["corr_x"]["slope"] <= 0.35:
            bad.append(f"corr_x slope {p['corr_x']['slope']:.4f} above 0.35")
        if not -0.2 <= p["corr_y"]["slope"] <= 0.2:
            bad.append(f"corr_y slope {p['corr_y']['slope']:.4f} outside [-0.2, 0.2]")
        if not p["corr_y"]["variances"][-1] < p["iid"]["variances"][0]:
            bad.append("corr_y variance at the largest k is not below iid at the smallest k")
    elif kind == "similarity":
        # Criterion 08's signs. Its third claim, |delta_cos| growing from
        # k=100 to k=200, holds at the test's permutation seeds but not under
        # the CLI, which seeds permutations with the data seed.
        for k, r in doc["results"].items():
            if not math.fsum(r["delta_cos"]) > 0.0:
                bad.append(f"mean delta_cos at k={k} not positive")
            if not math.fsum(r["delta_l2"]) < 0.0:
                bad.append(f"mean delta_l2 at k={k} not negative")
    elif kind == "oracle-check":
        if doc["pass"] is not True:
            bad.append("oracle check did not pass")
    elif kind == "noisy-label":
        for mode, values in doc["auc"].items():
            if not all(0.0 <= v <= 1.0 for v in values):
                bad.append(f"{mode} AUC outside [0, 1]")
    return bad
