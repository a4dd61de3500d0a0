import contextlib
import copy
import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from dpvalue import _kernels, data, dp, models
from dpvalue.valuation import RunConfig, SemivalueSpec, prepare

MECHANISMS = {  # corr_x_aware and fl_schedule have diagonals that are not prefix means
    "iid": {"mode": "iid"},
    "corr_x": {"mode": "corr_x"},
    "corr_y": {"mode": "corr_y", "q": 0.25},
    "corr_x_aware": {"mode": "corr_x", "sigma_g_sq": 0.7},
    "fl_schedule": {"mode": "fl_schedule"},
}


SMALL = {"source": "synth", "n_samples": 24, "n_test": 30, "d_feat": 4, "n_classes": 2,
         "separation": 3.0}
LOGISTIC = {"loss": "logistic_l2", "learning_rate": 0.05, "l2": 0.01}
# One small valid config per kind (``kind_doc`` copies one); each sets every field that
# perfbench/workloads.expected_calls reads, so the traced call-count gate can run it.
KIND_DOCS = {
    "valuation": {
        "experiment": "valuation", "seed": 3, "k": 12, "dataset": SMALL, "model": LOGISTIC,
        "noise": {"clip_norm": 1.0, "epsilon": 1.0, "mode": "corr_x"},
        "utility": "neg_test_loss", "semivalue": {"kind": "shapley"}},
    "noisy-label": {
        "experiment": "noisy-label", "seed": 3, "k": 20, "trials": 2,
        "dataset": dict(SMALL, corrupt_ratio=0.3), "model": LOGISTIC,
        "noise": {"clip_norm": 1.0, "sigma": 1.0, "mode": "iid"},
        "noisy_label": {"modes": ["no_dp", "iid", "corr_y"], "q": 0.5}},
    "removal": {
        "experiment": "removal", "seed": 3, "k": 12, "dataset": SMALL, "model": LOGISTIC,
        "utility": "test_accuracy", "noise": {"clip_norm": 1.0, "sigma": 0.0, "mode": "iid"},
        "removal": {"fractions": [0.0, 0.25, 0.5], "orders": ["highest-first", "random"]}},
    "similarity": {
        "experiment": "similarity", "seed": 3, "trials": 2, "dataset": SMALL, "model": LOGISTIC,
        "noise": {"clip_norm": 1.0, "sigma": 1.0, "mode": "corr_x"},
        "similarity": {"ks": [10, 20]}},
    "federated": {
        "experiment": "federated", "seed": 3,
        "dataset": dict(SMALL, partition={"mode": "equal-chunks", "n_parties": 4}),
        "model": LOGISTIC, "utility": "test_accuracy",
        "noise": {"clip_norm": 1.0, "sigma": 1.0, "mode": "fl_schedule"},
        "federated": {"rounds": 10, "permutations": 5, "q": 0.2}},
    "oracle-check": {
        "experiment": "oracle-check", "k": 1, "noise": {"sigma": 0.0}, "oracle": {"n": 4}},
    "variance-probe": {
        "experiment": "variance-probe", "seed": 1, "k": 5,
        "dataset": {"source": "synth", "n_samples": 12, "n_test": 16, "d_feat": 3,
                    "partition": {"mode": "equal-chunks", "n_parties": 3}},
        "model": {"loss": "mse_linear", "learning_rate": 0.05, "l2": 0},
        "noise": {"clip_norm": 1.0, "sigma": 1.0, "mode": "iid"},
        "probe": {"ks": [10, 20, 40], "noise_trials": 100, "modes": ["iid"]}},
}
# the kinds whose hot layers perfbench/workloads.py counts; where one differs from its
# KIND_DOCS entry, the comment says why
TRACED_CONFIGS = {kind: KIND_DOCS[kind] for kind in KIND_DOCS if kind != "oracle-check"} | {
    # the extremes sweep pushes noise.sigma, which the valuation doc's epsilon leaves unset
    "valuation": dict(KIND_DOCS["valuation"],
                      noise={"clip_norm": 1.0, "sigma": 1.0, "mode": "corr_y", "q": 0.5}),
    # the gate counts every mode's replays; the CLI's probe rows set modes that read no probe.q
    "variance-probe": dict(KIND_DOCS["variance-probe"], probe={
        "ks": [10, 20, 40], "noise_trials": 100, "modes": ["iid", "corr_x", "corr_y"], "q": 0.5}),
}


def kind_doc(outdir, kind):
    """A copy of the kind's small config, writing to ``outdir``."""
    return dict(copy.deepcopy(KIND_DOCS[kind]), output_dir=str(outdir))


@pytest.fixture
def small_task():
    """Well-separated 2-class blobs with per-sample parties."""
    ds = data.synth_classification(40, 6, 2, seed=11, separation=4.0, n_test=60)
    mspec = models.ModelSpec("logistic_l2", 0.05, models.InitSpec("zeros"), l2=0.01)
    uspec = "neg_test_loss"
    return ds, mspec, uspec


def orthogonal_chain_task(n: int, lr: float, seed: int = 0):
    """One-sample-per-party diagonal design: party j only moves coordinate j,
    so the one-step-per-party chain commutes and defines a true set function."""
    rng = np.random.default_rng(seed)
    scales = rng.uniform(0.5, 2.0, n)
    x = np.diag(scales)
    y = rng.uniform(-1.0, 1.0, n)
    xt = rng.standard_normal((15, n))
    yt = rng.standard_normal(15)
    ds = data.PartitionedDataset(
        x, y, np.arange(n + 1, dtype=np.int64), xt, yt, task="regression"
    )
    mspec = models.ModelSpec("mse_linear", lr, models.InitSpec("zeros"), add_bias=False)
    uspec = "neg_test_loss"

    def set_value(subset, clip=1.0):
        theta = np.zeros(n)
        for j in subset:
            g = 2.0 * scales[j] * (theta[j] * scales[j] - y[j])
            if abs(g) > clip:
                g = clip * np.sign(g)
            theta[j] -= lr * g
        e = xt @ theta - yt
        return -np.mean(e * e)

    return ds, mspec, uspec, set_value


def batch_task(loss, utility, lam, x, y):
    """A Task whose one party and whose test split are both the batch (x, y):
    ``party_grad_np`` of its party 0 is the gradient of ``-utility_np``."""
    ptr = np.array([0, len(y)])
    return _kernels.Task(x, y, ptr, x, y, loss, utility, 0.1, lam)


@contextlib.contextmanager
def row_formula():
    """Tasks built in the block derive no MSE gradient statistics, so every
    party's ``party_grad_np`` takes the row formula."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_kernels, "grad_stats", lambda x, y, ptr, loss: (None,) * (len(ptr) - 1))
        yield


def dataset_task(ds, mspec, uspec):
    """The prepared Task of a noiseless run on ``ds``."""
    return prepare(RunConfig(ds, mspec, uspec, dp.NoiseConfig(1.0, 0.0, budget=2),
                             SemivalueSpec("shapley"), master_seed=0))


def _install_filters(filters):
    """A worker's warning filters: exactly the caller's, in the caller's order."""
    warnings.resetwarnings()
    for action, message, category, module, lineno in reversed(filters):
        # a filter holds its patterns compiled, a default filter as plain text, or None
        warnings.filterwarnings(action, getattr(message, "pattern", message) or "", category,
                                getattr(module, "pattern", module) or "", lineno)


def map_runs(fn, items):
    """``[fn(item) for item in items]``, in that order, with the calls spread
    over ``os.cpu_count()`` fresh worker processes. Each worker starts with the
    warning filters of the calling test, so a warning that fails the suite
    fails the run in a worker too. ``fn`` and the items are pickled, so ``fn``
    must be importable, such as ``run_valuation``."""
    items = list(items)
    with ProcessPoolExecutor(max_workers=min(os.cpu_count() or 1, len(items)),
                             mp_context=multiprocessing.get_context("spawn"),
                             initializer=_install_filters,
                             initargs=(list(warnings.filters),)) as pool:
        return list(pool.map(fn, items))
