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
    ``party_grad_np`` over rows 0:len(y) is the gradient of ``-utility_np``."""
    ptr = np.array([0, len(y)])
    return _kernels.Task(x, y, ptr, x, y, loss, utility, 0.1, lam,
                         _kernels.grad_stats(x, y, ptr, loss))


def dataset_task(ds, mspec, uspec):
    """The prepared Task of a noiseless run on ``ds``."""
    return prepare(RunConfig(ds, mspec, uspec, dp.NoiseConfig(1.0, 0.0, budget=2),
                             SemivalueSpec("shapley"), master_seed=0))
