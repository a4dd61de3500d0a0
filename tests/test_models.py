from dataclasses import replace

import numpy as np
import pytest

from conftest import batch_task, dataset_task, row_formula
from dpvalue import _kernels, data, models


MSE, LOGISTIC = "mse_linear", "logistic_l2"
NEG_LOSS, ACCURACY = "neg_test_loss", "test_accuracy"


def batch_grad(loss, lam, theta, x, y):
    """The row formula's gradient over the batch (x, y)."""
    with row_formula():
        task = batch_task(loss, NEG_LOSS, lam, x, y)
    return _kernels.party_grad_np(theta, task, 0)


def finite_diff_grad(loss, lam, theta, x, y, step=1e-5):
    """Central differences of the batch loss ``-utility_np``."""
    task = batch_task(loss, NEG_LOSS, lam, x, y)
    g = np.zeros_like(theta)
    for i in range(len(theta)):
        up = theta.copy()
        dn = theta.copy()
        up[i] += step
        dn[i] -= step
        g[i] = (_kernels.utility_np(dn, task) - _kernels.utility_np(up, task)) / (2 * step)
    return g


def test_mse_grad_zero_residual():
    x = np.array([[1.0, 2.0, -1.0]])
    g = batch_grad(MSE, 0.0, np.zeros(3), x, np.array([0.0]))
    assert np.allclose(g, 0.0)


def test_logistic_grad_at_origin():
    x = np.array([[0.5, -1.5]])
    g = batch_grad(LOGISTIC, 1e-12, np.zeros(2), x, np.array([1.0]))
    assert np.allclose(g, -x[0] / 2.0, atol=1e-10)


@pytest.mark.parametrize("loss", [MSE, LOGISTIC])
def test_grad_matches_finite_differences(loss):
    rng = np.random.default_rng(17)
    lam = 0.05 if loss == LOGISTIC else 0.0
    for _ in range(20):
        d = rng.integers(2, 6)
        b = rng.integers(1, 8)
        x = rng.standard_normal((b, d))
        if loss == LOGISTIC:
            y = rng.integers(0, 2, b).astype(np.float64)
        else:
            y = rng.standard_normal(b)
        theta = rng.standard_normal(d)
        g = batch_grad(loss, lam, theta, x, y)
        fd = finite_diff_grad(loss, lam, theta, x, y)
        assert np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-6


def test_mse_utility_nonpositive_and_perfect_fit():
    xt = np.array([[1.0, 0.0], [0.0, 1.0]])
    perfect = batch_task(MSE, NEG_LOSS, 0.0, xt, np.zeros(2))
    assert _kernels.utility_np(np.zeros(2), perfect) == 0.0
    rng = np.random.default_rng(1)
    task = batch_task(MSE, NEG_LOSS, 0.0, rng.standard_normal((30, 2)), rng.standard_normal(30))
    for _ in range(10):
        assert _kernels.utility_np(rng.standard_normal(2), task) <= 0.0


def test_logistic_regularizer_lowers_utility():
    xt = np.array([[1.0, -1.0], [0.5, 2.0]])
    yt = np.array([1.0, 0.0])
    theta = np.array([0.3, -0.7])
    low = batch_task(LOGISTIC, NEG_LOSS, 1e-12, xt, yt)
    high = batch_task(LOGISTIC, NEG_LOSS, 0.5, xt, yt)
    assert _kernels.utility_np(theta, high) < _kernels.utility_np(theta, low)


def test_accuracy_threshold_and_range():
    xt = np.array([[1.0], [-1.0], [0.0]])
    yt = np.array([1.0, 0.0, 1.0])
    task = batch_task(LOGISTIC, ACCURACY, 0.01, xt, yt)
    # theta = 0 puts every score at the 0.5 boundary -> class 1
    assert _kernels.utility_np(np.zeros(1), task) == pytest.approx(2.0 / 3.0)
    assert 0.0 <= _kernels.utility_np(np.array([3.0]), task) <= 1.0


def test_mse_convexity_witness():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((20, 4))  # full-rank design w.p. 1
    y = rng.standard_normal(20)
    for _ in range(20):
        t1 = rng.standard_normal(4)
        t2 = rng.standard_normal(4)
        g1 = batch_grad(MSE, 0.0, t1, x, y)
        g2 = batch_grad(MSE, 0.0, t2, x, y)
        assert (g1 - g2) @ (t1 - t2) >= -1e-12


def scan_train_one_pass(spec, features, labels, party_of, include_parties, seed):
    """The retrainer before the prepared Task: every step scans ``party_of``
    for the party's rows of a freshly built design matrix."""
    x = models.design_matrix(features, spec)
    rng = np.random.default_rng(seed)
    order = np.asarray(include_parties)[rng.permutation(len(include_parties))]
    theta = models.init_params(spec, x.shape[1], seed=seed)
    for party in order:
        idx = np.nonzero(party_of == party)[0]
        g = _kernels.party_grad_np(theta, batch_task(spec.loss_kind, NEG_LOSS, spec.l2,
                                                     x[idx], labels[idx]), 0)
        theta = theta - spec.learning_rate * g
    return theta


@pytest.mark.parametrize("loss_kind", ["mse_linear", "logistic_l2"])
def test_train_one_pass_matches_scan_loop(loss_kind):
    rng = np.random.default_rng(12)
    ds = data.synth_classification(90, 5, 2, seed=3, separation=3.0, n_test=20)
    # unequal parties, each its own run of rows
    sizes = rng.multinomial(90 - 12, [1 / 12] * 12) + 1
    party_of = np.repeat(np.arange(12), sizes)
    ds = replace(ds, ptr=np.concatenate([[0], np.cumsum(sizes)]))
    lam = 0.01 if loss_kind == "logistic_l2" else 0.0
    spec = models.ModelSpec(loss_kind, 0.05, models.InitSpec("gaussian", 0.1), l2=lam)
    task = dataset_task(ds, spec, "neg_test_loss")
    for seed, keep in enumerate([np.arange(12), np.array([0, 3, 4, 7, 11]), np.array([5])]):
        want = scan_train_one_pass(spec, ds.features, ds.labels, party_of, keep, seed)
        assert np.array_equal(models.train_one_pass(spec, task, keep, seed), want)


def test_train_one_pass_reports_divergence():
    # unclipped steps at a huge learning rate overflow: the retrainer raises
    # once, naming the retraining, instead of returning a NaN model with warnings
    ds = data.synth_classification(12, 4, 2, seed=0, separation=4.0, n_test=10)
    spec = models.ModelSpec("mse_linear", 1e100)
    task = dataset_task(ds, spec, "test_accuracy")
    with pytest.raises(RuntimeError, match="retraining on 12 parties"):
        models.train_one_pass(spec, task, np.arange(12), seed=0)


def test_init_params():
    zeros = models.ModelSpec("mse_linear", 0.1)
    assert np.array_equal(models.init_params(zeros, 5, seed=3), np.zeros(5))
    spec = models.ModelSpec("mse_linear", 0.1, init=models.InitSpec("gaussian", 0.1))
    a = models.init_params(spec, 4, seed=3)
    b = models.init_params(spec, 4, seed=3)
    assert np.array_equal(a, b)  # the seed argument defines the draw
    assert not np.array_equal(a, models.init_params(spec, 4, seed=4))
    with pytest.raises(ValueError):
        models.init_params(zeros, 0, seed=3)
    # one (k, d) block from a SeedSequence: the chain's per-iteration inits
    ss = np.random.SeedSequence(7)
    block = models.init_params(spec, (6, 4), seed=ss)
    assert np.array_equal(block, 0.1 * np.random.default_rng(ss).standard_normal((6, 4)))
    assert np.array_equal(models.init_params(zeros, (6, 4), seed=ss), np.zeros((6, 4)))
    with pytest.raises(ValueError):
        models.init_params(zeros, (0, 4), seed=3)


def test_gaussian_init_moments():
    spec = models.ModelSpec("mse_linear", 0.1, init=models.InitSpec("gaussian", 0.1))
    draws = models.init_params(spec, 10_000, seed=0)
    assert abs(draws.var() - 0.01) < 0.05 * 0.01


def test_model_spec_validation():
    with pytest.raises(ValueError):
        models.ModelSpec("mse_linear", 0.0)
    with pytest.raises(ValueError):
        models.ModelSpec("logistic_l2", 0.1)  # needs positive l2
    with pytest.raises(ValueError):
        models.ModelSpec("mse_linear", 0.1, l2=0.1)
    with pytest.raises(ValueError):
        models.ModelSpec("huber", 0.1)


def test_check_labels_names_five_bad_labels_and_counts_the_rest():
    # one label per class once made the message list every one: 9.9 MB of
    # text at a million classes
    spec = models.ModelSpec("logistic_l2", 0.05, l2=0.01)
    first = "[2.0, 3.0, 4.0, 5.0, 6.0]"
    for labels, got in ((np.arange(3.0), "[2.0]"), (np.arange(7.0), first),
                        (np.arange(8.0), f"6 others, first {first}"),
                        (np.arange(1e6), f"999998 others, first {first}")):
        with pytest.raises(ValueError) as exc:
            models.check_labels(spec.loss_kind, labels)
        assert str(exc.value) == f"logistic_l2 needs labels in {{0, 1}}, got {got}"
    models.check_labels(spec.loss_kind, np.array([1.0, 0.0, 1.0]))
