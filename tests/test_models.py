import numpy as np
import pytest

from dpvalue import models


def finite_diff_grad(spec, theta, x, y, step=1e-5):
    g = np.zeros_like(theta)
    for i in range(len(theta)):
        up = theta.copy()
        dn = theta.copy()
        up[i] += step
        dn[i] -= step
        g[i] = (models.loss(spec, up, x, y) - models.loss(spec, dn, x, y)) / (2 * step)
    return g


def test_mse_grad_zero_residual():
    spec = models.ModelSpec("mse_linear", 0.1, add_bias=False)
    x = np.array([[1.0, 2.0, -1.0]])
    g = models.grad(spec, np.zeros(3), x, np.array([0.0]))
    assert np.allclose(g, 0.0)


def test_logistic_grad_at_origin():
    # lam=0 via a tiny positive value is not allowed; construct directly
    spec = models.ModelSpec("logistic_l2", 0.1, l2=1e-12, add_bias=False)
    x = np.array([[0.5, -1.5]])
    g = models.grad(spec, np.zeros(2), x, np.array([1.0]))
    assert np.allclose(g, -x[0] / 2.0, atol=1e-10)


@pytest.mark.parametrize("loss_kind", ["mse_linear", "logistic_l2"])
def test_grad_matches_finite_differences(loss_kind):
    rng = np.random.default_rng(17)
    lam = 0.05 if loss_kind == "logistic_l2" else 0.0
    spec = models.ModelSpec(loss_kind, 0.1, l2=lam, add_bias=False)
    for _ in range(20):
        d = rng.integers(2, 6)
        b = rng.integers(1, 8)
        x = rng.standard_normal((b, d))
        if loss_kind == "logistic_l2":
            y = rng.integers(0, 2, b).astype(np.float64)
        else:
            y = rng.standard_normal(b)
        theta = rng.standard_normal(d)
        g = models.grad(spec, theta, x, y)
        fd = finite_diff_grad(spec, theta, x, y)
        assert np.max(np.abs(g - fd)) / max(1.0, np.max(np.abs(fd))) < 1e-6


def test_grad_rejects_empty_batch_and_mismatch():
    spec = models.ModelSpec("mse_linear", 0.1, add_bias=False)
    with pytest.raises(ValueError, match="empty"):
        models.grad(spec, np.zeros(2), np.empty((0, 2)), np.empty(0))
    with pytest.raises(ValueError, match="mismatch"):
        models.grad(spec, np.zeros(3), np.ones((2, 2)), np.zeros(2))


def test_mse_utility_nonpositive_and_perfect_fit():
    spec = models.ModelSpec("mse_linear", 0.1, add_bias=False)
    xt = np.array([[1.0, 0.0], [0.0, 1.0]])
    uspec = models.UtilitySpec("neg_test_loss", xt, np.zeros(2))
    assert models.utility(uspec, spec, np.zeros(2)) == 0.0
    rng = np.random.default_rng(1)
    uspec2 = models.UtilitySpec("neg_test_loss", rng.standard_normal((30, 2)), rng.standard_normal(30))
    for _ in range(10):
        assert models.utility(uspec2, spec, rng.standard_normal(2)) <= 0.0


def test_logistic_regularizer_lowers_utility():
    xt = np.array([[1.0, -1.0], [0.5, 2.0]])
    yt = np.array([1.0, 0.0])
    uspec = models.UtilitySpec("neg_test_loss", xt, yt)
    theta = np.array([0.3, -0.7])
    low = models.ModelSpec("logistic_l2", 0.1, l2=1e-12, add_bias=False)
    high = models.ModelSpec("logistic_l2", 0.1, l2=0.5, add_bias=False)
    assert models.utility(uspec, high, theta) < models.utility(uspec, low, theta)


def test_accuracy_threshold_and_range():
    spec = models.ModelSpec("logistic_l2", 0.1, l2=0.01, add_bias=False)
    xt = np.array([[1.0], [-1.0], [0.0]])
    yt = np.array([1.0, 0.0, 1.0])
    uspec = models.UtilitySpec("test_accuracy", xt, yt)
    # theta = 0 puts every score at the 0.5 boundary -> class 1
    assert models.utility(uspec, spec, np.zeros(1)) == pytest.approx(2.0 / 3.0)
    assert 0.0 <= models.utility(uspec, spec, np.array([3.0])) <= 1.0


def test_mse_convexity_witness():
    rng = np.random.default_rng(5)
    spec = models.ModelSpec("mse_linear", 0.1, add_bias=False)
    x = rng.standard_normal((20, 4))  # full-rank design w.p. 1
    y = rng.standard_normal(20)
    for _ in range(20):
        t1 = rng.standard_normal(4)
        t2 = rng.standard_normal(4)
        g1 = models.grad(spec, t1, x, y)
        g2 = models.grad(spec, t2, x, y)
        assert (g1 - g2) @ (t1 - t2) >= -1e-12


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
