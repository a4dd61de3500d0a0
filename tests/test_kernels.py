"""Kernel checks: the numba twin against the numpy path, and the numpy utility
layer against the formulas it replaced."""

import numpy as np
import pytest

from dpvalue import _kernels, data, dp, models
from dpvalue.valuation import RunConfig, SemivalueSpec, run_valuation

needs_numba = pytest.mark.skipif(not _kernels.HAS_NUMBA, reason="numba unavailable")


def make_cfg(mode, sigma, backend, record=False, loss="logistic_l2", util="neg_test_loss"):
    ds = data.synth_classification(18, 5, 2, seed=2, separation=3.0, n_test=25)
    lam = 0.02 if loss == "logistic_l2" else 0.0
    mspec = models.ModelSpec(loss, 0.08, models.InitSpec("gaussian", 0.1, seed=1), l2=lam)
    uspec = models.UtilitySpec(util, ds.test_features, ds.test_labels)
    q = 0.5 if mode == "corr_y" else None
    ncfg = dp.NoiseConfig(1.0, sigma, budget=14, mode=mode, q=q)
    return RunConfig(ds, mspec, uspec, ncfg, SemivalueSpec("banzhaf", 18), k=14,
                     master_seed=6, backend=backend, record_gradients=record,
                     record_states=record)


@needs_numba
@pytest.mark.parametrize("mode,sigma", [("iid", 0.0), ("iid", 2.0), ("corr_x", 2.0),
                                        ("corr_y", 2.0), ("fl_schedule", 1.0)])
def test_backends_agree(mode, sigma):
    a = run_valuation(make_cfg(mode, sigma, "numba", record=True))
    b = run_valuation(make_cfg(mode, sigma, "numpy", record=True))
    assert np.allclose(a.psi, b.psi, rtol=1e-9, atol=1e-12)
    assert np.allclose(a.marginals, b.marginals, rtol=1e-9, atol=1e-12)
    for key in ("g_hat", "g_tilde", "g_star"):
        assert np.allclose(a.gradients[key], b.gradients[key], rtol=1e-9, atol=1e-12)


@needs_numba
@pytest.mark.parametrize("loss,util", [("mse_linear", "neg_test_loss"),
                                       ("logistic_l2", "test_accuracy")])
def test_backends_agree_other_objectives(loss, util):
    a = run_valuation(make_cfg("corr_x", 1.0, "numba", loss=loss, util=util))
    b = run_valuation(make_cfg("corr_x", 1.0, "numpy", loss=loss, util=util))
    assert np.allclose(a.psi, b.psi, rtol=1e-9, atol=1e-12)


def test_same_backend_bit_identical():
    backend = _kernels.default_backend()
    a = run_valuation(make_cfg("corr_x", 2.0, backend))
    b = run_valuation(make_cfg("corr_x", 2.0, backend))
    assert np.array_equal(a.psi, b.psi)
    assert np.array_equal(a.marginals, b.marginals)


def test_env_flag_selects_numpy(monkeypatch):
    monkeypatch.setenv("DPVALUE_BACKEND", "numpy")
    assert _kernels.default_backend() == "numpy"


def test_softplus_utility_stable_at_extremes():
    theta = np.array([1e4])
    xt = np.array([[1.0], [-1.0]])
    yt = np.array([1.0, 0.0])
    v = _kernels.utility_np(theta, xt, yt, _kernels.LOSS_LOGISTIC, _kernels.UTIL_NEG_LOSS, 0.0)
    assert np.isfinite(v)
    assert v == pytest.approx(0.0, abs=1e-12)  # both points classified with certainty


# -- utility layer against the formulas it replaced --------------------------

MSE, LOGISTIC = _kernels.LOSS_MSE, _kernels.LOSS_LOGISTIC
NEG_LOSS, ACCURACY = _kernels.UTIL_NEG_LOSS, _kernels.UTIL_ACCURACY


def reference_utility(theta, xt, yt, loss_code, util_code, lam):
    """Two logaddexp terms per test point and a direct mean squared error."""
    s = xt @ theta
    if util_code == ACCURACY:
        thr = 0.5 if loss_code == MSE else 0.0
        pred = (s >= thr).astype(np.float64)
        return float(np.mean(pred == yt))
    if loss_code == MSE:
        e = s - yt
        return float(-np.mean(e * e))
    ll = -yt * np.logaddexp(0.0, -s) - (1.0 - yt) * np.logaddexp(0.0, s)
    return float(np.mean(ll) - lam * float(theta @ theta))


def reference_loss(loss_code, lam, theta, x, y):
    s = x @ theta
    if loss_code == MSE:
        e = s - y
        return float(np.mean(e * e))
    ce = y * np.logaddexp(0.0, -s) + (1.0 - y) * np.logaddexp(0.0, s)
    return float(np.mean(ce) + lam * float(theta @ theta))


def random_thetas(xt, rng, count, min_abs_score):
    """Random parameters; with min_abs_score every test score has |s| >= it."""
    for _ in range(count):
        theta = rng.standard_normal(xt.shape[1])
        if min_abs_score:
            theta *= min_abs_score / np.min(np.abs(xt @ theta))
        yield theta


@pytest.mark.parametrize("min_abs_score", [0.0, 800.0])
@pytest.mark.parametrize("util_code", [NEG_LOSS, ACCURACY])
@pytest.mark.parametrize("loss_code", [MSE, LOGISTIC])
def test_utility_matches_reference(loss_code, util_code, min_abs_score):
    rng = np.random.default_rng(5)
    xt = rng.standard_normal((200, 11))
    # accuracy compares the 0/1 prediction with the label, so a label 2 never counts
    yt = rng.integers(0, 3 if util_code == ACCURACY else 2, 200).astype(np.float64)
    lam = 0.02 if loss_code == LOGISTIC else 0.0
    for theta in random_thetas(xt, rng, 25, min_abs_score):
        want = reference_utility(theta, xt, yt, loss_code, util_code, lam)
        got = _kernels.utility_np(theta, xt, yt, loss_code, util_code, lam)
        assert np.isfinite(got)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("min_abs_score", [0.0, 800.0])
@pytest.mark.parametrize("loss_kind", ["mse_linear", "logistic_l2"])
def test_model_loss_matches_reference(loss_kind, min_abs_score):
    rng = np.random.default_rng(8)
    lam = 0.05 if loss_kind == "logistic_l2" else 0.0
    spec = models.ModelSpec(loss_kind, 0.1, l2=lam, add_bias=False)
    x = rng.standard_normal((30, 4))
    y = rng.integers(0, 2, 30).astype(np.float64)
    for theta in random_thetas(x, rng, 25, min_abs_score):
        want = reference_loss(spec.loss_code, lam, theta, x, y)
        got = models.loss(spec, theta, x, y)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
