"""Kernel checks: the chain against a plain reference loop, and the utility
layer against the formulas it replaced."""

from dataclasses import replace

import numpy as np
import pytest

from conftest import batch_task
from dpvalue import _kernels, data, dp, models
from dpvalue.valuation import RunConfig, SemivalueSpec, run_valuation

MSE, LOGISTIC = "mse_linear", "logistic_l2"
NEG_LOSS, ACCURACY = "neg_test_loss", "test_accuracy"


def kind_id(kind):
    """A test id: a loss or utility by its position in ``models.LOSS_KINDS``
    or ``models.UTILITY_KINDS``."""
    kinds = models.LOSS_KINDS if kind in models.LOSS_KINDS else models.UTILITY_KINDS
    return str(kinds.index(kind))


def make_cfg():
    ds = data.synth_classification(18, 5, 2, seed=2, separation=3.0, n_test=25)
    mspec = models.ModelSpec("logistic_l2", 0.08, models.InitSpec("gaussian", 0.1), l2=0.02)
    uspec = "neg_test_loss"
    ncfg = dp.NoiseConfig(1.0, 2.0, budget=14, mode="corr_x")
    return RunConfig(ds, mspec, uspec, ncfg, SemivalueSpec("banzhaf", 18), master_seed=6)


def test_same_seed_bit_identical():
    a = run_valuation(make_cfg())
    b = run_valuation(make_cfg())
    assert np.array_equal(a.psi, b.psi)
    assert np.array_equal(a.marginals, b.marginals)


def reference_chain(task, clip, perms, inits, noise, diag, correlated, p_by_pos, kq):
    """One step at a time with numpy scalars and fresh arrays, no hoisting."""
    x, y, ptr, loss, lr, lam = task.x, task.y, task.ptr, task.loss, task.lr, task.lam
    k, n = perms.shape
    d = inits.shape[1]
    out = {name: np.zeros((k, n)) for name in ("marginals", "pcoefs", "v_prev")}
    for name in ("g_hat", "g_tilde", "g_star", "theta_prev"):
        out[name] = np.zeros((k, n, d))
    out["psi"] = np.zeros(n)
    out["roll"] = np.zeros((n, d))
    roll = out["roll"]
    for t in range(k):
        theta = inits[t].copy()
        v_prev = _kernels.utility_np(theta, task)
        for pos in range(n):
            j = perms[t, pos]
            g = _kernels.party_grad_np(theta, x, y, ptr[j], ptr[j + 1], loss, lam)
            nrm = np.linalg.norm(g)
            if nrm > clip:
                g = g * (clip / nrm)
            out["g_hat"][t, j] = g
            g = g + noise[t, j]
            out["g_tilde"][t, j] = g
            if correlated and t > 0:
                rel = (1.0 - diag[t]) * roll[j] + diag[t] * g
            else:
                rel = g.copy()
            if correlated:
                roll[j] = t / (t + 1.0) * roll[j] + g / (t + 1.0)
            out["g_star"][t, j] = rel
            out["theta_prev"][t, j] = theta
            out["v_prev"][t, j] = v_prev
            theta = theta - lr * rel
            v_after = _kernels.utility_np(theta, task)
            m = v_after - v_prev
            out["marginals"][t, j] = m
            out["pcoefs"][t, j] = p_by_pos[pos]
            if t >= kq:
                cnt = t - kq + 1.0
                out["psi"][j] = (cnt - 1.0) / cnt * out["psi"][j] + p_by_pos[pos] * m / cnt
            v_prev = v_after
    return out


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def random_chain(mechanism, loss, utility, n=7, d=4, k=12):
    """A random Task and the run_chain arguments of one mechanism on it."""
    rng = np.random.default_rng(11)
    ptr = np.concatenate([[0], np.cumsum(rng.integers(1, 5, n))]).astype(np.int64)
    x = rng.standard_normal((ptr[-1], d))
    y = rng.integers(0, 2, ptr[-1]).astype(np.float64)
    xt = rng.standard_normal((30, d))
    yt = rng.integers(0, 2, 30).astype(np.float64)
    lam = 0.02 if loss == LOGISTIC else 0.0
    ncfg = dp.NoiseConfig(0.8, 1.5, budget=k, **mechanism)
    perms = np.array([rng.permutation(n) for _ in range(k)])
    inits = 0.1 * rng.standard_normal((k, d))
    noise = ncfg.per_release_std * rng.standard_normal((k, n, d))
    args = (ncfg.clip_norm, perms, inits, noise, dp.diag_schedule(ncfg), ncfg.correlated,
            rng.uniform(0.0, 1.0, n), ncfg.burn_in)
    task = _kernels.Task(x, y, ptr, xt, yt, loss, utility, 0.1, lam,
                         _kernels.mse_stats(xt, yt))
    return task, args


MECHANISMS = {  # corr_x_aware and fl_schedule have diagonals that are not prefix means
    "iid": {"mode": "iid"},
    "corr_x": {"mode": "corr_x"},
    "corr_y": {"mode": "corr_y", "q": 0.25},
    "corr_x_aware": {"mode": "corr_x", "sigma_g_sq": 0.7},
    "fl_schedule": {"mode": "fl_schedule"},
}


@pytest.mark.parametrize("loss,utility", [(LOGISTIC, NEG_LOSS), (MSE, ACCURACY)], ids=kind_id)
@pytest.mark.parametrize("mode", list(MECHANISMS))
def test_chain_matches_reference_loop(mode, loss, utility):
    task, args = random_chain(MECHANISMS[mode], loss, utility)
    want = reference_chain(task, *args)
    got = _kernels.run_chain(task, *args, record_grads=True, record_states=True)
    assert set(got) == set(want)
    for name, value in want.items():
        assert same_bits(got[name], value), name
    # unrecorded, a correlated chain keeps its perturbed gradients in its own buffer
    bare = _kernels.run_chain(task, *args)
    assert set(bare) == {"marginals", "pcoefs", "psi", "roll"}
    for name in ("marginals", "psi", "roll"):
        assert same_bits(bare[name], want[name]), name


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", ["corr_x", "corr_y"])
def test_correlated_chain_divergence_names_iteration_and_party(mode):
    # a blow-up mid-iteration, inside corr_y's burn-in, overflows the squared
    # test loss; the chain reports it as ChainDiverged alone, without numpy warnings
    mechanism = {"mode": mode, "q": 0.5} if mode == "corr_y" else {"mode": mode}
    task, args = random_chain(mechanism, MSE, NEG_LOSS, k=8)
    perms, noise, kq = args[1], args[3], args[7]
    t, pos = 2, 3
    assert mode == "corr_x" or t < kq  # the blow-up lies inside corr_y's burn-in
    j = int(perms[t, pos])
    noise[t, j] = 1e300
    with pytest.raises(_kernels.ChainDiverged) as err:
        _kernels.run_chain(task, *args)
    assert (err.value.iteration, err.value.party) == (t + 1, j)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_accuracy_chain_divergence_names_iteration_and_party():
    # a step of lr * 1e300 overflows the model, whose scores are no longer all
    # finite; thresholded, they would still give a finite accuracy
    task, args = random_chain({"mode": "iid"}, LOGISTIC, ACCURACY, k=8)
    task = replace(task, lr=1e10)
    perms, noise = args[1], args[3]
    t, pos = 2, 3
    j = int(perms[t, pos])
    noise[t, j] = 1e300
    with pytest.raises(_kernels.ChainDiverged) as err:
        _kernels.run_chain(task, *args)
    assert (err.value.iteration, err.value.party) == (t + 1, j)


def test_accuracy_of_non_finite_scores_is_nan():
    y = np.array([1.0, 0.0, 1.0])
    s = np.array([[0.5, -1.0, 2.0], [np.inf, -1.0, 2.0], [0.5, np.nan, 2.0]])
    got = _kernels.accuracy(s, y, LOGISTIC)
    assert got[0] == 1.0 and np.isnan(got[1:]).all()
    assert type(_kernels.accuracy(s[0], y, LOGISTIC)) is np.float64


def test_softplus_utility_stable_at_extremes():
    theta = np.array([1e4])
    xt = np.array([[1.0], [-1.0]])
    yt = np.array([1.0, 0.0])
    task = batch_task(LOGISTIC, NEG_LOSS, 0.0, xt, yt)
    v = _kernels.utility_np(theta, task)
    assert np.isfinite(v)
    assert v == pytest.approx(0.0, abs=1e-12)  # both points classified with certainty


# -- utility layer against the formulas it replaced --------------------------


def reference_utility(theta, xt, yt, loss, utility, lam):
    """Two logaddexp terms per test point and a direct mean squared error."""
    s = xt @ theta
    if utility == ACCURACY:
        thr = 0.5 if loss == MSE else 0.0
        pred = (s >= thr).astype(np.float64)
        return float(np.mean(pred == yt))
    if loss == MSE:
        e = s - yt
        return float(-np.mean(e * e))
    ll = -yt * np.logaddexp(0.0, -s) - (1.0 - yt) * np.logaddexp(0.0, s)
    return float(np.mean(ll) - lam * float(theta @ theta))


def reference_loss(loss, lam, theta, x, y):
    s = x @ theta
    if loss == MSE:
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
@pytest.mark.parametrize("utility", [NEG_LOSS, ACCURACY], ids=kind_id)
@pytest.mark.parametrize("loss", [MSE, LOGISTIC], ids=kind_id)
def test_utility_matches_reference(loss, utility, min_abs_score):
    rng = np.random.default_rng(5)
    xt = rng.standard_normal((200, 11))
    # accuracy compares the 0/1 prediction with the label, so a label 2 never counts
    yt = rng.integers(0, 3 if utility == ACCURACY else 2, 200).astype(np.float64)
    lam = 0.02 if loss == LOGISTIC else 0.0
    task = batch_task(loss, utility, lam, xt, yt)
    for theta in random_thetas(xt, rng, 25, min_abs_score):
        want = reference_utility(theta, xt, yt, loss, utility, lam)
        got = _kernels.utility_np(theta, task)
        assert np.isfinite(got)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("min_abs_score", [0.0, 800.0])
@pytest.mark.parametrize("loss", [MSE, LOGISTIC])
def test_model_loss_matches_reference(loss, min_abs_score):
    rng = np.random.default_rng(8)
    lam = 0.05 if loss == LOGISTIC else 0.0
    x = rng.standard_normal((30, 4))
    y = rng.integers(0, 2, 30).astype(np.float64)
    task = batch_task(loss, NEG_LOSS, lam, x, y)
    for theta in random_thetas(x, rng, 25, min_abs_score):
        want = reference_loss(loss, lam, theta, x, y)
        got = -_kernels.utility_np(theta, task)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def wrapper_utility(thetas, task):
    """``utility_np``'s accuracy and logistic branches as written with numpy's
    ``count_nonzero`` and ``ndarray.sum`` wrappers."""
    s = thetas @ task.xt.T
    if task.utility == ACCURACY:
        thr = 0.5 if task.loss == MSE else 0.0
        return np.count_nonzero((s >= thr) == task.yt, axis=-1) / task.yt.shape[0]
    return (-_kernels.log_loss(s, task.yt).sum(axis=-1) / task.yt.shape[0]
            - task.lam * np.vecdot(thetas, thetas))


@pytest.mark.parametrize("shape", [(11,), (7, 11)])
@pytest.mark.parametrize("loss,utility",
                         [(MSE, ACCURACY), (LOGISTIC, ACCURACY), (LOGISTIC, NEG_LOSS)], ids=kind_id)
def test_utility_reductions_bitwise_equal_wrappers(loss, utility, shape):
    rng = np.random.default_rng(23)
    xt = rng.standard_normal((200, 11))
    yt = rng.integers(0, 2, 200).astype(np.float64)
    task = batch_task(loss, utility, 0.02, xt, yt)
    for _ in range(50):
        thetas = rng.standard_normal(shape)
        assert np.array_equal(_kernels.utility_np(thetas, task), wrapper_utility(thetas, task))


@pytest.mark.parametrize("d", [1, 7, 12, 16, 33])
def test_mse_utility_rows_bitwise_equal_across_layouts(d):
    # the probe's replay scores the transpose of a (d, trials) buffer, and its
    # reference a strided slab of a (trials, k, d) block: a row must score the
    # same bits in either, and in a C-ordered block
    rng = np.random.default_rng(d)
    xt = rng.standard_normal((64, d))
    yt = rng.standard_normal(64)
    task = batch_task(MSE, NEG_LOSS, 0.0, xt, yt)
    for trials in (1, 2, *rng.integers(3, 300, 22)):
        rows = rng.standard_normal((trials, d))
        by_coordinate = np.empty((d, trials))
        by_coordinate[...] = rows.T
        chunk = np.empty((trials, 3, d))
        chunk[:, 1] = rows
        got = [_kernels.utility_np(block, task) for block in (rows, by_coordinate.T, chunk[:, 1])]
        assert np.array_equal(got[1], got[0]) and np.array_equal(got[2], got[0]), trials
        want = [reference_utility(theta, xt, yt, MSE, NEG_LOSS, 0.0) for theta in rows]
        assert got[0] == pytest.approx(want, rel=1e-12, abs=0.0)


# -- party gradient against the block formula ----------------------------------


def block_party_grad(theta, x, y, a, b, loss, lam):
    """The gradient over rows a:b as one block, whatever the party size."""
    xb, yb = x[a:b], y[a:b]
    s = xb @ theta
    if loss == MSE:
        return (2.0 / (b - a)) * (xb.T @ (s - yb))
    sig = 1.0 / (1.0 + np.exp(-s))
    return (xb.T @ (sig - yb)) / (b - a) + 2.0 * lam * theta


@pytest.mark.parametrize("loss", [MSE, LOGISTIC], ids=kind_id)
def test_one_row_party_grad_matches_block_formula(loss):
    rng = np.random.default_rng(17)
    x = rng.standard_normal((400, 11))
    y = rng.integers(0, 2, 400).astype(np.float64)
    lam = 0.01 if loss == LOGISTIC else 0.0
    with np.errstate(over="ignore"):  # exp(-s) overflows to inf for s < -709
        for _ in range(3000):
            a = int(rng.integers(0, 400))
            theta = rng.standard_normal(11)
            # scores from 1e-3 to 800, so the sigmoid runs from 1/2 into saturation
            theta *= 10.0 ** rng.uniform(-3.0, np.log10(800.0)) / abs(x[a] @ theta)
            want = block_party_grad(theta, x, y, a, a + 1, loss, lam)
            got = _kernels.party_grad_np(theta, x, y, a, a + 1, loss, lam)
            assert np.array_equal(got, want), (a, x[a] @ theta)


@pytest.mark.parametrize("loss", [MSE, LOGISTIC], ids=kind_id)
@pytest.mark.parametrize("rows", [1, 3])
def test_party_grad_of_nan_theta_is_nan(loss, rows):
    # a diverged model must stay non-finite so the chain's utility check fires
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 4))
    y = rng.integers(0, 2, 5).astype(np.float64)
    theta = np.array([0.5, np.nan, -1.0, 2.0])
    g = _kernels.party_grad_np(theta, x, y, 1, 1 + rows, loss, 0.01)
    assert g.shape == (4,)
    assert np.isnan(g).all()
