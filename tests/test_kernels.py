"""Kernel checks: the chain against a plain reference loop, and the utility
layer against the formulas it replaced."""

import ast
import inspect
import textwrap
from dataclasses import replace

import numpy as np
import pytest

from conftest import MECHANISMS, batch_task, dataset_task
from dpvalue import _kernels, data, dp, models, valuation
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
    return RunConfig(ds, mspec, uspec, ncfg, SemivalueSpec("banzhaf"), master_seed=6)


def test_same_seed_bit_identical():
    a = run_valuation(make_cfg())
    b = run_valuation(make_cfg())
    assert np.array_equal(a.psi, b.psi)
    assert np.array_equal(a.marginals, b.marginals)


def reference_chain(task, mechanism, perms, inits, noise):
    """One step at a time with numpy scalars and fresh arrays, no hoisting."""
    lr, clip, correlated = task.lr, mechanism.clip_norm, mechanism.correlated
    diag = dp.diag_schedule(mechanism)
    k, n = perms.shape
    d = inits.shape[1]
    out = {name: np.zeros((k, n)) for name in ("marginals", "v_prev")}
    for name in ("g_hat", "g_tilde", "g_star", "theta_prev"):
        out[name] = np.zeros((k, n, d))
    roll = np.zeros((n, d))
    for t in range(k):
        theta = inits[t].copy()
        v_prev = _kernels.utility_np(theta, task)
        for pos in range(n):
            j = perms[t, pos]
            g = _kernels.party_grad_np(theta, task, j)
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
            out["marginals"][t, j] = v_after - v_prev
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
    args = (ncfg, perms, inits, noise)
    task = _kernels.Task(x, y, ptr, xt, yt, loss, utility, 0.1, lam)
    return task, args


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
    assert set(bare) == {"marginals"}
    assert same_bits(bare["marginals"], want["marginals"])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mode", ["corr_x", "corr_y"])
def test_correlated_chain_divergence_names_iteration_and_party(mode):
    # a blow-up mid-iteration, inside corr_y's burn-in, overflows the squared
    # test loss; the chain reports it as ChainDiverged alone, without numpy warnings
    mechanism = {"mode": mode, "q": 0.5} if mode == "corr_y" else {"mode": mode}
    task, args = random_chain(mechanism, MSE, NEG_LOSS, k=8)
    perms, noise = args[1], args[3]
    kq = dp.burn_in_count(8, mechanism.get("q", 0.0))
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
    task = batch_task(LOGISTIC, ACCURACY, 0.0, np.eye(3), y)
    got = _kernels.accuracy(s, task)
    assert got[0] == 1.0 and np.isnan(got[1:]).all()
    assert type(_kernels.accuracy(s[0], task)) is np.float64


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
    """``utility_np``'s accuracy branch as written with numpy's
    ``count_nonzero`` wrapper."""
    s = thetas @ task.xt.T
    thr = 0.5 if task.loss == MSE else 0.0
    return np.count_nonzero((s >= thr) == task.yt, axis=-1) / task.yt.shape[0]


@pytest.mark.parametrize("shape", [(11,), (7, 11)])
@pytest.mark.parametrize("loss,utility", [(MSE, ACCURACY), (LOGISTIC, ACCURACY)], ids=kind_id)
def test_utility_reductions_bitwise_equal_wrappers(loss, utility, shape):
    rng = np.random.default_rng(23)
    xt = rng.standard_normal((200, 11))
    yt = rng.integers(0, 2, 200).astype(np.float64)
    task = batch_task(loss, utility, 0.02, xt, yt)
    for _ in range(50):
        thetas = rng.standard_normal(shape)
        assert np.array_equal(_kernels.utility_np(thetas, task), wrapper_utility(thetas, task))


def signed_design_utility(thetas, xt, yt, lam):
    """The logistic neg-loss on the signed test design, written out with the
    hinge as a difference: with margins m, ``a = |m|``, the hinge ``(a - m).1``
    (twice ``max(-m, 0)`` per point) and
    ``-(log1p(exp(-a)).1 + hinge/2)/l - lam*theta.theta``."""
    ones = np.ones(len(yt))
    m = thetas @ ((2.0 * yt - 1.0)[:, None] * xt).T
    a = np.abs(m)
    hinge = (a - m) @ ones
    return -(np.log1p(np.exp(-a)) @ ones + hinge / 2) / len(yt) - lam * np.vecdot(thetas, thetas)


@pytest.mark.parametrize("shape", [(11,), (7, 11)])
def test_logistic_utility_bitwise_equal_formula(shape):
    rng = np.random.default_rng(23)
    xt = rng.standard_normal((200, 11))
    yt = rng.integers(0, 2, 200).astype(np.float64)
    task = batch_task(LOGISTIC, NEG_LOSS, 0.02, xt, yt)
    for scale in SCALES:
        for _ in range(50):
            thetas = rng.standard_normal(shape) * scale
            want = signed_design_utility(thetas, xt, yt, 0.02)
            assert np.array_equal(_kernels.utility_np(thetas, task), want)


def test_logistic_utility_without_penalty_at_most_zero():
    # each point's loss is a sum of non-negative terms, so no cancellation
    # lifts the neg-loss above 0: not where every |score| >= 40, nor where
    # every point is classified right and only the softplus tails remain
    rng = np.random.default_rng(41)
    xt = rng.standard_normal((200, 11))
    w = rng.standard_normal(11)
    for yt in (rng.integers(0, 2, 200).astype(np.float64), (xt @ w > 0).astype(np.float64)):
        task = batch_task(LOGISTIC, NEG_LOSS, 0.0, xt, yt)
        thetas = list(random_thetas(xt, rng, 40, 40.0))
        thetas += [w * (scale / np.min(np.abs(xt @ w))) for scale in np.geomspace(40.0, 1e4, 40)]
        thetas = np.array(thetas)
        assert (_kernels.utility_np(thetas, task) <= 0.0).all()
        for theta in thetas:
            assert _kernels.utility_np(theta, task) <= 0.0


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_theta_utility_is_not_finite(bad):
    rng = np.random.default_rng(3)
    xt = rng.standard_normal((50, 5))
    yt = rng.integers(0, 2, 50).astype(np.float64)
    for loss, utility in ((LOGISTIC, NEG_LOSS), (LOGISTIC, ACCURACY), (MSE, ACCURACY)):
        task = batch_task(loss, utility, 0.02 if loss == LOGISTIC else 0.0, xt, yt)
        # one non-finite entry per row: two infinities could already meet as
        # inf - inf inside the scores' product, which numpy reports
        thetas = rng.standard_normal((4, 5))
        thetas[1, 2] = bad
        thetas[3, 0] = bad
        rows = _kernels.utility_np(thetas, task)
        vectors = np.array([_kernels.utility_np(theta, task) for theta in thetas])
        for got in (rows, vectors):
            assert np.isfinite(got[[0, 2]]).all()
            if utility == ACCURACY:
                assert np.isnan(got[[1, 3]]).all()
            else:
                assert not np.isfinite(got[[1, 3]]).any()


def assert_vector_matches_block_row(task, rng):
    d = task.xt.shape[1]
    block = rng.standard_normal((40, d)) * 10.0 ** rng.uniform(-3, 2, (40, 1))
    rows = _kernels.utility_np(block, task)
    for theta, want in zip(block, rows):
        got = _kernels.utility_np(theta, task)
        assert type(got) is np.float64
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("d", [1, 7, 12])
def test_logistic_vector_utility_matches_block_row(d):
    rng = np.random.default_rng(d)
    xt = rng.standard_normal((64, d))
    yt = rng.integers(0, 2, 64).astype(np.float64)
    assert_vector_matches_block_row(batch_task(LOGISTIC, NEG_LOSS, 0.02, xt, yt), rng)


@pytest.mark.parametrize("loss", [MSE, LOGISTIC], ids=kind_id)
@pytest.mark.parametrize("d", [1, 7, 12])
def test_accuracy_vector_utility_matches_block_row(d, loss):
    rng = np.random.default_rng(d)
    xt = rng.standard_normal((64, d))
    yt = rng.integers(0, 2, 64).astype(np.float64)
    assert_vector_matches_block_row(batch_task(loss, ACCURACY, 0.0, xt, yt), rng)


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
    task = _kernels.Task(x, y, np.arange(401), x, y, loss, NEG_LOSS, 0.1, lam)  # per-sample
    with np.errstate(over="ignore"):  # exp(-s) overflows to inf for s < -709
        for _ in range(3000):
            a = int(rng.integers(0, 400))
            theta = rng.standard_normal(11)
            # scores from 1e-3 to 800, so the sigmoid runs from 1/2 into saturation
            theta *= 10.0 ** rng.uniform(-3.0, np.log10(800.0)) / abs(x[a] @ theta)
            want = block_party_grad(theta, x, y, a, a + 1, loss, lam)
            got = _kernels.party_grad_np(theta, task, a)
            assert np.array_equal(got, want), (a, x[a] @ theta)


@pytest.mark.parametrize("loss", [MSE, LOGISTIC], ids=kind_id)
@pytest.mark.parametrize("rows", [1, 3])
def test_party_grad_of_nan_theta_is_nan(loss, rows):
    # a diverged model must stay non-finite so the chain's utility check fires
    rng = np.random.default_rng(2)
    x = rng.standard_normal((5, 4))
    y = rng.integers(0, 2, 5).astype(np.float64)
    theta = np.array([0.5, np.nan, -1.0, 2.0])
    task = _kernels.Task(x, y, np.array([0, 1, 1 + rows, 5]), x, y, loss, NEG_LOSS, 0.1, 0.01)
    g = _kernels.party_grad_np(theta, task, 1)
    assert g.shape == (4,)
    assert np.isnan(g).all()


# -- the MSE gradient on its sufficient statistics -------------------------------


def mse_party_rows(rows, d, seed):
    """``rows`` rows of d - 1 features and the bias column, with labels."""
    rng = np.random.default_rng(seed)
    x = np.hstack([rng.standard_normal((rows, d - 1)), np.ones((rows, 1))])
    return x, rng.standard_normal(rows)


@pytest.mark.parametrize("d", [2, 7, 12])
def test_stats_gradient_matches_row_formula(d):
    # a party of d rows keeps the row formula; d + 1 and 3d rows take G theta - h
    rng = np.random.default_rng(d)
    for rows in (d, d + 1, 3 * d):
        x, y = mse_party_rows(rows, d, seed=rows)
        task = batch_task(MSE, NEG_LOSS, 0.0, x, y)
        assert (task.grad_stats[0] is None) == (rows == d)
        if task.grad_stats[0] is None:
            continue
        for _ in range(50):
            theta = rng.standard_normal(d) * 10.0 ** rng.uniform(-3, 3)
            want = block_party_grad(theta, x, y, 0, rows, MSE, 0.0)
            got = _kernels.party_grad_np(theta, task, 0)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
        nan_theta = np.full(d, np.nan)
        assert np.isnan(_kernels.party_grad_np(nan_theta, task, 0)).all()


@pytest.mark.parametrize("d", [2, 7, 12])
def test_stats_gradient_near_the_party_optimum(d):
    # at the party's least-squares fit G theta and h cancel: the error of the
    # difference is bounded by the size of its terms, not of the gradient
    for rows in (d + 1, 3 * d):
        x, y = mse_party_rows(rows, d, seed=100 + rows)
        task = batch_task(MSE, NEG_LOSS, 0.0, x, y)
        g_mat, h = task.grad_stats[0]
        theta = np.linalg.lstsq(x, y, rcond=None)[0]
        want = block_party_grad(theta, x, y, 0, rows, MSE, 0.0)
        got = _kernels.party_grad_np(theta, task, 0)
        bound = 1e-12 * (np.linalg.norm(g_mat, 2) * np.linalg.norm(theta) + np.linalg.norm(h))
        assert np.abs(got - want).max() <= bound
        assert np.abs(want).max() < 1e-3 * np.linalg.norm(h)  # the terms do cancel


def test_stats_only_for_mse_parties_with_more_rows_than_columns():
    d = 5
    ptr = np.cumsum([0, 1, 4, 5, 6, 15, 2]).tolist()  # parties of 1, 4, 5, 6, 15, 2 rows
    x, y = mse_party_rows(ptr[-1], d, seed=3)
    assert _kernels.grad_stats(x, y, ptr, LOGISTIC) == (None,) * 6
    stats = _kernels.grad_stats(x, y, ptr, MSE)
    assert [s is not None for s in stats] == [False, False, False, True, True, False]
    assert all(g.shape == (d, d) and h.shape == (d,) for g, h in filter(None, stats))
    # through the run's preparation: every logistic party keeps the row formula
    ds = data.synth_classification(40, 4, 2, seed=1, separation=3.0, n_test=20)
    ds = data.partition(ds, 4, "equal-chunks")
    for loss, lam in ((LOGISTIC, 0.01), (MSE, 0.0)):
        mspec = models.ModelSpec(loss, 0.05, l2=lam)
        task = dataset_task(ds, mspec, NEG_LOSS)
        assert len(task.grad_stats) == 4
        assert all((s is None) == (loss == LOGISTIC) for s in task.grad_stats)


@pytest.mark.parametrize("field", ["x", "y"])
def test_replaced_rows_derive_their_grad_stats(field):
    # the Task derives its parties' statistics from its own rows, so a Task
    # with replaced rows takes its gradient from those rows, not the old ones
    d, ptr = 4, [0, 6, 12]  # two 6-row MSE parties
    x, y = mse_party_rows(12, d, seed=1)
    task = _kernels.Task(x, y, np.array(ptr), x, y, MSE, NEG_LOSS, 0.1, 0.0)
    x2, y2 = mse_party_rows(12, d, seed=2)
    new = replace(task, **{field: {"x": x2, "y": y2}[field]})
    want_stats = _kernels.grad_stats(new.x, new.y, ptr, MSE)
    theta = np.random.default_rng(3).standard_normal(d)
    for j, (lo, hi) in enumerate(zip(ptr[:-1], ptr[1:])):
        assert all(same_bits(a, b) for a, b in zip(new.grad_stats[j], want_stats[j]))
        want = block_party_grad(theta, new.x, new.y, lo, hi, MSE, 0.0)
        got = _kernels.party_grad_np(theta, new, j)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_replaced_offsets_derive_their_rows():
    # each party's row range is derived from the Task's own offsets, as ints
    x, y = mse_party_rows(12, 3, seed=1)
    task = _kernels.Task(x, y, np.array([0, 6, 12]), x, y, MSE, NEG_LOSS, 0.1, 0.0)
    assert task.rows == ((0, 6), (6, 12))
    new = replace(task, ptr=np.array([0, 1, 5, 12]))
    assert new.rows == ((0, 1), (1, 5), (5, 12))
    assert all(type(a) is int and type(b) is int for a, b in new.rows)
    theta = np.random.default_rng(4).standard_normal(3)
    for j, (lo, hi) in enumerate(new.rows):
        want = block_party_grad(theta, x, y, lo, hi, MSE, 0.0)
        got = _kernels.party_grad_np(theta, new, j)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("d", [1, 3, 7])
def test_stats_bytes_at_most_the_design_matrix(d):
    # more rows than columns: d*d + d statistics never outnumber m*d entries,
    # with equality at m = d + 1
    rng = np.random.default_rng(d)
    for sizes in ([d + 1] * 4, rng.integers(1, 4 * d + 2, 12).tolist()):
        ptr = np.cumsum([0] + sizes).tolist()
        x, y = mse_party_rows(ptr[-1], d, seed=d)
        task = _kernels.Task(x, y, np.array(ptr), x, y, MSE, NEG_LOSS, 0.1, 0.0)
        held = sum(g.nbytes + h.nbytes for g, h in filter(None, task.grad_stats))
        assert held <= task.x.nbytes


@pytest.mark.parametrize("d", [1, 7, 12, 33])
def test_mse_vector_utility_matches_block_row(d):
    rng = np.random.default_rng(d)
    xt = rng.standard_normal((64, d))
    yt = rng.standard_normal(64)
    assert_vector_matches_block_row(batch_task(MSE, NEG_LOSS, 0.0, xt, yt), rng)


# -- per-step products on ndarray.dot (see the _kernels docstring) ---------------

SCALES = 10.0 ** np.arange(-3.0, 4.0)


@pytest.mark.parametrize("d", [7, 11])
def test_mse_vector_utility_bitwise_equal_formula(d):
    rng = np.random.default_rng(d)
    xt = rng.standard_normal((64, d))
    task = batch_task(MSE, NEG_LOSS, 0.0, xt, rng.standard_normal(64))
    a, b, c = task.mse
    for scale in SCALES:
        for _ in range(50):
            theta = rng.standard_normal(d) * scale
            assert _kernels.utility_np(theta, task) == -c - theta @ (a @ theta - b)


@pytest.mark.parametrize("d", [7, 11])
def test_stats_gradient_bitwise_equal_formula(d):
    rng = np.random.default_rng(d)
    x, y = mse_party_rows(3 * d, d, seed=d)
    task = batch_task(MSE, NEG_LOSS, 0.0, x, y)
    g_mat, h = task.grad_stats[0]
    for scale in SCALES:
        for _ in range(50):
            theta = rng.standard_normal(d) * scale
            got = _kernels.party_grad_np(theta, task, 0)
            assert np.array_equal(got, g_mat @ theta - h)


@pytest.mark.parametrize("function", [_kernels.utility_np, _kernels.party_grad_np,
                                      dp.clip_in_place, _kernels.run_chain],
                         ids=lambda f: f.__name__)
def test_per_step_products_avoid_matmul(function):
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)]
    assert not lines, (f"{function.__name__} uses @ at its lines {lines}: per-step "
                       "products take ndarray.dot, see the dpvalue._kernels docstring")


@pytest.mark.parametrize("function", [_kernels.run_chain, valuation.run_federated,
                                      models.train_one_pass], ids=lambda f: f.__name__)
def test_party_gradient_callers_pass_the_task(function):
    # a party's rows and statistics are read inside party_grad_np, from the Task
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    reads = [(node.lineno, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("ptr", "grad_stats")]
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and ast.unparse(node.func).rsplit(".", 1)[-1] == "party_grad_np"]
    shapes = [len(call.args) + len(call.keywords) for call in calls]
    assert calls and shapes == [3] * len(calls), (f"{function.__name__} calls party_grad_np "
                                                  f"with {shapes} arguments, not (theta, task, j)")
    assert not reads, (f"{function.__name__} reads {reads}: party_grad_np(theta, task, j) "
                       "reads the party's row range and statistics from the Task")


@pytest.mark.parametrize("function", [_kernels.utility_np, _kernels.accuracy],
                         ids=lambda f: f.__name__)
def test_per_step_sums_avoid_ufunc_reductions(function):
    tree = ast.parse(textwrap.dedent(inspect.getsource(function)))
    calls = [(node.lineno, ast.unparse(node.func)) for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    banned = [(line, name) for line, name in calls
              if name in ("np.where", "np.add.reduce") or name.rsplit(".", 1)[-1] in ("sum", "all")]
    assert not banned, (f"{function.__name__} calls {banned}: per-step sums take "
                        "ndarray.dot with a ones vector, see the dpvalue._kernels docstring")
