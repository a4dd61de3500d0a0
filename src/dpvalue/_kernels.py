"""Hot inner loops of the permutation-valuation chain.

The sequential chain (for every sampled permutation: clip, perturb, combine,
step the model, score the utility) dominates runtime. It is a numpy loop over
iterations and parties that consumes pre-generated permutation, init and noise
arrays, so a given seed yields the same run every time.

Per-step products are written ``a.dot(b)``, not ``a @ b`` or
``np.vecdot``: both reach the same BLAS routine (ddot, dgemv, dgemm) with the
same bits, but ``@`` and ``vecdot`` first go through numpy's gufunc dispatch.
Only a block's row-wise ``np.vecdot``, which has no ``.dot`` form, stays.
On a shared 2-core x86-64 box (numpy 2.4, OpenBLAS 0.3.31) that dispatch cost
0.35-0.55 us per call: 865 against 511 ns for an 11-element dot, 1783 against
1215 ns for the scores of 11 weights on 200 test rows, 1117 against 563 ns
for a 7x7 matvec. The chain makes about four such products per step, so it
pays about 12 % of the noisy-label workload's wall time. A test
(``test_per_step_products_avoid_matmul``) rejects ``@`` in the per-step
functions.

Per-step sums follow the same rule: a sum over the test rows, or over a
block's coordinates, is ``v.dot(ones)`` with a ones vector the ``Task`` holds,
not a ufunc reduction (a block's accuracy count aside, see ``accuracy``). On
the same box, on 200 test rows, ``np.add.reduce`` cost 0.97 us against
0.44-0.48 us for the dot; ``np.maximum`` against a Python scalar 0.73 us
against 0.43 us for ``np.minimum`` into its input against a held zeros
vector. The accuracy's finite check skips the Python wrappers of
``ndarray.all`` and ``np.where`` too (``np.logical_and.reduce`` and a
branch). The dot sums in another order than numpy's pairwise reduction, so a
utility can move in its last bits. A test
(``test_per_step_sums_avoid_ufunc_reductions``) rejects ``np.add.reduce``,
``sum``, ``all`` and ``np.where`` calls in ``utility_np`` and ``accuracy``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import dp
from .dp import clip_in_place, fold, history, release

# One formula per utility, scored by ``utility_np`` for the chain, federated
# attribution, retraining and the variance probe's noise replay. Scores may be
# a vector or a (trials, l) block; sums run over the last axis.


def accuracy(s, task):
    """Share of the ``Task``'s test points whose thresholded score in ``s``
    equals the label; NaN for a row whose scores are not all finite, which
    thresholding would hide from the chain's divergence check. A vector of
    scores gives a scalar, its hits counted as a dot product with ``ones_l``;
    a block counts with ``np.count_nonzero``, because a dot would first cast
    its (trials, l) hits to a float64 copy (2.6 times slower on 300 rows)."""
    thr = 0.5 if task.loss == "mse_linear" else 0.0
    l = task.yt.shape[0]
    hits = (s >= thr) == task.yt
    finite = np.logical_and.reduce(np.isfinite(s), axis=-1)
    if s.ndim == 1:
        return hits.dot(task.ones_l) / l if finite else np.float64(np.nan)
    acc = np.count_nonzero(hits, axis=-1) / l
    acc[~finite] = np.nan
    return acc


def mse_stats(x, y):
    """Sufficient statistics ``(A, b, c)`` of the mean squared error on (x, y):
    ``mean((x @ theta - y)**2) = theta.A.theta - b.theta + c``."""
    l = y.shape[0]
    return x.T @ x / l, 2.0 * (x.T @ y) / l, float(y @ y) / l


def grad_stats(x, y, ptr, loss):
    """Per party of the CSR offsets ``ptr``, the statistics ``(G, h)`` of its
    MSE gradient: with its rows' ``mse_stats`` ``(A, b, c)``, the gradient of
    ``theta.A.theta - b.theta + c`` is ``G theta - h`` with ``G = 2A`` and
    ``h = b``, the row formula ``(2/m) X^T (X theta - y)`` to rounding. Only
    an ``mse_linear`` party with more rows m than the d columns of ``x`` gets
    them, so its d*d + d statistics never outnumber its m*d entries of ``x``,
    nor their flops the row formula's; any other party is None and keeps the
    row formula."""
    d = x.shape[1]
    stats = []
    for lo, hi in zip(ptr[:-1], ptr[1:]):
        if loss != "mse_linear" or hi - lo <= d:
            stats.append(None)
            continue
        a, b, _ = mse_stats(x[lo:hi], y[lo:hi])
        stats.append((2.0 * a, b))
    return tuple(stats)


def utility_np(thetas, task):
    """Test-set utility of a (d,) parameter vector, or of each row of a
    (trials, d) block in any memory layout, on the ``Task``'s test split; one
    formula per utility, its sums ``.dot`` products with a ones vector.

    The MSE neg-loss is ``-(theta.A.theta - b.theta + c)`` on ``task.mse``:
    ``-c - theta.(A theta - b)`` for a vector; for a block, ``p = A.T.dot(thetas.T)``
    is a C-contiguous (d, trials) array whatever the block's layout, so after
    ``p -= b; p *= thetas.T`` each row's bits ``-c - ones_d.dot(p)`` do not
    depend on it.

    The logistic neg-loss scores the signed test design ``xs``, whose row i is
    ``(2 y_i - 1) x_i``: its margins ``m = xs.theta`` are the scores with the
    sign flipped where y_i = 0, exactly, and the loss of a point is
    ``softplus(-m) = log1p(exp(-|m|)) + max(-m, 0)``. Both terms are
    non-negative and summed apart, ``log1p(exp(-|m|)).1 - min(m, 0).1``, so the
    neg-loss is never above 0 and is exact where the softplus saturates; the
    hinge ``min(m, 0)`` is 0 for a point classified right (``np.minimum``, not
    ``|m| - m``, because inf - inf would warn). A vector's score equals its
    row's in a block to rounding."""
    if task.utility == "neg_test_loss" and task.loss == "mse_linear":
        a, b, c = task.mse
        if thetas.ndim == 1:
            p = a.dot(thetas)
            p -= b
            return -c - thetas.dot(p)
        p = a.T.dot(thetas.T)
        p -= b[:, None]
        p *= thetas.T
        return -c - task.ones_d.dot(p)
    if task.utility == "test_accuracy":
        return accuracy(thetas.dot(task.xt.T), task)
    m = thetas.dot(task.xs.T)
    a = np.abs(m)
    np.minimum(m, task.zeros_l, out=m)
    np.negative(a, out=a)
    np.exp(a, out=a)
    np.log1p(a, out=a)
    sq = thetas.dot(thetas) if thetas.ndim == 1 else np.vecdot(thetas, thetas)
    return -(a.dot(task.ones_l) - m.dot(task.ones_l)) / task.yt.shape[0] - task.lam * sq


def party_grad_np(theta, task, j):
    """Gradient of the ``Task``'s party ``j`` over its rows ``a:b =
    task.rows[j]`` (``m = b - a`` rows): MSE ``(2/m) X^T (X theta - y)``,
    logistic ``X^T (sigmoid(X theta) - y) / m + 2*lam*theta``. Where the
    party's ``task.grad_stats[j]`` is ``(G, h)`` the MSE gradient is
    ``G theta - h``, two numpy calls instead of four, equal to the row formula
    to rounding; where it is None the rows are used. A one-row party takes its
    score and sigmoid as numpy float64 scalars, bitwise equal to the block
    formula: the score is the same ``ndarray.dot`` of the row and ``theta``,
    dividing by 1 and the one-term sum are exact, and ``np.exp`` on a numpy
    scalar runs the array loop (``math.exp`` differs)."""
    stats = task.grad_stats[j]
    if stats is not None:
        g = stats[0].dot(theta)
        g -= stats[1]
        return g
    a, b = task.rows[j]
    if b - a == 1:
        xa = task.x[a]
        s = xa.dot(theta)
        if task.loss == "mse_linear":
            return 2.0 * (xa * (s - task.y[a]))
        return xa * (1.0 / (1.0 + np.exp(-s)) - task.y[a]) + 2.0 * task.lam * theta
    xb = task.x[a:b]
    yb = task.y[a:b]
    s = xb.dot(theta)
    if task.loss == "mse_linear":
        return (2.0 / (b - a)) * xb.T.dot(s - yb)
    sig = 1.0 / (1.0 + np.exp(-s))
    return xb.T.dot(sig - yb) / (b - a) + 2.0 * task.lam * theta


class ChainDiverged(RuntimeError):
    """Non-finite utility during a run; names the iteration (a federated
    round) and party, -1 for the starting model, and the likely cause: the
    init's scale where that model is the init draw, else the learning rate."""

    def __init__(self, iteration: int, party: int, drawn: bool = False):
        self.iteration = iteration
        self.party = party
        where = "initial model" if party < 0 else f"party {party}"
        cause = ("model.init.scale is likely too large" if drawn
                 else "the learning rate is likely too large for the noise level")
        super().__init__(f"non-finite utility at iteration {iteration} ({where}); {cause}")


@dataclass(frozen=True)
class Task:
    """The chain's input, built once per run by ``valuation.prepare``.

    ``x``/``y`` are the training design matrix and labels, grouped by party,
    party ``j`` owning rows ``ptr[j]:ptr[j+1]``; ``xt``/``yt`` the test split
    the utility is scored on, ``x`` and ``xt`` C-contiguous float64. ``loss``
    and ``utility`` are the config's kind names (``models.LOSS_KINDS``,
    ``models.UTILITY_KINDS``). What the kernels read of these is derived once,
    here, and again by any ``dataclasses.replace``: ``rows``, each party's row
    range ``(ptr[j], ptr[j+1])`` as ints, the kernels' one read of ``ptr``;
    ``grad_stats``, each party's MSE gradient statistics ``(G, h)`` or None
    where it keeps the row formula (see ``grad_stats``), together at most
    ``x``'s memory; ``mse``, the test split's ``mse_stats``; ``xs``, the
    logistic loss's signed test design ``(2 yt - 1)[:, None] * xt`` (labels in
    {0, 1}); ``ones_l`` and ``zeros_l``, of the test rows' length l, and
    ``ones_d``, of the d coordinates, which turn its sums into BLAS dot products.
    """

    x: np.ndarray
    y: np.ndarray
    ptr: np.ndarray
    xt: np.ndarray
    yt: np.ndarray
    loss: str
    utility: str
    lr: float
    lam: float
    rows: tuple = field(init=False)
    grad_stats: tuple = field(init=False)
    mse: tuple = field(init=False)
    xs: np.ndarray = field(init=False)
    ones_l: np.ndarray = field(init=False)
    zeros_l: np.ndarray = field(init=False)
    ones_d: np.ndarray = field(init=False)

    def __post_init__(self):
        l, d = self.xt.shape
        derived = {"rows": tuple(zip(self.ptr[:-1].tolist(), self.ptr[1:].tolist())),
                   "grad_stats": grad_stats(self.x, self.y, self.ptr, self.loss),
                   "mse": mse_stats(self.xt, self.yt),
                   "xs": (2.0 * self.yt - 1.0)[:, None] * self.xt,
                   "ones_l": np.ones(l), "zeros_l": np.zeros(l), "ones_d": np.ones(d)}
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def run_chain(task, mechanism, perms, inits, noise, record_grads=False, record_states=False):
    """Walk the valuation chain on a ``Task`` under the run's ``NoiseConfig``
    ``mechanism`` (its clip norm, ``dp.diag_schedule`` and ``correlated``) with
    its pre-drawn (k, n, d) ``noise``; returns a dict of per-run arrays.

    ``marginals[t, j]`` is the raw utility delta of party ``j`` at iteration
    ``t``; the recorded arrays are added when asked for. The estimator over
    the marginals is ``valuation.run_valuation``'s. Divergence raises
    ``ChainDiverged`` without numpy warnings.
    """
    k, n = perms.shape
    d = inits.shape[1]
    lr, clip, correlated = task.lr, mechanism.clip_norm, mechanism.correlated
    marginals = np.zeros((k, n))
    roll = np.zeros((n, d))
    out = {"marginals": marginals}
    if record_grads:
        g_hat = out["g_hat"] = np.zeros((k, n, d))
        g_tilde = out["g_tilde"] = np.zeros((k, n, d))
        g_star = out["g_star"] = np.zeros((k, n, d))
    if record_states:
        theta_prev = out["theta_prev"] = np.zeros((k, n, d))
        v_prev_rec = out["v_prev"] = np.zeros((k, n))
    # unrecorded, one iteration's perturbed gradients, read by fold before the next rewrites them
    buf = np.empty((n, d)) if correlated and not record_grads else None

    # Per-step scalars come from Python lists: indexing numpy arrays for them
    # costs more than the arithmetic they feed.
    orders = perms.tolist()
    diags = dp.diag_schedule(mechanism).tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(k):
            noise_t = noise[t]
            marg_t = marginals[t]
            dg = diags[t]
            tilde = g_tilde[t] if record_grads else buf
            hist = history(roll, dg, t + 1) if correlated else None
            theta = inits[t].copy()
            v_prev = utility_np(theta, task)
            if not math.isfinite(v_prev):
                raise ChainDiverged(t + 1, -1, drawn=True)
            for j in orders[t]:
                g = party_grad_np(theta, task, j)
                clip_in_place(g, clip)
                if record_grads:
                    g_hat[t, j] = g
                g += noise_t[j]
                if tilde is not None:
                    tilde[j] = g
                rel = g if hist is None else release(g, hist[j], dg)
                if record_grads:
                    g_star[t, j] = rel
                if record_states:
                    theta_prev[t, j] = theta
                    v_prev_rec[t, j] = v_prev
                theta -= lr * rel
                v_after = utility_np(theta, task)
                if not math.isfinite(v_after):
                    raise ChainDiverged(t + 1, j)
                marg_t[j] = v_after - v_prev
                v_prev = v_after
            if correlated:
                fold(roll, tilde, t + 1)
    return out
