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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dp import clip_in_place, fold, history, release

# One formula per loss, scored by ``utility_np`` for the chain, federated
# attribution, retraining and the variance probe's noise replay. Scores ``s``
# may be a vector or a (trials, l) block; reductions run over the last axis.


def log_loss(s, y):
    """Per-point logistic loss ``softplus(-s) + (1-y)*s`` of the scores ``s``.

    With ``softplus(-s) = log1p(exp(-|s|)) + max(-s, 0)`` the sum is evaluated
    as ``log1p(exp(-|s|)) + max(s, 0) - y*s``: one stable softplus per point,
    exact where it saturates, instead of two ``logaddexp`` calls.
    """
    out = np.abs(s)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(s, 0.0)
    out -= y * s
    return out


def accuracy(s, y, loss):
    """Share of test points whose thresholded score equals the label; NaN for
    a row whose scores are not all finite, which thresholding would hide from
    the chain's divergence check. A vector of scores gives a scalar."""
    thr = 0.5 if loss == "mse_linear" else 0.0
    acc = np.add.reduce((s >= thr) == y, axis=-1) / y.shape[0]
    return np.where(np.isfinite(s).all(axis=-1), acc, np.nan)[()]


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
    formula per utility. The MSE neg-loss is ``-(theta.A.theta - b.theta +
    c)`` on ``mse_stats``: ``-c - theta.(A theta - b)`` for a vector, and for
    a block with theta.A as ``A.T.dot(thetas.T).T``, laid out as a transposed
    (d, trials) array whatever the block's layout, so each row's bits do not
    depend on it. A vector's score equals its row's in a block to rounding."""
    if task.utility == "neg_test_loss" and task.loss == "mse_linear":
        a, b, c = task.mse
        if thetas.ndim == 1:
            p = a.dot(thetas)
            p -= b
            return -c - thetas.dot(p)
        p = a.T.dot(thetas.T).T
        p -= b
        p *= thetas
        return -c - np.add.reduce(p, axis=-1)
    s = thetas.dot(task.xt.T)
    if task.utility == "test_accuracy":
        return accuracy(s, task.yt, task.loss)
    sq = thetas.dot(thetas) if thetas.ndim == 1 else np.vecdot(thetas, thetas)
    return -np.add.reduce(log_loss(s, task.yt), axis=-1) / task.yt.shape[0] - task.lam * sq


def party_grad_np(theta, x, y, a, b, loss, lam, stats):
    """Gradient over the party's rows ``a:b`` (``m = b - a`` rows): MSE
    ``(2/m) X^T (X theta - y)``, logistic ``X^T (sigmoid(X theta) - y) / m
    + 2*lam*theta``. ``stats`` is the party's entry of ``grad_stats``: where
    it is ``(G, h)`` the MSE gradient is ``G theta - h``, two numpy calls
    instead of four, equal to the row formula to rounding; where it is None
    the rows are used. A one-row party takes its score and sigmoid as numpy
    float64 scalars, bitwise equal to the block formula: the score is the same
    ``ndarray.dot`` of the row and ``theta``, dividing by 1 and the one-term
    sum are exact, and ``np.exp`` on a numpy scalar runs the array loop
    (``math.exp`` differs)."""
    if stats is not None:
        g = stats[0].dot(theta)
        g -= stats[1]
        return g
    if b - a == 1:
        xa = x[a]
        s = xa.dot(theta)
        if loss == "mse_linear":
            return 2.0 * (xa * (s - y[a]))
        return xa * (1.0 / (1.0 + np.exp(-s)) - y[a]) + 2.0 * lam * theta
    xb = x[a:b]
    yb = y[a:b]
    s = xb.dot(theta)
    if loss == "mse_linear":
        return (2.0 / (b - a)) * xb.T.dot(s - yb)
    sig = 1.0 / (1.0 + np.exp(-s))
    return xb.T.dot(sig - yb) / (b - a) + 2.0 * lam * theta


class ChainDiverged(RuntimeError):
    """Non-finite utility during a run; names the iteration (a federated
    round) and party."""

    def __init__(self, iteration: int, party: int):
        self.iteration = iteration
        self.party = party
        where = "initial model" if party < 0 else f"party {party}"
        super().__init__(
            f"non-finite utility at iteration {iteration} ({where}); "
            "the learning rate is likely too large for the noise level"
        )


@dataclass(frozen=True)
class Task:
    """The chain's input, built once per run by ``valuation.prepare``.

    ``x``/``y`` are the training design matrix and labels, grouped by party,
    party ``j`` owning rows ``ptr[j]:ptr[j+1]``; ``xt``/``yt`` the test split
    the utility is scored on and ``mse`` its ``mse_stats``. ``grad_stats``
    holds each party's MSE gradient statistics ``(G, h)``, or None where the
    party keeps the row formula (see ``grad_stats``); all of them together
    take at most ``x``'s memory. ``x`` and ``xt`` are C-contiguous float64.
    ``loss`` and ``utility`` are the config's kind names
    (``models.LOSS_KINDS``, ``models.UTILITY_KINDS``).
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
    mse: tuple
    grad_stats: tuple


def run_chain(task, clip, perms, inits, noise, diag, correlated,
              record_grads=False, record_states=False):
    """Walk the valuation chain on a ``Task``; returns a dict of per-run arrays.

    ``marginals[t, j]`` is the raw utility delta of party ``j`` at iteration
    ``t``; the recorded arrays are added when asked for. The estimator over
    the marginals is ``valuation.run_valuation``'s. Divergence raises
    ``ChainDiverged`` without numpy warnings.
    """
    k, n = perms.shape
    d = inits.shape[1]
    x, y, loss, lr, lam = task.x, task.y, task.loss, task.lr, task.lam
    stats = task.grad_stats
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

    # Per-step scalars come from Python lists: indexing numpy arrays for them
    # costs more than the arithmetic they feed.
    orders = perms.tolist()
    ptr = task.ptr.tolist()
    diags = diag.tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(k):
            noise_t = noise[t]
            marg_t = marginals[t]
            dg = diags[t]
            tilde = g_tilde[t] if record_grads else np.empty((n, d)) if correlated else None
            hist = history(roll, dg, t + 1) if correlated else None
            theta = inits[t].copy()
            v_prev = utility_np(theta, task)
            if not math.isfinite(v_prev):
                raise ChainDiverged(t + 1, -1)
            for j in orders[t]:
                g = party_grad_np(theta, x, y, ptr[j], ptr[j + 1], loss, lam, stats[j])
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
