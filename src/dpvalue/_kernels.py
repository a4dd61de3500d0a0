"""Hot inner loops of the permutation-valuation chain.

The sequential chain (for every sampled permutation: clip, perturb, combine,
step the model, score the utility) dominates runtime. It is a numpy loop over
iterations and parties that consumes pre-generated permutation, init and noise
arrays, so a given seed yields the same run every time.
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


def utility_np(thetas, task):
    """Test-set utility of a (d,) parameter vector, or of each row of a
    (trials, d) block in any memory layout, on the ``Task``'s test split; one
    formula per utility. The MSE neg-loss is ``-(theta.A.theta - b.theta +
    c)`` on ``mse_stats``, with theta.A as ``(A.T @ thetas.T).T``: laid out as
    a transposed (d, trials) array whatever the block's layout, so each row's
    bits do not depend on it."""
    if task.utility == "neg_test_loss" and task.loss == "mse_linear":
        a, b, c = task.mse
        p = (a.T @ thetas.T).T
        p -= b
        p *= thetas
        return -c - np.add.reduce(p, axis=-1)
    s = thetas @ task.xt.T
    if task.utility == "test_accuracy":
        return accuracy(s, task.yt, task.loss)
    return (-np.add.reduce(log_loss(s, task.yt), axis=-1) / task.yt.shape[0]
            - task.lam * np.vecdot(thetas, thetas))


def party_grad_np(theta, x, y, a, b, loss, lam):
    """Gradient over the party's rows ``a:b`` (``m = b - a`` rows): MSE
    ``(2/m) X^T (X theta - y)``, logistic ``X^T (sigmoid(X theta) - y) / m
    + 2*lam*theta``. A one-row party takes its score and sigmoid as numpy
    float64 scalars, bitwise equal to the block formula: the score is the same
    dot product, dividing by 1 and the one-term sum are exact, and ``np.exp``
    on a numpy scalar runs the array loop (``math.exp`` differs)."""
    if b - a == 1:
        s = x[a] @ theta
        if loss == "mse_linear":
            return 2.0 * (x[a] * (s - y[a]))
        return x[a] * (1.0 / (1.0 + np.exp(-s)) - y[a]) + 2.0 * lam * theta
    xb = x[a:b]
    yb = y[a:b]
    s = xb @ theta
    if loss == "mse_linear":
        return (2.0 / (b - a)) * (xb.T @ (s - yb))
    sig = 1.0 / (1.0 + np.exp(-s))
    return (xb.T @ (sig - yb)) / (b - a) + 2.0 * lam * theta


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

    ``x``/``y`` are the training design matrix and labels sorted by party,
    party ``j`` owning rows ``ptr[j]:ptr[j+1]``; ``xt``/``yt`` the test split
    the utility is scored on and ``mse`` its ``mse_stats``. ``x`` and ``xt``
    are C-contiguous float64. ``loss`` and ``utility`` are the config's kind
    names (``models.LOSS_KINDS``, ``models.UTILITY_KINDS``).
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


def run_chain(task, clip, perms, inits, noise, diag, correlated, p_by_pos, kq=0,
              record_grads=False, record_states=False):
    """Run the full valuation chain on a ``Task``; returns a dict of per-run arrays.

    ``marginals[t, j]`` is the raw utility delta of party ``j`` at iteration
    ``t`` and ``pcoefs[t, j]`` the position coefficient it was observed with;
    ``psi`` is the streaming estimate (burn-in already applied when
    ``kq > 0``). Divergence raises ``ChainDiverged`` without numpy warnings.
    """
    k, n = perms.shape
    d = inits.shape[1]
    x, y, loss, lr, lam = task.x, task.y, task.loss, task.lr, task.lam
    marginals = np.zeros((k, n))
    pcoefs = np.zeros((k, n))
    psi = [0.0] * n
    roll = np.zeros((n, d))
    out = {"marginals": marginals, "pcoefs": pcoefs, "roll": roll}
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
    coefs = p_by_pos.tolist()
    diags = diag.tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(k):
            noise_t = noise[t]
            marg_t = marginals[t]
            pcoefs[t, perms[t]] = p_by_pos
            dg = diags[t]
            retained = t >= kq
            if retained:
                cnt = t - kq + 1.0
                psi_keep = (cnt - 1.0) / cnt
            tilde = g_tilde[t] if record_grads else np.empty((n, d)) if correlated else None
            hist = history(roll, dg, t + 1) if correlated else None
            theta = inits[t].copy()
            v_prev = utility_np(theta, task)
            if not math.isfinite(v_prev):
                raise ChainDiverged(t + 1, -1)
            for pos, j in enumerate(orders[t]):
                g = party_grad_np(theta, x, y, ptr[j], ptr[j + 1], loss, lam)
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
                m = v_after - v_prev
                marg_t[j] = m
                if retained:
                    psi[j] = psi_keep * psi[j] + coefs[pos] * m / cnt
                v_prev = v_after
            if correlated:
                fold(roll, tilde, t + 1)
    out["psi"] = np.array(psi)
    return out
