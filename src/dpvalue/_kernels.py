"""Hot inner loops of the permutation-valuation chain.

The sequential chain (for every sampled permutation: clip, perturb, combine,
step the model, score the utility) dominates runtime, so it is compiled with
numba. A pure-numpy twin with identical semantics is kept as a fallback and
for cross-checking; select it with ``DPVALUE_BACKEND=numpy`` or by passing
``backend="numpy"`` explicitly. Both paths consume pre-generated permutation,
init and noise arrays, so a given seed yields the same run on either path up
to floating-point associativity.
"""

from __future__ import annotations

import math
import os

import numpy as np

LOSS_MSE = 0
LOSS_LOGISTIC = 1
UTIL_NEG_LOSS = 0
UTIL_ACCURACY = 1

try:
    from numba import njit

    HAS_NUMBA = True
except ImportError:  # pragma: no cover
    HAS_NUMBA = False

    def njit(*args, **kwargs):
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap


def default_backend() -> str:
    env = os.environ.get("DPVALUE_BACKEND", "").strip().lower()
    if env == "numpy":
        return "numpy"
    if env == "numba" and not HAS_NUMBA:
        raise RuntimeError("DPVALUE_BACKEND=numba but numba is not importable")
    return "numba" if HAS_NUMBA else "numpy"


# --------------------------------------------------------------------------
# numba path
# --------------------------------------------------------------------------


@njit(cache=True)
def _softplus(x):
    # log(1 + e^x) without overflow
    if x > 0.0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


@njit(cache=True)
def _utility_nb(theta, xt, yt, loss_code, util_code, lam):
    l = xt.shape[0]
    d = theta.shape[0]
    if util_code == UTIL_ACCURACY:
        thr = 0.5 if loss_code == LOSS_MSE else 0.0
        correct = 0
        for r in range(l):
            s = 0.0
            for c in range(d):
                s += xt[r, c] * theta[c]
            pred = 1.0 if s >= thr else 0.0
            if pred == yt[r]:
                correct += 1
        return correct / l
    if loss_code == LOSS_MSE:
        acc = 0.0
        for r in range(l):
            s = 0.0
            for c in range(d):
                s += xt[r, c] * theta[c]
            e = s - yt[r]
            acc += e * e
        return -acc / l
    acc = 0.0
    for r in range(l):
        s = 0.0
        for c in range(d):
            s += xt[r, c] * theta[c]
        # y*log(sig) + (1-y)*log(1-sig)
        acc += -yt[r] * _softplus(-s) - (1.0 - yt[r]) * _softplus(s)
    reg = 0.0
    for c in range(d):
        reg += theta[c] * theta[c]
    return acc / l - lam * reg


@njit(cache=True)
def _party_grad_nb(theta, x, y, a, b, loss_code, lam, out):
    d = theta.shape[0]
    for c in range(d):
        out[c] = 0.0
    bs = b - a
    if loss_code == LOSS_MSE:
        for r in range(a, b):
            s = 0.0
            for c in range(d):
                s += x[r, c] * theta[c]
            w = 2.0 * (s - y[r]) / bs
            for c in range(d):
                out[c] += w * x[r, c]
    else:
        for r in range(a, b):
            s = 0.0
            for c in range(d):
                s += x[r, c] * theta[c]
            sig = 1.0 / (1.0 + math.exp(-s))
            w = (sig - y[r]) / bs
            for c in range(d):
                out[c] += w * x[r, c]
        for c in range(d):
            out[c] += 2.0 * lam * theta[c]


@njit(cache=True)
def _chain_nb(
    x,
    y,
    party_ptr,
    xt,
    yt,
    loss_code,
    util_code,
    lr,
    lam,
    clip,
    perms,
    inits,
    noise,
    diag,
    correlated,
    p_by_pos,
    kq,
    record_grads,
    record_states,
    marginals,
    pcoefs,
    psi,
    roll,
    g_hat,
    g_tilde,
    g_star,
    theta_prev_rec,
    v_prev_rec,
):
    k, n = perms.shape
    d = inits.shape[1]
    theta = np.empty(d)
    g = np.empty(d)
    rel = np.empty(d)
    for t in range(k):
        for c in range(d):
            theta[c] = inits[t, c]
        v_prev = _utility_nb(theta, xt, yt, loss_code, util_code, lam)
        if not np.isfinite(v_prev):
            return t, -1
        for pos in range(n):
            j = perms[t, pos]
            _party_grad_nb(theta, x, y, party_ptr[j], party_ptr[j + 1], loss_code, lam, g)
            nrm = 0.0
            for c in range(d):
                nrm += g[c] * g[c]
            nrm = math.sqrt(nrm)
            if nrm > clip:
                s = clip / nrm
                for c in range(d):
                    g[c] *= s
            if record_grads:
                for c in range(d):
                    g_hat[t, j, c] = g[c]
            for c in range(d):
                g[c] += noise[t, j, c]
            if record_grads:
                for c in range(d):
                    g_tilde[t, j, c] = g[c]
            if correlated and t > 0:
                dg = diag[t]
                for c in range(d):
                    rel[c] = (1.0 - dg) * roll[j, c] + dg * g[c]
            else:
                # first iteration: no history, release the perturbed gradient
                for c in range(d):
                    rel[c] = g[c]
            if correlated:
                tt = t + 1.0
                for c in range(d):
                    roll[j, c] = (tt - 1.0) / tt * roll[j, c] + g[c] / tt
            if record_grads:
                for c in range(d):
                    g_star[t, j, c] = rel[c]
            if record_states:
                for c in range(d):
                    theta_prev_rec[t, j, c] = theta[c]
                v_prev_rec[t, j] = v_prev
            for c in range(d):
                theta[c] -= lr * rel[c]
            v_after = _utility_nb(theta, xt, yt, loss_code, util_code, lam)
            if not np.isfinite(v_after):
                return t, j
            m = v_after - v_prev
            marginals[t, j] = m
            pcoefs[t, j] = p_by_pos[pos]
            if t >= kq:
                cnt = t - kq + 1.0
                psi[j] = (cnt - 1.0) / cnt * psi[j] + p_by_pos[pos] * m / cnt
            v_prev = v_after
    return -1, -1


# --------------------------------------------------------------------------
# numpy fallback (same semantics, vectorised per step)
# --------------------------------------------------------------------------
# One formula per loss, shared with the variance probe's noise replay
# (``metrics._utility_rows``) and with ``models.loss``. Scores ``s`` may be a
# vector or a (trials, l) block; reductions run over the last axis.


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


def accuracy(s, y, loss_code):
    """Share of test points whose thresholded score equals the label."""
    thr = 0.5 if loss_code == LOSS_MSE else 0.0
    return np.count_nonzero((s >= thr) == y, axis=-1) / y.shape[0]


def mse_stats(x, y):
    """Sufficient statistics ``(A, b, c)`` of the mean squared error on (x, y):
    ``mean((x @ theta - y)**2) = theta.A.theta - 2 b.theta + c``."""
    l = y.shape[0]
    return x.T @ x / l, x.T @ y / l, float(y @ y) / l


def mse_quadratic(thetas, stats):
    """Mean squared error of a parameter vector, or of each row of a
    (trials, d) block, from ``mse_stats``: O(d^2) per row instead of O(l*d)."""
    a, b, c = stats
    p = thetas @ a
    p -= 2.0 * b
    return np.einsum("...i,...i->...", p, thetas) + c


def utility_np(theta, xt, yt, loss_code, util_code, lam):
    s = xt @ theta
    if util_code == UTIL_ACCURACY:
        return float(accuracy(s, yt, loss_code))
    if loss_code == LOSS_MSE:
        e = s - yt
        return -float(e @ e) / yt.shape[0]
    return -float(log_loss(s, yt).sum()) / yt.shape[0] - lam * float(theta @ theta)


def party_grad_np(theta, x, y, a, b, loss_code, lam):
    xb = x[a:b]
    yb = y[a:b]
    s = xb @ theta
    if loss_code == LOSS_MSE:
        return (2.0 / (b - a)) * (xb.T @ (s - yb))
    sig = 1.0 / (1.0 + np.exp(-s))
    return (xb.T @ (sig - yb)) / (b - a) + 2.0 * lam * theta


@np.errstate(over="ignore", invalid="ignore")  # divergence is reported as ChainDiverged
def _chain_np(
    x,
    y,
    party_ptr,
    xt,
    yt,
    loss_code,
    util_code,
    lr,
    lam,
    clip,
    perms,
    inits,
    noise,
    diag,
    correlated,
    p_by_pos,
    kq,
    record_grads,
    record_states,
    marginals,
    pcoefs,
    psi,
    roll,
    g_hat,
    g_tilde,
    g_star,
    theta_prev_rec,
    v_prev_rec,
):
    k, n = perms.shape
    for t in range(k):
        theta = inits[t].copy()
        v_prev = utility_np(theta, xt, yt, loss_code, util_code, lam)
        if not np.isfinite(v_prev):
            return t, -1
        for pos in range(n):
            j = perms[t, pos]
            g = party_grad_np(theta, x, y, party_ptr[j], party_ptr[j + 1], loss_code, lam)
            nrm = math.sqrt(float(g @ g))
            if nrm > clip:
                g *= clip / nrm
            if record_grads:
                g_hat[t, j] = g
            g = g + noise[t, j]
            if record_grads:
                g_tilde[t, j] = g
            if correlated and t > 0:
                rel = (1.0 - diag[t]) * roll[j] + diag[t] * g
            else:
                rel = g.copy()
            if correlated:
                tt = t + 1.0
                roll[j] = (tt - 1.0) / tt * roll[j] + g / tt
            if record_grads:
                g_star[t, j] = rel
            if record_states:
                theta_prev_rec[t, j] = theta
                v_prev_rec[t, j] = v_prev
            theta = theta - lr * rel
            v_after = utility_np(theta, xt, yt, loss_code, util_code, lam)
            if not np.isfinite(v_after):
                return t, j
            m = v_after - v_prev
            marginals[t, j] = m
            pcoefs[t, j] = p_by_pos[pos]
            if t >= kq:
                cnt = t - kq + 1.0
                psi[j] = (cnt - 1.0) / cnt * psi[j] + p_by_pos[pos] * m / cnt
            v_prev = v_after
    return -1, -1


class ChainDiverged(RuntimeError):
    """Non-finite utility during a run; names the iteration and party."""

    def __init__(self, iteration: int, party: int):
        self.iteration = iteration
        self.party = party
        where = "initial model" if party < 0 else f"party {party}"
        super().__init__(
            f"non-finite utility at iteration {iteration} ({where}); "
            "the learning rate is likely too large for the noise level"
        )


def run_chain(
    x,
    y,
    party_ptr,
    xt,
    yt,
    loss_code,
    util_code,
    lr,
    lam,
    clip,
    perms,
    inits,
    noise,
    diag,
    correlated,
    p_by_pos,
    kq=0,
    record_grads=False,
    record_states=False,
    backend=None,
):
    """Run the full valuation chain; returns a dict of per-run arrays.

    ``marginals[t, j]`` is the raw utility delta of party ``j`` at iteration
    ``t`` and ``pcoefs[t, j]`` the position coefficient it was observed with;
    ``psi`` is the streaming estimate (burn-in already applied when
    ``kq > 0``).
    """
    k, n = perms.shape
    d = inits.shape[1]
    marginals = np.zeros((k, n))
    pcoefs = np.zeros((k, n))
    psi = np.zeros(n)
    roll = np.zeros((n, d))
    shape_g = (k, n, d) if record_grads else (1, 1, 1)
    shape_s = (k, n, d) if record_states else (1, 1, 1)
    g_hat = np.zeros(shape_g)
    g_tilde = np.zeros(shape_g)
    g_star = np.zeros(shape_g)
    theta_prev = np.zeros(shape_s)
    v_prev = np.zeros(shape_s[:2])

    impl = _chain_nb if (backend or default_backend()) == "numba" else _chain_np
    bad_t, bad_j = impl(
        np.ascontiguousarray(x),
        np.ascontiguousarray(y),
        party_ptr,
        np.ascontiguousarray(xt),
        np.ascontiguousarray(yt),
        loss_code,
        util_code,
        lr,
        lam,
        clip,
        perms,
        inits,
        noise,
        diag,
        correlated,
        p_by_pos,
        kq,
        record_grads,
        record_states,
        marginals,
        pcoefs,
        psi,
        roll,
        g_hat,
        g_tilde,
        g_star,
        theta_prev,
        v_prev,
    )
    if bad_t >= 0:
        raise ChainDiverged(bad_t + 1, bad_j)
    out = {
        "marginals": marginals,
        "pcoefs": pcoefs,
        "psi": psi,
        "roll": roll,
    }
    if record_grads:
        out["g_hat"] = g_hat
        out["g_tilde"] = g_tilde
        out["g_star"] = g_star
    if record_states:
        out["theta_prev"] = theta_prev
        out["v_prev"] = v_prev
    return out
