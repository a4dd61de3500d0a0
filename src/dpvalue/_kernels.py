"""Hot inner loops of the permutation-valuation chain.

The sequential chain (for every sampled permutation: clip, perturb, combine,
step the model, score the utility) dominates runtime. It is a numpy loop over
iterations and parties that consumes pre-generated permutation, init and noise
arrays, so a given seed yields the same run every time.
"""

from __future__ import annotations

import math

import numpy as np

LOSS_MSE = 0
LOSS_LOGISTIC = 1
UTIL_NEG_LOSS = 0
UTIL_ACCURACY = 1

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
):
    """Run the full valuation chain; returns a dict of per-run arrays.

    ``marginals[t, j]`` is the raw utility delta of party ``j`` at iteration
    ``t`` and ``pcoefs[t, j]`` the position coefficient it was observed with;
    ``psi`` is the streaming estimate (burn-in already applied when
    ``kq > 0``). Divergence raises ``ChainDiverged`` without numpy warnings.
    """
    k, n = perms.shape
    d = inits.shape[1]
    x = np.ascontiguousarray(x)
    xt = np.ascontiguousarray(xt)
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
    ptr = party_ptr.tolist()
    coefs = p_by_pos.tolist()
    diags = diag.tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(k):
            noise_t = noise[t]
            marg_t = marginals[t]
            pcoefs[t, perms[t]] = p_by_pos
            combine = correlated and t > 0
            dg = diags[t]
            tt = t + 1.0
            roll_keep = (tt - 1.0) / tt
            retained = t >= kq
            if retained:
                cnt = t - kq + 1.0
                psi_keep = (cnt - 1.0) / cnt
            theta = inits[t].copy()
            v_prev = utility_np(theta, xt, yt, loss_code, util_code, lam)
            if not math.isfinite(v_prev):
                raise ChainDiverged(t + 1, -1)
            for pos, j in enumerate(orders[t]):
                g = party_grad_np(theta, x, y, ptr[j], ptr[j + 1], loss_code, lam)
                nrm = math.sqrt(float(g @ g))
                if nrm > clip:
                    g *= clip / nrm
                if record_grads:
                    g_hat[t, j] = g
                g += noise_t[j]
                if record_grads:
                    g_tilde[t, j] = g
                # first iteration: no history, release the perturbed gradient
                rel = (1.0 - dg) * roll[j] + dg * g if combine else g
                if correlated:
                    roll[j] = roll_keep * roll[j] + g / tt
                if record_grads:
                    g_star[t, j] = rel
                if record_states:
                    theta_prev[t, j] = theta
                    v_prev_rec[t, j] = v_prev
                theta -= lr * rel
                v_after = utility_np(theta, xt, yt, loss_code, util_code, lam)
                if not math.isfinite(v_after):
                    raise ChainDiverged(t + 1, j)
                m = v_after - v_prev
                marg_t[j] = m
                if retained:
                    psi[j] = psi_keep * psi[j] + coefs[pos] * m / cnt
                v_prev = v_after
    out["psi"] = np.array(psi)
    return out
