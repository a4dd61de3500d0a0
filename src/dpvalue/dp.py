"""Gradient privatization: clipping, the k-scaled Gaussian mechanism, and
the correlated-noise combiner.

Every released gradient carries noise of per-coordinate variance
``k * (C*sigma)^2`` so that the whole budget of ``k`` releases meets one
(eps, delta) guarantee. The accounting: neighbouring inputs add or remove
one party's data, which moves each of that party's clipped gradients by at
most C, so one release of std ``sqrt(k)*C*sigma`` is
``1/(sigma*sqrt(k))``-GDP and the party's k adaptive releases compose to
mu-GDP with ``mu = 1/sigma`` (Dong, Roth & Su, 2019); ``calibrate_sigma``
picks sigma so that this meets (eps, delta). The combiner re-weights
already-perturbed gradients (post-processing, so the guarantee is
untouched). It is the lower-triangular k x k matrix

    X_tl = X_tt               for l = t,
    X_tl = (1 - X_tt)/(t - 1)  for l < t,

so the release at iteration t is ``(1 - X_tt) * rolling_mean + X_tt *
current``, and every row is a convex combination of the perturbed gradients
seen so far (a special case of the matrix-factorization mechanisms of
Denisov et al., 2022). Chain and federated steps take it in three parts:
``history`` scales all parties' rolling means once per iteration, ``release``
adds X_tt times a gradient, and ``fold`` folds the iteration's (n, d) block
into the means, bitwise equal to party by party. The same matrix on prefix
sums ``S_t = g_1 + ... + g_t`` is

    release_t = c_t * S_t + e_t * g_t,  c_t = (1 - X_tt)/(t - 1),  e_t = X_tt - c_t

(c_1 = 1, e_1 = 0), which ``prefix_weights`` returns for replays that build
many releases at once from one cumulative sum. Supported diagonals:

* prefix mean ``X_tt = 1/t`` (the large-budget limiting matrix),
* the gradient-variance-aware diagonal
  ``X_tt = (k(Cs)^2 + t*sg^2) / (t * (k(Cs)^2 + sg^2))``,
* the federated schedule ``X_tt = 0.75 - 0.7 * t / k``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

MODES = ("iid", "corr_x", "corr_y", "fl_schedule")


def burn_in_count(k: int, q: float) -> int:
    """Leading iterations dropped by a burn-in share q in [0, 1) of k."""
    if not 0.0 <= q < 1.0:
        raise ValueError(f"burn-in share q must lie in [0, 1), got {q}")
    kq = k * q
    if abs(kq - round(kq)) > 1e-9:
        raise ValueError(f"k*q must be an integer, got {kq}")
    return int(round(kq))


@dataclass(frozen=True)
class NoiseConfig:
    clip_norm: float
    noise_multiplier: float
    budget: int
    mode: str = "iid"
    q: float | None = None
    sigma_g_sq: float = 0.0  # 0 selects the prefix-mean diagonal

    def __post_init__(self):
        if self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive")
        if self.noise_multiplier < 0:
            raise ValueError("noise_multiplier must be >= 0")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.mode not in MODES:
            raise ValueError(f"unknown noise mode {self.mode!r}")
        if self.mode == "corr_y":
            if self.q is None or burn_in_count(self.budget, self.q) < 1:
                raise ValueError(f"corr_y needs q with k*q a positive integer, got q={self.q}")
        elif self.q is not None:
            raise ValueError("q only applies to corr_y")
        if self.sigma_g_sq < 0:
            raise ValueError("sigma_g_sq must be >= 0")

    @property
    def correlated(self) -> bool:
        return self.mode != "iid"

    @property
    def burn_in(self) -> int:
        """Number of leading iterations whose marginals are discarded."""
        return burn_in_count(self.budget, self.q) if self.mode == "corr_y" else 0

    @property
    def per_release_std(self) -> float:
        return math.sqrt(self.budget) * self.clip_norm * self.noise_multiplier


def mechanism(base: NoiseConfig, mode: str, k: int, q: float | None = None) -> NoiseConfig:
    """One run's mechanism: ``base`` at budget k with ``mode`` and, for corr_y
    only, the burn-in share q; ``no_dp`` is the iid release at multiplier 0."""
    if mode == "no_dp":
        base, mode = replace(base, noise_multiplier=0.0), "iid"
    return replace(base, budget=k, mode=mode, q=q if mode == "corr_y" else None)


def _gdp_delta(epsilon: float, mu: float) -> float:
    """delta(eps) of mu-GDP: Phi(-eps/mu + mu/2) - e^eps * Phi(-eps/mu - mu/2).
    The second term is taken in log space, and as 0 where its erfc underflows,
    which can only raise the delta returned."""
    first = 0.5 * math.erfc((epsilon / mu - mu / 2.0) / math.sqrt(2.0))
    tail = math.erfc((epsilon / mu + mu / 2.0) / math.sqrt(2.0))
    return first - (0.5 * math.exp(epsilon + math.log(tail)) if tail > 0.0 else 0.0)


def calibrate_sigma(epsilon: float, delta: float) -> float:
    """The noise multiplier that meets (eps, delta) under this module's
    accounting: the larger of the classical sqrt(2*ln(1.25/delta))/eps
    (Dwork & Roth, Thm A.1, proven for eps < 1) and the exact multiplier of
    mu-GDP with mu = 1/sigma (Balle & Wang 2018; Dong, Roth & Su 2019), found
    by bisection on ``_gdp_delta``. Below a crossover eps (about 7.5 to 9 for
    delta from 1e-3 to 1e-7) the classical value is the larger and is
    returned as is; above it the classical value gives less privacy than
    asked."""
    if not 0.0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")
    # a relative margin well above the rounding of delta(eps) near the solution
    # (about 1e-14) keeps the result on the private side
    target = delta * (1.0 - 1e-12)
    lo = math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon
    if not math.isfinite(lo):
        raise ValueError(f"epsilon {epsilon!r} and delta {delta!r} need a noise multiplier "
                         "beyond float range")
    if _gdp_delta(epsilon, 1.0 / lo) <= target:
        return lo
    hi = 2.0 * lo
    while _gdp_delta(epsilon, 1.0 / hi) > target:
        lo, hi = hi, 2.0 * hi
    while True:  # hi always meets the target
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        lo, hi = (lo, mid) if _gdp_delta(epsilon, 1.0 / mid) <= target else (mid, hi)


def diag_schedule(cfg: NoiseConfig) -> np.ndarray:
    """The k diagonal weights X_tt, t = 1..k, of the configured combiner
    (zeros for iid, which has none)."""
    k = cfg.budget
    if not cfg.correlated:
        return np.zeros(k)
    t = np.arange(1, k + 1, dtype=np.float64)
    if cfg.mode == "fl_schedule":
        return 0.75 - 0.7 * t / k
    if not cfg.sigma_g_sq:
        return 1.0 / t
    kcs = k * (cfg.clip_norm * cfg.noise_multiplier) ** 2
    return (kcs + t * cfg.sigma_g_sq) / (t * (kcs + cfg.sigma_g_sq))


def prefix_weights(diag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The combiner of diagonal ``diag`` on prefix sums: the weights (c, e)
    with ``release_t = c_t * S_t + e_t * g_t`` for ``S_t = g_1 + ... + g_t``.
    c_1 = 1 and e_1 = 0 whatever X_11, as ``release`` passes g_1 through."""
    c = np.ones_like(diag)
    c[1:] = (1.0 - diag[1:]) / np.arange(1, len(diag))
    e = diag - c
    e[0] = 0.0
    return c, e


def clip_in_place(g: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale ``g`` in place to norm at most ``clip_norm``. A non-finite ``g``
    stays non-finite, so the chain's divergence guard still sees it."""
    nrm = math.sqrt(g.dot(g))
    if nrm > clip_norm:
        g *= clip_norm / nrm
    return g


def history(roll: np.ndarray, dg: float, t: int) -> np.ndarray | None:
    """All parties' history term ``(1 - X_tt) * roll`` at iteration t; None at t=1."""
    return None if t == 1 else (1.0 - dg) * roll


def release(g_tilde: np.ndarray, hist: np.ndarray | None, dg: float) -> np.ndarray:
    """``hist + X_tt * g_tilde`` for a row or block and its ``history``; at t=1, ``g_tilde``."""
    return g_tilde if hist is None else hist + dg * g_tilde


def fold(roll: np.ndarray, g_tilde: np.ndarray, t: int) -> None:
    """Fold iteration t's perturbed gradients into ``roll`` after its releases."""
    roll *= (t - 1.0) / t
    roll += g_tilde / t
