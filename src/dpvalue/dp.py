"""Gradient privatization: clipping, the k-scaled Gaussian mechanism, and
the correlated-noise combiner.

Every released gradient carries noise of per-coordinate variance
``k * (C*sigma)^2`` so that the whole budget of ``k`` releases meets one
(eps, delta) guarantee. The combiner re-weights already-perturbed gradients
(post-processing, so the guarantee is untouched). It is the lower-triangular
k x k matrix

    X_tl = X_tt               for l = t,
    X_tl = (1 - X_tt)/(t - 1)  for l < t,

so the release at iteration t is ``(1 - X_tt) * rolling_mean + X_tt *
current``, and every row is a convex combination of the perturbed gradients
seen so far (a special case of the matrix-factorization mechanisms of
Denisov et al., 2022). Chain and federated steps take it in three parts:
``history`` scales all parties' rolling means once per iteration, ``release``
adds X_tt times a gradient, and ``fold`` folds the iteration's (n, d) block
into the means, bitwise equal to party by party. Supported diagonals:

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
    sigma_g_sq: float | None = None

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
        if self.sigma_g_sq is not None and self.sigma_g_sq < 0:
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

    def with_budget(self, k: int) -> "NoiseConfig":
        return replace(self, budget=k)


def mechanism(base: NoiseConfig, mode: str, k: int, q: float | None = None) -> NoiseConfig:
    """One run's mechanism: ``base`` at budget k with ``mode`` and, for corr_y
    only, the burn-in share q; ``no_dp`` is the iid release at multiplier 0."""
    if mode == "no_dp":
        base, mode = replace(base, noise_multiplier=0.0), "iid"
    return replace(base, budget=k, mode=mode, q=q if mode == "corr_y" else None)


def calibrate_sigma(epsilon: float, delta: float) -> float:
    """Analytic Gaussian-mechanism multiplier sqrt(2*ln(1.25/delta))/eps."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must be in (0, 1)")
    return math.sqrt(2.0 * math.log(1.25 / delta)) / epsilon


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


def clip_in_place(g: np.ndarray, clip_norm: float) -> np.ndarray:
    """Scale ``g`` in place to norm at most ``clip_norm``. A non-finite ``g``
    stays non-finite, so the chain's divergence guard still sees it."""
    nrm = math.sqrt(float(g @ g))
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
