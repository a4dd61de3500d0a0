"""Evaluation protocols and analytic validators.

Holds the noisy-label AUC, removal curves, the gradient-similarity
diagnostics over the clipped (gh), perturbed (gt) and combined (gs) gradients

    d_cos = mean_{t,j} [cos(gh, gs) - cos(gh, gt)],
    d_l2  = mean_{t,j} [|gh - gs| - |gh - gt|],

with cos(a, b) = |a.b| / (|a||b|) and the means taken in one vectorised pass
over every (t, j) record whose three gradients have non-zero norms, the
closed-form variance identities for noisy squared norms, the N/P/Q moment sums
of the implicit correlated noise, and the Monte Carlo probe for how the
conditional estimator variance scales with the budget k. The probe's noise
replay uses a second core: one draw thread fills two reused blocks in turn
from the probe's single random stream while the caller scores them, so its
results are bitwise those of a single-threaded replay.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels
from .dp import NoiseConfig
from .models import design_matrix
from .valuation import RunConfig, run_valuation


@dataclass(frozen=True)
class RemovalCurve:
    fractions: tuple[float, ...]
    scores: tuple[float, ...]
    order: str
    stderr: tuple[float, ...] | None = None
    per_seed: tuple[tuple[float, ...], ...] | None = None  # random order only


@dataclass(frozen=True)
class SimilarityReport:
    delta_cos: float
    delta_l2: float
    skipped_terms: int = 0


def auc_roc(scores: np.ndarray, positives: np.ndarray) -> float:
    """Rank-based AUC (Mann-Whitney) with midrank tie handling."""
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    n_pos = int(positives.sum())
    n_neg = len(positives) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need at least one positive and one negative")
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(len(scores))
    sorted_scores = scores[order]
    i = 0
    while i < len(scores):
        j = i
        while j + 1 < len(scores) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0  # midrank, 1-based
        i = j + 1
    u = ranks[positives].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


def removal_curve(
    psi: np.ndarray,
    n_parties: int,
    trainer,
    order: str,
    fractions,
    random_seeds: int = 5,
) -> RemovalCurve:
    """Score the model after dropping a growing share of parties.

    ``trainer(included_party_ids, seed) -> score`` retrains from scratch and
    evaluates; it must be deterministic per seed. ``highest-first`` removes
    the largest psi first; ``random`` averages over ``random_seeds`` removal
    orders and reports the standard error.
    """
    fractions = tuple(float(f) for f in fractions)
    if any(f < 0 or f >= 1 for f in fractions) or list(fractions) != sorted(set(fractions)):
        raise ValueError("fractions must be strictly increasing within [0, 1)")
    if order not in ("highest-first", "lowest-first", "random"):
        raise ValueError(f"unknown removal order {order!r}")
    if order == "random" and random_seeds < 5:
        raise ValueError("random order needs >= 5 seeds")

    all_parties = np.arange(n_parties)

    def curve_for(removal_order: np.ndarray, seed: int) -> list[float]:
        scores = []
        for f in fractions:
            drop = int(f * n_parties)
            if drop >= n_parties:
                raise ValueError("removal would empty the training set")
            keep = np.setdiff1d(all_parties, removal_order[:drop], assume_unique=True)
            # fraction 0 is the full-data baseline and must not depend on the
            # removal order or its seed
            scores.append(float(trainer(keep, 0 if drop == 0 else seed)))
        return scores

    if order == "random":
        rows = []
        for seed in range(random_seeds):
            rng = np.random.default_rng(seed)
            rows.append(curve_for(rng.permutation(n_parties), seed))
        arr = np.array(rows)
        # anchored mean keeps shared values (the fraction-0 baseline) exact
        mean = arr[0] + (arr - arr[0]).mean(axis=0)
        dev = arr - mean
        stderr = np.sqrt((dev * dev).sum(axis=0) / (random_seeds - 1)) / np.sqrt(random_seeds)
        return RemovalCurve(
            fractions, tuple(mean), order, tuple(stderr),
            per_seed=tuple(tuple(row) for row in rows),
        )

    ranked = np.argsort(-psi if order == "highest-first" else psi, kind="stable")
    return RemovalCurve(fractions, tuple(curve_for(ranked, 0)), order)


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", a, b)


def grad_similarity(g_hat: np.ndarray, g_tilde: np.ndarray, g_star: np.ndarray) -> SimilarityReport:
    """Similarity deltas between clipped, perturbed, and combined gradients.

    Inputs are (k, n, d) stacks, scored in one pass over all (t, j) records;
    records where any of the three gradients has zero norm are skipped and
    counted.
    """
    if not (g_hat.shape == g_tilde.shape == g_star.shape):
        raise ValueError("gradient stacks must share one shape")
    k, n, _ = g_hat.shape
    nh = np.sqrt(_row_dots(g_hat, g_hat))
    nt = np.sqrt(_row_dots(g_tilde, g_tilde))
    ns = np.sqrt(_row_dots(g_star, g_star))
    usable = (nh != 0.0) & (nt != 0.0) & (ns != 0.0)
    terms = int(np.count_nonzero(usable))
    if terms == 0:
        raise ValueError("no usable gradient records")
    nh = nh[usable]
    cos_s = np.abs(_row_dots(g_hat, g_star)[usable]) / (nh * ns[usable])
    cos_t = np.abs(_row_dots(g_hat, g_tilde)[usable]) / (nh * nt[usable])
    diff = g_hat - g_star
    l2_s = np.sqrt(_row_dots(diff, diff)[usable])
    np.subtract(g_hat, g_tilde, out=diff)
    l2_t = np.sqrt(_row_dots(diff, diff)[usable])
    d_cos = float((cos_s - cos_t).sum()) / terms
    d_l2 = float((l2_s - l2_t).sum()) / terms
    return SimilarityReport(d_cos, d_l2, k * n - terms)


def noise_var_closed_form(g_hat: np.ndarray, k: int, clip: float, sigma: float, t: int = 1) -> float:
    """Variance of |g + z|^2 for z with per-coordinate variance k(C*sigma)^2/t.

    t = 1 is the plain perturbed gradient; t > 1 covers the t-averaged noise.
    """
    d = len(g_hat)
    v = k * (clip * sigma) ** 2 / t
    sq = float(g_hat @ g_hat)
    return 4.0 * sq * v + 2.0 * d * v * v


def npq_closed_form(
    k: int, clip: float, sigma: float, sigma_g_sq: float, d: int, q: float = 0.0
) -> tuple[float, float, float]:
    """Moment sums N, P, Q of the implicit correlated noise.

    With the variance-aware matrix (prefix mean when sigma_g_sq = 0) the
    implicit noise at iteration t is isotropic Gaussian with per-coordinate
    variance

        s_t^2 = k(Cs)^2 * sum_l X_tl^2 + sg^2 * sum_{l<t} X_tl^2
                + (1 - X_tt)^2 * sg^2,

    so E|z_t|^2 = d s_t^2 and E|z_t|^4 = d(d+2) s_t^4. Sums start at kq+1
    when a burn-in share q is given.
    """
    if not (0.0 <= q < 1.0):
        raise ValueError("q must lie in [0, 1)")
    kq = k * q
    if abs(kq - round(kq)) > 1e-9:
        raise ValueError(f"k*q must be an integer, got {kq}")
    start = int(round(kq)) + 1
    kcs = k * (clip * sigma) ** 2
    n_sum = p_sum = q_sum = 0.0
    for t in range(start, k + 1):
        if sigma_g_sq == 0.0:
            off = 1.0 / t
            diag = 1.0 / t
        else:
            off = kcs / (t * (kcs + sigma_g_sq))
            diag = (kcs + t * sigma_g_sq) / (t * (kcs + sigma_g_sq))
        sum_sq = (t - 1) * off * off + diag * diag
        head_sq = (t - 1) * off * off
        s_t = kcs * sum_sq + sigma_g_sq * head_sq + (1.0 - diag) ** 2 * sigma_g_sq
        n_sum += d * s_t
        p_sum += d * (d + 2) * s_t * s_t
        q_sum += np.sqrt(d * (d + 2)) * s_t
    return n_sum, p_sum, q_sum


# --------------------------------------------------------------------------
# Conditional-variance scaling probe
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class FrozenScenario:
    """One party-by-iteration record of a noiseless run, used as conditioning.

    Replaying these thetas with fresh noise realizes Var[psi | theta^p
    sequence]: the permutations, initializations and clipped gradients are
    fixed and only the privacy noise is redrawn.
    """

    theta_prev: np.ndarray  # (k, n, d)
    g_hat: np.ndarray  # (k, n, d)
    v_prev: np.ndarray  # (k, n)
    pcoefs: np.ndarray  # (k, n)
    xt: np.ndarray
    yt: np.ndarray
    mse: tuple  # the test set's sufficient statistics, _kernels.mse_stats
    loss_code: int
    util_code: int
    lr: float
    lam: float


@dataclass(frozen=True)
class ProbeResult:
    ks: tuple[int, ...]
    variances: tuple[float, ...]
    slope: float
    # per-budget (n_parties, trials) estimator draws, for tidy export
    samples: dict[int, np.ndarray] | None = None


def freeze_scenario(cfg: RunConfig) -> FrozenScenario:
    """Run the chain without noise, recording the conditioning sequences."""
    silent = replace(
        cfg,
        noise=replace(cfg.noise, noise_multiplier=0.0),
        record_gradients=True,
        record_states=True,
    )
    res = run_valuation(silent)
    xt = design_matrix(cfg.utility.test_features, cfg.model)
    yt = np.ascontiguousarray(cfg.utility.test_labels, dtype=np.float64)
    return FrozenScenario(
        theta_prev=res.states["theta_prev"],
        g_hat=res.gradients["g_hat"],
        v_prev=res.states["v_prev"],
        pcoefs=res.pcoefs,
        xt=xt,
        yt=yt,
        mse=_kernels.mse_stats(xt, yt),
        loss_code=cfg.model.loss_code,
        util_code=cfg.utility.util_code,
        lr=cfg.model.learning_rate,
        lam=cfg.model.l2,
    )


def _utility_rows(thetas: np.ndarray, sc: FrozenScenario) -> np.ndarray:
    """Utility of every row of a (trials, d) parameter block."""
    if sc.util_code == _kernels.UTIL_ACCURACY:
        return _kernels.accuracy(thetas @ sc.xt.T, sc.yt, sc.loss_code)
    if sc.loss_code == _kernels.LOSS_MSE:
        return -_kernels.mse_quadratic(thetas, sc.mse)
    ll = _kernels.log_loss(thetas @ sc.xt.T, sc.yt).sum(axis=1)
    return -ll / sc.yt.shape[0] - sc.lam * np.einsum("ij,ij->i", thetas, thetas)


def conditional_variance(
    scenario: FrozenScenario,
    mode: str,
    noise_cfg: NoiseConfig,
    trials: int,
    seed: int,
    q: float = 0.0,
    return_samples: bool = False,
):
    """Var[psi | frozen sequences] by redrawing noise, averaged over parties.

    The correlated modes use the prefix-mean weights; corr_y additionally
    drops the first k*q iterations from the estimator. With
    ``return_samples`` the per-party, per-trial estimator draws come back too.

    One worker thread owns the noise generator and draws party j+1's
    standard normal (trials, k, d) block while this thread turns party j's
    into parameters and scores them. Two blocks are reused in turn, and the
    draws run in party order on one stream, so every result is bitwise that
    of a single-threaded replay. Leaving the pool joins the worker on every
    exit path, and ``result()`` re-raises an error from it here.
    """
    k, n, d = scenario.theta_prev.shape
    std = noise_cfg.per_release_std
    kq = 0
    if mode == "corr_y":
        kq = int(round(k * q))
        if abs(k * q - kq) > 1e-9 or not (1 <= kq < k):
            raise ValueError("corr_y probe needs integer k*q in [1, k)")
    elif mode not in ("iid", "corr_x"):
        raise ValueError(f"unknown probe mode {mode!r}")
    if std == 0.0:
        return (0.0, np.zeros((n, trials))) if return_samples else 0.0

    rng = np.random.default_rng(seed)  # used by the draw thread only
    inv_t = 1.0 / np.arange(1, k + 1)
    draws = np.empty((n, trials))
    blocks = (np.empty((trials, k, d)), np.empty((trials, k, d)))
    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(rng.standard_normal, out=blocks[0])
        for j in range(n):
            if mode == "iid":
                base = scenario.theta_prev[:, j, :] - scenario.lr * scenario.g_hat[:, j, :]
            else:
                prefix = np.cumsum(scenario.g_hat[:, j, :], axis=0) * inv_t[:, None]
                base = scenario.theta_prev[:, j, :] - scenario.lr * prefix
            thetas = pending.result()
            if j + 1 < n:  # the other block, which party j-1 is done with
                pending = pool.submit(rng.standard_normal, out=blocks[(j + 1) % 2])
            # thetas[i, t] = base[t] - lr * z[i, t], built in place over the draw
            thetas *= std
            if mode != "iid":
                np.cumsum(thetas, axis=1, out=thetas)
                thetas *= inv_t[None, :, None]
            thetas *= scenario.lr
            np.subtract(base, thetas, out=thetas)
            psi = np.zeros(trials)
            for t in range(kq, k):
                vt = _utility_rows(thetas[:, t, :], scenario)
                psi += scenario.pcoefs[t, j] * (vt - scenario.v_prev[t, j])
            draws[j] = psi / (k - kq)
    var = float(draws.var(axis=1, ddof=1).mean())
    return (var, draws) if return_samples else var


def variance_scaling_probe(
    mode: str,
    ks,
    base_cfg: RunConfig,
    trials: int,
    seed: int = 0,
    q: float = 0.0,
    keep_samples: bool = False,
) -> ProbeResult:
    """Conditional estimator variance versus budget, with a log-log slope fit.

    For each budget the scenario is re-frozen at that length (the noiseless
    chain does not depend on the noise scale), then ``trials`` fresh noise
    draws estimate Var[psi | theta^p sequence].
    """
    ks = tuple(int(k) for k in ks)
    if len(ks) < 3:
        raise ValueError("need at least three budgets for a slope fit")
    if trials < 100:
        raise ValueError("need at least 100 trials per budget")
    variances = []
    samples: dict[int, np.ndarray] = {}
    for i, k in enumerate(ks):
        cfg_k = replace(base_cfg, k=k, noise=base_cfg.noise.with_budget(k))
        scenario = freeze_scenario(cfg_k)
        var, draws = conditional_variance(
            scenario, mode, cfg_k.noise, trials, seed=seed * 7919 + i, q=q,
            return_samples=True,
        )
        variances.append(var)
        if keep_samples:
            samples[k] = draws
    slope = float(np.polyfit(np.log(ks), np.log(variances), 1)[0])
    return ProbeResult(ks, tuple(variances), slope, samples if keep_samples else None)
