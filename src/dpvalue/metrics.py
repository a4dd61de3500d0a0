"""Evaluation protocols and analytic validators.

Holds the noisy-label AUC, removal curves, the gradient-similarity
diagnostics over the clipped (gh), perturbed (gt) and combined (gs) gradients

    d_cos = mean_{t,j} [cos(gh, gs) - cos(gh, gt)],
    d_l2  = mean_{t,j} [|gh - gs| - |gh - gt|],

with cos(a, b) = |a.b| / (|a||b|) and the means taken in one vectorised pass
over every (t, j) record whose three gradients have non-zero norms, the
closed-form variance identities for noisy squared norms, the N/P/Q moment sums
of the implicit correlated noise, and the Monte Carlo probe for how the
conditional estimator variance scales with the budget k, whose one replay,
``conditional_variance``, is described in its docstring.
"""

from __future__ import annotations

import mmap
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import _kernels, models
from .dp import NoiseConfig, diag_schedule, mechanism, prefix_weights
from .valuation import RunConfig, ValuationResult, estimable, run_valuation


REMOVAL_RANDOM_SEEDS = 5  # removal orders a ``random`` curve averages over


@dataclass(frozen=True)
class RemovalCurve:
    fractions: tuple[float, ...]
    scores: tuple[float, ...]
    per_seed: tuple[tuple[float, ...], ...]  # scores per removal seed; just seed 0 if ordered
    stderr: tuple[float, ...] | None = None


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
    # 1-based midranks: each run of tied scores sorted into positions i..j gets 0.5*(i+j)+1
    order = np.argsort(scores, kind="mergesort")
    sorted_scores = scores[order]
    starts = np.flatnonzero(np.r_[True, sorted_scores[1:] != sorted_scores[:-1]])
    ends = np.r_[starts[1:], len(scores)] - 1
    ranks = np.empty(len(scores))
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    u = ranks[positives].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


REMOVAL_ORDERS = ("highest-first", "lowest-first", "random")


@dataclass(frozen=True)
class Removal:
    """The removal block: the shares of the parties dropped, and the orders
    they are dropped in (``REMOVAL_ORDERS``)."""

    fractions: tuple[float, ...] = (0.0, 0.1, 0.2, 0.3, 0.4)
    orders: tuple[str, ...] = ("highest-first", "random")

    def __post_init__(self):
        fractions = list(self.fractions)
        if any(f < 0 or f >= 1 for f in fractions) or fractions != sorted(set(fractions)):
            raise ValueError("fractions must be strictly increasing within [0, 1)")
        for order in self.orders:
            if order not in REMOVAL_ORDERS:
                raise ValueError(f"unknown removal order {order!r}")
        if len(set(self.orders)) < len(self.orders):
            raise ValueError(f"repeats an order in {list(self.orders)}")


def removal_curve(
    psi: np.ndarray,
    model: models.ModelSpec,
    task: _kernels.Task,
    removal: Removal,
) -> dict[str, RemovalCurve]:
    """Score the model after dropping a growing share of the ``len(psi)``
    parties: one curve per order of ``removal``, in its order.

    Each kept set is retrained from scratch on the prepared ``task`` by
    ``models.train_one_pass`` from ``model``'s init and scored by
    ``_kernels.utility_np``. ``highest-first`` removes the largest psi first;
    ``random`` averages over ``REMOVAL_RANDOM_SEEDS`` removal orders and
    reports the standard error.
    """
    n_parties = len(psi)
    all_parties = np.arange(n_parties)

    def scores(ranked: np.ndarray, seed: int) -> tuple[float, ...]:
        row = []
        for f in removal.fractions:
            drop = int(f * n_parties)
            keep = np.setdiff1d(all_parties, ranked[:drop], assume_unique=True)
            # fraction 0 is the full-data baseline and must not depend on the
            # removal order or its seed
            theta = models.train_one_pass(model, task, keep, 0 if drop == 0 else seed)
            row.append(float(_kernels.utility_np(theta, task)))
        return tuple(row)

    curves = {}
    for order in removal.orders:
        if order == "random":
            rows = tuple(scores(np.random.default_rng(seed).permutation(n_parties), seed)
                         for seed in range(REMOVAL_RANDOM_SEEDS))
            arr = np.array(rows)
            # anchored mean keeps shared values (the fraction-0 baseline) exact
            mean = arr[0] + (arr - arr[0]).mean(axis=0)
            dev = arr - mean
            seeds = REMOVAL_RANDOM_SEEDS
            stderr = np.sqrt((dev * dev).sum(axis=0) / (seeds - 1)) / np.sqrt(seeds)
            curves[order] = RemovalCurve(removal.fractions, tuple(mean), rows, tuple(stderr))
        else:
            row = scores(np.argsort(-psi if order == "highest-first" else psi, kind="stable"), 0)
            curves[order] = RemovalCurve(removal.fractions, row, (row,))
    return curves


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", a, b)


def grad_similarity(g_hat: np.ndarray, g_tilde: np.ndarray, g_star: np.ndarray) -> SimilarityReport:
    """Similarity deltas between clipped, perturbed, and combined gradients.

    Inputs are (k, n, d) stacks, scored in one pass over all (t, j) records;
    records where any of the three gradients has zero norm are skipped and
    counted. The stacks are first scaled by one power of two that brings their
    largest magnitude into [0.5, 1), so the squared norms of tiny (a clip norm
    of 1e-300) or huge gradients neither underflow nor overflow; the scaling is
    exact, cancels in the cosines and is undone on ``delta_l2``.
    """
    if not (g_hat.shape == g_tilde.shape == g_star.shape):
        raise ValueError("gradient stacks must share one shape")
    k, n, _ = g_hat.shape
    exp = int(np.frexp(max(float(np.abs(g).max(initial=0.0)) for g in (g_hat, g_tilde, g_star)))[1])
    g_hat, g_tilde, g_star = (np.ldexp(g, -exp) for g in (g_hat, g_tilde, g_star))
    nh = np.sqrt(_row_dots(g_hat, g_hat))
    nt = np.sqrt(_row_dots(g_tilde, g_tilde))
    ns = np.sqrt(_row_dots(g_star, g_star))
    usable = (nh != 0.0) & (nt != 0.0) & (ns != 0.0)
    terms = int(np.count_nonzero(usable))
    if terms == 0:
        raise ValueError("no usable gradient records: every record has a zero clipped, "
                         "released or combined gradient")
    nh = nh[usable]
    cos_s = np.abs(_row_dots(g_hat, g_star)[usable]) / (nh * ns[usable])
    cos_t = np.abs(_row_dots(g_hat, g_tilde)[usable]) / (nh * nt[usable])
    diff = g_hat - g_star
    l2_s = np.sqrt(_row_dots(diff, diff)[usable])
    np.subtract(g_hat, g_tilde, out=diff)
    l2_t = np.sqrt(_row_dots(diff, diff)[usable])
    d_cos = float((cos_s - cos_t).sum()) / terms
    d_l2 = float(np.ldexp(float((l2_s - l2_t).sum()) / terms, exp))
    return SimilarityReport(d_cos, d_l2, k * n - terms)


def noise_var_closed_form(g_hat: np.ndarray, noise: NoiseConfig, t: int = 1) -> float:
    """Variance of |g + z|^2 for z of per-coordinate variance k(C*sigma)^2/t under ``noise``.

    t = 1 is the plain perturbed gradient; t > 1 covers the t-averaged noise.
    """
    d = len(g_hat)
    v = noise.budget * (noise.clip_norm * noise.noise_multiplier) ** 2 / t
    sq = float(g_hat @ g_hat)
    return 4.0 * sq * v + 2.0 * d * v * v


def npq_closed_form(noise: NoiseConfig, d: int) -> tuple[float, float, float]:
    """Moment sums N, P, Q of the implicit correlated noise of the corr_x or
    corr_y mechanism ``noise`` in d coordinates.

    With its variance-aware matrix (prefix mean when sigma_g_sq = 0) the
    implicit noise at iteration t is isotropic Gaussian with per-coordinate
    variance

        s_t^2 = k(Cs)^2 * sum_l X_tl^2 + sg^2 * sum_{l<t} X_tl^2
                + (1 - X_tt)^2 * sg^2,

    where sum_{l<t} X_tl^2 = (1 - X_tt)^2 / (t - 1) for the combiner's
    uniform off-diagonals, so E|z_t|^2 = d s_t^2 and E|z_t|^4 = d(d+2) s_t^4.
    Sums start after the mechanism's burn-in (corr_y's k*q).
    """
    if noise.mode not in ("corr_x", "corr_y"):
        raise ValueError(f"the N/P/Q sums hold for corr_x and corr_y, got {noise.mode!r}")
    k, start, sg_sq = noise.budget, noise.burn_in, noise.sigma_g_sq
    x = diag_schedule(noise)[start:]
    t = np.arange(start + 1, k + 1)
    head_sq = (1.0 - x) ** 2 / np.maximum(t - 1, 1)  # zero at t = 1, where X_11 = 1
    kcs = k * (noise.clip_norm * noise.noise_multiplier) ** 2
    s_t = kcs * (head_sq + x * x) + sg_sq * head_sq + (1.0 - x) ** 2 * sg_sq
    n_sum = float(d * s_t.sum())
    p_sum = float(d * (d + 2) * (s_t * s_t).sum())
    q_sum = float(np.sqrt(d * (d + 2)) * s_t.sum())
    return n_sum, p_sum, q_sum


# --------------------------------------------------------------------------
# Conditional-variance scaling probe
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ProbeResult:
    ks: tuple[int, ...]
    variances: tuple[float, ...]
    slope: float
    samples: dict[int, np.ndarray]  # per-budget (n_parties, trials) estimator draws


def freeze_scenario(cfg: RunConfig) -> ValuationResult:
    """The ``no_dp`` run of ``cfg`` at its budget, whatever its mode, with its
    gradients and states recorded: its ``ValuationResult`` is the conditioning.
    Replaying its thetas with fresh noise realizes Var[psi | theta^p sequence]:
    the permutations, initializations and clipped gradients ``g_hat`` are
    fixed and only the privacy noise is redrawn."""
    silent = mechanism(cfg.noise, "no_dp", cfg.noise.budget)
    return run_valuation(replace(cfg, noise=silent, record_gradients=True, record_states=True))


_utility_rows = _kernels.utility_np  # the probe's (trials, d) blocks, traced as their own layer


PROBE_MODES = ("iid", "corr_x", "corr_y")


@dataclass(frozen=True)
class Probe:
    """The probe block: the budgets of the slope fit, the noise redraws per
    budget, the modes replayed from each draw, and corr_y's burn-in share."""

    ks: tuple[int, ...] = (50, 100, 200, 400, 800)
    trials: int = 500
    modes: tuple[str, ...] = ("iid", "corr_x")
    q: float = 0.5

    def __post_init__(self):
        if len(self.ks) < 3:
            raise ValueError(f"need at least three budgets for a slope fit, got {list(self.ks)}")
        for k in self.ks:
            try:  # the frozen chain is the no_dp run: iid, so without burn-in
                estimable(NoiseConfig(1.0, 0.0, k))
            except ValueError as exc:
                raise ValueError(f"need at least three budgets for a slope fit, each one a chain "
                                 f"can run, got {list(self.ks)}: {exc}") from None
        if len(set(self.ks)) < len(self.ks):
            raise ValueError(f"repeats a budget in {list(self.ks)}")
        if self.trials < 100:
            raise ValueError(f"need at least 100 trials per budget, got {self.trials}")
        if not self.modes:
            raise ValueError("modes must name at least one mode to replay, got none")
        for i, mode in enumerate(self.modes):
            if mode not in PROBE_MODES:
                raise ValueError(f"probe mode must be one of {', '.join(PROBE_MODES)}, "
                                 f"got {mode!r}")
            if mode in self.modes[:i]:
                raise ValueError(f"repeats the mode {mode!r}")

    def mechanisms(self, noise: NoiseConfig, k: int) -> tuple[NoiseConfig, ...]:
        """The mechanism of each mode at budget ``k``, in mode order, made from
        ``noise`` (corr_y's at burn-in share ``q``) and so checked by
        ``NoiseConfig``: the runs the probe replays at k."""
        return tuple(mechanism(noise, mode, k, self.q) for mode in self.modes)


def probe_sigma(sigma: float) -> float:
    """A probe measures the variance the noise adds, so it needs noise."""
    if sigma <= 0.0:
        raise ValueError(f"a probe measures the noise's variance and needs sigma > 0, got {sigma}")
    return sigma


_CHUNK = 16  # iterations whose parameter slabs are built together


@np.errstate(over="ignore", invalid="ignore")  # a diverging replay is reported below
def conditional_variance(cfg: RunConfig, probe: Probe, seed: int
                         ) -> list[tuple[float, np.ndarray]]:
    """Var[psi | frozen sequences] of the run ``cfg`` at its budget k, from
    ``probe.trials`` noise redraws, averaged over parties, and the
    (n_parties, trials) estimator draws it is taken over: one ``(var, draws)``
    per mode of ``probe``, all replayed from one draw. The ``Probe`` already
    holds its trial count and modes to its rules, so the replay checks neither.

    The mechanisms are ``probe.mechanisms(cfg.noise, k)``: iid, or
    corr_x/corr_y with the base noise's combiner diagonal (the prefix mean or
    the variance-aware one); corr_y additionally drops the first k*q
    iterations from the estimator, with q = ``probe.q``. One base noise gives
    every mode the same per-release noise scale and the correlated ones the
    same diagonal, so one standard normal (trials, k, d) block per party feeds
    every mode. A chunk of iterations is gathered from it at a time, scaled by
    std, into reused (chunk, d, trials) slab buffers with trials innermost:
    the iid parameters are ``base_iid[t] - lr*std*z_t`` and the correlated
    ones ``base_corr[t] - lr*(c_t * std * prefix sum of z + e_t * std*z_t)``
    with ``dp``'s prefix-sum weights (c, e) of the diagonal, shared by corr_x
    and corr_y, with the prefix sum carried from chunk to chunk. Each (d,
    trials) slab is scored once per mode as the (trials, d) view ``slab.T``,
    and a chunk's utilities are folded into psi in the order of t.

    One worker thread owns the noise generator. It draws party 1's block
    while ``freeze_scenario`` runs the noiseless chains of ``cfg`` and party
    j+1's while this thread scores party j's. Two blocks are reused in turn,
    and the draws run in party order on one stream, so every result is
    bitwise that of a single-threaded replay of each mode alone. Leaving the
    pool joins the worker on every exit path, and ``result()`` re-raises an
    error from it here. A non-finite estimate raises, without numpy warnings,
    a ``RuntimeError`` naming the budget, the mode and the party.
    """
    k, n, trials = cfg.noise.budget, cfg.dataset.n_parties, probe.trials
    d = cfg.dataset.features.shape[1] + int(cfg.model.add_bias)
    noises = probe.mechanisms(cfg.noise, k)
    std = cfg.noise.per_release_std
    corr = [noise for noise in noises if noise.correlated]
    kqs = [noise.burn_in for noise in noises]
    iid = any(not noise.correlated for noise in noises)
    rng = np.random.default_rng(seed)  # used by the draw thread only
    draws = [np.empty((n, trials)) for _ in noises]
    # each block in its own mapping, unmapped when freed: a heap block stays resident while
    # a later chunk sits above it, such as the state the exiting draw thread frees late
    blocks = [np.frombuffer(mmap.mmap(-1, 8 * trials * k * d)).reshape(trials, k, d)
              for _ in range(2)]
    c = min(_CHUNK, k)
    # a chunk's (c, d, trials) parameter slabs, trials innermost: std*z becomes the correlated
    # ones in place, with the current-gradient terms std*z*e*lr beside them
    slabs_corr, slabs_iid, slabs_e = (np.empty((c, d, trials)) for _ in range(3))
    acc = np.empty((d, trials))  # std times the prefix sum of z up to the chunk's last t
    utils = [np.empty((c, trials)) for _ in noises]  # a chunk's utilities per mode
    psis = [np.empty(trials) for _ in noises]
    with ThreadPoolExecutor(max_workers=1) as pool:
        pending = pool.submit(rng.standard_normal, out=blocks[0])
        # one freeze per mode, as the benchmark's traced call counts expect; all are equal
        for _ in noises:
            scenario = freeze_scenario(cfg)
        task = scenario.task
        lr = task.lr
        if corr:  # dp's prefix-sum weights, broadcast along coordinates and trials
            c_w, e_w = (w[:, None] for w in prefix_weights(diag_schedule(corr[0])))
            c_lr, e_lr = c_w[:, :, None] * lr, e_w[:, :, None] * lr
        for j in range(n):
            theta_prev, g_hat = scenario.theta_prev[:, j, :], scenario.g_hat[:, j, :]
            pcoefs, v_prev = scenario.pcoefs[:, j], scenario.v_prev[:, j]
            if iid:
                base_iid = theta_prev - lr * g_hat
            if corr:
                base_corr = theta_prev - lr * (np.cumsum(g_hat, axis=0) * c_w + g_hat * e_w)
            z = pending.result()
            if j + 1 < n:  # the other block, which party j-1 is done with
                pending = pool.submit(rng.standard_normal, out=blocks[(j + 1) % 2])
            for psi in psis:
                psi.fill(0.0)
            for t0 in range(0, k, c):
                t1 = min(t0 + c, k)
                # gather the chunk from the (trials, k, d) block once, scaled by std
                zs = slabs_corr[:t1 - t0]
                np.multiply(z[:, t0:t1].transpose(1, 2, 0), std, out=zs)
                if iid:
                    theta_iid = slabs_iid[:t1 - t0]
                    np.multiply(zs, lr, out=theta_iid)
                    np.subtract(base_iid[t0:t1, :, None], theta_iid, out=theta_iid)
                if corr:
                    ez = np.multiply(zs, e_lr[t0:t1], out=slabs_e[:t1 - t0])
                    if t0:
                        zs[0] += acc
                    # the prefix sum as adds of whole contiguous (d, trials) slabs:
                    # np.cumsum's adds in its order
                    for i in range(1, t1 - t0):
                        np.add(zs[i], zs[i - 1], out=zs[i])
                    acc[...] = zs[-1]
                    zs *= c_lr[t0:t1]
                    zs += ez
                    theta_corr = np.subtract(base_corr[t0:t1, :, None], zs, out=zs)
                for w, psi, noise, kq in zip(utils, psis, noises, kqs):
                    lo = max(kq, t0)
                    if lo >= t1:
                        continue
                    thetas = theta_corr if noise.correlated else theta_iid
                    vt = w[:t1 - lo]
                    for i, t in enumerate(range(lo, t1)):
                        vt[i] = _utility_rows(thetas[t - t0].T, task)
                    # psi += pcoefs[t] * (v_t - v_prev[t]) in the order of t
                    vt -= v_prev[lo:t1, None]
                    vt *= pcoefs[lo:t1, None]
                    vt[0] += psi
                    np.add.reduce(vt, axis=0, out=psi)
            for out, psi, noise, kq in zip(draws, psis, noises, kqs):
                if not np.isfinite(psi).all():
                    raise RuntimeError(f"the {noise.mode} replay at budget k={k} diverged "
                                       f"at party {j}; lower the noise or the learning rate")
                out[j] = psi / (k - kq)
    return [(float(out.var(axis=1, ddof=1).mean()), out) for out in draws]


def variance_scaling_probe(probe: Probe, base_cfg: RunConfig, seed: int) -> dict[str, ProbeResult]:
    """Conditional estimator variance versus budget, with a log-log slope fit
    per mode of ``probe``, in its order.

    For each budget the scenario is re-frozen at that length (the noiseless
    chain does not depend on the noise scale or mode), then
    ``conditional_variance`` replays ``probe`` there to estimate Var[psi |
    theta^p sequence]. The noise and every budget's ``probe.mechanisms`` are
    checked before the first chain runs; a variance that is not positive and
    finite, which has no log, raises ``ValueError``.
    """
    probe_sigma(base_cfg.noise.noise_multiplier)
    runs = {k: probe.mechanisms(base_cfg.noise, k) for k in probe.ks}
    variances: dict[str, list[float]] = {mode: [] for mode in probe.modes}
    samples: dict[str, dict[int, np.ndarray]] = {mode: {} for mode in probe.modes}
    for i, (k, noises) in enumerate(runs.items()):
        cfg = replace(base_cfg, noise=noises[0])  # any one: the replay makes each mode's from it
        replays = conditional_variance(cfg, probe, seed=seed * 7919 + i)
        for mode, (var, draws) in zip(probe.modes, replays):
            if not 0.0 < var < np.inf:  # the slope is fit to log(variance)
                raise ValueError(
                    f"the {mode} probe's variance at budget k={k} is {var}, which has no log: "
                    "its noise does not move the utility; raise noise.sigma, noise.clip_norm "
                    "or model.learning_rate")
            variances[mode].append(var)
            samples[mode][k] = draws
    return {
        mode: ProbeResult(probe.ks, tuple(variances[mode]),
                          float(np.polyfit(np.log(probe.ks), np.log(variances[mode]), 1)[0]),
                          samples[mode])
        for mode in probe.modes
    }
