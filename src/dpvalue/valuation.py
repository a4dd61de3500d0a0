"""Permutation-sampling semivalue engine.

A semivalue for n parties is defined by a weight function w over coalition
sizes with sum_r binom(n-1, r-1) * w(r) = n:

    phi_i = sum_r (1/n) w(r) sum_{S, |S|=r-1, i not in S} [V(S+i) - V(S)]

and estimated by averaging position-weighted marginal contributions over
uniformly sampled permutations:

    psi_j = (1/(k-kq)) sum_{t>=kq} p(r_jt) [V(after j) - V(before j)],
    p(r) = binom(n-1, r-1) * w(r),

the unique position coefficient making the permutation estimator unbiased
for phi (it degenerates to p = 1 for the Shapley weights), after a burn-in of
kq iterations (0 except under corr_y). The kernel runs the gradient-descent
chain: per permutation the model is re-initialized and each party in order
contributes one clipped, noise-perturbed gradient step, optionally passed
through the correlated-noise combiner, and its utility delta is recorded;
``run_valuation`` computes psi from the deltas.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .data import PartitionedDataset
from .dp import NoiseConfig, burn_in_count, clip_in_place, diag_schedule, fold, history, release
from .models import (ModelSpec, check_labels, check_test_split, design_matrix, init_params,
                     utility_kind)

MAX_PARTIES_WEIGHTS = 10_000
MU_GUARD = 1e-15  # |mu| below which the mean-adjusted variance is NaN


@dataclass(frozen=True)
class SemivalueSpec:
    """Coalition-size weights w(r), evaluated for n parties by ``semivalue_weights``."""

    kind: str  # shapley | banzhaf | beta | loo
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.kind not in ("shapley", "banzhaf", "beta", "loo"):
            raise ValueError(f"unknown semivalue kind {self.kind!r}")
        if self.kind == "beta" and (self.alpha <= 0 or self.beta <= 0):
            raise ValueError("beta semivalue needs alpha, beta > 0")


def weighable_parties(n: int) -> int:
    """Party counts whose semivalue weights are computed."""
    if not 1 <= n <= MAX_PARTIES_WEIGHTS:
        raise ValueError(f"semivalue weights need 1 <= n <= {MAX_PARTIES_WEIGHTS}, got {n}")
    return n


def semivalue_weights(spec: SemivalueSpec, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Return (w, p) for n parties, indexed by coalition size r = 1..n.

    The binomials are exact Python integers, so the Shapley and Banzhaf
    weights are correctly rounded ratios of integers. The beta family is
    evaluated in log space and normalized so the constraint
    sum_r binom(n-1,r-1) w(r) = n holds exactly.
    """
    weighable_parties(n)
    if spec.kind == "loo":
        w = np.zeros(n)
        w[n - 1] = float(n)
        return w, w.copy()
    binom, c = [], 1  # C(n-1, r-1) for r = 1..n
    for i in range(n):
        binom.append(c)
        c = c * (n - 1 - i) // (i + 1)
    if spec.kind == "shapley":
        return np.array([1 / c for c in binom]), np.ones(n)
    if spec.kind == "banzhaf":
        subsets = 2 ** (n - 1)  # coalitions of the other n - 1 parties
        return np.full(n, n / subsets), np.array([n * c / subsets for c in binom])
    r = np.arange(1, n + 1)
    log_binom = np.array([math.log(c) for c in binom])
    log_b = np.array([math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)  # log B(a, b)
                      for a, b in zip(r + spec.beta - 1.0, n - r + spec.alpha)])
    t = log_binom + log_b
    log_w = math.log(n) + log_b - t.max() - math.log(np.exp(t - t.max()).sum())
    return np.exp(log_w), np.exp(log_w + log_binom)


def estimable(noise: NoiseConfig) -> NoiseConfig:
    """A chain's mechanism, checked to leave ``estimation_stats`` the two
    iterations after the burn-in that a variance estimate needs."""
    if noise.budget - noise.burn_in < 2:
        raise ValueError(f"budget k={noise.budget} after a burn-in of {noise.burn_in} "
                         "leaves under the 2 iterations the estimator needs")
    return noise


def seed_value(seed: int) -> int:
    """A master seed: numpy's generators take non-negative integers only."""
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    return seed


def enumerable_parties(n: int) -> int:
    """Party counts whose n! permutations are enumerated."""
    if not 1 <= n <= 8:
        raise ValueError(f"permutation enumeration needs 1 <= n <= 8, got {n}")
    return n


@dataclass(frozen=True)
class RunConfig:
    """One run; its budget k (permutations, or federated rounds) is ``noise.budget``.
    The utility is scored on the dataset's own held-out test split."""

    dataset: PartitionedDataset
    model: ModelSpec
    utility: str  # neg_test_loss | test_accuracy
    noise: NoiseConfig
    semivalue: SemivalueSpec
    master_seed: int
    record_gradients: bool = False
    record_states: bool = False

    def __post_init__(self):
        seed_value(self.master_seed)
        utility_kind(self.utility)
        check_test_split(self.dataset.test_features, self.dataset.test_labels)
        check_labels(self.model.loss_kind, self.dataset.labels)
        check_labels(self.model.loss_kind, self.dataset.test_labels)
        check_labels(self.utility, self.dataset.test_labels)


@dataclass
class ValuationResult:
    """One run of the chain. Its budget and burn-in are its ``RunConfig``'s
    ``noise.budget`` and ``noise.burn_in``; the recorded arrays, named as the
    chain names them, are None unless ``record_gradients`` or
    ``record_states`` asked for them."""

    psi: np.ndarray
    marginals: np.ndarray  # (k, n) raw utility deltas m_j(pi^t)
    pcoefs: np.ndarray  # (k, n) position coefficients
    mu: np.ndarray
    s_sq: np.ndarray
    mean_adjusted_var: np.ndarray  # NaN where |mu| < MU_GUARD
    task: _kernels.Task  # the prepared input the chain ran on
    g_hat: np.ndarray | None = None  # (k, n, d) clipped gradients, with record_gradients
    g_tilde: np.ndarray | None = None  # (k, n, d) perturbed gradients, with record_gradients
    g_star: np.ndarray | None = None  # (k, n, d) released gradients, with record_gradients
    theta_prev: np.ndarray | None = None  # (k, n, d) model before each step, with record_states
    v_prev: np.ndarray | None = None  # (k, n) its utility, with record_states

    @property
    def n_parties(self) -> int:
        return len(self.psi)


def estimation_stats(marginals: np.ndarray):
    """Per-party mean, variance-of-the-mean, and mean-adjusted variance.

    ``marginals`` holds the retained raw utility deltas, one row per
    iteration. mu_j = mean_t m_jt and s_j^2 = sum_t (m_jt - mu_j)^2 / (k(k-1)),
    the within-run spread of the marginals scaled to their mean. psi weighs
    each marginal by its position coefficient (``pcoefs``), so mu is psi and
    s^2 its variance only under Shapley weights, where every coefficient is 1:
    at 8 per-sample parties, 4 features, logistic, iid, k=50, E[s^2] /
    Var[psi] reads 0.94-1.11 (sigma 0) and 0.88-1.09 (sigma 0.5) for
    Shapley, 0.01-0.24 and 0.48-0.63 for Banzhaf. Under Shapley weights s^2 estimates Var[psi] for
    iid and no_dp, whose iterations are independent, and understates it for
    corr_x and corr_y, which share the combiner's rolling mean: E[s^2] /
    Var[psi] reads 0.99 / 0.35 / 0.019 (iid / corr_x / corr_y) at
    variance_probe.yaml's shape, k=100, and 1.01 / 0.12 / 0.014 at 4 parties,
    k=40 (fl_schedule unmeasured). mean_adjusted is s^2 / |mu|, NaN where |mu| < MU_GUARD.
    A statistic that overflows is inf, without a warning; the result writers refuse it.
    """
    m = np.asarray(marginals, dtype=np.float64)
    k = m.shape[0]
    if k < 2:
        raise ValueError("need at least two retained marginals")
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        mu = m.mean(axis=0)
        s_sq = np.sum((m - mu) ** 2, axis=0) / (k * (k - 1))
        mav = np.where(np.abs(mu) < MU_GUARD, np.nan, s_sq / np.abs(mu))
    return mu, s_sq, mav


def sample_permutations(n: int, k: int,
                        seed: np.random.SeedSequence | np.random.Generator) -> np.ndarray:
    """The engine's permutation stream: k uniform orders of n parties as one
    (k, n) int64 draw. Row by row it is bitwise the k ``permutation(n)`` calls
    of the same generator, which it leaves where they leave it. ``seed`` is a
    ``SeedSequence``, or a ``Generator`` drawn from in place."""
    return np.random.default_rng(seed).permuted(np.tile(np.arange(n), (k, 1)), axis=1)


def prepare(cfg: RunConfig) -> _kernels.Task:
    """The chain's input arrays for one run, built once: the training design
    matrix with the dataset's CSR party offsets, and the test design matrix;
    the ``Task`` derives the parties' gradient statistics and the test
    split's."""
    ds = cfg.dataset
    return _kernels.Task(
        x=design_matrix(ds.features, cfg.model), y=ds.labels, ptr=ds.ptr,
        xt=design_matrix(ds.test_features, cfg.model),
        yt=np.ascontiguousarray(ds.test_labels, dtype=np.float64),
        loss=cfg.model.loss_kind, utility=cfg.utility,
        lr=cfg.model.learning_rate, lam=cfg.model.l2,
    )


def run_valuation(cfg: RunConfig) -> ValuationResult:
    """Execute the full chain for one configuration and compute its estimate.

    Per iteration: sample a uniform permutation, re-initialize the model with
    a seed derived from (master seed, iteration), then walk the permutation
    applying one privatized gradient step per party (``_kernels.run_chain``).
    psi weighs each utility delta with the position coefficient of the
    configured semivalue (``pcoefs``); corr_y drops the first k*q iterations
    from psi and from the summary statistics.
    """
    estimable(cfg.noise)
    _, p = semivalue_weights(cfg.semivalue, cfg.dataset.n_parties)
    task = prepare(cfg)
    n, d = cfg.dataset.n_parties, task.x.shape[1]
    ss = np.random.SeedSequence(cfg.master_seed)
    perm_ss, init_ss, noise_ss = ss.spawn(3)

    k = cfg.noise.budget
    perms = sample_permutations(n, k, perm_ss)
    inits = init_params(cfg.model, (k, d), init_ss)

    noise = np.random.default_rng(noise_ss).standard_normal((k, n, d))
    noise *= cfg.noise.per_release_std  # in place: one (k, n, d) block, not two

    out = _kernels.run_chain(task, cfg.noise, perms, inits, noise,
                             cfg.record_gradients, cfg.record_states)

    pcoefs = p[np.argsort(perms, axis=1)]  # pcoefs[t, perms[t, pos]] = p[pos]
    marginals = out.pop("marginals")
    kq = cfg.noise.burn_in
    mu, s_sq, mav = estimation_stats(marginals[kq:])
    return ValuationResult(
        psi=np.mean(pcoefs[kq:] * marginals[kq:], axis=0),
        marginals=marginals,
        pcoefs=pcoefs,
        mu=mu,
        s_sq=s_sq,
        mean_adjusted_var=mav,
        task=task,
        **out,
    )


def coalitions(n: int):
    """Every coalition of n parties as its sorted members, in bitmask order:
    the one at mask holds party i where bit i of mask is set."""
    for mask in range(1 << n):
        yield tuple(i for i in range(n) if mask >> i & 1)


def exact_semivalue(v_oracle, spec: SemivalueSpec, n: int) -> np.ndarray:
    """Brute-force semivalue of a deterministic n-party set function by subset sums.

    ``v_oracle`` maps a tuple of sorted party indices to a real utility.
    """
    if n > 12:
        raise ValueError("exact enumeration capped at n <= 12")
    w, _ = semivalue_weights(spec, n)
    table = [float(v_oracle(subset)) for subset in coalitions(n)]  # indexed by mask
    phi = np.zeros(n)
    for i in range(n):
        for mask in range(1 << n):
            if mask >> i & 1:
                continue
            r = bin(mask).count("1") + 1
            phi[i] += w[r - 1] / n * (table[mask | (1 << i)] - table[mask])
    return phi


def permutation_expectation(v_oracle, spec: SemivalueSpec, n: int) -> np.ndarray:
    """All-permutation expectation of the position-weighted estimator, n parties.

    Independent cross-check of ``exact_semivalue``: averages p(r) * marginal
    over every permutation instead of summing over subsets.
    """
    _, p = semivalue_weights(spec, enumerable_parties(n))
    cache = {}

    def v(subset) -> float:
        if subset not in cache:
            cache[subset] = float(v_oracle(subset))
        return cache[subset]

    psi = np.zeros(n)
    count = 0
    for perm in itertools.permutations(range(n)):
        count += 1
        before = ()
        v_before = v(before)
        for pos, j in enumerate(perm):
            after = tuple(sorted(before + (j,)))
            v_after = v(after)
            psi[j] += p[pos] * (v_after - v_before)
            before, v_before = after, v_after
    return psi / count


def federated_utility(kind: str) -> str:
    if kind != "test_accuracy":
        raise ValueError("federated attribution uses test accuracy as the utility")
    return kind


def federated_semivalue(kind: str) -> str:
    if kind != "shapley":
        raise ValueError("federated attribution estimates the Shapley value only")
    return kind


@dataclass(frozen=True)
class Federated:
    """The federated block: the permutations of each round's Shapley estimate,
    and the burn-in share q of the rounds dropped from the average."""

    permutations: int = 100
    q: float = 0.2

    def __post_init__(self):
        if self.permutations < 1:
            raise ValueError("need at least one permutation per round")


@np.errstate(over="ignore", invalid="ignore")  # the logistic gradient's exp overflows harmlessly
def run_federated(cfg: RunConfig, plan: Federated) -> np.ndarray:
    """Round-averaged Shapley attribution with a persistent global model.

    Each of the ``cfg.noise.budget`` rounds every party releases one privatized
    (and combiner-smoothed) gradient at the current global model; a per-round
    Shapley nu_j is estimated over ``plan.permutations`` permutations of
    those released gradients, the global model takes the average released
    step, and the final value averages nu_j over the rounds after the burn-in
    share ``plan.q``. A non-finite utility raises ``ChainDiverged`` naming the
    round and the party, or party -1 for a permutation's starting model.
    """
    if cfg.noise.mode != "fl_schedule":
        raise ValueError(f"federated attribution runs fl_schedule noise, got {cfg.noise.mode!r}")
    federated_utility(cfg.utility)
    federated_semivalue(cfg.semivalue.kind)
    rounds = cfg.noise.budget
    burn = burn_in_count(rounds, plan.q)

    task = prepare(cfg)
    lr = task.lr
    n, d = cfg.dataset.n_parties, task.x.shape[1]

    ss = np.random.SeedSequence(cfg.master_seed)
    init_ss, noise_ss, perm_ss = ss.spawn(3)
    noise_rng = np.random.default_rng(noise_ss)
    perm_rng = np.random.default_rng(perm_ss)
    theta = init_params(cfg.model, d, init_ss)

    diag = diag_schedule(cfg.noise)
    std = cfg.noise.per_release_std
    roll = np.zeros((n, d))
    nu = np.zeros((rounds, n))

    for t in range(rounds):
        perturbed = np.empty((n, d))
        for j in range(n):
            g = _kernels.party_grad_np(theta, task, j)
            perturbed[j] = clip_in_place(g, cfg.noise.clip_norm)
        perturbed += std * noise_rng.standard_normal((n, d))
        released = release(perturbed, history(roll, diag[t], t + 1), diag[t])
        fold(roll, perturbed, t + 1)
        for perm in sample_permutations(n, plan.permutations, perm_rng):
            th = theta  # only rebound below, never written
            v_prev = _kernels.utility_np(th, task)
            if not math.isfinite(v_prev):
                raise _kernels.ChainDiverged(t + 1, -1)
            for j in perm:
                th = th - lr * released[j]
                v_after = _kernels.utility_np(th, task)
                if not math.isfinite(v_after):
                    raise _kernels.ChainDiverged(t + 1, int(j))
                nu[t, j] += v_after - v_prev
                v_prev = v_after
        nu[t] /= plan.permutations
        theta = theta - lr * released.mean(axis=0)
    return nu[burn:].mean(axis=0)
