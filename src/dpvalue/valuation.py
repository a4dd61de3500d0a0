"""Permutation-sampling semivalue engine.

A semivalue for n parties is defined by a weight function w over coalition
sizes with sum_r binom(n-1, r-1) * w(r) = n:

    phi_i = sum_r (1/n) w(r) sum_{S, |S|=r-1, i not in S} [V(S+i) - V(S)]

and estimated by averaging position-weighted marginal contributions over
uniformly sampled permutations:

    psi_j = (1/k) sum_t p(r_jt) [V(after j) - V(before j)],
    p(r) = binom(n-1, r-1) * w(r),

the unique position coefficient making the permutation estimator unbiased
for phi (it degenerates to p = 1 for the Shapley weights). The engine runs
the gradient-descent chain: per permutation the model is re-initialized and
each party in order contributes one clipped, noise-perturbed gradient step,
optionally passed through the correlated-noise combiner before the update.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaln, gammaln, logsumexp

from . import _kernels
from .data import PartitionedDataset
from .dp import NoiseConfig, diag_schedule
from .models import ModelSpec, UtilitySpec, design_matrix

MAX_PARTIES_WEIGHTS = 10_000


@dataclass(frozen=True)
class SemivalueSpec:
    kind: str  # shapley | banzhaf | beta | loo
    n: int
    alpha: float = 1.0
    beta: float = 1.0

    def __post_init__(self):
        if self.kind not in ("shapley", "banzhaf", "beta", "loo"):
            raise ValueError(f"unknown semivalue kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("party count must be >= 1")
        if self.n > MAX_PARTIES_WEIGHTS:
            raise ValueError(f"party count {self.n} exceeds {MAX_PARTIES_WEIGHTS}")
        if self.kind == "beta" and (self.alpha <= 0 or self.beta <= 0):
            raise ValueError("beta semivalue needs alpha, beta > 0")


def semivalue_weights(spec: SemivalueSpec) -> tuple[np.ndarray, np.ndarray]:
    """Return (w, p) indexed by coalition size r = 1..n.

    Binomials and Beta functions are evaluated in log space; the beta-family
    weights are normalized so the constraint sum_r binom(n-1,r-1) w(r) = n
    holds exactly.
    """
    n = spec.n
    r = np.arange(1, n + 1)
    log_binom = gammaln(n) - gammaln(r) - gammaln(n - r + 1)  # log C(n-1, r-1)
    if spec.kind == "shapley":
        log_w = -log_binom
    elif spec.kind == "banzhaf":
        log_w = np.full(n, math.log(n) - (n - 1) * math.log(2.0))
    elif spec.kind == "beta":
        log_b = betaln(r + spec.beta - 1.0, n - r + spec.alpha)
        log_w = math.log(n) + log_b - logsumexp(log_binom + log_b)
    else:  # loo
        w = np.zeros(n)
        w[n - 1] = float(n)
        p = np.zeros(n)
        p[n - 1] = float(n)
        return w, p
    w = np.exp(log_w)
    p = np.exp(log_w + log_binom)
    return w, p


@dataclass(frozen=True)
class RunConfig:
    dataset: PartitionedDataset
    model: ModelSpec
    utility: UtilitySpec
    noise: NoiseConfig
    semivalue: SemivalueSpec
    k: int
    master_seed: int
    record_gradients: bool = False
    record_states: bool = False
    exact_permutations: bool = False  # enumerate all n! permutations instead

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("budget k must be >= 1")
        if self.noise.budget != self.k:
            raise ValueError(
                f"noise budget {self.noise.budget} must equal the run budget k={self.k}"
            )
        if self.semivalue.n != self.dataset.n_parties:
            raise ValueError("semivalue party count must match the dataset partition")
        if self.noise.mode == "corr_y" and self.noise.burn_in >= self.k:
            raise ValueError("burn-in must leave at least one retained iteration")


@dataclass
class ValuationResult:
    psi: np.ndarray
    marginals: np.ndarray  # (k, n) raw utility deltas m_j(pi^t)
    pcoefs: np.ndarray  # (k, n) position coefficients
    mu: np.ndarray
    s_sq: np.ndarray
    mean_adjusted_var: np.ndarray  # NaN where |mu| underflows the guard
    permutations_used: int
    burn_in_dropped: int
    gradients: dict = field(default_factory=dict)  # g_hat/g_tilde/g_star when recorded
    states: dict = field(default_factory=dict)  # theta_prev/v_prev when recorded

    @property
    def n_parties(self) -> int:
        return len(self.psi)

    def marginal_records(self, party: int) -> list[tuple[int, float, float]]:
        """(iteration t, position coefficient, raw marginal) for one party."""
        return [
            (t + 1, float(self.pcoefs[t, party]), float(self.marginals[t, party]))
            for t in range(self.marginals.shape[0])
        ]

    def to_json(self) -> str:
        def render(v: float) -> str:
            return format(v, ".17g")

        doc = {
            "n_parties": self.n_parties,
            "permutations_used": self.permutations_used,
            "burn_in_dropped": self.burn_in_dropped,
            "psi": [render(v) for v in self.psi],
            "mu": [render(v) for v in self.mu],
            "s_sq": [render(v) for v in self.s_sq],
            "mean_adjusted_var": [
                None if np.isnan(v) else render(v) for v in self.mean_adjusted_var
            ],
        }
        return json.dumps(doc, indent=2)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("party,psi,mu,s_sq,mean_adjusted\n")
            for j in range(self.n_parties):
                mav = self.mean_adjusted_var[j]
                mav_s = "" if np.isnan(mav) else format(mav, ".17g")
                fh.write(
                    f"{j},{self.psi[j]:.17g},{self.mu[j]:.17g},{self.s_sq[j]:.17g},{mav_s}\n"
                )


def estimation_stats(marginals: np.ndarray, guard: float = 1e-15):
    """Per-party mean, variance-of-the-mean, and mean-adjusted variance.

    ``marginals`` holds the retained raw utility deltas, one row per
    iteration. mu_j = mean_t m_jt and s_j^2 = sum_t (m_jt - mu_j)^2 / (k(k-1))
    so s^2 estimates the variance of the estimator, not of a single draw.
    mean_adjusted is s^2 / |mu| with NaN where |mu| < guard.
    """
    m = np.asarray(marginals, dtype=np.float64)
    k = m.shape[0]
    if k < 2:
        raise ValueError("need at least two retained marginals")
    mu = m.mean(axis=0)
    s_sq = np.sum((m - mu) ** 2, axis=0) / (k * (k - 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        mav = np.where(np.abs(mu) < guard, np.nan, s_sq / np.abs(mu))
    return mu, s_sq, mav


def _all_permutations(n: int) -> np.ndarray:
    return np.array(list(itertools.permutations(range(n))), dtype=np.int64)


def sample_permutations(n: int, k: int, seed_seq: np.random.SeedSequence) -> np.ndarray:
    """The engine's permutation stream: k uniform draws from one generator."""
    rng = np.random.default_rng(seed_seq)
    perms = np.empty((k, n), dtype=np.int64)
    for t in range(k):
        perms[t] = rng.permutation(n)
    return perms


def run_valuation(cfg: RunConfig) -> ValuationResult:
    """Execute the full chain for one configuration.

    Per iteration: sample a uniform permutation, re-initialize the model with
    a seed derived from (master seed, iteration), then walk the permutation
    applying one privatized gradient step per party, recording the utility
    delta with the position coefficient of the configured semivalue. corr_y
    drops the first k*q iterations from psi and from the summary statistics.
    """
    ds = cfg.dataset
    n = ds.n_parties
    x, y, ptr = ds.sorted_by_party()
    x = design_matrix(x, cfg.model)
    xt = design_matrix(cfg.utility.test_features, cfg.model)
    yt = np.ascontiguousarray(cfg.utility.test_labels, dtype=np.float64)
    d = x.shape[1]

    ss = np.random.SeedSequence(cfg.master_seed)
    perm_ss, init_ss, noise_ss = ss.spawn(3)

    if cfg.exact_permutations:
        if n > 8:
            raise ValueError("exact permutation enumeration capped at n <= 8")
        perms = _all_permutations(n)
        k = len(perms)
        if cfg.k != k or cfg.noise.budget != k:
            raise ValueError(f"exact mode needs k = n! = {k}")
    else:
        k = cfg.k
        perms = sample_permutations(n, k, perm_ss)

    if cfg.model.init.kind == "zeros":
        inits = np.zeros((k, d))
    else:
        init_rng = np.random.default_rng(init_ss)
        inits = cfg.model.init.scale * init_rng.standard_normal((k, d))

    std = cfg.noise.per_release_std
    if std == 0.0:
        noise = np.zeros((k, n, d))
    else:
        noise_rng = np.random.default_rng(noise_ss)
        noise = std * noise_rng.standard_normal((k, n, d))

    diag = diag_schedule(cfg.noise)
    if cfg.noise.correlated and len(diag) != k:
        raise ValueError("combiner schedule length must equal k")
    if not cfg.noise.correlated:
        diag = np.zeros(k)

    _, p = semivalue_weights(cfg.semivalue)
    kq = cfg.noise.burn_in

    out = _kernels.run_chain(
        x,
        y,
        ptr,
        xt,
        yt,
        cfg.model.loss_code,
        cfg.utility.util_code,
        cfg.model.learning_rate,
        cfg.model.l2,
        cfg.noise.clip_norm,
        perms,
        inits,
        noise,
        diag,
        cfg.noise.correlated,
        np.ascontiguousarray(p),
        kq,
        cfg.record_gradients,
        cfg.record_states,
    )

    retained = out["marginals"][kq:]
    mu, s_sq, mav = estimation_stats(retained)
    return ValuationResult(
        psi=out["psi"],
        marginals=out["marginals"],
        pcoefs=out["pcoefs"],
        mu=mu,
        s_sq=s_sq,
        mean_adjusted_var=mav,
        permutations_used=k,
        burn_in_dropped=kq,
        gradients={key: out[key] for key in ("g_hat", "g_tilde", "g_star") if key in out},
        states={key: out[key] for key in ("theta_prev", "v_prev") if key in out},
    )


def exact_semivalue(v_oracle, spec: SemivalueSpec) -> np.ndarray:
    """Brute-force semivalue of a deterministic set function by subset sums.

    ``v_oracle`` maps a tuple of sorted party indices to a real utility.
    """
    n = spec.n
    if n > 12:
        raise ValueError("exact enumeration capped at n <= 12")
    w, _ = semivalue_weights(spec)
    table = {}
    members = list(range(n))
    for mask in range(1 << n):
        subset = tuple(i for i in members if mask >> i & 1)
        table[mask] = float(v_oracle(subset))
    phi = np.zeros(n)
    for i in range(n):
        for mask in range(1 << n):
            if mask >> i & 1:
                continue
            r = bin(mask).count("1") + 1
            phi[i] += w[r - 1] / n * (table[mask | (1 << i)] - table[mask])
    return phi


def permutation_expectation(v_oracle, spec: SemivalueSpec) -> np.ndarray:
    """All-permutation expectation of the position-weighted estimator.

    Independent cross-check of ``exact_semivalue``: averages p(r) * marginal
    over every permutation instead of summing over subsets.
    """
    n = spec.n
    if n > 8:
        raise ValueError("all-permutation expectation capped at n <= 8")
    _, p = semivalue_weights(spec)
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


@np.errstate(over="ignore", invalid="ignore")  # the logistic gradient's exp overflows harmlessly
def run_federated(
    cfg: RunConfig,
    rounds: int,
    per_round_permutations: int,
    q: float = 0.2,
) -> np.ndarray:
    """Round-averaged Shapley attribution with a persistent global model.

    Each round every party releases one privatized (and combiner-smoothed)
    gradient at the current global model; a per-round Shapley nu_j is
    estimated over ``per_round_permutations`` permutations of those released
    gradients, the global model takes the average released step, and the
    final value averages nu_j over the rounds after the burn-in share q.
    """
    if cfg.noise.mode not in ("fl_schedule", "corr_x"):
        raise ValueError("federated attribution needs fl_schedule or corr_x noise")
    if cfg.utility.kind != "test_accuracy":
        raise ValueError("federated attribution uses test accuracy as the utility")
    if per_round_permutations < 1:
        raise ValueError("need at least one permutation per round")
    rq = rounds * q
    if abs(rq - round(rq)) > 1e-9:
        raise ValueError(f"rounds*q must be an integer, got {rq}")
    burn = int(round(rq))
    if burn >= rounds:
        raise ValueError("burn-in must leave at least one round")
    if cfg.noise.budget != rounds:
        raise ValueError("noise budget must equal the number of rounds")

    ds = cfg.dataset
    n = ds.n_parties
    x, y, ptr = ds.sorted_by_party()
    x = design_matrix(x, cfg.model)
    xt = design_matrix(cfg.utility.test_features, cfg.model)
    yt = np.ascontiguousarray(cfg.utility.test_labels, dtype=np.float64)
    d = x.shape[1]
    loss_code = cfg.model.loss_code
    util_code = cfg.utility.util_code
    lam = cfg.model.l2
    lr = cfg.model.learning_rate

    ss = np.random.SeedSequence(cfg.master_seed)
    init_ss, noise_ss, perm_ss = ss.spawn(3)
    noise_rng = np.random.default_rng(noise_ss)
    perm_rng = np.random.default_rng(perm_ss)

    if cfg.model.init.kind == "zeros":
        theta = np.zeros(d)
    else:
        theta = cfg.model.init.scale * np.random.default_rng(init_ss).standard_normal(d)

    diag = diag_schedule(cfg.noise)
    std = cfg.noise.per_release_std
    roll = np.zeros((n, d))
    nu = np.zeros((rounds, n))

    for t in range(rounds):
        released = np.empty((n, d))
        for j in range(n):
            g = _kernels.party_grad_np(theta, x, y, ptr[j], ptr[j + 1], loss_code, lam)
            nrm = math.sqrt(float(g @ g))
            if nrm > cfg.noise.clip_norm:
                g *= cfg.noise.clip_norm / nrm
            if std > 0.0:
                g = g + std * noise_rng.standard_normal(d)
            if t > 0:
                released[j] = (1.0 - diag[t]) * roll[j] + diag[t] * g
            else:
                released[j] = g
            roll[j] = t / (t + 1.0) * roll[j] + g / (t + 1.0)
        for _ in range(per_round_permutations):
            perm = perm_rng.permutation(n)
            th = theta.copy()
            v_prev = _kernels.utility_np(th, xt, yt, loss_code, util_code, lam)
            for j in perm:
                th = th - lr * released[j]
                v_after = _kernels.utility_np(th, xt, yt, loss_code, util_code, lam)
                nu[t, j] += v_after - v_prev
                v_prev = v_after
        nu[t] /= per_round_permutations
        theta = theta - lr * released.mean(axis=0)
    return nu[burn:].mean(axis=0)
