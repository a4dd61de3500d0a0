import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from dpvalue import _kernels, data, dp, metrics, models
from dpvalue.valuation import RunConfig, SemivalueSpec, run_valuation


# -- AUC ---------------------------------------------------------------------


def test_auc_perfect_separation():
    scores = np.array([0.9, 0.8, 0.1, 0.2])
    mask = np.array([True, True, False, False])
    assert metrics.auc_roc(scores, mask) == 1.0
    assert metrics.auc_roc(-scores, mask) == 0.0


def test_auc_all_ties_is_half():
    assert metrics.auc_roc(np.ones(10), np.arange(10) < 4) == 0.5


def test_auc_random_scores_near_half():
    rng = np.random.default_rng(0)
    scores = rng.standard_normal(10_000)
    mask = np.arange(10_000) < 5_000
    assert abs(metrics.auc_roc(scores, mask) - 0.5) < 0.02


def test_auc_monotone_invariance():
    rng = np.random.default_rng(3)
    scores = rng.standard_normal(500)
    mask = rng.random(500) < 0.3
    base = metrics.auc_roc(scores, mask)
    assert metrics.auc_roc(np.exp(scores), mask) == pytest.approx(base)
    assert metrics.auc_roc(3.0 * scores + 7.0, mask) == pytest.approx(base)


def test_auc_degenerate_mask():
    with pytest.raises(ValueError):
        metrics.auc_roc(np.ones(4), np.zeros(4, dtype=bool))
    with pytest.raises(ValueError):
        metrics.auc_roc(np.ones(4), np.ones(4, dtype=bool))


def test_auc_against_rank_sum_oracle():
    # compare with the direct pairwise count, ties counted half
    rng = np.random.default_rng(9)
    scores = rng.integers(0, 5, 60).astype(float)  # force ties
    mask = rng.random(60) < 0.4
    pos = scores[mask]
    neg = scores[~mask]
    wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
    assert metrics.auc_roc(scores, mask) == pytest.approx(wins / (len(pos) * len(neg)))


# -- removal curve -------------------------------------------------------------


def make_removal_setup():
    ds = data.synth_classification(120, 8, 2, seed=42, separation=4.0, n_test=150)
    ds = data.partition(ds, 30, "equal-chunks")
    mspec = models.ModelSpec("logistic_l2", 0.05, models.InitSpec("zeros"), l2=0.01)
    uspec = "test_accuracy"
    ncfg = dp.NoiseConfig(1.0, 0.0, budget=150)
    cfg = RunConfig(ds, mspec, uspec, ncfg, SemivalueSpec("shapley"), master_seed=7)
    res = run_valuation(cfg)
    return res.psi, mspec, res.task


def test_removal_fraction_zero_mode_independent():
    psi, mspec, task = make_removal_setup()
    orders = ("highest-first", "lowest-first", "random")
    hi, lo, rnd = metrics.removal_curve(psi, mspec, task,
                                        metrics.Removal((0.0, 0.2), orders)).values()
    assert hi.scores[0] == lo.scores[0] == rnd.scores[0]
    assert rnd.stderr is not None and rnd.stderr[0] == 0.0
    # a ranked order is one seed-0 row, a random one a row per removal seed
    assert hi.per_seed == (hi.scores,) and lo.per_seed == (lo.scores,)
    assert len(rnd.per_seed) == metrics.REMOVAL_RANDOM_SEEDS


def test_removal_highest_first_hurts_most():
    psi, mspec, task = make_removal_setup()
    hi, rnd = metrics.removal_curve(psi, mspec, task,
                                    metrics.Removal((0.0, 0.3), ("highest-first", "random"))).values()
    assert hi.scores[1] < rnd.scores[1]


def test_removal_validation():
    psi, mspec, task = make_removal_setup()
    with pytest.raises(ValueError):
        metrics.removal_curve(psi, mspec, task, metrics.Removal((0.3, 0.1), ("highest-first",)))
    with pytest.raises(ValueError):
        metrics.removal_curve(psi, mspec, task, metrics.Removal((0.0,), ("sideways",)))
    with pytest.raises(ValueError, match="repeats an order"):
        metrics.removal_curve(psi, mspec, task, metrics.Removal((0.0,), ("random", "random")))


# -- gradient similarity -------------------------------------------------------


def test_similarity_perfect_reconstruction():
    rng = np.random.default_rng(1)
    g_hat = rng.standard_normal((20, 3, 5))
    noise = rng.standard_normal((20, 3, 5))
    rep = metrics.grad_similarity(g_hat, g_hat + noise, g_hat.copy())
    assert rep.delta_cos > 0
    assert rep.delta_l2 < 0


def test_similarity_identical_stacks_zero():
    rng = np.random.default_rng(2)
    g_hat = rng.standard_normal((10, 2, 4))
    g_tilde = g_hat + rng.standard_normal((10, 2, 4))
    rep = metrics.grad_similarity(g_hat, g_tilde, g_tilde.copy())
    assert rep.delta_cos == pytest.approx(0.0)
    assert rep.delta_l2 == pytest.approx(0.0)


def test_similarity_skips_zero_norm():
    g_hat = np.ones((2, 1, 3))
    g_tilde = np.ones((2, 1, 3))
    g_star = np.ones((2, 1, 3))
    g_hat[0, 0] = 0.0
    rep = metrics.grad_similarity(g_hat, g_tilde, g_star)
    assert rep.skipped_terms == 1


def reference_similarity(g_hat, g_tilde, g_star):
    """The per-record loop: five norms per (t, j) record."""
    def abs_cos(a, b):
        return abs(float(a @ b)) / (float(np.linalg.norm(a)) * float(np.linalg.norm(b)))

    k, n, _ = g_hat.shape
    d_cos = d_l2 = 0.0
    skipped = terms = 0
    for t in range(k):
        for j in range(n):
            gh, gt, gs = g_hat[t, j], g_tilde[t, j], g_star[t, j]
            if min(np.linalg.norm(gh), np.linalg.norm(gt), np.linalg.norm(gs)) == 0.0:
                skipped += 1
                continue
            d_cos += abs_cos(gh, gs) - abs_cos(gh, gt)
            d_l2 += float(np.linalg.norm(gh - gs)) - float(np.linalg.norm(gh - gt))
            terms += 1
    return d_cos / terms, d_l2 / terms, skipped


def test_similarity_matches_reference_loop():
    # corr_x-like stacks: clipped gradients, plus noise, then the prefix mean over t
    rng = np.random.default_rng(4)
    k, n, d = 200, 40, 9
    g_hat = rng.standard_normal((k, n, d))
    g_hat /= np.maximum(1.0, np.linalg.norm(g_hat, axis=-1, keepdims=True))
    g_tilde = g_hat + 1.5 * rng.standard_normal((k, n, d))
    g_star = np.cumsum(g_tilde, axis=0) / np.arange(1.0, k + 1.0)[:, None, None]
    g_hat[3, 5] = 0.0
    g_hat[150, 0] = 0.0
    g_tilde[17, 39] = 0.0
    g_star[88, 20] = 0.0
    g_star[3, 5] = 0.0  # one record with two zero rows is skipped once
    want_cos, want_l2, want_skipped = reference_similarity(g_hat, g_tilde, g_star)
    rep = metrics.grad_similarity(g_hat, g_tilde, g_star)
    assert rep.delta_cos == pytest.approx(want_cos, rel=1e-12, abs=1e-12)
    assert rep.delta_l2 == pytest.approx(want_l2, rel=1e-12, abs=1e-12)
    assert rep.skipped_terms == want_skipped == 4


def test_similarity_all_zero_raises():
    g = np.zeros((4, 3, 2))
    with pytest.raises(ValueError, match="no usable"):
        metrics.grad_similarity(g, np.ones_like(g), np.ones_like(g))


def test_similarity_shape_mismatch_raises():
    g = np.ones((4, 3, 2))
    with pytest.raises(ValueError, match="one shape"):
        metrics.grad_similarity(g, g, np.ones((4, 3, 3)))
    with pytest.raises(ValueError, match="one shape"):
        metrics.grad_similarity(g, np.ones((5, 3, 2)), g)


# -- closed-form noise variance -------------------------------------------------


def test_noise_var_simplest_case():
    # d=1, g=0, k=1, C*sigma=1: variance of a chi-square_1 scaled by 1 is 2
    assert metrics.noise_var_closed_form(np.zeros(1), dp.NoiseConfig(1.0, 1.0, 1)) == pytest.approx(2.0)


def test_noise_var_monte_carlo():
    rng = np.random.default_rng(4)
    d, k, cs = 5, 10, 0.3
    g = rng.standard_normal(d)
    g *= 1.0 / np.linalg.norm(g)
    z = np.sqrt(k) * cs * rng.standard_normal((1_000_000, d))
    emp = np.sum((g + z) ** 2, axis=1).var()
    pred = metrics.noise_var_closed_form(g, dp.NoiseConfig(1.0, cs, k))
    assert abs(emp / pred - 1.0) < 0.02


def test_noise_var_averaged_monte_carlo():
    rng = np.random.default_rng(5)
    d, k, cs, t = 4, 12, 0.5, 6
    g = rng.standard_normal(d)
    z = np.sqrt(k / t) * cs * rng.standard_normal((1_000_000, d))
    emp = np.sum((g + z) ** 2, axis=1).var()
    pred = metrics.noise_var_closed_form(g, dp.NoiseConfig(1.0, cs, k), t=t)
    assert abs(emp / pred - 1.0) < 0.02


# -- N/P/Q closed forms ----------------------------------------------------------


def test_npq_harmonic_hand_sum():
    n, p, q = metrics.npq_closed_form(dp.NoiseConfig(1.0, 1.0, 4, mode="corr_x"), d=1)
    assert n == pytest.approx(25.0 / 3.0)
    # P = sum d(d+2) (k/t)^2 = 3 * 16 * (1 + 1/4 + 1/9 + 1/16)
    assert p == pytest.approx(3.0 * 16.0 * sum(1.0 / t**2 for t in range(1, 5)))
    assert q == pytest.approx(np.sqrt(3.0) * 4.0 * sum(1.0 / t for t in range(1, 5)))


@pytest.mark.parametrize("sg_sq", [0.0, 0.5])
def test_npq_burn_in_drops_leading_terms(sg_sq):
    k = 8
    full = metrics.npq_closed_form(dp.NoiseConfig(1.0, 2.0, k, "corr_x", sigma_g_sq=sg_sq), d=3)
    tail = metrics.npq_closed_form(dp.NoiseConfig(1.0, 2.0, k, "corr_y", 1.0 / k, sg_sq), d=3)
    # q = 1/k removes exactly the t=1 term; at t=1 the implicit per-coordinate
    # variance is k(Cs)^2 regardless of sg (diagonal weight is 1)
    assert full[0] - tail[0] == pytest.approx(3 * k * 4.0)
    assert full[1] - tail[1] == pytest.approx(3 * 5 * (k * 4.0) ** 2)
    with pytest.raises(ValueError):
        metrics.npq_closed_form(dp.NoiseConfig(1.0, 1.0, 8, "corr_y", 0.3), d=2)


def test_npq_monte_carlo():
    # simulate z_t = -zeta_t + sum_l X_tl (z_l + zeta_l) with the
    # variance-aware matrix and compare E|z_t|^2 against the closed form
    k, cs, sg_sq, d = 8, 1.0, 0.5, 3
    kcs = k * cs * cs
    reps = 1_000_000
    rng = np.random.default_rng(12)
    for t_probe in (1, 2, 8):
        x_row = np.full(t_probe, kcs / (t_probe * (kcs + sg_sq)))
        x_row[-1] = (kcs + t_probe * sg_sq) / (t_probe * (kcs + sg_sq))
        total = 0.0
        chunk = 100_000
        done = 0
        while done < reps:
            m = min(chunk, reps - done)
            z = np.sqrt(kcs) * rng.standard_normal((m, t_probe, d))
            zeta = np.sqrt(sg_sq) * rng.standard_normal((m, t_probe, d))
            zs = -zeta[:, -1, :] + np.einsum("t,mtd->md", x_row, z + zeta)
            total += np.sum(zs * zs)
            done += m
        emp = total / reps
        # per-t contribution of the closed-form N
        noise = dp.NoiseConfig(1.0, cs, k, "corr_x", sigma_g_sq=sg_sq)
        upto = metrics.npq_closed_form(noise, d)[0]
        # extract the single-t term by differencing partial sums
        def partial(tmax):
            tot = 0.0
            for t in range(1, tmax + 1):
                off = kcs / (t * (kcs + sg_sq))
                diag = (kcs + t * sg_sq) / (t * (kcs + sg_sq))
                s_t = (
                    kcs * ((t - 1) * off * off + diag * diag)
                    + sg_sq * (t - 1) * off * off
                    + (1.0 - diag) ** 2 * sg_sq
                )
                tot += d * s_t
            return tot

        pred = partial(t_probe) - partial(t_probe - 1)
        assert abs(emp / pred - 1.0) < 0.02
        assert partial(k) == pytest.approx(upto)


@pytest.mark.parametrize("mode", ["iid", "fl_schedule"])
def test_npq_takes_the_variance_aware_modes_only(mode):
    # the sums take X_11 = 1 at t = 1: iid has no combiner, fl_schedule another diagonal
    with pytest.raises(ValueError, match=f"corr_x and corr_y, got '{mode}'"):
        metrics.npq_closed_form(dp.NoiseConfig(1.0, 1.0, 8, mode=mode), d=2)


def test_npq_bound_from_minimum():
    # N with sigma_g = 0 stays under d*k*(C s)^2*(1 + ln k)
    for k in (10, 100, 1000):
        n, _, _ = metrics.npq_closed_form(dp.NoiseConfig(1.0, 1.0, k, mode="corr_x"), d=3)
        assert n <= 3 * k * (1.0 + np.log(k))


# -- conditional-variance probe ---------------------------------------------------


def probe_base(n_parties=6, sigma=1.0, features=6):
    ds = data.synth_classification(60, features, 2, seed=5, separation=3.0, n_test=64)
    ds = data.partition(ds, n_parties, "equal-chunks")
    mspec = models.ModelSpec("mse_linear", 0.05, models.InitSpec("zeros"))
    uspec = "neg_test_loss"
    ncfg = dp.NoiseConfig(1.0, sigma, budget=20, mode="iid")
    return RunConfig(ds, mspec, uspec, ncfg, SemivalueSpec("shapley"), master_seed=9)


@pytest.mark.parametrize("loss,util", [("mse_linear", "neg_test_loss"),
                                       ("logistic_l2", "neg_test_loss"),
                                       ("logistic_l2", "test_accuracy")])
def test_utility_rows_match_chain_utility(loss, util):
    # the variance-probe shape: d=7 with the bias column, l=64, 500 trial rows
    cfg = probe_base()
    lam = 0.01 if loss == "logistic_l2" else 0.0
    mspec = models.ModelSpec(loss, 0.05, models.InitSpec("zeros"), l2=lam)
    scenario = metrics.freeze_scenario(replace(cfg, model=mspec, utility=util))
    assert scenario.task.xt.shape == (64, 7)
    rng = np.random.default_rng(4)
    block = scenario.theta_prev[-1, 0] + rng.standard_normal((500, 7))
    rows = metrics._utility_rows(block, scenario.task)
    for i, theta in enumerate(block):
        want = _kernels.utility_np(theta, scenario.task)
        assert rows[i] == pytest.approx(want, rel=1e-12, abs=0.0)


def test_probe_rejects_zero_sigma(monkeypatch):
    # a probe without noise measures variances of 0, whose log the slope fit
    # cannot take; it is rejected before a chain runs or a thread starts
    cfg = probe_base(sigma=0.0)

    def no_freeze(cfg):
        raise AssertionError("the zero-noise probe froze a scenario")

    monkeypatch.setattr(metrics, "freeze_scenario", no_freeze)
    with pytest.raises(ValueError, match=r"needs sigma > 0, got 0\.0"):
        metrics.variance_scaling_probe(metrics.Probe((10, 20, 40), 100, ("iid", "corr_x")), cfg, 0)


def reference_replay(scenario, mode, noise_cfg, trials, seed, q=0.0):
    """The single-threaded noise replay, one fresh block per party. The
    correlated modes release ``c_t * S_t + e_t * g_t`` with dp's prefix-sum
    weights of their diagonal, in the replay's order of operations."""
    k, n, d = scenario.theta_prev.shape
    std = np.sqrt(noise_cfg.budget) * noise_cfg.clip_norm * noise_cfg.noise_multiplier
    kq = int(round(k * q)) if mode == "corr_y" else 0
    lr = scenario.task.lr
    if mode != "iid":
        c, e = (w[:, None] for w in
                dp.prefix_weights(dp.diag_schedule(dp.mechanism(noise_cfg, mode, k, q))))
    rng = np.random.default_rng(seed)
    draws = np.empty((n, trials))
    for j in range(n):
        g_hat = scenario.g_hat[:, j, :]
        if mode == "iid":
            base = scenario.theta_prev[:, j, :] - lr * g_hat
        else:
            base = scenario.theta_prev[:, j, :] - lr * (np.cumsum(g_hat, axis=0) * c + g_hat * e)
        # thetas[i, t] = base[t] - lr * (released noise)[i, t], built in place over the draw
        thetas = rng.standard_normal((trials, k, d))
        thetas *= std
        if mode == "iid":
            thetas *= lr
        else:
            current = thetas * (e * lr)
            np.cumsum(thetas, axis=1, out=thetas)
            thetas *= c * lr
            thetas += current
        np.subtract(base, thetas, out=thetas)
        psi = np.zeros(trials)
        for t in range(kq, k):
            vt = metrics._utility_rows(thetas[:, t, :], scenario.task)
            psi += scenario.pcoefs[t, j] * (vt - scenario.v_prev[t, j])
        draws[j] = psi / (k - kq)
    return float(draws.var(axis=1, ddof=1).mean()), draws


def explicit_matrix_replay(scenario, noise, trials, seed):
    """The replay through the combiner's explicit k x k matrix X, with
    X_tl = (1 - X_tt)/(t - 1) below the diagonal: theta_t = theta_prev_t -
    lr * (X @ (g_hat + std*z))_t, scored one t at a time."""
    k, n, d = scenario.theta_prev.shape
    diag = dp.diag_schedule(noise)
    x = np.zeros((k, k))
    for t in range(1, k + 1):
        x[t - 1, :t - 1] = (1.0 - diag[t - 1]) / max(t - 1, 1)
        x[t - 1, t - 1] = diag[t - 1]
    rng = np.random.default_rng(seed)
    draws = np.empty((n, trials))
    for j in range(n):
        z = rng.standard_normal((trials, k, d))
        g_tilde = scenario.g_hat[:, j, :] + noise.per_release_std * z
        released = np.einsum("tl,ild->itd", x, g_tilde)
        thetas = scenario.theta_prev[:, j, :] - scenario.task.lr * released
        psi = np.zeros(trials)
        for t in range(noise.burn_in, k):
            vt = _kernels.utility_np(thetas[:, t, :], scenario.task)
            psi += scenario.pcoefs[t, j] * (vt - scenario.v_prev[t, j])
        draws[j] = psi / (k - noise.burn_in)
    return draws


PROBE_MODES = [("iid", 0.0), ("corr_x", 0.0), ("corr_y", 0.5)]


def probe_noise(cfg, mode, q=0.0):
    return dp.mechanism(cfg.noise, mode, cfg.noise.budget, q)


@pytest.mark.parametrize("mode,q", PROBE_MODES)
def test_probe_matches_single_threaded_replay(mode, q):
    # 6 parties, so both blocks are reused; an odd trial count; the replay
    # sizes its blocks with d = 7 with the bias column and d = 6 without
    for add_bias, d in ((True, 7), (False, 6)):
        cfg = probe_base()
        cfg = replace(cfg, model=replace(cfg.model, add_bias=add_bias))
        scenario = metrics.freeze_scenario(cfg)
        assert scenario.theta_prev.shape == (20, 6, d)
        want_var, want = reference_replay(scenario, mode, cfg.noise, 137, seed=11, q=q)
        probe = metrics.Probe(trials=137, modes=(mode,), q=q)
        [(var, draws)] = metrics.conditional_variance(cfg, probe, seed=11)
        assert draws.shape == (6, 137)
        assert np.array_equal(draws, want), add_bias
        assert var == want_var


@pytest.mark.parametrize("k,q", [(10, 0.5), (40, 0.25), (48, 0.5), (32, 0.5)],
                         ids=["k-under-chunk", "k-not-a-multiple", "kq-inside-chunk",
                              "kq-on-chunk-boundary"])
def test_probe_chunked_replay_matches_single_threaded_replay(k, q):
    # budgets placed against the replay's chunk of 16 iterations: shorter than
    # one chunk, not a multiple of it, and corr_y's burn-in k*q ending inside
    # a later chunk (24) or on a chunk's edge (16)
    assert metrics._CHUNK == 16
    cfg = probe_base()
    cfg = replace(cfg, noise=replace(cfg.noise, budget=k))
    scenario = metrics.freeze_scenario(cfg)
    modes = [("iid", 0.0), ("corr_x", 0.0), ("corr_y", q)]
    probe = metrics.Probe(trials=103, modes=tuple(mode for mode, _ in modes), q=q)
    replays = metrics.conditional_variance(cfg, probe, seed=5)
    for (mode, mode_q), (var, draws) in zip(modes, replays):
        want_var, want = reference_replay(scenario, mode, cfg.noise, 103, seed=5, q=mode_q)
        assert np.array_equal(draws, want) and var == want_var, mode


def test_probe_replays_every_mode_from_one_draw():
    # one call with all three mechanisms equals three single-mode replays bitwise
    cfg = probe_base()
    scenario = metrics.freeze_scenario(cfg)
    probe = metrics.Probe(trials=137, modes=tuple(mode for mode, _ in PROBE_MODES), q=0.5)
    replays = metrics.conditional_variance(cfg, probe, seed=11)
    assert len(replays) == len(PROBE_MODES)
    for (mode, q), (var, draws) in zip(PROBE_MODES, replays):
        want_var, want = reference_replay(scenario, mode, cfg.noise, 137, seed=11, q=q)
        assert np.array_equal(draws, want) and var == want_var, mode


def test_probe_draws_one_block_per_party(monkeypatch):
    cfg = probe_base()
    make_rng = np.random.default_rng
    blocks = []

    class CountingGenerator:
        """Draws like the seeded generator and counts the blocks it draws
        into ``out``; every other draw (the frozen chains' permutations)
        passes through."""

        def __init__(self, seed):
            self.rng = make_rng(seed)

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def standard_normal(self, *args, out=None, **kwargs):
            if out is None:
                return self.rng.standard_normal(*args, **kwargs)
            blocks.append(out.shape)
            return self.rng.standard_normal(out=out)

    monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
    probe = metrics.Probe(trials=101, modes=tuple(m for m, _ in PROBE_MODES), q=0.5)
    metrics.conditional_variance(cfg, probe, seed=0)
    assert blocks == [(101, 20, 7)] * 6  # one block per party, shared by the three modes


def test_probe_replay_holds_two_noise_blocks(monkeypatch):
    # a three-mode replay holds its two reused (trials, k, d) blocks, each in its
    # own mapping, plus (trials, d) slabs on the heap; a third full-size block
    # would be a third mapping or a heap peak of >= 1 block
    cfg = probe_base(n_parties=2)
    cfg = replace(cfg, noise=replace(cfg.noise, budget=400))
    probe = metrics.Probe(trials=500, modes=tuple(m for m, _ in PROBE_MODES), q=0.5)
    block = 500 * 400 * 7 * 8
    mapped, real_mmap = [], metrics.mmap.mmap

    def counting_mmap(fileno, length, *args, **kwargs):
        mapped.append(length)
        return real_mmap(fileno, length, *args, **kwargs)

    monkeypatch.setattr(metrics.mmap, "mmap", counting_mmap)
    tracemalloc.start()
    try:
        metrics.conditional_variance(cfg, probe, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mapped == [block, block]
    assert peak < 0.25 * block, peak / block


def test_probe_concurrent_replays_stay_exact():
    # more threads than cores and a short switch interval: a block handed over
    # before it is filled, or shared between replays, changes the draws
    cfg = probe_base()
    scenario = metrics.freeze_scenario(cfg)
    jobs = [(mode, q, seed) for seed in (1, 2) for mode, q in PROBE_MODES]
    results = {}

    def replay(job):
        mode, q, seed = job
        probe = metrics.Probe(trials=101, modes=(mode,), q=q)
        [results[job]] = metrics.conditional_variance(cfg, probe, seed=seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=replay, args=(job,)) for job in jobs]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
            assert not th.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(results) == len(jobs)
    for (mode, q, seed), (var, draws) in results.items():
        want_var, want = reference_replay(scenario, mode, cfg.noise, 101, seed=seed, q=q)
        assert np.array_equal(draws, want) and var == want_var


def test_probe_scoring_error_joins_the_draw_thread(monkeypatch):
    cfg = probe_base()
    score = metrics._utility_rows
    calls, threads_seen = [], []

    def failing_rows(thetas, task):
        calls.append(1)
        threads_seen.append(threading.active_count())
        if len(calls) == 3:
            raise RuntimeError("scoring failed")
        return score(thetas, task)

    monkeypatch.setattr(metrics, "_utility_rows", failing_rows)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="scoring failed"):
        metrics.conditional_variance(cfg, metrics.Probe(trials=137, modes=("corr_x",), q=0.0),
                                     seed=0)
    assert threads_seen == [before + 1] * 3  # exactly one draw thread
    assert threading.active_count() == before


def test_probe_draw_error_reaches_the_caller(monkeypatch):
    cfg = probe_base()
    make_rng = np.random.default_rng
    draw_threads = set()

    class FailingGenerator:
        """Draws like the seeded generator; its third block drawn into
        ``out`` fails, and every other draw passes through."""

        def __init__(self, seed):
            self.rng, self.blocks = make_rng(seed), 0

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def standard_normal(self, *args, out=None, **kwargs):
            if out is None:
                return self.rng.standard_normal(*args, **kwargs)
            draw_threads.add(threading.get_ident())
            self.blocks += 1
            if self.blocks == 3:
                raise FloatingPointError("draw failed")
            return self.rng.standard_normal(out=out)

    monkeypatch.setattr(np.random, "default_rng", FailingGenerator)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="draw failed"):
        metrics.conditional_variance(cfg, metrics.Probe(trials=137, modes=("iid",), q=0.0),
                                     seed=0)
    assert threading.active_count() == before
    assert len(draw_threads) == 1 and threading.get_ident() not in draw_threads


def test_probe_freeze_error_joins_the_draw_thread(monkeypatch):
    # the probe draws a budget's first block while it freezes the scenario
    cfg = probe_base()
    threads_seen = []

    def failing_freeze(cfg):
        threads_seen.append(threading.active_count())
        raise RuntimeError("freeze failed")

    monkeypatch.setattr(metrics, "freeze_scenario", failing_freeze)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="freeze failed"):
        metrics.variance_scaling_probe(metrics.Probe((10, 20, 40), 100, ("iid", "corr_x")), cfg, 0)
    assert threads_seen == [before + 1]  # the draw thread was running
    assert threading.active_count() == before


def test_probe_validation(monkeypatch):
    # every rule fails before a scenario is frozen, a block mapped or the draw
    # thread started
    cfg = probe_base()

    def unreachable(*args, **kwargs):
        raise AssertionError("a rejected probe got past its checks")

    for name in ("freeze_scenario", "ThreadPoolExecutor"):
        monkeypatch.setattr(metrics, name, unreachable)
    monkeypatch.setattr(metrics.mmap, "mmap", unreachable)
    with pytest.raises(ValueError, match="three"):
        metrics.variance_scaling_probe(metrics.Probe((10, 20), 500, ("iid",)), cfg, 0)
    with pytest.raises(ValueError, match="three"):
        metrics.variance_scaling_probe(metrics.Probe((0, 10, 20), 500, ("iid",)), cfg, 0)
    with pytest.raises(ValueError, match=r"three.*k=1 .*2 iterations"):  # the frozen chain's rule
        metrics.variance_scaling_probe(metrics.Probe((5, 10, 1), 100, ("iid",)), cfg, 0)
    with pytest.raises(ValueError, match="at least 100 trials per budget, got 50$"):
        metrics.variance_scaling_probe(metrics.Probe((10, 20, 40), 50, ("iid",)), cfg, 0)
    with pytest.raises(ValueError, match="repeats a budget"):
        metrics.variance_scaling_probe(metrics.Probe((10, 10, 20), 100, ("iid",)), cfg, 0)
    with pytest.raises(ValueError, match="integer"):
        metrics.variance_scaling_probe(metrics.Probe((10, 20, 25), 100, ("iid", "corr_y"), 0.3),
                                       cfg, 0)
    for mode in ("warp", "fl_schedule"):
        with pytest.raises(ValueError, match="probe mode"):
            metrics.Probe(trials=200, modes=("iid", mode))
    with pytest.raises(ValueError, match="integer"):
        probe_noise(cfg, "corr_y", q=0.13)


def test_probe_rejects_empty_modes():
    # no mode replays nothing; the probe's results would have no first mode to read
    with pytest.raises(ValueError, match="modes must name at least one mode"):
        metrics.Probe(modes=())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("trials", [0, 1])
def test_conditional_variance_needs_two_trials(monkeypatch, trials):
    # a sample variance of under two draws has no value; the ``Probe`` the
    # replay takes refuses the count before a scenario is frozen, a block
    # mapped or the draw thread started
    def unreachable(*args, **kwargs):
        raise AssertionError("a refused trial count got past the check")

    for name in ("freeze_scenario", "ThreadPoolExecutor"):
        monkeypatch.setattr(metrics, name, unreachable)
    monkeypatch.setattr(metrics.mmap, "mmap", unreachable)
    with pytest.raises(ValueError, match=f"at least 100 trials per budget, got {trials}$"):
        metrics.conditional_variance(probe_base(), metrics.Probe(trials=trials, modes=("iid",)), 0)


def test_probe_freezes_the_no_dp_run_whatever_the_base_mode():
    # the frozen chain is the noiseless iid run and the replays take their
    # mechanisms from the base noise at each budget, so a correlated base
    # gives the iid base's result bitwise
    cfg = probe_base()
    probe = metrics.Probe((10, 20, 40), 100, ("iid", "corr_x", "corr_y"), 0.5)
    want = metrics.variance_scaling_probe(probe, cfg, 2)
    for noise in (dp.mechanism(cfg.noise, "corr_x", 20), dp.mechanism(cfg.noise, "corr_y", 5, 0.2)):
        got = metrics.variance_scaling_probe(probe, replace(cfg, noise=noise), 2)
        assert list(got) == list(want)
        for mode, res in got.items():
            assert res.variances == want[mode].variances and res.slope == want[mode].slope
            assert all(np.array_equal(res.samples[k], want[mode].samples[k]) for k in probe.ks)


@pytest.mark.parametrize("mode,q", [("corr_x", 0.0), ("corr_y", 0.5)])
def test_probe_replays_variance_aware_combiner(mode, q):
    # the replay takes any diagonal through dp's prefix-sum weights: its draws
    # match releases built from the explicit combiner matrix, for the
    # variance-aware diagonal and for the prefix mean it reduces to at 0
    cfg = probe_base()
    cfg = replace(cfg, noise=replace(cfg.noise, budget=40))
    scenario = metrics.freeze_scenario(cfg)
    for sigma_g_sq in (0.5, 0.0):
        cfg = replace(cfg, noise=replace(cfg.noise, sigma_g_sq=sigma_g_sq))
        noise = probe_noise(cfg, mode, q)
        probe = metrics.Probe(trials=101, modes=(mode,), q=q)
        [(var, draws)] = metrics.conditional_variance(cfg, probe, seed=3)
        want = explicit_matrix_replay(scenario, noise, trials=101, seed=3)
        # relative to the largest draw: a psi near 0 is a sum of cancelling terms
        assert np.abs(draws - want).max() <= 1e-12 * np.abs(want).max(), sigma_g_sq
        assert var == pytest.approx(want.var(axis=1, ddof=1).mean(), rel=1e-12, abs=0.0)
        want_var, bitwise = reference_replay(scenario, mode, noise, 101, seed=3, q=q)
        assert np.array_equal(draws, bitwise) and var == want_var, sigma_g_sq


@pytest.mark.parametrize("mode,q", PROBE_MODES)
def test_probe_wide_replay_matches_references(mode, q):
    # d = 13 (12 features and the bias): numpy sums a contiguous run of 8 or
    # more in pairwise blocks, which the other probe tests' d of 6 and 7 never
    # reach, so only a wide probe shows a sum whose order follows the layout
    cfg = probe_base(features=12)
    scenario = metrics.freeze_scenario(cfg)
    assert scenario.theta_prev.shape == (20, 6, 13)
    probe = metrics.Probe(trials=101, modes=(mode,), q=q)
    [(var, draws)] = metrics.conditional_variance(cfg, probe, seed=7)
    want_var, want = reference_replay(scenario, mode, cfg.noise, 101, seed=7, q=q)
    assert np.array_equal(draws, want) and var == want_var
    if mode != "iid":
        explicit = explicit_matrix_replay(scenario, probe_noise(cfg, mode, q), trials=101, seed=7)
        assert np.abs(draws - explicit).max() <= 1e-12 * np.abs(explicit).max()


def test_probe_iid_matches_direct_simulation():
    # tiny case cross-check: replay the frozen scenario by hand
    cfg = probe_base(n_parties=3)
    scenario = metrics.freeze_scenario(cfg)
    trials, k = 400, cfg.noise.budget
    std = np.sqrt(cfg.noise.budget) * cfg.noise.clip_norm * cfg.noise.noise_multiplier
    rng = np.random.default_rng(0)
    d = scenario.theta_prev.shape[2]
    direct = []
    for j in range(3):
        psis = []
        for _ in range(trials):
            acc = 0.0
            for t in range(k):
                theta = (
                    scenario.theta_prev[t, j]
                    - scenario.task.lr * scenario.g_hat[t, j]
                    - scenario.task.lr * std * rng.standard_normal(d)
                )
                e = scenario.task.xt @ theta - scenario.task.yt
                acc += scenario.pcoefs[t, j] * (-np.mean(e * e) - scenario.v_prev[t, j])
            psis.append(acc / k)
        direct.append(np.var(psis, ddof=1))
    probe = metrics.Probe(trials=2000, modes=("iid",), q=0.0)
    [(fast, _)] = metrics.conditional_variance(cfg, probe, seed=1)
    assert abs(np.mean(direct) / fast - 1.0) < 0.25  # both are MC estimates
