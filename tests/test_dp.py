import math
import signal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from dpvalue import data, dp, metrics, models
from dpvalue.valuation import RunConfig, SemivalueSpec, run_valuation


def test_clip_examples():
    g = np.array([2.0, 0.0])
    clipped = dp.clip_in_place(g, 1.0)
    assert clipped is g  # scaled in place
    assert np.allclose(clipped, [1.0, 0.0])
    assert np.linalg.norm(clipped) == pytest.approx(1.0)
    g2 = np.array([0.3, 0.4])
    assert np.array_equal(dp.clip_in_place(g2.copy(), 1.0), g2)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8),
    st.floats(1e-3, 1e3),
)
def test_clip_norm_property(vals, clip):
    g = np.array(vals)
    out = dp.clip_in_place(g.copy(), clip)
    assert abs(np.linalg.norm(out) - min(np.linalg.norm(g), clip)) < 1e-9 * max(1.0, clip)
    # direction preserved
    if np.linalg.norm(g) > 0:
        assert np.dot(out, g) >= 0


@pytest.mark.parametrize("d", [7, 11])
def test_clip_bitwise_equal_norm_scaling(d):
    rng = np.random.default_rng(d)
    for scale in 10.0 ** np.arange(-3.0, 4.0):
        for _ in range(50):
            g = rng.standard_normal(d) * scale
            clip = scale * rng.uniform(0.1, 5.0)
            nrm = np.linalg.norm(g)
            want = g * (clip / nrm) if nrm > clip else g.copy()
            assert np.array_equal(dp.clip_in_place(g, clip), want)


def test_clip_rejects_nonfinite():
    # a non-positive clip norm is rejected at the config; a non-finite gradient
    # is never clipped into a finite one, so the chain's divergence guard sees it
    with pytest.raises(ValueError):
        dp.NoiseConfig(0.0, 1.0, budget=10)
    with np.errstate(invalid="ignore"):  # as inside the chain
        for g in ([1.0, np.nan], [np.inf, 1.0]):
            assert not np.all(np.isfinite(dp.clip_in_place(np.array(g), 1.0)))


def engine_noise(sigma, k, clip=1.0):
    """The privacy noise the engine added in one recorded run: g_tilde - g_hat."""
    ds = data.synth_classification(40, 5, 2, seed=3, separation=3.0, n_test=20)
    mspec = models.ModelSpec("logistic_l2", 0.05, models.InitSpec("zeros"), l2=0.01)
    uspec = "neg_test_loss"
    ncfg = dp.NoiseConfig(clip, sigma, budget=k)
    cfg = RunConfig(ds, mspec, uspec, ncfg, SemivalueSpec("shapley"),
                    master_seed=4, record_gradients=True)
    res = run_valuation(cfg)
    return res.g_tilde - res.g_hat


def test_sample_noise_zero_sigma():
    assert dp.NoiseConfig(1.0, 0.0, budget=10).per_release_std == 0.0
    assert not engine_noise(0.0, 5).any()


def test_sample_noise_variance():
    # per-coordinate variance k*(C*sigma)^2 over 150*40*6 engine draws
    k, clip, sigma = 150, 0.5, 0.1
    z = engine_noise(sigma, k, clip)
    assert abs(z.var() / (k * (clip * sigma) ** 2) - 1.0) < 0.05
    assert abs(z.mean()) < 0.05 * z.std()


def test_sample_noise_budget_scaling():
    v1 = dp.NoiseConfig(1.0, 1.5, budget=1).per_release_std ** 2
    v100 = dp.NoiseConfig(1.0, 1.5, budget=100).per_release_std ** 2
    assert v100 / v1 == pytest.approx(100.0, rel=1e-12)
    assert v1 == pytest.approx(1.5**2, rel=1e-12)


def test_calibrate_sigma_value():
    sigma = dp.calibrate_sigma(1.0, 5e-5)
    assert sigma == pytest.approx(math.sqrt(2.0 * math.log(25_000.0)))
    assert round(sigma, 2) == 4.50


def test_calibrate_sigma_scaling_and_limits():
    assert dp.calibrate_sigma(2.0, 5e-5) == pytest.approx(dp.calibrate_sigma(1.0, 5e-5) / 2)
    # monotone decreasing toward the delta boundary; the formula's zero sits at
    # delta = 1.25, outside the admissible range
    deltas = [1e-6, 1e-3, 0.5, 0.999999]
    sigmas = [dp.calibrate_sigma(1.0, d) for d in deltas]
    assert all(a > b for a, b in zip(sigmas, sigmas[1:]))
    assert math.sqrt(2.0 * math.log(1.25 / 1.2499999)) < 1e-3
    with pytest.raises(ValueError):
        dp.calibrate_sigma(0.0, 1e-5)
    with pytest.raises(ValueError):
        dp.calibrate_sigma(1.0, 1.0)


def test_calibrate_sigma_rejects_non_finite_epsilon():
    # NaN bisection bounds never meet, so a NaN epsilon could hang the caller:
    # the alarm turns a hang into a failure
    def hang(signum, frame):
        raise TimeoutError("calibrate_sigma did not return")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        for epsilon in (math.nan, math.inf):
            with pytest.raises(ValueError, match="epsilon"):
                dp.calibrate_sigma(epsilon, 5e-5)
        # a subnormal epsilon or delta overflows the starting multiplier, whose
        # mu = 1/inf = 0 would divide by zero
        for epsilon, delta in ((1e-320, 5e-5), (6.0, 1e-320)):
            with pytest.raises(ValueError, match="beyond float range"):
                dp.calibrate_sigma(epsilon, delta)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def gdp_delta(epsilon, mu):
    """delta(eps) of mu-GDP, evaluated with scipy's normal cdf and logcdf."""
    return (norm.cdf(-epsilon / mu + mu / 2)
            - np.exp(epsilon + norm.logcdf(-epsilon / mu - mu / 2)))


def test_calibrate_sigma_meets_delta_under_gdp():
    # k releases of std sqrt(k)*C*sigma at sensitivity C are mu-GDP with
    # mu = 1/sigma; the multiplier must deliver delta(eps) <= delta
    for eps in np.geomspace(0.1, 50.0, 25):
        for delta in np.geomspace(1e-9, 1e-2, 8):
            sigma = dp.calibrate_sigma(float(eps), float(delta))
            classical = math.sqrt(2.0 * math.log(1.25 / delta)) / eps
            assert sigma >= classical
            assert gdp_delta(eps, 1.0 / sigma) <= delta, (eps, delta)


def test_calibrate_sigma_exceeds_classical_at_large_epsilon():
    # the classical multiplier delivers delta(20) = 1.5e-3 for a 1e-5 budget
    classical = math.sqrt(2.0 * math.log(1.25e5)) / 20.0
    assert gdp_delta(20.0, 1.0 / classical) == pytest.approx(1.5e-3, rel=0.02)
    sigma = dp.calibrate_sigma(20.0, 1e-5)
    assert round(classical, 4) == 0.2422
    assert round(sigma, 4) == 0.2900
    assert gdp_delta(20.0, 1.0 / sigma) == pytest.approx(1e-5, rel=1e-6)
    # where the classical multiplier suffices it is returned bitwise, as the
    # shipped configs' (eps, delta) pairs expect
    for eps in (1.0, 4.0, 6.0):
        assert dp.calibrate_sigma(eps, 5e-5) == math.sqrt(2.0 * math.log(1.25 / 5e-5)) / eps


def test_noise_config_validation():
    with pytest.raises(ValueError):
        dp.NoiseConfig(0.0, 1.0, budget=10)
    with pytest.raises(ValueError, match="integer"):
        dp.NoiseConfig(1.0, 1.0, budget=10, mode="corr_y", q=0.31)  # k*q not integral
    with pytest.raises(ValueError):
        dp.NoiseConfig(1.0, 1.0, budget=10, mode="corr_y")  # q missing
    with pytest.raises(ValueError):
        dp.NoiseConfig(1.0, 1.0, budget=10, mode="corr_y", q=0.0)  # no burn-in
    with pytest.raises(ValueError):
        dp.NoiseConfig(1.0, 1.0, budget=10, mode="iid", q=0.5)
    cfg = dp.NoiseConfig(1.0, 1.0, budget=10, mode="corr_y", q=0.5)
    assert cfg.burn_in == 5


def test_mechanism_per_run():
    base = dp.NoiseConfig(1.0, 1.5, budget=10, mode="corr_y", q=0.5, sigma_g_sq=0.2)
    no_dp = dp.mechanism(base, "no_dp", 20, 0.5)
    assert (no_dp.mode, no_dp.noise_multiplier, no_dp.q, no_dp.budget) == ("iid", 0.0, None, 20)
    assert dp.mechanism(base, "corr_x", 20, 0.5).q is None  # q is corr_y's alone
    corr_y = dp.mechanism(base, "corr_y", 20, 0.25)
    assert (corr_y.burn_in, corr_y.noise_multiplier, corr_y.sigma_g_sq) == (5, 1.5, 0.2)
    with pytest.raises(ValueError, match="integer"):
        dp.mechanism(base, "corr_y", 20, 0.33)
    with pytest.raises(ValueError, match="unknown noise mode"):
        dp.mechanism(base, "bogus", 20)


def test_burn_in_count_rule():
    assert dp.burn_in_count(10, 0.0) == 0
    assert dp.burn_in_count(10, 0.3) == 3  # 10*0.3 is 3.0000000000000004
    assert dp.burn_in_count(800, 0.5) == 400
    with pytest.raises(ValueError, match="integer"):
        dp.burn_in_count(10, 0.15)
    for q in (-0.1, 1.0):
        with pytest.raises(ValueError):
            dp.burn_in_count(10, q)


# -- the combiner diagonal ---------------------------------------------------------


def combine_diag(mode, t, cfg):
    """The per-t diagonal formula that ``diag_schedule`` vectorised, kept verbatim."""
    if not 1 <= t <= cfg.budget:
        raise ValueError(f"iteration t={t} outside 1..{cfg.budget}")
    if mode == "fl_schedule":
        return 0.75 - 0.7 * t / cfg.budget
    if mode in ("corr_x", "corr_y"):
        if cfg.sigma_g_sq is None or cfg.sigma_g_sq == 0.0:
            return 1.0 / t
        kcs = cfg.budget * (cfg.clip_norm * cfg.noise_multiplier) ** 2
        return (kcs + t * cfg.sigma_g_sq) / (t * (kcs + cfg.sigma_g_sq))
    raise ValueError(f"mode {mode!r} has no combiner diagonal")


def reference_schedule(cfg):
    if not cfg.correlated:
        return np.zeros(cfg.budget)
    return np.array([combine_diag(cfg.mode, t, cfg) for t in range(1, cfg.budget + 1)])


SCHEDULES = [
    dict(mode="iid"),
    dict(mode="corr_x"),
    dict(mode="corr_x", sigma_g_sq=0.0),
    dict(mode="corr_x", sigma_g_sq=0.7),
    dict(mode="corr_y"),
    dict(mode="corr_y", sigma_g_sq=2.5),
    dict(mode="fl_schedule"),
    dict(mode="fl_schedule", sigma_g_sq=0.7),
]
# corr_y needs k*q >= 1 with q < 1, so it has no k=1 config
SCHEDULE_CASES = [(k, kw) for k in (1, 7, 800) for kw in SCHEDULES
                  if not (k == 1 and kw["mode"] == "corr_y")]


@pytest.mark.parametrize("k,kw", SCHEDULE_CASES,
                         ids=["-".join(map(str, [k, *kw.values()])) for k, kw in SCHEDULE_CASES])
def test_diag_schedule_matches_per_t_formula(k, kw):
    if kw["mode"] == "corr_y":
        kw = dict(kw, q=1.0 / k)
    cfg = dp.NoiseConfig(1.3, 0.9, budget=k, **kw)
    got, want = dp.diag_schedule(cfg), reference_schedule(cfg)
    assert got.shape == (k,) and got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))  # same bits


def test_combine_diag_prefix_mean():
    x = dp.diag_schedule(dp.NoiseConfig(1.0, 1.0, budget=8, mode="corr_x"))
    assert x.shape == (8,)
    assert x[0] == 1.0
    assert x[3] == pytest.approx(0.25)


def test_combine_diag_variance_aware_reductions():
    # sigma_g^2 = 0 reduces to the prefix mean
    x0 = dp.diag_schedule(dp.NoiseConfig(1.0, 1.0, budget=10, mode="corr_x", sigma_g_sq=0.0))
    assert np.array_equal(x0, 1.0 / np.arange(1, 11))
    # huge budget pushes the variance-aware diagonal back to 1/t
    big = dp.NoiseConfig(1.0, 1.0, budget=10**6, mode="corr_x", sigma_g_sq=1.0)
    x = dp.diag_schedule(big)
    for t in (2, 5, 10):
        assert abs(x[t - 1] - 1.0 / t) < 1e-5
    # and sigma = 0 leaves nothing to smooth: every release is the current gradient
    flat = dp.NoiseConfig(1.0, 0.0, budget=10, mode="corr_x", sigma_g_sq=1.0)
    assert np.array_equal(dp.diag_schedule(flat), np.ones(10))


def test_combine_diag_in_unit_interval():
    for cfg in (dp.NoiseConfig(1.0, 2.0, budget=50, mode="corr_x", sigma_g_sq=3.0),
                dp.NoiseConfig(1.0, 2.0, budget=50, mode="fl_schedule")):
        x = dp.diag_schedule(cfg)
        assert np.all((0.0 < x) & (x <= 1.0))


def test_fl_schedule_endpoints():
    x = dp.diag_schedule(dp.NoiseConfig(1.0, 1.0, budget=10, mode="fl_schedule"))
    assert x[9] == pytest.approx(0.05)
    assert x[0] == pytest.approx(0.75 - 0.07)


# -- the release step ---------------------------------------------------------------


def release_all(gs, diag):
    """Release the rows of ``gs`` (t along axis 0) one iteration at a time."""
    roll = np.zeros(gs.shape[1:])
    released = []
    for t in range(len(gs)):
        released.append(dp.release(gs[t], dp.history(roll, diag[t], t + 1), diag[t]))
        dp.fold(roll, gs[t], t + 1)
    return np.array(released)


def test_release_first_iteration_passthrough():
    roll = np.zeros(3)
    g = np.array([1.0, -2.0, 0.5])
    assert dp.history(roll, 0.3, 1) is None  # no history before the first iteration
    assert dp.release(g, None, 0.3) is g
    dp.fold(roll, g, 1)
    assert np.array_equal(roll, g)  # the rolling mean absorbed g in place


def test_release_constant_gradients_stay_fixed():
    g = np.array([0.7, -0.1])
    for cfg in (dp.NoiseConfig(1.0, 1.0, budget=7, mode="corr_x"),
                dp.NoiseConfig(1.0, 1.0, budget=7, mode="fl_schedule")):
        released = release_all(np.tile(g, (7, 1)), dp.diag_schedule(cfg))
        assert np.allclose(released, g, atol=1e-15)


DIAGONALS = st.one_of(
    st.builds(dict, mode=st.just("corr_x")),
    st.builds(dict, mode=st.just("corr_x"),
              sigma_g_sq=st.one_of(st.just(0.0), st.floats(1e-3, 50.0))),
    st.builds(dict, mode=st.just("fl_schedule")),
)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 14), st.floats(0.0, 5.0), DIAGONALS)
def test_release_row_weights_sum_to_one(k, sigma, kw):
    # feed basis vectors: the released vector exposes the implicit row weights
    diag = dp.diag_schedule(dp.NoiseConfig(1.0, sigma, budget=k, **kw))
    rows = release_all(np.eye(k), diag)
    assert np.all(rows >= 0.0)  # every row is a convex combination ...
    assert np.allclose(rows.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert np.array_equal(rows, np.tril(rows))  # ... of the gradients seen so far
    for t in range(1, k):  # with uniform off-diagonals (1 - X_tt) / (t - 1)
        assert np.allclose(rows[t, :t], (1.0 - diag[t]) / t, rtol=1e-12, atol=1e-15)
        assert rows[t, t] == pytest.approx(diag[t], rel=1e-12, abs=1e-15)
    # the prefix-sum weights state the same rows: c_t up to the diagonal, plus e_t on it
    c, e = dp.prefix_weights(diag)
    assert np.allclose(np.tril(np.tile(c[:, None], k)) + np.diag(e), rows, rtol=0.0, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 5), st.integers(0, 2**32 - 1))
def test_release_prefix_mean_unrolls(k, d, seed):
    gs = np.random.default_rng(seed).standard_normal((k, d))
    released = release_all(gs, dp.diag_schedule(dp.NoiseConfig(1.0, 1.0, budget=k, mode="corr_x")))
    want = np.cumsum(gs, axis=0) / np.arange(1, k + 1)[:, None]
    assert np.allclose(released, want, rtol=1e-12, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**32 - 1),
       DIAGONALS)
def test_release_block_equals_rows(k, n, d, seed, kw):
    # one (n, d) history, release and fold per iteration is bitwise n single-row
    # ones: the chain's once-per-iteration fold equals folding party by party
    gs = np.random.default_rng(seed).standard_normal((k, n, d))
    diag = dp.diag_schedule(dp.NoiseConfig(1.0, 2.0, budget=k, **kw))
    block = release_all(gs, diag)
    rows = np.stack([release_all(gs[:, j, :], diag) for j in range(n)], axis=1)
    assert np.array_equal(block.view(np.int64), rows.view(np.int64))


def test_release_ignores_future_gradients():
    rng = np.random.default_rng(3)
    gs = rng.standard_normal((6, 3))
    diag = 1.0 / np.arange(1, 7)
    base = release_all(gs, diag)[:4]
    perturbed = gs.copy()
    perturbed[5] += 100.0
    assert np.array_equal(base, release_all(perturbed, diag)[:4])


def test_release_depends_only_on_perturbed_sequence():
    # post-processing: identical perturbed gradients give identical releases,
    # whatever raw gradients produced them
    g_tilde = np.random.default_rng(4).standard_normal((5, 3))
    diag = 1.0 / np.arange(1, 6)
    assert np.array_equal(release_all(g_tilde, diag), release_all(g_tilde.copy(), diag))


def test_effective_noise_variance():
    # implicit per-coordinate noise variance of the released gradient at t:
    # k(Cs)^2 for iid, k(Cs)^2 * sum_l X_tl^2 = k(Cs)^2 / t for the prefix mean,
    # which is also the per-t term of the closed-form N sum
    k, clip, sigma = 100, 2.0, 1.5
    base = k * (clip * sigma) ** 2
    rows = release_all(np.eye(k), dp.diag_schedule(dp.NoiseConfig(clip, sigma, budget=k,
                                                                  mode="corr_x")))
    per_row = base * (rows * rows).sum(axis=1)
    t = np.arange(1, k + 1)
    assert np.allclose(per_row, base / t, rtol=1e-12)
    n_from = [metrics.npq_closed_form(k, clip, sigma, 0.0, d=1, q=s / k)[0] for s in range(k)]
    assert np.allclose(-np.diff(n_from + [0.0]), base / t, rtol=1e-9)


def test_released_noise_variance_monte_carlo():
    # prefix-mean releases of pure noise match k*(C*sigma)^2 / t per coordinate
    k, c, sigma = 16, 1.0, 1.0
    reps = 1_000_000
    rng = np.random.default_rng(11)
    z = math.sqrt(k) * c * sigma * rng.standard_normal((k, reps))
    released = release_all(z, dp.diag_schedule(dp.NoiseConfig(c, sigma, budget=k, mode="corr_x")))
    for t in (1, 4, 16):
        target = k * (c * sigma) ** 2 / t
        assert abs(released[t - 1].var() / target - 1.0) < 0.03
