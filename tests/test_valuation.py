import itertools
import json
import math
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import yaml
from scipy.special import betaln, gammaln, logsumexp
from scipy.stats import chi2

from conftest import MECHANISMS, map_runs, orthogonal_chain_task, row_formula
from dpvalue import _kernels, cli, data, dp, models, valuation
from dpvalue.config import load_config
from dpvalue.valuation import (
    MAX_PARTIES_WEIGHTS,
    Federated,
    Oracle,
    RunConfig,
    SemivalueSpec,
    estimation_stats,
    exact_semivalue,
    permutation_expectation,
    run_federated,
    run_valuation,
    sample_permutations,
    semivalue_weights,
)

KINDS = [
    SemivalueSpec("shapley"),
    SemivalueSpec("banzhaf"),
    SemivalueSpec("beta", 4.0, 1.0),
    SemivalueSpec("beta", 16.0, 1.0),
    SemivalueSpec("loo"),
]


def run_cfg(ds, mspec, uspec, k, seed, mode="iid", sigma=0.0, q=None, semi=None, **kw):
    ncfg = dp.NoiseConfig(1.0, sigma, budget=k, mode=mode, q=q)
    semi = semi or SemivalueSpec("shapley")
    return RunConfig(ds, mspec, uspec, ncfg, semi, master_seed=seed, **kw)


# -- weights ---------------------------------------------------------------


def test_shapley_p_is_one():
    for n in (1, 2, 5, 30):
        _, p = semivalue_weights(SemivalueSpec("shapley"), n)
        assert np.allclose(p, 1.0, atol=1e-12)


def test_banzhaf_n3_hand_values():
    w, p = semivalue_weights(SemivalueSpec("banzhaf"), 3)
    assert np.allclose(w, [0.75, 0.75, 0.75], atol=1e-12)
    assert np.allclose(p, [0.75, 1.5, 0.75], atol=1e-12)


def test_beta11_equals_shapley():
    for n in (2, 6, 13):
        w1, p1 = semivalue_weights(SemivalueSpec("beta", 1.0, 1.0), n)
        w2, p2 = semivalue_weights(SemivalueSpec("shapley"), n)
        assert np.max(np.abs(w1 - w2)) < 1e-12
        assert np.max(np.abs(p1 - p2)) < 1e-12


@pytest.mark.parametrize("spec", KINDS + [SemivalueSpec("beta", 2.5, 3.5)])
def test_weight_constraint(spec):
    for n in (2, 5, 17, 60):
        w, _ = semivalue_weights(spec, n)
        total = sum(math.comb(n - 1, r - 1) * w[r - 1] for r in range(1, n + 1))
        assert abs(total - n) < 1e-9 * n


@pytest.mark.parametrize("n", [2, 60, 400])
def test_shapley_weights_are_exact_reciprocal_binomials(n):
    w, _ = semivalue_weights(SemivalueSpec("shapley"), n)
    binom = [math.comb(n - 1, r - 1) for r in range(1, n + 1)]
    assert w.tolist() == [float(Fraction(1, c)) for c in binom]
    log_binom = np.array([math.log(c) for c in binom])
    assert np.all(np.abs(-np.log(w) - log_binom) <= 2 * np.spacing(np.maximum(log_binom, 1.0)))


def test_banzhaf_p_matches_exact_rationals():
    n = 400
    _, p = semivalue_weights(SemivalueSpec("banzhaf"), n)
    want = np.array([float(Fraction(n * math.comb(n - 1, r - 1), 2 ** (n - 1)))
                     for r in range(1, n + 1)])
    assert np.max(np.abs(p - want) / want) <= 1e-14


@pytest.mark.parametrize("alpha,beta", [(4.0, 1.0), (16.0, 1.0), (2.5, 3.5)])
def test_beta_weights_match_log_gamma_reference(alpha, beta):
    for n in (2, 13, 60):
        r = np.arange(1, n + 1)
        log_binom = gammaln(n) - gammaln(r) - gammaln(n - r + 1)
        log_b = betaln(r + beta - 1.0, n - r + alpha)
        log_w = math.log(n) + log_b - logsumexp(log_binom + log_b)
        w, p = semivalue_weights(SemivalueSpec("beta", alpha, beta), n)
        assert np.max(np.abs(w / np.exp(log_w) - 1.0)) <= 1e-12
        assert np.max(np.abs(p / np.exp(log_w + log_binom) - 1.0)) <= 1e-12


@pytest.mark.parametrize("kind", ["shapley", "banzhaf", "beta"])
def test_weights_at_party_cap(kind):
    n = MAX_PARTIES_WEIGHTS
    w, p = semivalue_weights(SemivalueSpec(kind, 4.0, 1.0), n)
    assert np.all(np.isfinite(w)) and np.all(np.isfinite(p))
    assert np.sum(p) == pytest.approx(n, rel=1e-12)  # sum_r C(n-1, r-1) w(r) = n


def test_weight_validation():
    with pytest.raises(ValueError):
        SemivalueSpec("beta", 0.0, 1.0)
    with pytest.raises(ValueError):
        semivalue_weights(SemivalueSpec("shapley"), 20_000)
    with pytest.raises(ValueError):
        SemivalueSpec("nucleolus")


def test_party_cap_fails_before_the_chain(monkeypatch):
    # the weights are computed before the chain, so a run over the cap runs none
    ds = data.synth_classification(MAX_PARTIES_WEIGHTS + 1, 2, 2, seed=0, separation=3.0,
                                    n_test=10)
    mspec = models.ModelSpec("logistic_l2", 0.05, models.InitSpec("zeros"), l2=0.01)
    calls = []
    monkeypatch.setattr(_kernels, "run_chain", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=f"got {MAX_PARTIES_WEIGHTS + 1}"):
        run_valuation(run_cfg(ds, mspec, "neg_test_loss", 2, seed=0))
    assert calls == []


# -- exact oracle ----------------------------------------------------------


def test_exact_symmetric_game():
    phi = exact_semivalue(lambda s: float(len(s)), SemivalueSpec("shapley"), 4)
    assert np.allclose(phi, 1.0, atol=1e-12)


def test_exact_unanimity_game():
    phi = exact_semivalue(
        lambda s: 1.0 if len(s) == 3 else 0.0, SemivalueSpec("shapley"), 3
    )
    assert np.allclose(phi, 1.0 / 3.0, atol=1e-12)


def test_exact_matches_permutation_expectation_random_game():
    rng = np.random.default_rng(23)
    table = {}

    def v(subset):
        key = tuple(sorted(subset))
        if key not in table:
            table[key] = float(rng.standard_normal())
        return table[key]

    for kind in ("shapley", "banzhaf", "beta", "loo"):
        spec = SemivalueSpec(kind, 4.0, 1.0)
        phi = exact_semivalue(v, spec, 3)
        psi = permutation_expectation(v, spec, 3)
        assert np.max(np.abs(phi - psi)) < 1e-12


def test_loo_exact_value():
    rng = np.random.default_rng(5)
    table = {tuple(sorted(s)): float(rng.standard_normal()) for s in _subsets(4)}

    def v(subset):
        return table[tuple(sorted(subset))]

    phi = exact_semivalue(v, SemivalueSpec("loo"), 4)
    full = tuple(range(4))
    expected = [v(full) - v(tuple(j for j in full if j != i)) for i in range(4)]
    assert np.allclose(phi, expected, atol=1e-12)


def _subsets(n):
    for mask in range(1 << n):
        yield tuple(i for i in range(n) if mask >> i & 1)


def test_oracle_block_defaults_and_rules():
    oracle = Oracle()
    assert (oracle.n, oracle.kinds, oracle.tolerance) == (4, ("shapley", "banzhaf"), 1e-10)
    assert Oracle(kinds=("beta", "loo")).semivalues == (SemivalueSpec("beta", 4.0, 1.0),
                                                        SemivalueSpec("loo", 4.0, 1.0))
    for fields, message in [
        ({"n": 9}, "permutation enumeration needs 1 <= n <= 8, got 9"),
        ({"kinds": ("shapley", "bogus")}, "unknown semivalue kind 'bogus'"),
        ({"kinds": ()}, "kinds must name at least one semivalue kind, got none"),
        ({"tolerance": 0.0}, "tolerance must be > 0, got 0.0"),
    ]:
        with pytest.raises(ValueError) as err:
            Oracle(**fields)
        assert str(err.value) == message, fields


# -- engine vs oracle ------------------------------------------------------


@pytest.mark.parametrize("kind", ["shapley", "banzhaf", "beta"])
def test_engine_exact_mode_matches_oracle(kind, monkeypatch):
    n = 5
    ds, mspec, uspec, set_value = orthogonal_chain_task(n, lr=0.07, seed=0)
    spec = SemivalueSpec(kind, 4.0, 1.0)
    k = math.factorial(n)
    every = np.array(list(itertools.permutations(range(n))), dtype=np.int64)

    def all_permutations(n_parties, budget, seed_seq):  # the n! permutations, once each
        assert (n_parties, budget) == (n, k)
        return every

    monkeypatch.setattr(valuation, "sample_permutations", all_permutations)
    cfg = run_cfg(ds, mspec, uspec, k, seed=1, semi=spec)
    res = run_valuation(cfg)
    phi = exact_semivalue(set_value, spec, n)
    assert np.max(np.abs(res.psi - phi)) < 1e-10


def test_single_party_degenerate():
    ds, mspec, uspec, set_value = orthogonal_chain_task(1, lr=0.05, seed=2)
    cfg = run_cfg(ds, mspec, uspec, 7, seed=0)
    res = run_valuation(cfg)
    expected = set_value((0,)) - set_value(())
    assert res.psi[0] == pytest.approx(expected, abs=1e-12)
    assert np.allclose(res.marginals[:, 0], expected)


def test_corr_y_burn_in_bookkeeping(small_task):
    ds, mspec, uspec = small_task
    cfg = run_cfg(ds, mspec, uspec, 10, seed=4, mode="corr_y", sigma=1.0, q=0.5)
    res = run_valuation(cfg)
    assert cfg.noise.burn_in == 5
    retained = res.marginals[cfg.noise.burn_in :]
    assert retained.shape[0] == 5
    # psi is exactly the weighted mean of the retained marginals
    offline = np.mean(res.pcoefs[5:] * retained, axis=0)
    assert np.array_equal(res.psi, offline)


def test_streaming_psi_matches_offline(small_task):
    ds, mspec, uspec = small_task
    cfg = run_cfg(ds, mspec, uspec, 40, seed=9, mode="corr_x", sigma=2.0)
    res = run_valuation(cfg)
    offline = np.mean(res.pcoefs * res.marginals, axis=0)
    assert np.array_equal(res.psi, offline)


def streaming_psi(marginals, perms, p, kq):
    """psi by the running-mean recurrence over t, one party at a time."""
    k, n = marginals.shape
    psi = np.zeros(n)
    for t in range(kq, k):
        cnt = t - kq + 1.0
        for pos in range(n):
            j = perms[t, pos]
            psi[j] = (cnt - 1.0) / cnt * psi[j] + p[pos] * marginals[t, j] / cnt
    return psi


@pytest.mark.parametrize("loss,utility", [("logistic_l2", "neg_test_loss"),
                                          ("mse_linear", "test_accuracy")])
@pytest.mark.parametrize("mode", list(MECHANISMS))
def test_psi_matches_streaming_recurrence(mode, loss, utility):
    ds = data.synth_classification(9, 4, 2, seed=5, separation=2.0, n_test=30)
    mspec = models.ModelSpec(loss, 0.1, models.InitSpec("gaussian", 0.1),
                             l2=0.02 if loss == "logistic_l2" else 0.0)
    noise = dp.NoiseConfig(0.8, 1.5, budget=16, **MECHANISMS[mode])
    spec = SemivalueSpec("beta", 4.0, 1.0)
    res = run_valuation(RunConfig(ds, mspec, utility, noise, spec, master_seed=7))
    # the run's own permutations: the first of its master seed's three streams
    perms = sample_permutations(9, 16, np.random.SeedSequence(7).spawn(3)[0])
    _, p = semivalue_weights(spec, 9)
    for t in range(16):
        assert res.pcoefs[t, perms[t]].tobytes() == p.tobytes(), t
    want = streaming_psi(res.marginals, perms, p, noise.burn_in)
    assert np.allclose(res.psi, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("mode,q", [("iid", None), ("corr_y", 0.5)])
def test_shapley_psi_is_mu(small_task, mode, q):
    # p = 1 at every position, so psi is the mean of the retained marginals
    ds, mspec, uspec = small_task
    res = run_valuation(run_cfg(ds, mspec, uspec, 12, seed=2, mode=mode, sigma=1.0, q=q))
    assert np.array_equal(res.psi, res.mu)


def test_corr_x_release_is_prefix_mean(small_task):
    ds, mspec, uspec = small_task
    cfg = run_cfg(ds, mspec, uspec, 25, seed=13, mode="corr_x", sigma=1.5,
                  record_gradients=True)
    res = run_valuation(cfg)
    prefix = np.cumsum(res.g_tilde, axis=0) / np.arange(1, 26)[:, None, None]
    assert np.max(np.abs(res.g_star - prefix)) < 1e-10


def test_iid_release_untouched(small_task):
    ds, mspec, uspec = small_task
    cfg = run_cfg(ds, mspec, uspec, 5, seed=3, mode="iid", sigma=1.0, record_gradients=True)
    res = run_valuation(cfg)
    assert np.array_equal(res.g_star, res.g_tilde)
    # nothing is dropped: psi weighs every iteration's marginals
    assert np.array_equal(res.psi, np.mean(res.pcoefs * res.marginals, axis=0))


def test_recorded_arrays_only_when_asked(small_task):
    ds, mspec, uspec = small_task
    k, n, d = 6, ds.n_parties, ds.features.shape[1] + int(mspec.add_bias)
    grads, states = ("g_hat", "g_tilde", "g_star"), ("theta_prev", "v_prev")
    for record_gradients, record_states in itertools.product((False, True), repeat=2):
        cfg = run_cfg(ds, mspec, uspec, k, seed=3, sigma=1.0,
                      record_gradients=record_gradients, record_states=record_states)
        res = run_valuation(cfg)
        for names, recorded in ((grads, record_gradients), (states, record_states)):
            for name in names:
                value = getattr(res, name)
                if not recorded:
                    assert value is None, name
                else:
                    assert value.shape == ((k, n) if name == "v_prev" else (k, n, d)), name


def test_no_noise_determinism_and_mode_equivalence():
    # zero features give iteration-constant (zero) gradients: corr_x and iid
    # then produce bit-identical runs; a generic dataset must not
    n = 6
    xt = np.random.default_rng(0).standard_normal((10, 3))
    yt = np.random.default_rng(1).standard_normal(10)
    zero_ds = data.PartitionedDataset(
        np.zeros((n, 3)), np.zeros(n), np.arange(n + 1, dtype=np.int64), xt, yt,
        task="regression",
    )
    mspec = models.ModelSpec("mse_linear", 0.1, add_bias=False)
    uspec = "neg_test_loss"

    res_iid = run_valuation(run_cfg(zero_ds, mspec, uspec, 12, seed=5, mode="iid"))
    res_iid2 = run_valuation(run_cfg(zero_ds, mspec, uspec, 12, seed=5, mode="iid"))
    res_corr = run_valuation(run_cfg(zero_ds, mspec, uspec, 12, seed=5, mode="corr_x"))
    assert np.array_equal(res_iid.psi, res_iid2.psi)
    assert np.array_equal(res_iid.marginals, res_iid2.marginals)
    assert np.array_equal(res_iid.psi, res_corr.psi)
    assert np.array_equal(res_iid.marginals, res_corr.marginals)

    # coupled features make gradients vary with the permutation, so the
    # prefix-mean release must diverge from the iid one even at sigma = 0
    gen = data.synth_classification(12, 4, 2, seed=8, separation=2.0, n_test=20)
    m2 = models.ModelSpec("logistic_l2", 0.3, l2=0.01)
    u2 = "neg_test_loss"
    a = run_valuation(run_cfg(gen, m2, u2, 12, seed=5, mode="iid"))
    b = run_valuation(run_cfg(gen, m2, u2, 12, seed=5, mode="corr_x"))
    assert not np.allclose(a.marginals, b.marginals)


@pytest.mark.parametrize("mode", ["iid", "corr_x"])
def test_zero_noise_run_is_the_chain_on_zero_noise(small_task, mode):
    # at sigma = 0 the run draws its noise like any run and scales it by 0:
    # every output is bitwise that of the kernel fed a block of zeros
    ds, mspec, uspec = small_task
    cfg = run_cfg(ds, mspec, uspec, 8, seed=4, mode=mode, record_gradients=True,
                  record_states=True)
    res = run_valuation(cfg)
    k, n = 8, ds.n_parties
    perm_ss, init_ss, _ = np.random.SeedSequence(4).spawn(3)
    perms = sample_permutations(n, k, perm_ss)
    d = res.task.x.shape[1]
    out = _kernels.run_chain(valuation.prepare(cfg), cfg.noise, perms,
                             models.init_params(mspec, (k, d), init_ss), np.zeros((k, n, d)),
                             True, True)
    for name, want in out.items():
        assert getattr(res, name).tobytes() == want.tobytes(), name
    assert res.psi.tobytes() == np.mean(res.pcoefs * out["marginals"], axis=0).tobytes()


def test_run_holds_one_noise_block():
    # the (k, n, d) noise is drawn and scaled in place, so a run never holds a
    # second block for the scaled copy; below numpy's 256 KiB temporary-elision
    # threshold the product std * draw would allocate one
    k, n, d = 50, 20, 30
    ds = data.synth_classification(n, d - 1, 2, seed=1, separation=3.0, n_test=20)
    mspec = models.ModelSpec("logistic_l2", 0.05, l2=0.01)
    cfg = run_cfg(ds, mspec, "neg_test_loss", k, seed=0, sigma=1.0)
    block = k * n * d * 8
    assert block < 256 * 1024
    tracemalloc.start()
    try:
        run_valuation(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * block, peak / block


def test_permutation_sampling_uniform():
    # chi-square over all 24 permutations of n=4 at significance 1e-3,
    # drawn through the engine's own sampler
    n, draws = 4, 100_000
    perms = sample_permutations(n, draws, np.random.SeedSequence(77).spawn(3)[0])
    counts = {}
    for row in perms:
        key = tuple(row)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == 24
    expected = draws / 24
    stat = sum((c - expected) ** 2 / expected for c in counts.values())
    assert stat < chi2.ppf(1 - 1e-3, 23)


@pytest.mark.parametrize("as_generator", [False, True], ids=["seed_sequence", "generator"])
@pytest.mark.parametrize("n,k", [(1, 1), (1, 5), (2, 7), (6, 800), (400, 20)])
def test_permutations_are_one_draw_of_the_per_row_stream(n, k, as_generator):
    # one (k, n) draw is bitwise k permutation(n) calls, and leaves the generator where they do
    seed = np.random.SeedSequence(31 + n)
    want_rng, got_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    want = np.array([want_rng.permutation(n) for _ in range(k)])
    perms = sample_permutations(n, k, got_rng if as_generator else seed)
    assert perms.dtype == np.int64 and perms.flags.c_contiguous
    assert perms.shape == want.shape and perms.tobytes() == want.tobytes()
    if as_generator:  # drawn in place, to where the k calls leave it
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_map_runs_keeps_order_and_warning_filters():
    assert map_runs(abs, [-3, 2, -1, 0]) == [3, 2, 1, 0]
    with pytest.raises(RuntimeWarning):  # a warning fails a worker's run as it fails the suite
        map_runs(np.log, [np.float64(1.0), np.float64(0.0)])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergence_guard():
    # squared test loss overflows once the step is extreme enough; the chain
    # reports it as ChainDiverged alone, without stray numpy warnings
    ds, _, uspec, _ = orthogonal_chain_task(4, lr=1e9, seed=0)
    big = models.ModelSpec("mse_linear", 1e200, add_bias=False)
    cfg = run_cfg(ds, big, uspec, 6, seed=0, mode="iid", sigma=5.0)
    with pytest.raises(RuntimeError, match="iteration"):
        run_valuation(cfg)


def test_result_serialization_roundtrip(tmp_path):
    # the CLI's result.json writes psi with 17 significant digits, which
    # round-trips every float64 exactly
    doc = {
        "experiment": "valuation", "seed": 2, "k": 8, "output_dir": str(tmp_path / "out"),
        "dataset": {"source": "synth", "n_samples": 20, "n_test": 30, "d_feat": 4},
        "model": {"loss": "logistic_l2", "learning_rate": 0.05, "l2": 0.01},
        "noise": {"clip_norm": 1.0, "sigma": 1.0, "mode": "iid"},
    }
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert cli.main(["run", str(path)]) == 0
    written = json.loads((tmp_path / "out" / "result.json").read_text())
    cfg = load_config(path)
    res = run_valuation(cfg.run(2))
    assert np.array_equal(np.array([float(v) for v in written["psi"]]), res.psi)
    assert np.array_equal(np.array([float(v) for v in written["s_sq"]]), res.s_sq)


# -- estimation stats ------------------------------------------------------


def test_estimation_stats_constant():
    mu, s_sq, mav = estimation_stats(np.full((10, 2), 3.5))
    assert np.allclose(mu, 3.5)
    assert np.allclose(s_sq, 0.0)
    assert np.allclose(mav, 0.0)


def test_estimation_stats_guard():
    mu, s_sq, mav = estimation_stats(np.array([[1.0], [-1.0]]))
    assert mu[0] == 0.0
    assert s_sq[0] == pytest.approx(1.0)  # sum (m-mu)^2 / (k(k-1)) = 2/2
    assert np.isnan(mav[0])


def test_estimation_stats_monte_carlo():
    rng = np.random.default_rng(6)
    m = rng.normal(5.0, 1.0, size=(10_000, 1))
    mu, s_sq, mav = estimation_stats(m)
    assert abs(mu[0] - 5.0) < 0.05
    assert abs(s_sq[0] - 1e-4) < 1e-5  # variance of the mean
    assert mav[0] == pytest.approx(s_sq[0] / abs(mu[0]))


def test_s_sq_estimates_var_psi_under_iid_noise():
    # iid iterations are independent, so the within-run spread s_sq estimates
    # the across-seed Var[psi]; at R = 200 seeds the ratio's relative SE is
    # about 10 %, and [0.7, 1.3] is about 3 SE
    seeds = 200
    ds = data.partition(
        data.synth_classification(24, 4, 2, seed=0, separation=3.0, n_test=24), 4, "equal-chunks")
    mspec = models.ModelSpec("mse_linear", 0.05)
    runs = [run_valuation(run_cfg(ds, mspec, "neg_test_loss", 40, seed, sigma=1.0))
            for seed in range(seeds)]
    psi = np.array([res.psi for res in runs])
    ratio = np.mean([res.s_sq for res in runs], axis=0) / psi.var(axis=0, ddof=1)
    assert np.all((ratio > 0.7) & (ratio < 1.3)), ratio


def test_estimation_stats_needs_two():
    with pytest.raises(ValueError):
        estimation_stats(np.ones((1, 3)))


def test_run_needs_two_retained_iterations(small_task):
    # checked before the chain runs, by the rule the config parser also calls
    ds, mspec, uspec = small_task
    for k, mode, q in ((1, "iid", None), (10, "corr_y", 0.9)):
        cfg = run_cfg(ds, mspec, uspec, k, seed=0, mode=mode, q=q)
        with pytest.raises(ValueError, match="2 iterations"):
            run_valuation(cfg)
    cfg = run_cfg(ds, mspec, uspec, 10, seed=0, mode="corr_y", q=0.8)
    res = run_valuation(cfg)
    assert cfg.noise.burn_in == 8 and np.all(np.isfinite(res.s_sq))
    # the statistics are those of the two retained iterations
    assert np.array_equal(res.s_sq, estimation_stats(res.marginals[8:])[1])


# -- config validation ------------------------------------------------------


def test_run_config_validation(small_task):
    ds, mspec, uspec = small_task
    ncfg = dp.NoiseConfig(1.0, 1.0, budget=10)
    with pytest.raises(ValueError, match="non-negative"):
        RunConfig(ds, mspec, uspec, ncfg, SemivalueSpec("shapley"), master_seed=-1)
    # a logistic model trains and is scored on 0/1 labels only; MSE takes any
    multi = data.synth_classification(40, 6, 3, seed=11, separation=4.0, n_test=60)
    multi_test = replace(ds, test_labels=multi.test_labels)
    with pytest.raises(ValueError, match=r"labels in \{0, 1\}, got \[2.0\]"):
        RunConfig(multi, mspec, uspec, ncfg, SemivalueSpec("shapley"), master_seed=0)
    with pytest.raises(ValueError, match=r"labels in \{0, 1\}, got \[2.0\]"):
        RunConfig(multi_test, mspec, uspec, ncfg, SemivalueSpec("shapley"), master_seed=0)
    mse = models.ModelSpec("mse_linear", 0.05)
    RunConfig(multi, mse, uspec, ncfg, SemivalueSpec("shapley"), master_seed=0)
    # test accuracy thresholds each score into {0, 1}, so it is scored on 0/1 labels only
    with pytest.raises(ValueError, match=r"test_accuracy needs labels in \{0, 1\}, got \[2.0\]"):
        RunConfig(multi, mse, "test_accuracy", ncfg, SemivalueSpec("shapley"), master_seed=0)
    # the utility is a kind, scored on the dataset's own non-empty test split
    with pytest.raises(ValueError, match="unknown utility kind"):
        RunConfig(ds, mspec, "test_loss", ncfg, SemivalueSpec("shapley"), master_seed=0)
    no_test = replace(ds, test_features=ds.test_features[:0], test_labels=ds.test_labels[:0])
    with pytest.raises(ValueError, match="non-empty test set"):
        RunConfig(no_test, mspec, uspec, ncfg, SemivalueSpec("shapley"), master_seed=0)


# -- federated --------------------------------------------------------------


def _two_party_task(flip_second=True):
    ds = data.synth_classification(60, 6, 2, seed=9, separation=4.0, n_test=100)
    labels = ds.labels.copy()
    if flip_second:
        labels[30:] = 1.0 - labels[30:]
    return data.PartitionedDataset(
        ds.features, labels, np.array([0, 30, 60]), ds.test_features, ds.test_labels,
        task="classification",
    )


def test_federated_orders_corrupted_party_last():
    ds = _two_party_task()
    mspec = models.ModelSpec("logistic_l2", 0.2, models.InitSpec("zeros"), l2=0.01)
    uspec = "test_accuracy"
    cfg = run_cfg(ds, mspec, uspec, 10, seed=3, mode="fl_schedule")
    psi = run_federated(cfg, Federated(50, 0.2))
    assert psi[0] > psi[1]


def test_federated_single_round_no_burn_in():
    ds = _two_party_task(flip_second=False)
    mspec = models.ModelSpec("logistic_l2", 0.2, models.InitSpec("zeros"), l2=0.01)
    uspec = "test_accuracy"
    cfg = run_cfg(ds, mspec, uspec, 1, seed=3, mode="fl_schedule")
    psi = run_federated(cfg, Federated(30, 0.0))
    assert psi.shape == (2,)
    assert np.all(np.isfinite(psi))


def test_federated_validation():
    ds = _two_party_task()
    mspec = models.ModelSpec("logistic_l2", 0.2, models.InitSpec("zeros"), l2=0.01)
    uspec = "test_accuracy"
    acc_cfg = run_cfg(ds, mspec, uspec, 10, seed=0, mode="fl_schedule")
    with pytest.raises(ValueError, match="integer"):
        run_federated(acc_cfg, Federated(10, 0.15))
    with pytest.raises(ValueError, match="permutation"):
        run_federated(acc_cfg, Federated(0, 0.2))
    loss_uspec = "neg_test_loss"
    bad_cfg = run_cfg(ds, mspec, loss_uspec, 10, seed=0, mode="fl_schedule")
    with pytest.raises(ValueError, match="accuracy"):
        run_federated(bad_cfg, Federated(10, 0.2))
    iid_cfg = run_cfg(ds, mspec, uspec, 10, seed=0, mode="iid", sigma=1.0)
    with pytest.raises(ValueError, match="fl_schedule"):
        run_federated(iid_cfg, Federated(10, 0.2))
    banzhaf_cfg = replace(acc_cfg, semivalue=SemivalueSpec("banzhaf"))
    with pytest.raises(ValueError, match="Shapley value only"):
        run_federated(banzhaf_cfg, Federated(10, 0.2))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_federated_divergence_names_round_and_party():
    # at lr 1e308 the global model overflows; its accuracy is NaN, not a
    # thresholded share, so the round and party are reported
    ds = _two_party_task()
    mspec = models.ModelSpec("logistic_l2", 1e308, models.InitSpec("zeros"), l2=0.01)
    cfg = run_cfg(ds, mspec, "test_accuracy", 5, seed=3, mode="fl_schedule")
    with pytest.raises(_kernels.ChainDiverged) as err:
        run_federated(cfg, Federated(4, 0.2))
    assert (err.value.iteration, err.value.party) == (1, 0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("scale", [1e200, 1e308])
def test_starting_model_failure_names_init_scale(scale):
    # a starting model drawn too large is no step's fault: the chain's and the
    # first federated round's failures name model.init.scale, not the learning rate
    ds = _two_party_task()
    mspec = models.ModelSpec("logistic_l2", 0.2, models.InitSpec("gaussian", scale), l2=0.01)
    runs = [(run_valuation, (run_cfg(ds, mspec, "neg_test_loss", 4, seed=3),))]
    if scale == 1e308:  # at 1e200 every score is finite, and so is the accuracy
        runs.append((run_federated, (run_cfg(ds, mspec, "test_accuracy", 5, seed=3,
                                             mode="fl_schedule"), Federated(4, 0.2))))
    for run, args in runs:
        with pytest.raises(_kernels.ChainDiverged) as err:
            run(*args)
        assert (err.value.iteration, err.value.party) == (1, -1)
        assert str(err.value) == ("non-finite utility at iteration 1 (initial model); "
                                  "model.init.scale is likely too large")


@np.errstate(over="ignore", invalid="ignore")
def reference_federated(cfg, rounds, per_round_permutations, q=0.2):
    """The federated loop before the shared release step, kept verbatim:
    per-party clip, noise drawn one party at a time, and an inline combine.
    Returns psi and the released stream, each round's global model and its
    (n, d) released gradients."""
    rq = rounds * q
    if abs(rq - round(rq)) > 1e-9:
        raise ValueError(f"rounds*q must be an integer, got {rq}")
    burn = int(round(rq))

    ds = cfg.dataset
    n = ds.n_parties
    x, y, ptr = models.design_matrix(ds.features, cfg.model), ds.labels, ds.ptr
    xt = models.design_matrix(ds.test_features, cfg.model)
    yt = np.ascontiguousarray(ds.test_labels, dtype=np.float64)
    d = x.shape[1]
    loss = cfg.model.loss_kind
    lam = cfg.model.l2
    lr = cfg.model.learning_rate
    with row_formula():
        task = _kernels.Task(x, y, ptr, xt, yt, loss, cfg.utility, lr, lam)

    ss = np.random.SeedSequence(cfg.master_seed)
    init_ss, noise_ss, perm_ss = ss.spawn(3)
    noise_rng = np.random.default_rng(noise_ss)
    perm_rng = np.random.default_rng(perm_ss)

    if cfg.model.init.kind == "zeros":
        theta = np.zeros(d)
    else:
        theta = cfg.model.init.scale * np.random.default_rng(init_ss).standard_normal(d)

    diag = dp.diag_schedule(cfg.noise)
    std = cfg.noise.per_release_std
    roll = np.zeros((n, d))
    nu = np.zeros((rounds, n))
    stream = []

    for t in range(rounds):
        released = np.empty((n, d))
        stream.append((theta, released))
        for j in range(n):
            g = _kernels.party_grad_np(theta, task, j)
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
            v_prev = _kernels.utility_np(th, task)
            for j in perm:
                th = th - lr * released[j]
                v_after = _kernels.utility_np(th, task)
                nu[t, j] += v_after - v_prev
                v_prev = v_after
        nu[t] /= per_round_permutations
        theta = theta - lr * released.mean(axis=0)
    return nu[burn:].mean(axis=0), stream


@pytest.mark.parametrize("sigma", [0.0, 0.8])
@pytest.mark.parametrize("clip", [0.05, 1e6])  # clipping active on every gradient, or never
@pytest.mark.parametrize("mode", ["fl_schedule"])
def test_federated_matches_reference_loop(mode, clip, sigma):
    ds = data.partition(data.synth_classification(48, 5, 2, seed=4, separation=2.0, n_test=40),
                        6, "equal-chunks")
    mspec = models.ModelSpec("logistic_l2", 0.3, models.InitSpec("gaussian", 0.2), l2=0.01)
    uspec = "test_accuracy"
    ncfg = dp.NoiseConfig(clip, sigma, budget=5, mode=mode)
    cfg = RunConfig(ds, mspec, uspec, ncfg, SemivalueSpec("shapley"), master_seed=8)
    want, _ = reference_federated(cfg, 5, 12, q=0.2)
    got = run_federated(cfg, Federated(12, 0.2))
    assert np.array_equal(got, want)
    assert want.any()


@pytest.mark.parametrize("mode", ["fl_schedule"])
def test_mse_stats_gradient_in_every_caller(mode):
    # 8-row parties of d = 6 with the bias column take their gradient from
    # (G, h) in federated attribution and retraining alike; both match the row
    # formula, that of the reference loop and of a Task without the statistics
    ds = data.partition(data.synth_classification(48, 5, 2, seed=4, separation=2.0, n_test=40),
                        6, "equal-chunks")
    mspec = models.ModelSpec("mse_linear", 0.05, models.InitSpec("gaussian", 0.2))
    ncfg = dp.NoiseConfig(1.0, 0.8, budget=5, mode=mode)
    cfg = RunConfig(ds, mspec, "test_accuracy", ncfg, SemivalueSpec("shapley"), master_seed=8)
    task = valuation.prepare(cfg)
    assert all(stats is not None for stats in task.grad_stats)
    want, _ = reference_federated(cfg, 5, 12, q=0.2)
    assert want.any()
    assert np.allclose(run_federated(cfg, Federated(12, 0.2)), want, rtol=1e-12, atol=1e-12)
    with row_formula():  # the same rows, every party on the row formula
        rows_only = replace(task)
    assert rows_only.grad_stats == (None,) * 6
    for seed, keep in enumerate([np.arange(6), np.array([1, 4, 5])]):
        want = models.train_one_pass(mspec, rows_only, keep, seed)
        got = models.train_one_pass(mspec, task, keep, seed)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


def test_federated_runs_fl_schedule_only():
    ds = data.partition(data.synth_classification(48, 5, 2, seed=4, separation=2.0, n_test=40),
                        6, "equal-chunks")
    mspec = models.ModelSpec("logistic_l2", 0.3, models.InitSpec("gaussian", 0.2), l2=0.01)
    for mode in ("iid", "corr_x"):
        ncfg = dp.NoiseConfig(1.0, 0.8, budget=5, mode=mode)
        cfg = RunConfig(ds, mspec, "test_accuracy", ncfg, SemivalueSpec("shapley"), master_seed=8)
        with pytest.raises(ValueError, match=f"runs fl_schedule noise, got '{mode}'"):
            run_federated(cfg, Federated(12, 0.2))


FEDERATED_YAML = Path(__file__).resolve().parents[1] / "configs" / "federated.yaml"
PSI_BAND_SE = 5.0  # psi's band around the exact value, in standard errors of its estimate


def test_federated_matches_exact_per_round_shapley():
    # within a round the steps add, so the round's game v_t(S) = U(theta_t - lr * sum_S r_j)
    # is a set function at federated.yaml's shape: each subset scores the same in every order
    # of its steps, and exact_semivalue gives the round's Shapley value phi_t. psi averages
    # `permutations` sampled marginals per kept round, so it lies within PSI_BAND_SE standard
    # errors of the mean phi_t; the standard error is exact, from each round's game
    cfg = load_config(FEDERATED_YAML)
    run = cfg.run(cfg.seed)
    psi = run_federated(run, cfg.plan)
    want, stream = reference_federated(run, cfg.noise.budget, cfg.plan.permutations, cfg.plan.q)
    assert np.array_equal(psi, want)
    task, n = valuation.prepare(run), run.dataset.n_parties
    burn = dp.burn_in_count(cfg.noise.budget, cfg.plan.q)
    kept = len(stream) - burn
    phi, var = np.zeros(n), np.zeros(n)
    for t, (theta, released) in enumerate(stream):
        table = {}

        def v(subset, theta=theta, released=released, table=table):
            scores = set()
            for order in itertools.permutations(subset):
                th = theta.copy()
                for j in order:
                    th = th - task.lr * released[j]
                scores.add(_kernels.utility_np(th, task))
            assert len(scores) == 1, subset
            table[subset] = scores.pop()
            return table[subset]

        phi_t = exact_semivalue(v, SemivalueSpec("shapley"), n)
        if t < burn:
            continue
        # E[m_j^2]: j's predecessors are S with probability 1 / (n * C(n-1, |S|))
        second = np.zeros(n)
        for s, value in table.items():
            for j in set(range(n)) - set(s):
                step = table[tuple(sorted(s + (j,)))] - value
                second[j] += step * step / (n * math.comb(n - 1, len(s)))
        phi += phi_t / kept
        var += (second - phi_t * phi_t) / (cfg.plan.permutations * kept * kept)
    assert np.all(np.abs(psi - phi) <= PSI_BAND_SE * np.sqrt(var) + 1e-12)
