import math

import numpy as np
import pytest
from scipy.stats import chi2

from conftest import orthogonal_chain_task
from dpvalue import data, dp, models
from dpvalue.valuation import (
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
    SemivalueSpec("shapley", 5),
    SemivalueSpec("banzhaf", 5),
    SemivalueSpec("beta", 5, 4.0, 1.0),
    SemivalueSpec("beta", 5, 16.0, 1.0),
    SemivalueSpec("loo", 5),
]


def run_cfg(ds, mspec, uspec, k, seed, mode="iid", sigma=0.0, q=None, semi=None, **kw):
    n = ds.n_parties
    ncfg = dp.NoiseConfig(1.0, sigma, budget=k, mode=mode, q=q)
    semi = semi or SemivalueSpec("shapley", n)
    return RunConfig(ds, mspec, uspec, ncfg, semi, k=k, master_seed=seed, **kw)


# -- weights ---------------------------------------------------------------


def test_shapley_p_is_one():
    for n in (1, 2, 5, 30):
        _, p = semivalue_weights(SemivalueSpec("shapley", n))
        assert np.allclose(p, 1.0, atol=1e-12)


def test_banzhaf_n3_hand_values():
    w, p = semivalue_weights(SemivalueSpec("banzhaf", 3))
    assert np.allclose(w, [0.75, 0.75, 0.75], atol=1e-12)
    assert np.allclose(p, [0.75, 1.5, 0.75], atol=1e-12)


def test_beta11_equals_shapley():
    for n in (2, 6, 13):
        w1, p1 = semivalue_weights(SemivalueSpec("beta", n, 1.0, 1.0))
        w2, p2 = semivalue_weights(SemivalueSpec("shapley", n))
        assert np.max(np.abs(w1 - w2)) < 1e-12
        assert np.max(np.abs(p1 - p2)) < 1e-12


@pytest.mark.parametrize("spec", KINDS + [SemivalueSpec("beta", 5, 2.5, 3.5)])
def test_weight_constraint(spec):
    for n in (2, 5, 17, 60):
        s = SemivalueSpec(spec.kind, n, spec.alpha, spec.beta)
        w, _ = semivalue_weights(s)
        total = sum(math.comb(n - 1, r - 1) * w[r - 1] for r in range(1, n + 1))
        assert abs(total - n) < 1e-9 * n


def test_weight_validation():
    with pytest.raises(ValueError):
        SemivalueSpec("beta", 5, 0.0, 1.0)
    with pytest.raises(ValueError):
        SemivalueSpec("shapley", 20_000)
    with pytest.raises(ValueError):
        SemivalueSpec("nucleolus", 5)


# -- exact oracle ----------------------------------------------------------


def test_exact_symmetric_game():
    phi = exact_semivalue(lambda s: float(len(s)), SemivalueSpec("shapley", 4))
    assert np.allclose(phi, 1.0, atol=1e-12)


def test_exact_unanimity_game():
    phi = exact_semivalue(
        lambda s: 1.0 if len(s) == 3 else 0.0, SemivalueSpec("shapley", 3)
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
        spec = SemivalueSpec(kind, 3, 4.0, 1.0)
        phi = exact_semivalue(v, spec)
        psi = permutation_expectation(v, spec)
        assert np.max(np.abs(phi - psi)) < 1e-12


def test_loo_exact_value():
    rng = np.random.default_rng(5)
    table = {tuple(sorted(s)): float(rng.standard_normal()) for s in _subsets(4)}

    def v(subset):
        return table[tuple(sorted(subset))]

    phi = exact_semivalue(v, SemivalueSpec("loo", 4))
    full = tuple(range(4))
    expected = [v(full) - v(tuple(j for j in full if j != i)) for i in range(4)]
    assert np.allclose(phi, expected, atol=1e-12)


def _subsets(n):
    for mask in range(1 << n):
        yield tuple(i for i in range(n) if mask >> i & 1)


# -- engine vs oracle ------------------------------------------------------


@pytest.mark.parametrize("kind", ["shapley", "banzhaf", "beta"])
def test_engine_exact_mode_matches_oracle(kind):
    n = 5
    ds, mspec, uspec, set_value = orthogonal_chain_task(n, lr=0.07, seed=0)
    spec = SemivalueSpec(kind, n, 4.0, 1.0)
    k = math.factorial(n)
    cfg = run_cfg(ds, mspec, uspec, k, seed=1, semi=spec, exact_permutations=True)
    res = run_valuation(cfg)
    phi = exact_semivalue(set_value, spec)
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
    assert res.burn_in_dropped == 5
    retained = res.marginals[res.burn_in_dropped :]
    assert retained.shape[0] == 5
    # psi is exactly the weighted mean of the retained marginals
    offline = np.mean(res.pcoefs[5:] * retained, axis=0)
    assert np.max(np.abs(res.psi - offline)) < 1e-12


def test_streaming_psi_matches_offline(small_task):
    ds, mspec, uspec = small_task
    cfg = run_cfg(ds, mspec, uspec, 40, seed=9, mode="corr_x", sigma=2.0)
    res = run_valuation(cfg)
    offline = np.mean(res.pcoefs * res.marginals, axis=0)
    assert np.max(np.abs(res.psi - offline)) < 1e-12


def test_corr_x_release_is_prefix_mean(small_task):
    ds, mspec, uspec = small_task
    cfg = run_cfg(ds, mspec, uspec, 25, seed=13, mode="corr_x", sigma=1.5,
                  record_gradients=True)
    res = run_valuation(cfg)
    g_tilde = res.gradients["g_tilde"]
    g_star = res.gradients["g_star"]
    prefix = np.cumsum(g_tilde, axis=0) / np.arange(1, 26)[:, None, None]
    assert np.max(np.abs(g_star - prefix)) < 1e-10


def test_iid_release_untouched(small_task):
    ds, mspec, uspec = small_task
    cfg = run_cfg(ds, mspec, uspec, 5, seed=3, mode="iid", sigma=1.0, record_gradients=True)
    res = run_valuation(cfg)
    assert np.array_equal(res.gradients["g_star"], res.gradients["g_tilde"])
    assert res.burn_in_dropped == 0


def test_no_noise_determinism_and_mode_equivalence():
    # zero features give iteration-constant (zero) gradients: corr_x and iid
    # then produce bit-identical runs; a generic dataset must not
    n = 6
    xt = np.random.default_rng(0).standard_normal((10, 3))
    yt = np.random.default_rng(1).standard_normal(10)
    zero_ds = data.PartitionedDataset(
        np.zeros((n, 3)), np.zeros(n), np.arange(n, dtype=np.int64), xt, yt,
        task="regression",
    )
    mspec = models.ModelSpec("mse_linear", 0.1, add_bias=False)
    uspec = models.UtilitySpec("neg_test_loss", xt, yt)

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
    u2 = models.UtilitySpec("neg_test_loss", gen.test_features, gen.test_labels)
    a = run_valuation(run_cfg(gen, m2, u2, 12, seed=5, mode="iid"))
    b = run_valuation(run_cfg(gen, m2, u2, 12, seed=5, mode="corr_x"))
    assert not np.allclose(a.marginals, b.marginals)


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


def test_marginal_records_helper(small_task):
    ds, mspec, uspec = small_task
    res = run_valuation(run_cfg(ds, mspec, uspec, 6, seed=1, mode="iid", sigma=1.0))
    records = res.marginal_records(3)
    assert len(records) == 6
    assert records[0][0] == 1  # iterations are 1-based
    assert records[2] == (3, res.pcoefs[2, 3], res.marginals[2, 3])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_divergence_guard():
    # squared test loss overflows once the step is extreme enough; the chain
    # reports it as ChainDiverged alone, without stray numpy warnings
    ds, _, uspec, _ = orthogonal_chain_task(4, lr=1e9, seed=0)
    big = models.ModelSpec("mse_linear", 1e200, add_bias=False)
    cfg = run_cfg(ds, big, uspec, 6, seed=0, mode="iid", sigma=5.0)
    with pytest.raises(RuntimeError, match="iteration"):
        run_valuation(cfg)


def test_result_serialization_roundtrip(tmp_path, small_task):
    ds, mspec, uspec = small_task
    res = run_valuation(run_cfg(ds, mspec, uspec, 8, seed=2, mode="iid", sigma=1.0))
    doc = res.to_json()
    assert '"psi"' in doc
    path = tmp_path / "res.csv"
    res.to_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "party,psi,mu,s_sq,mean_adjusted"
    got = np.array([float(r.split(",")[1]) for r in rows[1:]])
    assert np.array_equal(got, res.psi)  # 17 significant digits round-trip


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


def test_estimation_stats_needs_two():
    with pytest.raises(ValueError):
        estimation_stats(np.ones((1, 3)))


# -- config validation ------------------------------------------------------


def test_run_config_validation(small_task):
    ds, mspec, uspec = small_task
    ncfg = dp.NoiseConfig(1.0, 1.0, budget=9)
    with pytest.raises(ValueError, match="budget"):
        RunConfig(ds, mspec, uspec, ncfg, SemivalueSpec("shapley", ds.n_parties),
                  k=10, master_seed=0)
    with pytest.raises(ValueError, match="party count"):
        RunConfig(ds, mspec, uspec, dp.NoiseConfig(1.0, 1.0, budget=10),
                  SemivalueSpec("shapley", 3), k=10, master_seed=0)


# -- federated --------------------------------------------------------------


def _two_party_task(flip_second=True):
    ds = data.synth_classification(60, 6, 2, seed=9, separation=4.0, n_test=100)
    labels = ds.labels.copy()
    party = np.zeros(60, dtype=np.int64)
    party[30:] = 1
    if flip_second:
        labels[30:] = 1.0 - labels[30:]
    return data.PartitionedDataset(
        ds.features, labels, party, ds.test_features, ds.test_labels,
        task="classification",
    )


def test_federated_orders_corrupted_party_last():
    ds = _two_party_task()
    mspec = models.ModelSpec("logistic_l2", 0.2, models.InitSpec("zeros"), l2=0.01)
    uspec = models.UtilitySpec("test_accuracy", ds.test_features, ds.test_labels)
    cfg = run_cfg(ds, mspec, uspec, 10, seed=3, mode="fl_schedule")
    psi = run_federated(cfg, rounds=10, per_round_permutations=50, q=0.2)
    assert psi[0] > psi[1]


def test_federated_single_round_no_burn_in():
    ds = _two_party_task(flip_second=False)
    mspec = models.ModelSpec("logistic_l2", 0.2, models.InitSpec("zeros"), l2=0.01)
    uspec = models.UtilitySpec("test_accuracy", ds.test_features, ds.test_labels)
    cfg = run_cfg(ds, mspec, uspec, 1, seed=3, mode="fl_schedule")
    psi = run_federated(cfg, rounds=1, per_round_permutations=30, q=0.0)
    assert psi.shape == (2,)
    assert np.all(np.isfinite(psi))


def test_federated_validation():
    ds = _two_party_task()
    mspec = models.ModelSpec("logistic_l2", 0.2, models.InitSpec("zeros"), l2=0.01)
    uspec = models.UtilitySpec("test_accuracy", ds.test_features, ds.test_labels)
    acc_cfg = run_cfg(ds, mspec, uspec, 10, seed=0, mode="fl_schedule")
    with pytest.raises(ValueError, match="integer"):
        run_federated(acc_cfg, rounds=10, per_round_permutations=10, q=0.15)
    with pytest.raises(ValueError, match="permutation"):
        run_federated(acc_cfg, rounds=10, per_round_permutations=0, q=0.2)
    loss_uspec = models.UtilitySpec("neg_test_loss", ds.test_features, ds.test_labels)
    bad_cfg = run_cfg(ds, mspec, loss_uspec, 10, seed=0, mode="fl_schedule")
    with pytest.raises(ValueError, match="accuracy"):
        run_federated(bad_cfg, rounds=10, per_round_permutations=10, q=0.2)
    iid_cfg = run_cfg(ds, mspec, uspec, 10, seed=0, mode="iid", sigma=1.0)
    with pytest.raises(ValueError, match="fl_schedule"):
        run_federated(iid_cfg, rounds=10, per_round_permutations=10, q=0.2)
