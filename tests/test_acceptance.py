"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured values. Tolerances are fixed here, not tuned at runtime."""

import math
import time

import numpy as np
import pytest
from conftest import map_runs

from dpvalue import cli, data, dp, metrics, models
from dpvalue.valuation import (
    RunConfig,
    SemivalueSpec,
    exact_semivalue,
    permutation_expectation,
    run_valuation,
    semivalue_weights,
)

EPS_DELTA = 5e-5


def report(criterion: int, detail: str) -> None:
    print(f"[criterion {criterion:02d}] PASS  {detail}")


# -- criterion 1: estimator unbiasedness against the subset-sum oracle --------


def test_criterion_01_oracle_unbiasedness():
    start = time.time()
    rng = np.random.default_rng(101)
    worst = 0.0
    for n in (3, 4, 5):
        table = {}
        for mask in range(1 << n):
            key = tuple(i for i in range(n) if mask >> i & 1)
            table[key] = float(rng.standard_normal())
        v = lambda s: table[tuple(sorted(s))]
        for spec in (
            SemivalueSpec("shapley"),
            SemivalueSpec("banzhaf"),
            SemivalueSpec("beta", 4.0, 1.0),
            SemivalueSpec("beta", 16.0, 1.0),
        ):
            diff = np.max(np.abs(exact_semivalue(v, spec, n)
                                 - permutation_expectation(v, spec, n)))
            worst = max(worst, float(diff))
    elapsed = time.time() - start
    assert worst < 1e-10
    assert elapsed < 5.0
    report(1, f"max |subset-sum value - E[estimator]| = {worst:.2e} in {elapsed:.2f}s")


# -- criteria 2 & 3: budget scaling of the conditional variance ---------------

PROBE_KS = (50, 100, 200, 400, 800)


@pytest.fixture(scope="module")
def probe_results():
    ds = data.synth_classification(60, 6, 2, seed=5, separation=3.0, n_test=64)
    ds = data.partition(ds, 6, "equal-chunks")
    mspec = models.ModelSpec("mse_linear", 0.05, models.InitSpec("zeros"))
    uspec = "neg_test_loss"
    sigma = dp.calibrate_sigma(1.0, EPS_DELTA)
    base = RunConfig(
        ds, mspec, uspec,
        dp.NoiseConfig(1.0, sigma, budget=PROBE_KS[0], mode="iid"),
        SemivalueSpec("shapley"), master_seed=9,
    )
    start = time.time()
    out = metrics.variance_scaling_probe(
        metrics.Probe(PROBE_KS, 500, ("iid", "corr_x", "corr_y"), 0.5), base, 3)
    out["elapsed"] = time.time() - start
    return out


def test_criterion_02_iid_variance_scales_linearly(probe_results):
    slope = probe_results["iid"].slope
    assert 0.8 <= slope <= 1.2
    assert probe_results["elapsed"] < 600.0
    report(2, f"iid log-log slope = {slope:.3f} over k={list(PROBE_KS)}")


def test_criterion_03_correlated_noise_controls_variance(probe_results):
    sx = probe_results["corr_x"].slope
    sy = probe_results["corr_y"].slope
    assert sx <= 0.35
    assert -0.2 <= sy <= 0.2
    corr_y_at_800 = probe_results["corr_y"].variances[-1]
    iid_at_50 = probe_results["iid"].variances[0]
    assert corr_y_at_800 < iid_at_50
    report(
        3,
        f"corr_x slope = {sx:.3f}, corr_y slope = {sy:.3f}, "
        f"corr_y var@800 = {corr_y_at_800:.3e} < iid var@50 = {iid_at_50:.3e}",
    )


# -- criterion 4: closed-form variance identities ------------------------------


def test_criterion_04_noise_variance_closed_forms():
    start = time.time()
    rng = np.random.default_rng(404)
    reps, chunk = 1_000_000, 200_000
    worst = 0.0
    for _ in range(5):
        d = int(rng.integers(2, 8))
        k = int(rng.integers(2, 20))
        cs = float(rng.uniform(0.2, 1.5))
        t = int(rng.integers(1, k + 1))
        g = rng.standard_normal(d)
        g *= rng.uniform(0.3, 2.0) / np.linalg.norm(g)
        for tt, pred in (
            (1, metrics.noise_var_closed_form(g, dp.NoiseConfig(1.0, cs, k))),
            (t, metrics.noise_var_closed_form(g, dp.NoiseConfig(1.0, cs, k), t=t)),
        ):
            std = math.sqrt(k / tt) * cs
            acc = []
            done = 0
            while done < reps:
                m = min(chunk, reps - done)
                z = std * rng.standard_normal((m, d))
                acc.append(np.sum((g + z) ** 2, axis=1))
                done += m
            emp = np.concatenate(acc).var()
            rel = abs(emp / pred - 1.0)
            worst = max(worst, rel)
            assert rel < 0.02
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(4, f"worst relative error = {worst:.4f} over 5 draws x 2 forms in {elapsed:.1f}s")


# -- criterion 5: N closed form and its logarithmic bound ----------------------


def test_criterion_05_noise_moment_sum_bound():
    n, _, _ = metrics.npq_closed_form(dp.NoiseConfig(1.0, 1.0, 4, mode="corr_x"), d=1)
    assert n == pytest.approx(25.0 / 3.0, abs=1e-12)
    for k in (10, 100, 1000):
        for d, cs in ((1, 1.0), (7, 0.5)):
            nk, _, _ = metrics.npq_closed_form(dp.NoiseConfig(1.0, cs, k, mode="corr_x"), d=d)
            assert nk <= d * k * cs * cs * (1.0 + math.log(k))
    report(5, "N(d=1,k=4) = 25/3 exactly; N <= d*k*(Cs)^2*(1+ln k) for k in {10,100,1000}")


# -- criterion 6: mean-adjusted variance ordering -------------------------------


def test_criterion_06_mean_adjusted_variance_ordering():
    start = time.time()
    sigma = dp.calibrate_sigma(8.0, EPS_DELTA)
    stats = {}
    for k in (200, 400):
        for mode in ("iid", "corr_x"):
            mavs, mus = [], []
            for seed in range(5):
                ds = data.synth_classification(200, 10, 2, seed=200 + seed,
                                               separation=5.0, n_test=200)
                ds = data.partition(ds, 20, "equal-chunks")
                mspec = models.ModelSpec("logistic_l2", 0.005, models.InitSpec("zeros"), l2=0.01)
                uspec = "neg_test_loss"
                cfg = RunConfig(
                    ds, mspec, uspec, dp.NoiseConfig(1.0, sigma, budget=k, mode=mode),
                    SemivalueSpec("shapley"), master_seed=seed,
                )
                res = run_valuation(cfg)
                ok = ~np.isnan(res.mean_adjusted_var)
                mavs.append(res.mean_adjusted_var[ok].mean())
                mus.append(res.mu.mean())
            stats[(k, mode)] = (float(np.mean(mavs)), float(np.mean(mus)))
    details = []
    for k in (200, 400):
        ratio = stats[(k, "iid")][0] / stats[(k, "corr_x")][0]
        assert ratio >= 100.0, f"k={k}: ratio {ratio:.1f} < 100"
        assert stats[(k, "corr_x")][1] > 0.0, f"k={k}: corr_x mu not positive"
        details.append(f"k={k}: ratio={ratio:.0f}, mu_corr={stats[(k, 'corr_x')][1]:.2e}")
    mu_iid_200 = stats[(200, "iid")][1]
    mu_iid_400 = stats[(400, "iid")][1]
    assert mu_iid_400 < mu_iid_200
    assert mu_iid_400 < 0.0
    elapsed = time.time() - start
    assert elapsed < 900.0
    report(6, "; ".join(details) + f"; mu_iid {mu_iid_200:.2e} -> {mu_iid_400:.2e} in {elapsed:.0f}s")


# -- criterion 7: noisy-label detection ordering --------------------------------


def test_criterion_07_noisy_label_auc_ordering():
    start = time.time()
    k = 500
    sigma = dp.calibrate_sigma(6.0, EPS_DELTA)
    aucs = {"no_dp": [], "iid": [], "corr_y": []}
    runs = []  # (label, corruption mask, config) of 15 independent chains
    for seed in range(5):
        ds = data.synth_classification(400, 10, 2, seed=300 + seed, separation=5.0, n_test=200)
        ds = data.corrupt_labels(ds, 0.3, seed=900 + seed)
        assert ds.corruption_mask.sum() == 120  # floor(0.3 * 400)
        mspec = models.ModelSpec("logistic_l2", 0.01, models.InitSpec("zeros"), l2=0.01)
        uspec = "neg_test_loss"
        for label, mode, s, q in (
            ("no_dp", "iid", 0.0, None),
            ("iid", "iid", sigma, None),
            ("corr_y", "corr_y", sigma, 0.9),
        ):
            cfg = RunConfig(
                ds, mspec, uspec, dp.NoiseConfig(1.0, s, budget=k, mode=mode, q=q),
                SemivalueSpec("banzhaf"), master_seed=seed,
            )
            runs.append((label, ds.corruption_mask, cfg))
    for (label, mask, _), res in zip(runs, map_runs(run_valuation, [cfg for *_, cfg in runs])):
        aucs[label].append(metrics.auc_roc(-res.psi, mask))
    mean = {m: float(np.mean(v)) for m, v in aucs.items()}
    assert mean["no_dp"] > mean["corr_y"] > mean["iid"]
    assert mean["iid"] < 0.62
    assert mean["no_dp"] > 0.80
    elapsed = time.time() - start
    assert elapsed < 1200.0
    report(
        7,
        f"AUC no_dp={mean['no_dp']:.3f} > corr_y(0.9)={mean['corr_y']:.3f} "
        f"> iid={mean['iid']:.3f} in {elapsed:.0f}s",
    )


# -- criterion 8: similarity signs ----------------------------------------------


def test_criterion_08_similarity_signs():
    start = time.time()
    sigma = dp.calibrate_sigma(4.0, EPS_DELTA)
    means = {}
    for k in (100, 200):
        dcs, dls = [], []
        for seed in range(5):
            ds = data.synth_classification(40, 8, 2, seed=100 + seed, separation=3.0, n_test=60)
            mspec = models.ModelSpec("logistic_l2", 0.05, models.InitSpec("zeros"), l2=0.01)
            uspec = "neg_test_loss"
            cfg = RunConfig(
                ds, mspec, uspec, dp.NoiseConfig(1.0, sigma, budget=k, mode="corr_x"),
                SemivalueSpec("shapley"), master_seed=seed,
                record_gradients=True,
            )
            res = run_valuation(cfg)
            rep = metrics.grad_similarity(res.g_hat, res.g_tilde, res.g_star)
            dcs.append(rep.delta_cos)
            dls.append(rep.delta_l2)
        means[k] = (float(np.mean(dcs)), float(np.mean(dls)))
    for k in (100, 200):
        assert means[k][0] > 0.0, f"delta_cos at k={k} not positive"
        assert means[k][1] < 0.0, f"delta_l2 at k={k} not negative"
    assert abs(means[200][0]) > abs(means[100][0])
    elapsed = time.time() - start
    assert elapsed < 600.0
    report(
        8,
        f"delta_cos {means[100][0]:.4f} -> {means[200][0]:.4f}, "
        f"delta_l2 {means[100][1]:.2f} / {means[200][1]:.2f} in {elapsed:.0f}s",
    )


# -- criterion 9: burn-in bookkeeping and weight normalization -------------------


def test_criterion_09_bookkeeping_and_weights():
    start = time.time()
    # corr_y retains exactly k - k*q marginals for every party
    ds = data.synth_classification(12, 4, 2, seed=1, separation=3.0, n_test=16)
    mspec = models.ModelSpec("logistic_l2", 0.05, models.InitSpec("zeros"), l2=0.01)
    uspec = "neg_test_loss"
    cfg = RunConfig(
        ds, mspec, uspec, dp.NoiseConfig(1.0, 1.0, budget=10, mode="corr_y", q=0.5),
        SemivalueSpec("shapley"), master_seed=2,
    )
    res = run_valuation(cfg)
    retained = res.marginals[cfg.noise.burn_in :]
    assert cfg.noise.burn_in == 5
    assert retained.shape == (5, 12)
    offline = np.mean(res.pcoefs[5:] * retained, axis=0)
    assert np.max(np.abs(res.psi - offline)) < 1e-12

    worst = 0.0
    for n in (2, 3, 5, 10, 25, 60):
        for spec in (
            SemivalueSpec("shapley"),
            SemivalueSpec("banzhaf"),
            SemivalueSpec("beta", 4.0, 1.0),
            SemivalueSpec("beta", 16.0, 1.0),
            SemivalueSpec("loo"),
        ):
            w, _ = semivalue_weights(spec, n)
            total = sum(math.comb(n - 1, r - 1) * w[r - 1] for r in range(1, n + 1))
            worst = max(worst, abs(total - n) / n)
        w_beta, _ = semivalue_weights(SemivalueSpec("beta", 1.0, 1.0), n)
        w_shap, _ = semivalue_weights(SemivalueSpec("shapley"), n)
        worst = max(worst, float(np.max(np.abs(w_beta - w_shap))))
    assert worst < 1e-9
    elapsed = time.time() - start
    assert elapsed < 1.0
    report(9, f"retained = k - kq exactly; worst weight defect = {worst:.2e}")


# -- criterion 10: byte-identical reruns ------------------------------------------


def test_criterion_10_determinism(tmp_path):
    import yaml

    doc = {
        "experiment": "valuation",
        "seed": 17,
        "k": 20,
        "output_dir": str(tmp_path / "a"),
        "dataset": {"source": "synth", "n_samples": 30, "n_test": 40, "d_feat": 5,
                    "separation": 3.0},
        "model": {"loss": "logistic_l2", "learning_rate": 0.05, "l2": 0.01},
        "noise": {"clip_norm": 1.0, "epsilon": 1.0, "mode": "corr_y", "q": 0.5},
        "utility": "neg_test_loss",
        "semivalue": {"kind": "banzhaf"},
    }
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump(doc), encoding="utf-8")
    assert cli.main(["run", str(cfg)]) == 0
    assert cli.main(["run", str(cfg), "--output", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "summary.csv").read_bytes()
    b = (tmp_path / "b" / "summary.csv").read_bytes()
    assert a == b
    report(10, f"summary.csv byte-identical across reruns ({len(a)} bytes)")
