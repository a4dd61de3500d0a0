import hashlib
import json
from pathlib import Path

import pytest
import yaml

from dpvalue import cli
from dpvalue.config import ConfigError, load_config


def write_config(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


def base_valuation_doc(outdir):
    return {
        "experiment": "valuation",
        "seed": 3,
        "k": 12,
        "output_dir": str(outdir),
        "dataset": {"source": "synth", "n_samples": 24, "n_test": 30,
                    "d_feat": 4, "separation": 3.0},
        "model": {"loss": "logistic_l2", "learning_rate": 0.05, "l2": 0.01},
        "noise": {"clip_norm": 1.0, "epsilon": 1.0, "mode": "corr_x"},
        "utility": "neg_test_loss",
        "semivalue": {"kind": "shapley"},
    }


def test_validate_ok(tmp_path):
    cfg = write_config(tmp_path, base_valuation_doc(tmp_path / "out"))
    assert cli.main(["validate", str(cfg)]) == 0


def test_validate_reports_field_path(tmp_path, capsys):
    doc = base_valuation_doc(tmp_path / "out")
    doc["k"] = 10
    doc["noise"] = {"clip_norm": 1.0, "epsilon": 1.0, "mode": "corr_y", "q": 1.0}
    cfg = write_config(tmp_path, doc)
    rc = cli.main(["validate", str(cfg)])
    assert rc != 0
    err = capsys.readouterr().err
    record = json.loads(err.strip().splitlines()[-1])
    assert record["field"] == "noise.q"


def test_config_error_on_fractional_kq(tmp_path):
    doc = base_valuation_doc(tmp_path / "out")
    doc["noise"] = {"clip_norm": 1.0, "epsilon": 1.0, "mode": "corr_y", "q": 0.37}
    cfg = write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match="noise.q"):
        load_config(cfg)


def test_run_writes_artifacts_and_manifest(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, base_valuation_doc(out))
    assert cli.main(["run", str(cfg)]) == 0
    for name in ("result.json", "summary.csv", "config.echo", "MANIFEST"):
        assert (out / name).exists()
    # digests in MANIFEST match file contents
    for line in (out / "MANIFEST").read_text().strip().splitlines():
        digest, name = line.split("  ")
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_rerun_byte_identical(tmp_path):
    doc = base_valuation_doc(tmp_path / "a")
    cfg = write_config(tmp_path, doc)
    assert cli.main(["run", str(cfg)]) == 0
    assert cli.main(["run", str(cfg), "--output", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "summary.csv").read_bytes()
    b = (tmp_path / "b" / "summary.csv").read_bytes()
    assert a == b


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("DPVALUE_OUTPUT_ROOT", str(tmp_path / "root"))
    doc = base_valuation_doc(Path("rel/out"))
    cfg = write_config(tmp_path, doc)
    assert cli.main(["run", str(cfg)]) == 0
    assert (tmp_path / "root" / "rel" / "out" / "summary.csv").exists()


def test_oracle_check_kind(tmp_path):
    doc = {
        "experiment": "oracle-check",
        "seed": 5,
        "k": 1,
        "output_dir": str(tmp_path / "out"),
        "noise": {"sigma": 0.0},
        "oracle": {"n": 4, "kinds": ["shapley", "banzhaf", "beta"]},
    }
    cfg = write_config(tmp_path, doc)
    assert cli.main(["run", str(cfg)]) == 0
    doc_out = json.loads((tmp_path / "out" / "result.json").read_text())
    assert doc_out["pass"] is True
    assert doc_out["max_abs_diff"] < 1e-10


def test_runtime_error_writes_record(tmp_path):
    doc = base_valuation_doc(tmp_path / "out")
    doc["experiment"] = "noisy-label"  # corrupt_ratio missing -> runtime error
    cfg = write_config(tmp_path, doc)
    rc = cli.main(["run", str(cfg)])
    assert rc == 1
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert "corrupt_ratio" in record["message"]


def test_tidy_sample_exports(tmp_path):
    out = tmp_path / "out"
    doc = {
        "experiment": "removal",
        "seed": 2,
        "k": 20,
        "output_dir": str(out),
        "dataset": {"source": "synth", "n_samples": 30, "n_test": 40, "d_feat": 4,
                    "partition": {"mode": "equal-chunks", "n_parties": 6}},
        "model": {"loss": "logistic_l2", "learning_rate": 0.05, "l2": 0.01},
        "noise": {"sigma": 0.0},
        "utility": "test_accuracy",
        "removal": {"fractions": [0.0, 0.2], "orders": ["highest-first", "random"]},
    }
    cfg = write_config(tmp_path, doc)
    assert cli.main(["run", str(cfg)]) == 0
    tidy = (out / "removal_samples.csv").read_text().strip().splitlines()
    assert tidy[0] == "order,fraction,seed,score"
    random_rows = [r for r in tidy[1:] if r.startswith("random,")]
    assert len(random_rows) == 5 * 2  # 5 seeds x 2 fractions
    # MANIFEST covers the tidy file too
    assert "removal_samples.csv" in (out / "MANIFEST").read_text()


def test_probe_samples_export(tmp_path):
    out = tmp_path / "out"
    doc = {
        "experiment": "variance-probe",
        "seed": 1,
        "k": 5,
        "output_dir": str(out),
        "dataset": {"source": "synth", "n_samples": 12, "n_test": 16, "d_feat": 3,
                    "partition": {"mode": "equal-chunks", "n_parties": 3}},
        "model": {"loss": "mse_linear", "learning_rate": 0.05, "l2": 0},
        "noise": {"clip_norm": 1.0, "sigma": 1.0, "mode": "iid"},
        "probe": {"ks": [5, 10, 20], "noise_trials": 100, "modes": ["iid"]},
    }
    cfg = write_config(tmp_path, doc)
    assert cli.main(["run", str(cfg)]) == 0
    tidy = (out / "probe_samples.csv").read_text().strip().splitlines()
    assert tidy[0] == "mode,k,trial,party,psi"
    assert len(tidy) == 1 + 3 * 100 * 3  # ks x trials x parties


def test_plot_auc_q(tmp_path):
    out = tmp_path / "out"
    doc = {
        "experiment": "noisy-label",
        "seed": 4,
        "k": 20,
        "trials": 1,
        "output_dir": str(out),
        "dataset": {"source": "synth", "n_samples": 30, "n_test": 40, "d_feat": 4,
                    "separation": 4.0, "corrupt_ratio": 0.3},
        "model": {"loss": "logistic_l2", "learning_rate": 0.05, "l2": 0.01},
        "noise": {"clip_norm": 1.0, "sigma": 1.0, "mode": "iid"},
        "semivalue": {"kind": "shapley"},
        "noisy_label": {"modes": ["no_dp", "iid"], "q_grid": [0.0, 0.5]},
    }
    cfg = write_config(tmp_path, doc)
    assert cli.main(["run", str(cfg)]) == 0
    assert cli.main(["plot", str(out), "auc-q"]) == 0
    corr = (out / "auc_q_corr_y.dat").read_text().strip().splitlines()
    assert len(corr) == 2  # q = 0 (the square matrix) and q = 0.5
    assert corr[0].split()[0] == "0"


def test_plot_variance_probe(tmp_path):
    out = tmp_path / "out"
    doc = {
        "experiment": "variance-probe",
        "seed": 1,
        "k": 10,
        "output_dir": str(out),
        "dataset": {"source": "synth", "n_samples": 24, "n_test": 24, "d_feat": 4,
                    "partition": {"mode": "equal-chunks", "n_parties": 4}},
        "model": {"loss": "mse_linear", "learning_rate": 0.05, "l2": 0},
        "noise": {"clip_norm": 1.0, "sigma": 1.0, "mode": "iid"},
        "probe": {"ks": [5, 10, 20], "noise_trials": 150, "modes": ["iid", "corr_x"]},
    }
    cfg = write_config(tmp_path, doc)
    assert cli.main(["run", str(cfg)]) == 0
    assert cli.main(["plot", str(out), "variance-probe"]) == 0
    dat = (out / "var_iid.dat").read_text().strip().splitlines()
    assert len(dat) == 3
    assert len(dat[0].split()) == 2
    assert (out / "var_corrx.dat").exists() or (out / "var_corr_x.dat").exists()


def test_config_echo_roundtrip(tmp_path):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, base_valuation_doc(out))
    assert cli.main(["run", str(cfg_path)]) == 0
    echoed = yaml.safe_load((out / "config.echo").read_text())
    original = yaml.safe_load(cfg_path.read_text())
    assert echoed == original


def probe_doc(outdir, **probe):
    return {
        "experiment": "variance-probe",
        "seed": 1,
        "k": 5,
        "output_dir": str(outdir),
        "dataset": {"source": "synth", "n_samples": 12, "n_test": 16, "d_feat": 3,
                    "partition": {"mode": "equal-chunks", "n_parties": 3}},
        "model": {"loss": "mse_linear", "learning_rate": 0.05, "l2": 0},
        "noise": {"clip_norm": 1.0, "sigma": 1.0, "mode": "iid"},
        "probe": {"ks": [10, 20, 40], "noise_trials": 100, "modes": ["iid"], "q": 0.5, **probe},
    }


@pytest.mark.parametrize("probe,noise,field", [
    ({"noise_trials": 50}, {}, "probe.noise_trials"),
    ({"ks": [10, 20]}, {}, "probe.ks"),
    ({"ks": [0, 10, 20]}, {}, "probe.ks"),
    ({"ks": 10}, {}, "probe.ks"),
    ({"modes": ["iid", "fl_schedule"]}, {}, "probe.modes"),
    ({"modes": ["corr_y"], "ks": [10, 20, 25], "q": 0.3}, {}, "probe.q"),  # k*q = 7.5 at k=25
    ({"modes": ["corr_y"], "q": 1.0}, {}, "probe.q"),
    ({"modes": ["iid", "corr_x"]}, {"sigma_g_sq": 0.5}, "noise.sigma_g_sq"),
    ({"modes": ["corr_y"]}, {"sigma_g_sq": 0.5}, "noise.sigma_g_sq"),
])
def test_validate_rejects_bad_probe(tmp_path, capsys, probe, noise, field):
    doc = probe_doc(tmp_path / "out", **probe)
    doc["noise"].update(noise)
    cfg = write_config(tmp_path, doc)
    assert cli.main(["validate", str(cfg)]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["field"] == field
    with pytest.raises(ConfigError, match=field.replace(".", r"\.")):
        load_config(cfg)


@pytest.mark.parametrize("probe,noise", [
    ({}, {}),
    ({"modes": ["iid", "corr_x", "corr_y"]}, {"sigma_g_sq": 0.0}),
    ({"modes": ["iid"]}, {"sigma_g_sq": 0.5}),  # iid replays no combiner
])
def test_validate_accepts_good_probe(tmp_path, probe, noise):
    doc = probe_doc(tmp_path / "out", **probe)
    doc["noise"].update(noise)
    assert cli.main(["validate", str(write_config(tmp_path, doc))]) == 0


def test_validate_shipped_configs():
    for path in sorted(Path(__file__).resolve().parents[1].glob("configs/*.yaml")):
        assert cli.main(["validate", str(path)]) == 0, path.name
