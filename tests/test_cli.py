import ast
import copy
import csv
import hashlib
import importlib.util
import io
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from conftest import kind_doc

from dpvalue import _kernels, cli, config, data, experiments, metrics, valuation
from dpvalue.config import ConfigError, load_config
from dpvalue.dp import NoiseConfig


def write_config(tmp_path, doc, name="cfg.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


def test_validate_ok(tmp_path):
    cfg = write_config(tmp_path, kind_doc(tmp_path / "out", "valuation"))
    assert cli.main(["validate", str(cfg)]) == 0


def test_validate_reports_field_path(tmp_path, capsys):
    doc = kind_doc(tmp_path / "out", "valuation")
    doc["k"] = 10
    doc["noise"] = {"clip_norm": 1.0, "epsilon": 1.0, "mode": "corr_y", "q": 1.0}
    cfg = write_config(tmp_path, doc)
    rc = cli.main(["validate", str(cfg)])
    assert rc != 0
    err = capsys.readouterr().err
    record = json.loads(err.strip().splitlines()[-1])
    assert record["field"] == "noise.q"


def test_config_error_on_fractional_kq(tmp_path):
    doc = kind_doc(tmp_path / "out", "valuation")
    doc["noise"] = {"clip_norm": 1.0, "epsilon": 1.0, "mode": "corr_y", "q": 0.37}
    cfg = write_config(tmp_path, doc)
    with pytest.raises(ConfigError, match="noise.q"):
        load_config(cfg)


def test_config_epsilon_20_gets_the_exact_sigma(tmp_path):
    # above the crossover the classical sqrt(2 ln(1.25/delta))/eps = 0.2422
    # delivers delta(20) = 1.5e-3; the config gets the mu-GDP multiplier
    doc = kind_doc(tmp_path / "out", "valuation")
    doc["noise"] = {"clip_norm": 1.0, "epsilon": 20.0, "delta": 1e-5, "mode": "iid"}
    sigma = load_config(write_config(tmp_path, doc)).noise.noise_multiplier
    assert round(sigma, 4) == 0.2900
    assert sigma > math.sqrt(2.0 * math.log(1.25e5)) / 20.0


def test_run_writes_artifacts_and_manifest(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, kind_doc(out, "valuation"))
    assert cli.main(["run", str(cfg)]) == 0
    for name in ("result.json", "summary.csv", "config.echo", "MANIFEST"):
        assert (out / name).exists()
    # digests in MANIFEST match file contents
    for line in (out / "MANIFEST").read_text().strip().splitlines():
        digest, name = line.split("  ")
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest


def test_manifest_lists_only_the_runs_own_files(tmp_path):
    # a rerun into one directory: the MANIFEST vouches for this run's files
    # alone, a success drops a failed run's error.json and a failure drops
    # a successful run's MANIFEST
    out = tmp_path / "out"
    doc = kind_doc(out, "valuation")
    good = write_config(tmp_path, doc, "good.yaml")
    doc["model"]["learning_rate"] = 1.0e308
    bad = write_config(tmp_path, doc, "bad.yaml")
    assert cli.main(["run", str(bad)]) == 1
    assert sorted(p.name for p in out.iterdir()) == ["error.json"]
    (out / "probe_samples.csv").write_text("stale\n")  # another kind's table
    assert cli.main(["run", str(good)]) == 0
    assert not (out / "error.json").exists()
    listed = [line.split("  ")[1] for line in (out / "MANIFEST").read_text().splitlines()]
    assert listed == ["config.echo", "result.json", "summary.csv"]
    assert cli.main(["run", str(bad)]) == 1
    assert (out / "error.json").exists() and not (out / "MANIFEST").exists()


def test_rerun_byte_identical(tmp_path):
    doc = kind_doc(tmp_path / "a", "valuation")
    cfg = write_config(tmp_path, doc)
    assert cli.main(["run", str(cfg)]) == 0
    assert cli.main(["run", str(cfg), "--output", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "summary.csv").read_bytes()
    b = (tmp_path / "b" / "summary.csv").read_bytes()
    assert a == b


def test_output_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("DPVALUE_OUTPUT_ROOT", str(tmp_path / "root"))
    doc = kind_doc(Path("rel/out"), "valuation")
    cfg = write_config(tmp_path, doc)
    assert cli.main(["run", str(cfg)]) == 0
    assert (tmp_path / "root" / "rel" / "out" / "summary.csv").exists()


def test_oracle_check_kind(tmp_path):
    doc = kind_doc(tmp_path / "out", "oracle-check")
    doc["oracle"]["kinds"] = ["shapley", "banzhaf", "beta"]
    cfg = write_config(tmp_path, doc)
    assert cli.main(["run", str(cfg)]) == 0
    doc_out = json.loads((tmp_path / "out" / "result.json").read_text())
    assert doc_out["pass"] is True
    assert doc_out["max_abs_diff"] < 1e-10


def test_oracle_check_needs_only_its_own_block(tmp_path):
    # the check runs no chain, so it reads no noise: a config without one runs
    # and writes the result of the same config at sigma 0
    results = []
    for extra in ({}, {"noise": {"sigma": 0.0}}):
        out = tmp_path / f"out{len(results)}"
        cfg = write_config(tmp_path, {"experiment": "oracle-check", "output_dir": str(out),
                                      **extra})
        assert cli.main(["validate", str(cfg)]) == 0
        assert cli.main(["run", str(cfg)]) == 0
        results.append((out / "result.json").read_bytes())
    assert results[0] == results[1]
    assert json.loads(results[0])["pass"] is True


def test_runtime_error_writes_record(tmp_path):
    # a valid config whose chain diverges: only the run can see the cause
    doc = kind_doc(tmp_path / "out", "valuation")
    doc["model"] = {"loss": "mse_linear", "learning_rate": 1e200, "l2": 0}
    doc["noise"] = {"clip_norm": 1.0, "sigma": 5.0, "mode": "iid"}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["validate", str(cfg)]) == 0
    rc = cli.main(["run", str(cfg)])
    assert rc == 1
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["error"] == "ChainDiverged"
    assert "non-finite utility" in record["message"]


def test_retraining_divergence_writes_record(tmp_path):
    # the chain clips its steps and the removal retrainer does not, so only
    # the retraining diverges; it fails the run without numpy warnings
    doc = kind_doc(tmp_path / "out", "removal")
    doc["model"] = {"loss": "mse_linear", "learning_rate": 1e100, "l2": 0}
    doc["utility"] = "test_accuracy"
    doc["noise"] = {"clip_norm": 1.0, "sigma": 0.0, "mode": "iid"}
    cfg = write_config(tmp_path, doc)
    assert cli.main(["validate", str(cfg)]) == 0
    assert cli.main(["run", str(cfg)]) == 1
    record = json.loads((tmp_path / "out" / "error.json").read_text())
    assert record["error"] == "RuntimeError"
    assert "retraining on 24 parties" in record["message"]


def test_tidy_sample_exports(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, kind_doc(out, "removal"))
    assert cli.main(["run", str(cfg)]) == 0
    tidy = (out / "removal_samples.csv").read_text().strip().splitlines()
    assert tidy[0] == "order,fraction,seed,score"
    random_rows = [r for r in tidy[1:] if r.startswith("random,")]
    assert len(random_rows) == 5 * 3  # 5 seeds x 3 fractions
    # MANIFEST covers the tidy file too
    assert "removal_samples.csv" in (out / "MANIFEST").read_text()


def test_probe_samples_export(tmp_path):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, kind_doc(out, "variance-probe"))
    assert cli.main(["run", str(cfg)]) == 0
    tidy = (out / "probe_samples.csv").read_text().strip().splitlines()
    assert tidy[0] == "mode,k,trial,party,psi"
    assert len(tidy) == 1 + 3 * 100 * 3  # ks x trials x parties


def test_probe_sample_lines_match_csv_writer():
    # the one-pass text of probe_samples.csv is the bytes csv.writer writes
    # for the same fields: signs, tiny and huge exponents, integer values, -0
    draws = np.array([[-1.25, 1e-300, 1e300, 3.0, -0.0],
                      [2.0, -7.5e-12, 123456789.0, -1e300, 0.1]])
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(
        ["corr_y", "800", str(trial), str(party), format(psi, ".6g")]
        for party, row in enumerate(draws.tolist()) for trial, psi in enumerate(row))
    assert experiments._sample_lines("corr_y", 800, draws) == buf.getvalue()


def test_plot_auc_q(tmp_path):
    out = tmp_path / "out"
    doc = kind_doc(out, "noisy-label")
    doc["noisy_label"].update(q=0.25, q_grid=[0.0, 0.5])
    cfg = write_config(tmp_path, doc)
    assert cli.main(["run", str(cfg)]) == 0
    assert cli.main(["plot", str(out)]) == 0
    corr = [line.split() for line in (out / "auc_q_corr_y.dat").read_text().splitlines()]
    # q = 0 is the square corr_x matrix alone; the plain corr_y run sits at its own q
    assert [q for q, _ in corr] == ["0", "0.25", "0.5"]
    aucs = json.loads((out / "result.json").read_text())["auc"]
    assert float(corr[1][1]) == pytest.approx(np.mean(aucs["corr_y"]), rel=1e-9)  # over trials


def test_plot_auc_q_from_another_directory(tmp_path, monkeypatch):
    # plot takes the runs' q from config.echo without reading the dataset, so
    # a csv path relative to the run's directory is never opened
    run_dir, elsewhere = tmp_path / "run", tmp_path / "elsewhere"
    run_dir.mkdir()
    elsewhere.mkdir()
    (run_dir / "d.csv").write_text(
        "a,b,y\n" + "".join(f"{i % 7},{i % 5 - 2},{i % 2}\n" for i in range(36)))
    doc = kind_doc("out", "noisy-label")
    doc["dataset"] = {"source": "csv", "path": "d.csv", "label": "y", "test_rows": 6,
                      "corrupt_ratio": 0.3}
    doc["noisy_label"]["q_grid"] = [0.0, 0.25]
    write_config(run_dir, doc)
    monkeypatch.delenv("DPVALUE_OUTPUT_ROOT", raising=False)
    monkeypatch.chdir(run_dir)
    assert cli.main(["run", "cfg.yaml"]) == 0
    assert cli.main(["plot", "out"]) == 0
    out = run_dir / "out"
    dats = {path.name: path.read_text() for path in out.glob("*.dat")}
    assert sorted(dats) == ["auc_q_corr_y.dat", "auc_q_iid.dat", "auc_q_no_dp.dat"]
    for path in out.glob("*.dat"):
        path.unlink()
    monkeypatch.chdir(elsewhere)
    assert cli.main(["plot", str(out)]) == 0
    assert {path.name: path.read_text() for path in out.glob("*.dat")} == dats


def test_plot_auc_q_malformed_config_echo(tmp_path, capsys):
    (tmp_path / "result.json").write_text(json.dumps({"kind": "noisy-label"}), encoding="utf-8")
    (tmp_path / "config.echo").write_text("a: [1,\n", encoding="utf-8")
    assert cli.main(["plot", str(tmp_path)]) == 2
    assert "cannot read the run's config.echo" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.dat"))


def test_plot_auc_q_config_echo_not_utf8(tmp_path, capsys):
    (tmp_path / "result.json").write_text(
        json.dumps({"kind": "noisy-label", "auc": {"iid": [0.5]}}), encoding="utf-8")
    (tmp_path / "config.echo").write_bytes(b"k: \xff\n")
    assert cli.main(["plot", str(tmp_path)]) == 2
    assert "cannot read the run's config.echo" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.dat"))


@pytest.mark.parametrize("text", ["{", "", "\xff"])
def test_plot_unreadable_result_json(tmp_path, capsys, text):
    (tmp_path / "result.json").write_bytes(text.encode("latin-1"))
    assert cli.main(["plot", str(tmp_path)]) == 2
    assert "cannot read result.json" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.dat"))


def test_run_output_onto_a_file_fails_before_the_run(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, kind_doc(tmp_path / "out", "valuation"))
    target = tmp_path / "taken"
    target.write_text("not a directory", encoding="utf-8")

    def runner(cfg):
        raise AssertionError("the runner ran before the output directory was made")

    monkeypatch.setitem(experiments.RUNNERS, "valuation", runner)
    assert cli.main(["run", str(cfg), "--output", str(target)]) == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "FileExistsError"
    assert target.read_text(encoding="utf-8") == "not a directory"


def test_plot_variance_probe(tmp_path):
    out = tmp_path / "out"
    doc = kind_doc(out, "variance-probe")
    doc["probe"]["modes"] = ["iid", "corr_x"]
    cfg = write_config(tmp_path, doc)
    assert cli.main(["run", str(cfg)]) == 0
    assert cli.main(["plot", str(out)]) == 0
    dat = (out / "var_iid.dat").read_text().strip().splitlines()
    assert len(dat) == 3
    assert len(dat[0].split()) == 2
    assert sorted(path.name for path in out.glob("*.dat")) == ["var_corr_x.dat", "var_iid.dat"]


def test_plot_removal(tmp_path):
    out = tmp_path / "out"
    assert cli.main(["run", str(write_config(tmp_path, kind_doc(out, "removal")))]) == 0
    assert cli.main(["plot", str(out)]) == 0
    assert sorted(path.name for path in out.glob("*.dat")) == [
        "removal_highest_first.dat", "removal_random.dat"]
    curves = json.loads((out / "result.json").read_text())["curves"]

    def rows(name):
        text = (out / f"removal_{name}.dat").read_text()
        return [[float(v) for v in line.split()] for line in text.splitlines()]

    ordered = curves["highest-first"]
    assert rows("highest_first") == [
        pytest.approx([f, s], rel=1e-9) for f, s in zip(ordered["fractions"], ordered["scores"])]
    rand = curves["random"]
    assert rows("random") == [  # the score and its -/+ standard-error band
        pytest.approx([f, s, s - e, s + e], rel=1e-9, abs=1e-12)
        for f, s, e in zip(rand["fractions"], rand["scores"], rand["stderr"])]
    assert any(e > 0 for e in rand["stderr"])


PROBE_WITH_A_BAD_MODE = {"kind": "variance-probe", "probes": {
    "iid": {"ks": [5, 10], "variances": [1.0, 2.0]},
    "corr_x": {"ks": [5, 10], "variances": "x"},
}}


@pytest.mark.parametrize("doc,message", [
    ([1], "no plot for a list result"),
    ({"kind": "removal"}, "malformed removal result: KeyError('curves')"),
    (PROBE_WITH_A_BAD_MODE, "malformed variance-probe result: ValueError"),
    ({"kind": "valuation", "psi": [0.5, 0.25]}, "no plot for a valuation result"),
    (None, "cannot read result.json"),  # no result.json at all
], ids=["not-a-mapping", "removal-without-curves", "probe-bad-variances", "valuation",
        "missing"])
def test_plot_rejects_a_result_it_cannot_plot(tmp_path, capsys, doc, message):
    if doc is not None:
        (tmp_path / "result.json").write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["plot", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert message in captured.err
    assert not list(tmp_path.glob("*.dat"))


def test_config_echo_roundtrip(tmp_path):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, kind_doc(out, "valuation"))
    assert cli.main(["run", str(cfg_path)]) == 0
    echoed = yaml.safe_load((out / "config.echo").read_text())
    original = yaml.safe_load(cfg_path.read_text())
    assert echoed == original


@pytest.mark.parametrize("probe,noise,field", [
    ({"noise_trials": 50}, {}, "probe.noise_trials"),
    ({"ks": [10, 20]}, {}, "probe.ks"),
    ({"ks": [0, 10, 20]}, {}, "probe.ks"),
    ({"ks": 10}, {}, "probe.ks"),
    ({"modes": ["iid", "fl_schedule"]}, {}, "probe.modes"),
    ({"modes": ["corr_y"], "ks": [10, 20, 25], "q": 0.3}, {}, "probe.q"),  # k*q = 7.5 at k=25
    ({"modes": ["corr_y"], "q": 1.0}, {}, "probe.q"),
    ({}, {"sigma": 0.0}, "noise.sigma"),  # no noise: variances of 0 and a log(0) slope
    ({"modes": ["iid"]}, {"sigma_g_sq": 0.5}, "noise.sigma_g_sq"),  # iid replays no combiner
])
def test_validate_rejects_bad_probe(tmp_path, capsys, probe, noise, field):
    doc = kind_doc(tmp_path / "out", "variance-probe")
    doc["probe"].update(probe)
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
    ({"modes": ["iid", "corr_x"]}, {"sigma_g_sq": 0.5}),  # the variance-aware diagonal
    ({"modes": ["corr_y"]}, {"sigma_g_sq": 0.5}),
    ({"modes": ["iid", "corr_y"]}, {"sigma_g_sq": 0.5}),  # iid beside a mode with a combiner
])
def test_validate_accepts_good_probe(tmp_path, probe, noise):
    doc = kind_doc(tmp_path / "out", "variance-probe")
    doc["probe"].update(probe)
    doc["noise"].update(noise)
    assert cli.main(["validate", str(write_config(tmp_path, doc))]) == 0


def test_variance_aware_probe_runs(tmp_path):
    # the probe replays the variance-aware combiner the chain runs
    out = tmp_path / "out"
    doc = kind_doc(out, "variance-probe")
    doc["probe"]["modes"] = ["iid", "corr_x", "corr_y"]
    doc["noise"]["sigma_g_sq"] = 0.5
    assert cli.main(["run", str(write_config(tmp_path, doc))]) == 0
    probes = json.loads((out / "result.json").read_text())["probes"]
    assert sorted(probes) == ["corr_x", "corr_y", "iid"]
    for probe in probes.values():
        assert probe["ks"] == [10, 20, 40]
        assert all(math.isfinite(v) and v > 0.0 for v in probe["variances"])
        assert math.isfinite(probe["slope"])


REPO = Path(__file__).resolve().parents[1]


def test_validate_shipped_configs():
    for path in sorted(REPO.glob("configs/*.yaml")):
        assert cli.main(["validate", str(path)]) == 0, path.name


PLAN_TYPES = {"valuation": type(None), "variance-probe": metrics.Probe,
              "removal": metrics.Removal, "federated": valuation.Federated,
              "oracle-check": valuation.Oracle, "similarity": tuple, "noisy-label": tuple}


@pytest.mark.parametrize("path", [*sorted(REPO.glob("configs/*.yaml")), "valuation"],
                         ids=lambda path: getattr(path, "stem", path))
def test_plan_is_the_kinds_own_block(tmp_path, path):
    if path == "valuation":
        path = write_config(tmp_path, kind_doc(tmp_path / "out", "valuation"))
    cfg = load_config(path)
    assert type(cfg.plan) is PLAN_TYPES[cfg.kind]
    if not isinstance(cfg.plan, (tuple, type(None))):  # a block is the engine's, not the parser's
        assert type(cfg.plan).__module__ != "dpvalue.config"
    if cfg.kind == "similarity":  # the corr_x mechanism at each budget
        assert cfg.plan and all(isinstance(noise, NoiseConfig) and noise.mode == "corr_x"
                                for noise in cfg.plan)
    if cfg.kind == "noisy-label":  # the (label, mechanism) runs, as plot reads them
        assert cfg.plan and all(isinstance(label, str) and isinstance(noise, NoiseConfig)
                                for label, noise in cfg.plan)
        assert config.noisy_label_runs(cfg.raw) == cfg.plan


# Imports dpvalue and its CLI in a fresh interpreter, runs the oracle check
# (Shapley, Banzhaf and Beta weights) and prints every scipy module loaded.
NO_SCIPY_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import dpvalue
import dpvalue.cli
assert dpvalue.cli.main(["run", sys.argv[2], "--output", sys.argv[3]]) == 0
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_run_loads_no_scipy(tmp_path):
    proc = subprocess.run([sys.executable, "-c", NO_SCIPY_CODE, str(REPO / "src"),
                           str(REPO / "configs" / "oracle_check.yaml"), str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
    assert json.loads((tmp_path / "out" / "result.json").read_text())["pass"] is True


def test_each_name_is_imported_from_the_module_that_defines_it():
    # the package root re-exports nothing, so no name has a second import path
    import dpvalue
    import dpvalue.cli  # noqa: F401 - loads every module

    assert [name for name, value in vars(dpvalue).items() if not name.startswith("_")
            and sys.modules.get(f"dpvalue.{name}") is not value] == []
    package = REPO / "src" / "dpvalue"
    defined = {}  # module -> the names its top level binds, not by importing them
    for path in package.glob("*.py"):
        names = defined[path.stem] = set()
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Assign):
                names.update(target.id for target in node.targets if isinstance(target, ast.Name))
    submodules = set(defined) - {"__init__"}
    wrong = []
    for path in sorted([*package.glob("*.py"), *(REPO / "tests").glob("*.py"),
                        *(REPO / "perfbench").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level:  # relative: a module of the package
                module = node.module
            elif node.module == "dpvalue" or (node.module or "").startswith("dpvalue."):
                module = node.module.removeprefix("dpvalue").lstrip(".")
            else:
                continue
            home = defined[module] if module else submodules
            wrong += [f"{path.name}:{node.lineno} imports {alias.name} from dpvalue.{module}"
                      for alias in node.names if alias.name not in home]
    assert wrong == []


def test_validate_benchmark_configs(tmp_path):
    # the benchmark counts a config that fails to validate against pass_ratio
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS:
        for seed in (0, 9):
            for name, doc in workloads.configs(workload, seed).items():
                path = write_config(tmp_path, doc, f"{workload}-{seed}-{name}.yaml")
                assert cli.main(["validate", str(path)]) == 0, path.name


def set_path(doc, dotted, value):
    *parents, key = dotted.split(".")
    for name in parents:
        doc = doc.setdefault(name, {})
    doc[key] = value


CSV = "csv-placeholder"  # replaced by a small csv file written per case
SHORT_ROW_CSV = "short-row-csv-placeholder"  # the same file with its row 3 one cell short
LABEL_ONLY_CSV = "label-only-csv-placeholder"  # the same file's label column alone
MSE_MODEL = {"loss": "mse_linear", "learning_rate": 0.05, "l2": 0}
YAML_TEXT = "yaml-text"  # a patch that replaces the config file's whole text
REPEATED_KEY_TEXT = """\
experiment: valuation
k: 12
noise: {{clip_norm: 1.0, sigma: 1.0}}
{}"""  # a valid config, and the line that repeats a key of it

BAD_CONFIGS = [  # (id, kind, patched fields, field the error names)
    ("federated-q-fractional-burn-in", "federated", {"federated.q": 0.15}, "federated.q"),
    ("noisy-label-q-fractional-burn-in", "noisy-label", {"noisy_label.q": 0.33}, "noisy_label.q"),
    ("removal-unknown-order", "removal", {"removal.orders": ["bogus"]}, "removal.orders"),
    ("oracle-n-over-cap", "oracle-check", {"oracle.n": 20}, "oracle.n"),
    ("similarity-k-1", "similarity", {"similarity.ks": [1]}, "similarity.ks"),
    ("one-class", "valuation", {"dataset.n_classes": 1}, "dataset.n_classes"),
    ("csv-unknown-task", "valuation",
     {"dataset": {"source": "csv", "path": CSV, "label": "y", "task": "bogus"}}, "dataset.task"),
    ("k-1", "valuation", {"k": 1}, "k"),
    ("corr-y-keeps-one-iteration", "valuation",
     {"k": 10, "noise": {"clip_norm": 1.0, "epsilon": 1.0, "mode": "corr_y", "q": 0.9}}, "k"),
    ("k-not-a-number", "valuation", {"k": "x"}, "k"),
    ("sigma-not-a-number", "valuation", {"noise.sigma": "abc"}, "noise.sigma"),
    ("learning-rate-not-a-number", "valuation", {"model.learning_rate": "x"},
     "model.learning_rate"),
    ("probe-k-1", "variance-probe", {"probe.ks": [1, 10, 20]}, "probe.ks"),
    ("removal-fractions-decreasing", "removal", {"removal.fractions": [0.3, 0.1]},
     "removal.fractions"),
    ("federated-no-permutations", "federated", {"federated.permutations": 0},
     "federated.permutations"),
    ("federated-no-rounds", "federated", {"federated.rounds": 0}, "federated.rounds"),
    ("federated-loss-utility", "federated", {"utility": "neg_test_loss"}, "utility"),
    ("federated-banzhaf", "federated", {"semivalue.kind": "banzhaf"}, "semivalue.kind"),
    ("too-many-parties", "valuation", {"dataset.n_samples": 10001}, "semivalue.kind"),
    ("noisy-label-unknown-mode", "noisy-label", {"noisy_label.modes": ["bogus"]},
     "noisy_label.modes"),
    ("noisy-label-q-grid-fractional-burn-in", "noisy-label", {"noisy_label.q_grid": [0.33]},
     "noisy_label.q_grid"),
    ("noisy-label-modes-repeated", "noisy-label", {"noisy_label.modes": ["iid", "no_dp", "iid"]},
     "noisy_label.modes"),
    ("noisy-label-q-grid-repeated", "noisy-label",
     {"noisy_label.modes": ["iid", "corr_x"], "noisy_label.q_grid": [0.5, 0.5]},
     "noisy_label.q_grid"),
    ("noisy-label-q-grid-repeats-corr-x", "noisy-label",
     {"noisy_label.modes": ["iid", "corr_x"], "noisy_label.q_grid": [0.0]}, "noisy_label.q_grid"),
    ("noisy-label-q-grid-repeats-corr-y", "noisy-label",
     {"noisy_label.modes": ["iid", "corr_y"], "noisy_label.q_grid": [0.5]}, "noisy_label.q_grid"),
    ("noisy-label-iid-without-noise", "noisy-label",  # iid at sigma 0 is no_dp
     {"noise.sigma": 0.0, "noisy_label.modes": ["no_dp", "iid"]}, "noisy_label.modes"),
    ("noisy-label-no-corruption", "noisy-label", {"dataset.corrupt_ratio": 0},
     "dataset.corrupt_ratio"),
    ("oracle-unknown-kind", "oracle-check", {"oracle.kinds": ["bogus"]}, "oracle.kinds"),
    ("more-parties-than-samples", "valuation",  # 24 samples
     {"dataset.partition": {"mode": "equal-chunks", "n_parties": 30}},
     "dataset.partition.n_parties"),
    ("dataset-not-a-mapping", "valuation", {"dataset": [1, 2]}, "dataset"),
    ("model-not-a-mapping", "valuation", {"model": "logistic_l2"}, "model"),
    ("noise-not-a-mapping", "valuation", {"noise": 3}, "noise"),
    ("semivalue-not-a-mapping", "valuation", {"semivalue": "shapley"}, "semivalue"),
    ("partition-not-a-mapping", "valuation", {"dataset.partition": ["equal-chunks"]},
     "dataset.partition"),
    ("init-not-a-mapping", "valuation", {"model.init": "gaussian"}, "model.init"),
    ("probe-not-a-mapping", "variance-probe", {"probe": [10, 20, 40]}, "probe"),
    ("removal-not-a-mapping", "removal", {"removal": "random"}, "removal"),
    ("similarity-not-a-mapping", "similarity", {"similarity": [10]}, "similarity"),
    ("federated-not-a-mapping", "federated", {"federated": 10}, "federated"),
    ("noisy-label-not-a-mapping", "noisy-label", {"noisy_label": ["iid"]}, "noisy_label"),
    ("oracle-not-a-mapping", "oracle-check", {"oracle": 4}, "oracle"),
    ("seed-negative", "valuation", {"seed": -1}, "seed"),
    ("csv-no-test-rows", "valuation",
     {"dataset": {"source": "csv", "path": CSV, "label": "y"}}, "dataset.test_rows"),
    ("csv-regression-corrupted", "valuation",
     {"dataset": {"source": "csv", "path": CSV, "label": "y", "task": "regression",
                  "test_rows": 2, "corrupt_ratio": 0.25}}, "dataset.corrupt_ratio"),
    ("seed-fractional", "valuation", {"seed": 2.7}, "seed"),
    ("k-fractional", "valuation", {"k": 12.9}, "k"),
    ("n-parties-fractional", "valuation",
     {"dataset.partition": {"mode": "equal-chunks", "n_parties": 2.5}},
     "dataset.partition.n_parties"),
    ("add-bias-string", "valuation", {"model.add_bias": "no"}, "model.add_bias"),
    ("add-bias-number", "valuation", {"model.add_bias": 0}, "model.add_bias"),
    ("trials-boolean", "noisy-label", {"trials": True}, "trials"),
    # no seeds: noisy-label once wrote "auc": {} and similarity raised a bare IndexError
    *((f"{kind}-trials-{name}", kind, {"trials": trials}, "trials")
      for kind in ("noisy-label", "similarity") for name, trials in (("zero", 0), ("negative", -1))),
    ("n-samples-string", "valuation", {"dataset.n_samples": "24"}, "dataset.n_samples"),
    ("probe-trials-string", "variance-probe", {"probe.noise_trials": "100"}, "probe.noise_trials"),
    ("probe-k-fractional", "variance-probe", {"probe.ks": [10, 20.5, 40]}, "probe.ks"),
    ("federated-rounds-fractional", "federated", {"federated.rounds": 10.5}, "federated.rounds"),
    ("csv-standardize-string", "valuation",
     {"dataset": {"source": "csv", "path": CSV, "label": "y", "test_rows": 2,
                  "standardize": "false"}}, "dataset.standardize"),
    ("learning-rate-boolean", "valuation", {"model.learning_rate": True}, "model.learning_rate"),
    ("sigma-numeric-string", "valuation", {"noise.sigma": "1.0"}, "noise.sigma"),
    ("separation-numeric-string", "valuation", {"dataset.separation": "3.5"},
     "dataset.separation"),
    ("output-dir-list", "valuation", {"output_dir": ["a", "b"]}, "output_dir"),
    ("output-dir-integer", "valuation", {"output_dir": 5}, "output_dir"),
    ("output-dir-empty", "valuation", {"output_dir": ""}, "output_dir"),
    ("logistic-three-classes", "valuation", {"dataset.n_classes": 3}, "model.loss"),
    ("logistic-csv-three-labels", "valuation",  # column b holds 0, 1 and 2
     {"dataset": {"source": "csv", "path": CSV, "label": "b", "test_rows": 2}}, "model.loss"),
    ("csv-short-row", "valuation",
     {"dataset": {"source": "csv", "path": SHORT_ROW_CSV, "label": "y", "test_rows": 2}},
     "dataset.path"),
    # a label that is not a non-empty string was once cast with str and looked up as a column
    *((f"csv-label-{name}", "valuation",
       {"dataset": {"source": "csv", "path": CSV, "label": label, "test_rows": 2}}, "dataset.label")
      for name, label in (("null", None), ("number", 3), ("list", ["y"]), ("empty", ""))),
    # test_accuracy thresholds a score into {0, 1}: these labels could never be hit
    ("accuracy-three-classes", "valuation",
     {"dataset.n_classes": 3, "model": MSE_MODEL, "utility": "test_accuracy"}, "utility"),
    ("accuracy-csv-regression", "valuation",  # column a holds 0 to 11
     {"dataset": {"source": "csv", "path": CSV, "label": "a", "task": "regression",
                  "test_rows": 2}, "model": MSE_MODEL, "utility": "test_accuracy"}, "utility"),
    # the file's 12 rows cannot hold the split; this once failed at dataset.path
    *((f"csv-test-rows-{rows}", "valuation",
       {"dataset": {"source": "csv", "path": CSV, "label": "y", "test_rows": rows}},
       "dataset.test_rows") for rows in (12, 13)),
    ("malformed-yaml", "valuation", {YAML_TEXT: "a: [1,\n"}, ""),
    # yaml.safe_load would keep the second value: a run without noise, or at another separation
    ("repeated-noise-block", "valuation", {YAML_TEXT: REPEATED_KEY_TEXT.format(
        "noise: {clip_norm: 1.0, sigma: 0.0}\n")}, ""),
    ("repeated-nested-key", "valuation", {YAML_TEXT: REPEATED_KEY_TEXT.format(
        "dataset: {n_samples: 24, n_test: 30, d_feat: 4, separation: 3.0, separation: 0.5}\n")},
     ""),
    ("probe-modes-empty", "variance-probe", {"probe.modes": []}, "probe.modes"),
    ("similarity-ks-empty", "similarity", {"similarity.ks": []}, "similarity.ks"),
    ("removal-orders-empty", "removal", {"removal.orders": []}, "removal.orders"),
    ("removal-fractions-empty", "removal", {"removal.fractions": []}, "removal.fractions"),
    ("noisy-label-modes-empty", "noisy-label", {"noisy_label.modes": []}, "noisy_label.modes"),
    ("oracle-kinds-empty", "oracle-check", {"oracle.kinds": []}, "oracle.kinds"),
    # a tolerance of 0 or less fails every run: no difference is below it
    ("oracle-tolerance-zero", "oracle-check", {"oracle.tolerance": 0.0}, "oracle.tolerance"),
    ("oracle-tolerance-negative", "oracle-check", {"oracle.tolerance": -1.0}, "oracle.tolerance"),
    ("unread-dataset-key", "valuation", {"dataset.separaton": 9.0}, "dataset.separaton"),
    ("unread-model-key", "valuation", {"model.learning_rat": 5.0}, "model.learning_rat"),
    ("unread-root-key", "valuation", {"trails": 3}, "trails"),
    ("valuation-probe-block", "valuation", {"probe": {"ks": [10, 20, 40]}}, "probe"),
    ("delta-beside-sigma", "valuation",
     {"noise": {"clip_norm": 1.0, "sigma": 1.0, "delta": 1e-5, "mode": "corr_x"}}, "noise.delta"),
    ("delta-above-one", "valuation",
     {"noise": {"clip_norm": 1.0, "epsilon": 1.0, "delta": 3, "mode": "corr_x"}}, "noise.delta"),
    ("delta-subnormal", "valuation",
     {"noise": {"clip_norm": 1.0, "epsilon": 1.0, "delta": 1e-320, "mode": "corr_x"}}, "noise.delta"),
    ("unread-init-key", "valuation", {"model.init": {"kind": "zeros", "scal": 1.0}},
     "model.init.scal"),
    ("per-sample-n-parties", "valuation",
     {"dataset.partition": {"mode": "per-sample", "n_parties": 4}}, "dataset.partition.n_parties"),
    ("oracle-semivalue", "oracle-check", {"semivalue": {"kind": "beta", "alpha": 16.0}},
     "semivalue"),
    ("banzhaf-alpha", "removal", {"semivalue": {"kind": "banzhaf", "alpha": 16.0}},
     "semivalue.alpha"),
    ("removal-trials", "removal", {"trials": 9}, "trials"),
    ("similarity-mode-iid", "similarity", {"noise.mode": "iid"}, "noise.mode"),
    ("federated-mode-corr-y", "federated",
     {"noise": {"clip_norm": 1.0, "epsilon": 1.0, "mode": "corr_y", "q": 0.5}}, "noise.mode"),
    ("probe-mode-corr-x", "variance-probe", {"noise.mode": "corr_x"}, "noise.mode"),
    ("oracle-dataset", "oracle-check", {"dataset": {"separation": 9.0}}, "dataset"),
    # a design of no columns: the run once failed at the model's init, naming no field
    ("csv-label-only-without-bias", "valuation",
     {"dataset": {"source": "csv", "path": LABEL_ONLY_CSV, "label": "y", "test_rows": 3},
      "model.add_bias": False}, "model.add_bias"),
    # sigma_g_sq sets only the corr_x and corr_y diagonals; these runs once dropped it
    ("valuation-iid-sigma-g-sq", "valuation",
     {"noise": {"clip_norm": 1.0, "epsilon": 1.0, "mode": "iid", "sigma_g_sq": 0.5}},
     "noise.sigma_g_sq"),
    ("removal-iid-sigma-g-sq", "removal",
     {"noise": {"clip_norm": 1.0, "epsilon": 1.0, "mode": "iid", "sigma_g_sq": 0.5}},
     "noise.sigma_g_sq"),
    ("federated-sigma-g-sq", "federated", {"noise.sigma_g_sq": 0.5}, "noise.sigma_g_sq"),
    ("noisy-label-uncorrelated-sigma-g-sq", "noisy-label",
     {"noisy_label.modes": ["no_dp", "iid"], "noise.sigma_g_sq": 0.5}, "noise.sigma_g_sq"),
    ("oracle-sigma-g-sq", "oracle-check", {"noise.sigma_g_sq": 0.5}, "noise.sigma_g_sq"),
    ("oracle-corr-x-sigma-g-sq", "oracle-check",  # the oracle runs no chain, so no combiner
     {"noise.mode": "corr_x", "noise.sigma_g_sq": 0.5}, "noise.sigma_g_sq"),
    # values that no run uses: these were once accepted and dropped
    ("zeros-init-scale", "valuation", {"model.init": {"kind": "zeros", "scale": -1}},
     "model.init.scale"),
    ("probe-q-without-corr-y", "variance-probe", {"probe.modes": ["iid", "corr_x"], "probe.q": 7.5},
     "probe.q"),
    ("noisy-label-q-without-corr-y", "noisy-label",
     {"noisy_label": {"modes": ["no_dp", "iid"], "q": 0.5}}, "noisy_label.q"),
    ("no-dp-epsilon", "valuation",  # a no_dp run is at sigma 0, whatever the budget says
     {"noise": {"clip_norm": 1.0, "mode": "no_dp", "epsilon": 1.0}}, "noise.epsilon"),
    ("no-dp-sigma", "valuation", {"noise": {"clip_norm": 1.0, "mode": "no_dp", "sigma": 1.0}},
     "noise.sigma"),
] + [  # YAML .nan and .inf: a NaN epsilon once hung the sigma calibration
    (f"{name}-{value}", "valuation", {field: value}, field)
    for name, field in (("epsilon", "noise.epsilon"), ("sigma", "noise.sigma"),
                        ("clip-norm", "noise.clip_norm"), ("learning-rate", "model.learning_rate"),
                        ("separation", "dataset.separation"))
    for value in (math.nan, math.inf)
]


def test_repeated_key_names_the_key_and_its_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(REPEATED_KEY_TEXT.format("seed: 4\nseed: 5\n"), encoding="utf-8")
    assert cli.main(["validate", str(cfg)]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["field"] == ""
    assert "found the key 'seed' a second time" in record["message"]
    assert record["message"].endswith("line 5, column 1")


def _mapping_paths(doc, path=""):
    """The dotted path of ``doc`` and of every mapping nested in it."""
    yield path
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _mapping_paths(value, f"{path}.{key}" if path else key)


@pytest.mark.parametrize("path", sorted(REPO.glob("configs/*.yaml")), ids=lambda path: path.stem)
def test_unread_key_in_any_section_is_a_config_error(tmp_path, capsys, path):
    shipped = yaml.safe_load(path.read_text(encoding="utf-8"))
    for section in _mapping_paths(shipped):
        doc = copy.deepcopy(shipped)
        target = doc
        for name in section.split(".") if section else ():
            target = target[name]
        target["unread_field"] = 1
        assert cli.main(["validate", str(write_config(tmp_path, doc))]) == 2, section
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        field = f"{section}.unread_field" if section else "unread_field"
        assert record["field"] == field
        assert record["message"] == (f"{field}: not read by the {shipped['experiment']} "
                                     "experiment this config defines")


def test_probe_k_is_not_a_chain_budget(tmp_path):
    # the probe runs its chains at probe.ks only, so a k of 1 is no error
    out = tmp_path / "out"
    cfg = write_config(tmp_path, dict(kind_doc(out, "variance-probe"), k=1))
    assert cli.main(["validate", str(cfg)]) == 0
    assert cli.main(["run", str(cfg)]) == 0
    assert json.loads((out / "result.json").read_text())["probes"]["iid"]["ks"] == [10, 20, 40]
    # nor is a k of 0 for any kind that runs no chain at k, and it moves no result
    for kind in ("variance-probe", "similarity", "federated", "oracle-check"):
        results = []
        for k in (None, 0):
            out = tmp_path / f"{kind}-{k}"
            doc = kind_doc(out, kind)
            if k is not None:
                doc["k"] = k
            cfg = write_config(tmp_path, doc)
            assert cli.main(["validate", str(cfg)]) == 0, (kind, k)
            assert cli.main(["run", str(cfg)]) == 0, (kind, k)
            results.append((out / "result.json").read_bytes())
        assert results[0] == results[1], kind


def test_diverging_probe_replay_is_an_error(tmp_path, monkeypatch):
    # noise this large overflows the replayed utilities: the run fails naming the budget, the
    # mode and the party, without numpy warnings, rather than writing NaN to result.json
    out = tmp_path / "out"
    doc = kind_doc(out, "variance-probe")
    doc["noise"]["sigma"] = 1.0e200
    cfg = write_config(tmp_path, doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["run", str(cfg)]) == 1
    assert caught == []
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "RuntimeError"
    assert record["message"].startswith("the iid replay at budget k=10 diverged at party 0;")
    assert not (out / "result.json").exists()
    # a non-finite value that still reaches a result is an error too
    monkeypatch.setitem(experiments.RUNNERS, "variance-probe",
                        lambda cfg: ({"kind": "variance-probe", "slope": math.nan}, {}))
    assert cli.main(["run", str(cfg)]) == 1
    assert "JSON" in json.loads((out / "error.json").read_text())["message"]
    assert not (out / "result.json").exists()


def test_overflowed_statistic_is_an_error(tmp_path):
    # an l2 this large leaves finite marginals whose squared spread overflows: the run fails
    # naming the field and the party, without numpy warnings, rather than writing "inf"
    out = tmp_path / "out"
    doc = kind_doc(out, "valuation")
    doc["model"]["l2"] = 1.0e300
    cfg = write_config(tmp_path, doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["run", str(cfg)]) == 1
    assert caught == []
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert record["message"].startswith("s_sq of party 0 is inf, which the result cannot hold")
    assert not (out / "result.json").exists()
    with pytest.raises(ValueError, match="^psi of party 1 is nan"):  # the federated runner's too
        experiments._exact("psi", np.array([0.5, math.nan]))


@pytest.mark.parametrize("field,value", [("noise.clip_norm", 1.0e-300),
                                         ("model.learning_rate", 1.0e-300)])
def test_probe_noise_that_cannot_move_the_utility_is_an_error(tmp_path, field, value):
    # every replayed variance is 0, whose log no slope can fit: the run names the mode, the
    # budget and the fields to raise, without numpy warnings or the JSON encoder's message
    out = tmp_path / "out"
    doc = kind_doc(out, "variance-probe")
    set_path(doc, field, value)
    cfg = write_config(tmp_path, doc)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["run", str(cfg)]) == 1
    assert caught == []
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert record["message"].startswith("the iid probe's variance at budget k=10 is 0.0,")
    assert "noise.clip_norm or model.learning_rate" in record["message"]


@pytest.mark.parametrize("partition,ratio,counts", [
    ({"mode": "equal-chunks", "n_parties": 4}, 0.3, "4 corrupted parties of 4"),
    ({"mode": "by-size", "n_parties": 5, "size": 1}, 0.05, "0 corrupted parties of 5"),
], ids=["no-clean-party", "no-corrupted-party"])
def test_noisy_label_seed_without_both_kinds_of_party(tmp_path, partition, ratio, counts):
    # the parse checks that a label is corrupted, but which parties hold one is
    # the seed's draw: a seed without a clean or a corrupted party fails, named,
    # before its chains run
    out = tmp_path / "out"
    doc = kind_doc(out, "noisy-label")
    doc["dataset"].update(n_samples=40, corrupt_ratio=ratio, partition=partition)
    cfg = write_config(tmp_path, doc)
    assert cli.main(["validate", str(cfg)]) == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["run", str(cfg)]) == 1
    assert caught == []
    record = json.loads((out / "error.json").read_text())
    assert record["error"] == "ValueError"
    assert record["message"].startswith(f"seed 3 has {counts},")
    assert "dataset.corrupt_ratio" in record["message"]
    assert "dataset.partition" in record["message"]
    assert not (out / "result.json").exists()


def test_noisy_label_q_grid_alone_runs(tmp_path):
    # empty modes are a ConfigError only without a q_grid, which runs on its own
    out = tmp_path / "out"
    doc = kind_doc(out, "noisy-label")
    doc["noisy_label"] = {"modes": [], "q_grid": [0.0, 0.5]}
    assert cli.main(["run", str(write_config(tmp_path, doc))]) == 0
    assert sorted(json.loads((out / "result.json").read_text())["auc"]) == ["corr_x",
                                                                          "corr_y(q=0.5)"]


LIST_FIELDS = [  # (kind, field, a scalar where the field takes a list)
    ("variance-probe", "probe.ks", 10),
    ("variance-probe", "probe.modes", "corr_x"),
    ("removal", "removal.fractions", 0.1),
    ("removal", "removal.orders", "random"),
    ("similarity", "similarity.ks", 20),
    ("noisy-label", "noisy_label.modes", "iid"),
    ("noisy-label", "noisy_label.q_grid", 0.5),
    ("oracle-check", "oracle.kinds", "shapley"),
]


@pytest.mark.parametrize("kind,field,value", LIST_FIELDS, ids=[case[1] for case in LIST_FIELDS])
def test_scalar_list_field_is_a_config_error(tmp_path, capsys, kind, field, value):
    # a scalar is not read character by character ("got 'c'") or iterated ("'int' object")
    doc = kind_doc(tmp_path / "out", kind)
    set_path(doc, field, value)
    assert cli.main(["validate", str(write_config(tmp_path, doc))]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["field"] == field
    assert record["message"] == f"{field}: must be a list, got {value!r}"


REPEATED_FIELDS = [  # (kind, field, a list whose last entry repeats an earlier one)
    ("variance-probe", "probe.ks", [10, 20, 40, 20.0]),  # 20.0 is the integer 20
    ("variance-probe", "probe.modes", ["iid", "corr_x", "iid"]),
    ("removal", "removal.fractions", [0.0, 0.2, 0.2]),
    ("removal", "removal.orders", ["random", "highest-first", "random"]),
    ("similarity", "similarity.ks", [10, 10]),
    ("noisy-label", "noisy_label.modes", ["iid", "corr_y", "iid"]),
    ("noisy-label", "noisy_label.q_grid", [0.5, 0.5]),
    ("oracle-check", "oracle.kinds", ["shapley", "banzhaf", "shapley"]),
]


@pytest.mark.parametrize("kind,field,value", REPEATED_FIELDS,
                         ids=[case[1] for case in REPEATED_FIELDS])
def test_repeated_list_entry_is_a_config_error(tmp_path, capsys, kind, field, value):
    # a repeat would run again and write its rows twice under one result key
    doc = kind_doc(tmp_path / "out", kind)
    set_path(doc, field, value)
    assert cli.main(["validate", str(write_config(tmp_path, doc))]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["field"] == field
    assert record["message"] == f"{field}: repeats the entry {value[-1]!r}"


@pytest.mark.parametrize("kind", ["similarity", "noisy-label"])
def test_each_seed_draws_one_dataset(tmp_path, monkeypatch, kind):
    # every budget or mechanism of a seed runs on that seed's one draw
    doc = kind_doc(tmp_path / "out", kind)
    calls = []
    synth = data.synth_classification

    def counting_synth(*args, **kwargs):
        calls.append(kwargs["seed"])
        return synth(*args, **kwargs)

    monkeypatch.setattr(data, "synth_classification", counting_synth)
    assert cli.main(["run", str(write_config(tmp_path, doc))]) == 0
    assert calls == [3, 4]


MISSING_FIELDS = [  # (required field, the dataset section without it; None keeps the dataset)
    ("experiment", None),
    ("dataset.path", {"source": "csv", "label": "y", "test_rows": 2}),
    ("dataset.label", {"source": "csv", "path": "data.csv", "test_rows": 2}),
    ("dataset.partition.n_parties", {"partition": {"mode": "equal-chunks"}}),
    ("dataset.partition.size", {"partition": {"mode": "by-size", "n_parties": 4}}),
]


@pytest.mark.parametrize("field,dataset", MISSING_FIELDS, ids=[case[0] for case in MISSING_FIELDS])
def test_missing_required_field_is_named(tmp_path, capsys, field, dataset):
    doc = kind_doc(tmp_path / "out", "valuation")
    if dataset is None:
        del doc[field]
    elif "source" in dataset:
        doc["dataset"] = dataset
    else:
        doc["dataset"].update(dataset)
    assert cli.main(["validate", str(write_config(tmp_path, doc))]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["field"] == field
    assert record["message"] == f"{field}: missing required field"


def test_csv_source_is_read_once_per_run(tmp_path, monkeypatch):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("a,b,y\n" + "".join(f"{i},{i % 3},{i % 2}\n" for i in range(12)))
    doc = kind_doc(tmp_path / "out", "valuation")
    doc["dataset"] = {"source": "csv", "path": str(csv_path), "label": "y", "test_rows": 2}
    cfg = write_config(tmp_path, doc)
    calls = []
    load_csv = data.load_csv

    def counting_load_csv(*args, **kwargs):
        calls.append(args)
        return load_csv(*args, **kwargs)

    monkeypatch.setattr(data, "load_csv", counting_load_csv)
    assert cli.main(["run", str(cfg)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("text,message", [
    ("a: [1,\n", "while parsing a flow node\nexpected the node content, but found "
                 "'<stream end>'\n  in \"{path}\", line 2, column 1"),
    (None, "config file not found: {path}"),
    ("- 1\n- 2\n", "config root must be a mapping"),
], ids=["malformed-yaml", "missing-file", "non-mapping-root"])
def test_file_level_config_error_message(tmp_path, capsys, text, message):
    # an error with no field path is the bare message, with no ": " in front
    path = tmp_path / "cfg.yaml"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    assert cli.main(["validate", str(path)]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["field"] == ""
    assert record["message"] == message.format(path=path)


def test_integral_float_is_an_integer(tmp_path):
    # YAML writes 12.0 for a computed budget; it is the integer 12, not a cast of 12.9
    doc = kind_doc(tmp_path / "out", "valuation")
    doc.update(seed=3.0, k=12.0)
    doc["dataset"]["partition"] = {"mode": "equal-chunks", "n_parties": 4.0}
    cfg = load_config(write_config(tmp_path, doc))
    assert (cfg.seed, cfg.noise.budget, cfg.dataset.n_parties) == (3, 12, 4)
    assert all(type(v) is int for v in (cfg.seed, cfg.noise.budget, cfg.dataset.n_parties))


@pytest.mark.parametrize("kind", ["removal", "variance-probe"])
def test_each_chain_prepares_one_task(tmp_path, monkeypatch, kind):
    # the retrainer and the frozen probe scenarios reuse the Task their chain ran on
    counts = {"Task": 0, "run_chain": 0}
    for name in counts:
        def counting(*args, _fn=getattr(_kernels, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(_kernels, name, counting)
    cfg = write_config(tmp_path, kind_doc(tmp_path / "out", kind))
    assert cli.main(["run", str(cfg)]) == 0
    assert counts["Task"] == counts["run_chain"] > 0


@pytest.mark.parametrize("kind", ["valuation", "noisy-label", "removal", "similarity",
                                  "federated", "oracle-check", "variance-probe"])
def test_kind_doc_runs(tmp_path, kind):
    # the unpatched base of every bad config below validates and runs
    cfg = write_config(tmp_path, kind_doc(tmp_path / "out", kind))
    assert cli.main(["validate", str(cfg)]) == 0
    assert cli.main(["run", str(cfg)]) == 0


@pytest.mark.parametrize("kind,patch", [
    ("valuation", {}),  # corr_x
    ("removal", {"noise.mode": "corr_x"}),
    ("similarity", {}),
    ("noisy-label", {}),  # corr_y among its modes
    ("noisy-label", {"noisy_label": {"modes": ["iid"], "q_grid": [0.0]}}),  # corr_x
])
def test_sigma_g_sq_accepted_where_a_run_combines(tmp_path, kind, patch):
    doc = kind_doc(tmp_path / "out", kind)
    for dotted, value in {"noise.sigma_g_sq": 0.5, **patch}.items():
        set_path(doc, dotted, value)
    cfg = load_config(write_config(tmp_path, doc))
    runs = cfg.plan if kind == "similarity" else (cfg.noise,)
    if kind == "noisy-label":
        runs = [run for _, run in cfg.plan]
    assert any(run.sigma_g_sq == 0.5 and run.mode in ("corr_x", "corr_y") for run in runs)


@pytest.mark.parametrize("kind,patch,field", [case[1:] for case in BAD_CONFIGS],
                         ids=[case[0] for case in BAD_CONFIGS])
def test_bad_config_is_a_config_error(tmp_path, capsys, kind, patch, field):
    text = "a,b,y\n" + "".join(f"{i},{i % 3},{i % 2}\n" for i in range(12))
    csv_paths = {CSV: tmp_path / "data.csv", SHORT_ROW_CSV: tmp_path / "short.csv",
                 LABEL_ONLY_CSV: tmp_path / "label.csv"}
    csv_paths[CSV].write_text(text)
    csv_paths[SHORT_ROW_CSV].write_text(text.replace("\n3,0,1\n", "\n3,0\n"))
    csv_paths[LABEL_ONLY_CSV].write_text("".join(line.rsplit(",", 1)[-1] + "\n"
                                                 for line in text.splitlines()))
    doc = kind_doc(tmp_path / "out", kind)
    for dotted, value in patch.items():
        path = value.get("path") if isinstance(value, dict) else None
        if isinstance(path, str) and path in csv_paths:  # a list path is not hashable
            value = dict(value, path=str(csv_paths[path]))
        set_path(doc, dotted, value)
    cfg = write_config(tmp_path, doc)
    if YAML_TEXT in patch:
        cfg.write_text(patch[YAML_TEXT], encoding="utf-8")
    assert cli.main(["validate", str(cfg)]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["field"] == field
    assert cli.main(["run", str(cfg)]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path", [None, 1, ["d.csv"], ""], ids=["null", "number", "list", "empty"])
def test_csv_path_is_a_string_checked_before_any_read(tmp_path, monkeypatch, path):
    # open() takes an integer as a file descriptor: path 1 would read standard output; a
    # path was once cast with str, and null failed as a missing file named 'None'
    def load_csv(*args):
        raise AssertionError(f"read {args[0]!r}")

    monkeypatch.setattr(data, "load_csv", load_csv)
    doc = kind_doc(tmp_path / "out", "valuation")
    doc["dataset"] = {"source": "csv", "path": path, "label": "y", "test_rows": 2}
    with pytest.raises(ConfigError) as err:
        config.parse_config(doc)
    assert str(err.value) == f"dataset.path: must be a non-empty string, got {path!r}"
