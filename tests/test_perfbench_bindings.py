"""The benchmark's traced mode rebinds program functions by name from outside
(``perfbench/spans.py``) and checks their call counts against formulas in
``perfbench/workloads.py``. These checks load both files as they stand, so a
refactor that renames or re-signs a traced function, or changes how often a
hot layer is called per step, fails here rather than only when the benchmark
runs with ``--trace 1``."""

import functools
import importlib.util
import inspect
import json
from pathlib import Path

import pytest
import yaml

import dpvalue
import dpvalue.cli  # noqa: F401 - loads every module the spans bind into
from dpvalue import _kernels, cli, data, dp, models
from dpvalue.valuation import RunConfig, SemivalueSpec, run_valuation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
BENCHMARK = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return load_perfbench("spans")


def test_every_binding_resolves(spans):
    for name, sites in spans.BINDINGS.items():
        for mod, attr in sites:
            module = getattr(dpvalue, mod)
            assert callable(getattr(module, attr, None)), f"{name}: dpvalue.{mod}.{attr}"
    assert dpvalue.experiments.RUNNERS


def test_run_chain_keeps_the_recorded_arguments():
    # the tracer binds these by name to size each chain's arrays
    params = inspect.signature(_kernels.run_chain).parameters
    for name in ("perms", "inits", "noise", "record_grads", "record_states"):
        assert name in params, name


def test_traced_chain_records_spans_and_restores_bindings(spans, monkeypatch):
    ds = data.synth_classification(6, 3, 2, seed=1, separation=3.0, n_test=10)
    mspec = models.ModelSpec("logistic_l2", 0.1, models.InitSpec("zeros"), l2=0.01)
    uspec = "neg_test_loss"
    run_chain, seen = _kernels.run_chain, []

    @functools.wraps(run_chain)  # the tracer reads run_chain's own signature through it
    def capturing(*args, **kwargs):
        seen.append(inspect.signature(run_chain).bind(*args, **kwargs).arguments)
        return run_chain(*args, **kwargs)

    monkeypatch.setattr(_kernels, "run_chain", capturing)
    for record in (False, True):
        cfg = RunConfig(ds, mspec, uspec, dp.NoiseConfig(1.0, 1.0, budget=4, mode="corr_x"),
                        SemivalueSpec("shapley"), master_seed=0, record_gradients=record,
                        record_states=record)
        tracer = spans.Tracer()
        with tracer.installed(dpvalue):
            dpvalue.valuation.run_valuation(cfg)
        assert _kernels.run_chain is capturing
        layers = tracer.layer_metrics()
        assert layers["kernels.utility_np.calls"] == 4 * (6 + 1)
        assert layers["kernels.party_grad_np.calls"] == 4 * 6
        # the footprint of the run's own arrays, bound by name as the tracer binds them
        args = seen.pop()
        assert args["noise"].shape == (4, 6, 3 + 1)  # 3 features and the bias
        assert layers["kernels.alloc_bytes"] == spans.chain_bytes(
            args["perms"], args["inits"], args["noise"], record, record)
    assert run_valuation is dpvalue.valuation.run_valuation


SMALL = {"source": "synth", "n_samples": 24, "n_test": 30, "d_feat": 4, "separation": 3.0,
         "partition": {"mode": "equal-chunks", "n_parties": 4}}
LOGISTIC = {"loss": "logistic_l2", "learning_rate": 0.05, "l2": 0.01}
TRACED_CONFIGS = {  # tiny configs of the kinds whose hot layers the workloads count
    "variance-probe": {
        "k": 10, "dataset": SMALL, "model": {"loss": "mse_linear", "learning_rate": 0.05, "l2": 0},
        "noise": {"clip_norm": 1.0, "sigma": 1.0, "mode": "iid"},
        "probe": {"ks": [10, 20, 40], "noise_trials": 100, "modes": ["iid", "corr_x", "corr_y"],
                  "q": 0.5},
    },
    "federated": {
        "k": 10, "dataset": SMALL, "model": LOGISTIC, "utility": "test_accuracy",
        "noise": {"clip_norm": 1.0, "sigma": 1.0, "mode": "fl_schedule"},
        "federated": {"rounds": 10, "permutations": 5, "q": 0.2},
    },
    "removal": {
        "k": 12, "dataset": SMALL, "model": LOGISTIC, "utility": "test_accuracy",
        "noise": {"clip_norm": 1.0, "sigma": 0.0, "mode": "iid"},
        "removal": {"fractions": [0.0, 0.25, 0.5], "orders": ["highest-first", "random"]},
    },
    "valuation": {
        "k": 12, "dataset": SMALL, "model": LOGISTIC,
        "noise": {"clip_norm": 1.0, "sigma": 1.0, "mode": "corr_y", "q": 0.5},
    },
    "noisy-label": {  # per-sample parties, as in the workload
        "k": 10, "trials": 2, "model": LOGISTIC,
        "dataset": {"source": "synth", "n_samples": 24, "n_test": 30, "d_feat": 4,
                    "separation": 3.0, "corrupt_ratio": 0.25},
        "noise": {"clip_norm": 1.0, "sigma": 1.0, "mode": "iid"},
        "noisy_label": {"modes": ["no_dp", "iid", "corr_y"], "q": 0.5},
    },
}


@pytest.mark.parametrize("kind", sorted(TRACED_CONFIGS))
def test_traced_calls_match_workload_formulas(spans, tmp_path, kind):
    # the call-count gate of a traced benchmark run, on a config small enough for tier 1
    workloads = load_perfbench("workloads")
    doc = dict(TRACED_CONFIGS[kind], experiment=kind, seed=1, output_dir=str(tmp_path / "out"))
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    tracer = spans.Tracer()
    with tracer.installed(dpvalue):
        assert cli.main(["run", str(path)]) == 0
    layers = tracer.layer_metrics()
    expected = workloads.expected_calls(doc)
    assert any(expected.values())
    for span, calls in expected.items():
        assert layers[f"{span}.calls"] == calls, span


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_workload_outputs_match_recorded_values(monkeypatch, tmp_path, workload):
    # the benchmark's own check of every run, at benchmark seed 0: exit code,
    # MANIFEST digests, finite values, the paper invariant at the workload's
    # shape and parity with perfbench/expected.json within its PARITY_TOL
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports spans, workloads and clock
    run = load_perfbench("run")
    recorded = json.loads(run.EXPECTED.read_text(encoding="utf-8"))[workload]["0"]
    configs = run.write_configs(workload, 0, tmp_path / "configs")
    assert set(configs) == set(recorded)
    for name, (cfg, path) in configs.items():
        rc = cli.main(["run", str(path), "--output", str(tmp_path / name)])
        assert run.check_outputs(tmp_path / name, cfg, rc, recorded[name]) == [], name
