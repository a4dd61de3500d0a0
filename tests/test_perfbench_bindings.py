"""The benchmark's traced mode rebinds program functions by name from outside
(``perfbench/spans.py``). These checks load that file as it stands, so a
refactor that renames or re-signs a traced function fails here rather than
only when the benchmark runs with ``--trace 1``."""

import importlib.util
import inspect
from pathlib import Path

import pytest

import dpvalue
import dpvalue.cli  # noqa: F401 - loads every module the spans bind into
from dpvalue import _kernels, data, dp, models
from dpvalue.valuation import RunConfig, SemivalueSpec, run_valuation

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


def test_traced_chain_records_spans_and_restores_bindings(spans):
    ds = data.synth_classification(6, 3, 2, seed=1, separation=3.0, n_test=10)
    mspec = models.ModelSpec("logistic_l2", 0.1, models.InitSpec("zeros"), l2=0.01)
    uspec = models.UtilitySpec("neg_test_loss", ds.test_features, ds.test_labels)
    cfg = RunConfig(ds, mspec, uspec, dp.NoiseConfig(1.0, 1.0, budget=4, mode="corr_x"),
                    SemivalueSpec("shapley", 6), k=4, master_seed=0)
    before = _kernels.run_chain
    tracer = spans.Tracer()
    with tracer.installed(dpvalue):
        dpvalue.valuation.run_valuation(cfg)
    assert _kernels.run_chain is before
    layers = tracer.layer_metrics()
    assert layers["kernels.utility_np.calls"] == 4 * (6 + 1)
    assert layers["kernels.party_grad_np.calls"] == 4 * 6
    assert layers["kernels.alloc_bytes"] > 0
    assert run_valuation is dpvalue.valuation.run_valuation
