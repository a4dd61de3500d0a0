"""Spans around the program's layer functions, recorded from outside.

``Tracer.installed()`` rebinds every module attribute through which the
program calls a layer function (``valuation.run_valuation`` and the copies
imported into ``experiments`` and ``metrics``, for instance) to a wrapper that
records a span: name, start, end and the enclosing span. On exit the original
functions are bound again. Spans stay in memory until the benchmark writes
them out.
"""

from __future__ import annotations

import contextlib
import gzip
import inspect
import time

# Span name -> the (module, attribute) pairs the program calls it through.
# Several functions may share a span name (the three dataset builders).
BINDINGS = {
    "config.load": [("cli", "load_config"), ("config", "load_config")],
    "data.build": [("data", "synth_classification"), ("data", "corrupt_labels"),
                   ("data", "partition")],
    "valuation.run_valuation": [("valuation", "run_valuation"),
                                ("experiments", "run_valuation"),
                                ("metrics", "run_valuation")],
    "valuation.estimation_stats": [("valuation", "estimation_stats")],
    "valuation.run_federated": [("valuation", "run_federated"),
                                ("experiments", "run_federated")],
    "kernels.run_chain": [("_kernels", "run_chain")],
    "kernels.utility_np": [("_kernels", "utility_np")],
    "kernels.party_grad_np": [("_kernels", "party_grad_np")],
    "models.train_one_pass": [("models", "train_one_pass")],
    "dp.diag_schedule": [("dp", "diag_schedule"), ("valuation", "diag_schedule")],
    "metrics.freeze_scenario": [("metrics", "freeze_scenario")],
    "metrics.conditional_variance": [("metrics", "conditional_variance")],
    "metrics.utility_rows": [("metrics", "_utility_rows")],
    "metrics.grad_similarity": [("metrics", "grad_similarity")],
    "metrics.removal_curve": [("metrics", "removal_curve")],
    "metrics.auc_roc": [("metrics", "auc_roc")],
    "cli.cmd_run": [("cli", "cmd_run")],
}
RUNNER_SPAN = "experiments.runner"  # every value of experiments.RUNNERS

# Per-layer metric -> (span, quantity). "self" is the span's time minus the
# time of the spans it encloses; "total" includes them.
LAYER_TIMES = {
    "config.load.s": ("config.load", "self"),
    "data.build.s": ("data.build", "self"),
    "valuation.run_valuation.s": ("valuation.run_valuation", "total"),
    "valuation.prep.s": ("valuation.run_valuation", "self"),
    "valuation.estimation_stats.s": ("valuation.estimation_stats", "self"),
    "valuation.run_federated.s": ("valuation.run_federated", "self"),
    "kernels.run_chain.s": ("kernels.run_chain", "total"),
    "kernels.chain.self.s": ("kernels.run_chain", "self"),
    "kernels.utility_np.s": ("kernels.utility_np", "self"),
    "kernels.party_grad_np.s": ("kernels.party_grad_np", "self"),
    "models.train_one_pass.s": ("models.train_one_pass", "self"),
    "dp.diag_schedule.s": ("dp.diag_schedule", "self"),
    "metrics.freeze_scenario.s": ("metrics.freeze_scenario", "self"),
    "metrics.conditional_variance.s": ("metrics.conditional_variance", "self"),
    "metrics.utility_rows.s": ("metrics.utility_rows", "self"),
    "metrics.grad_similarity.s": ("metrics.grad_similarity", "self"),
    "metrics.removal_curve.s": ("metrics.removal_curve", "self"),
    "metrics.auc_roc.s": ("metrics.auc_roc", "self"),
    "experiments.runner.s": (RUNNER_SPAN, "self"),
    "cli.write.s": ("cli.cmd_run", "self"),
}
LAYER_CALLS = {
    "kernels.utility_np.calls": "kernels.utility_np",
    "kernels.party_grad_np.calls": "kernels.party_grad_np",
    "metrics.utility_rows.calls": "metrics.utility_rows",
}


def chain_bytes(perms, inits, noise, record_grads, record_states) -> int:
    """Bytes of the arrays one chain run holds, computed from their shapes:
    permutations, inits and noise from the engine's preparation, then the
    kernel's marginals, position coefficients, psi, rolling means and, when
    recorded, the three gradient stacks and the state records."""
    k, n = perms.shape
    d = inits.shape[1]
    held = perms.nbytes + inits.nbytes + noise.nbytes
    held += 8 * (2 * k * n + n + n * d)
    held += 8 * (3 * k * n * d if record_grads else 3)
    held += 8 * (k * n * d + k * n if record_states else 2)
    return held


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.chain_bytes: list[int] = []
        self._open: list[int] = []

    def _wrap(self, name, fn, on_call=None):
        spans, open_ = self.spans, self._open

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                open_.pop()

        return traced

    def _record_chain(self, signature):
        def on_call(args, kwargs):
            a = signature.bind(*args, **kwargs).arguments
            self.chain_bytes.append(chain_bytes(
                a["perms"], a["inits"], a["noise"],
                a.get("record_grads", False), a.get("record_states", False)))
        return on_call

    @contextlib.contextmanager
    def installed(self, package):
        """Bind the wrappers into the modules of ``package`` for the block."""
        mods = {name: getattr(package, name) for name in
                ("cli", "config", "data", "valuation", "experiments", "_kernels",
                 "models", "dp", "metrics")}
        saved = []
        for name, sites in BINDINGS.items():
            wrappers = {}
            for mod, attr in sites:
                fn = getattr(mods[mod], attr)
                if fn not in wrappers:
                    hook = None
                    if name == "kernels.run_chain":
                        hook = self._record_chain(inspect.signature(fn))
                    wrappers[fn] = self._wrap(name, fn, hook)
                saved.append((mods[mod], attr, fn))
                setattr(mods[mod], attr, wrappers[fn])
        runners = mods["experiments"].RUNNERS
        saved_runners = dict(runners)
        for kind, fn in saved_runners.items():
            runners[kind] = self._wrap(RUNNER_SPAN, fn)
        try:
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)
            runners.update(saved_runners)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self and total seconds and call counts, plus the largest
        chain footprint in bytes."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        total, self_, calls = {}, {}, {}
        for i, (name, start, end, _) in enumerate(spans):
            total[name] = total.get(name, 0.0) + (end - start)
            self_[name] = self_.get(name, 0.0) + (end - start - child[i])
            calls[name] = calls.get(name, 0) + 1
        out = {}
        for metric, (span, kind) in LAYER_TIMES.items():
            out[metric] = (self_ if kind == "self" else total).get(span, 0.0)
        for metric, span in LAYER_CALLS.items():
            out[metric] = calls.get(span, 0)
        out["kernels.alloc_bytes"] = max(self.chain_bytes, default=0)
        return out

    def write(self, path) -> None:
        """Gzipped, one span per line: index, parent index, name, start, end."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index\tparent\tname\tstart\tend\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start!r}\t{end!r}\n")
