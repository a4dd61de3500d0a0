#!/usr/bin/env python3
"""dpvalue benchmark: experiment workloads run end to end through the CLI.

    python3 perfbench/run.py --workload noisy-label --seed 0 --seconds 20 --trace 0

Runs from a checkout of the repository and imports the package from its
``src/``. The workload's configs are generated from ``--seed``; each run of
the workload passes every config to ``dpvalue.cli.main(["run", cfg,
"--output", dir])`` in this process, one after the other, and a run starts
when the previous one has ended (a closed loop with one client). After one
warm-up run the loop repeats for ``--seconds``. Every run's outputs are
checked (see ``check_outputs``).

With ``--trace 0`` the last line of standard output is a JSON object with the
end-to-end metrics: set-up time, median run wall time, model steps per second,
peak resident memory and the share of runs that passed their checks. With
``--trace 1`` the loop alternates untraced and traced runs and reports each
layer's self time and call counts from the traced runs, plus the trace
overhead. A results file with machine facts and provenance, and in traced mode
the recorded spans, go to ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import importlib.util
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import yaml

import spans
import workloads
from clock import SpeedClock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"

SETUP_REPEATS = 5
MIN_TIMED_RUNS = 3
PARITY_TOL = 1e-12  # ROADMAP parity rule, relative to max(1, |recorded value|)

# Time from interpreter start-up to a parsed config: importing dpvalue and
# loading every config named on the command line.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import dpvalue
from dpvalue.config import load_config
for path in sys.argv[2:]:
    load_config(path)
print(repr(time.perf_counter() - t0))
"""


def leaves(doc, prefix: str = "") -> dict:
    """Flatten a result document to path -> value; numeric strings become floats."""
    if isinstance(doc, dict):
        out = {}
        for key in sorted(doc):
            out.update(leaves(doc[key], f"{prefix}/{key}"))
        return out
    if isinstance(doc, list):
        out = {}
        for i, value in enumerate(doc):
            out.update(leaves(value, f"{prefix}/{i}"))
        return out
    if isinstance(doc, (int, float)) and not isinstance(doc, bool):
        return {prefix: float(doc)}
    if isinstance(doc, str):
        try:
            return {prefix: float(doc)}
        except ValueError:
            pass
    return {prefix: doc}


def write_configs(workload: str, seed: int, dest: Path) -> dict[str, tuple[dict, Path]]:
    dest.mkdir(parents=True, exist_ok=True)
    out = {}
    for name, cfg in workloads.configs(workload, seed).items():
        path = dest / f"{name}.yaml"
        path.write_text(yaml.safe_dump(cfg, sort_keys=True), encoding="utf-8")
        out[name] = (cfg, path)
    return out


def manifest_problems(outdir: Path) -> list[str]:
    listed = {}
    for line in (outdir / "MANIFEST").read_text(encoding="utf-8").splitlines():
        digest, name = line.split("  ", 1)
        listed[name] = digest
    present = {p.name for p in outdir.iterdir() if p.is_file() and p.name != "MANIFEST"}
    bad = [f"MANIFEST lists {sorted(listed)}, directory holds {sorted(present)}"] if set(listed) != present else []
    for name, digest in listed.items():
        path = outdir / name
        if path.is_file() and hashlib.sha256(path.read_bytes()).hexdigest() != digest:
            bad.append(f"MANIFEST digest of {name} does not match the file")
    return bad


def parity_problems(values: dict, recorded: dict) -> list[str]:
    if set(values) != set(recorded):
        return [f"result fields differ from the recorded ones: {sorted(set(values) ^ set(recorded))[:5]}"]
    bad = []
    for key, want in recorded.items():
        got = values[key]
        if isinstance(want, float) and isinstance(got, float):
            if not abs(got - want) <= PARITY_TOL * max(1.0, abs(want)):
                bad.append(f"{key} = {got!r}, recorded {want!r}")
        elif got != want:
            bad.append(f"{key} = {got!r}, recorded {want!r}")
    if len(bad) > 3:
        return [f"{len(bad)} values differ from the recorded ones, first: {bad[0]}"]
    return bad


def check_outputs(outdir: Path, cfg: dict, rc: int, recorded: dict | None) -> list[str]:
    """Problems with one config's outputs; an empty list means it passed.

    Checks the exit code, that the MANIFEST digests match the written files,
    that every number in result.json is finite, the paper invariant of the
    acceptance test run at this shape (bounds unchanged) and, at seeds with
    recorded values, parity with the seed commit within PARITY_TOL.
    """
    if rc != 0:
        return [f"dpvalue run exited with {rc}"]
    bad = manifest_problems(outdir)
    doc = json.loads((outdir / "result.json").read_text(encoding="utf-8"))
    values = leaves(doc)
    bad += [f"{key} is not finite" for key, v in values.items()
            if isinstance(v, float) and not math.isfinite(v)]
    bad += workloads.invariant_failures(cfg, doc)
    if recorded is not None:
        bad += parity_problems(values, recorded)
    return bad


class Workload:
    """One workload at one seed: its configs, checks and shape-derived counts."""

    def __init__(self, name: str, seed: int, cli, workdir: Path):
        self.cli = cli
        self.workdir = workdir
        self.configs = write_configs(name, seed, workdir / "configs")
        recorded = json.loads(EXPECTED.read_text(encoding="utf-8")) if EXPECTED.is_file() else {}
        self.recorded = recorded.get(name, {}).get(str(seed))
        self.steps = sum(workloads.steps(cfg) for cfg, _ in self.configs.values())
        self.expected_calls = {}
        for cfg, _ in self.configs.values():
            for layer, count in workloads.expected_calls(cfg).items():
                self.expected_calls[layer] = self.expected_calls.get(layer, 0) + count
        self.runs = 0
        self.failed_runs: set[int] = set()
        self.failures: list[str] = []

    def fail(self, problem: str) -> None:
        """Count the current run as failed, for the reason given."""
        self.failed_runs.add(self.runs)
        self.failures.append(f"run {self.runs}: {problem}")
        print(f"run {self.runs}: {problem}", file=sys.stderr)

    def run(self) -> tuple[float, float, int]:
        """One run of every config, checked: (start, end, bytes written)."""
        self.runs += 1
        outroot = self.workdir / f"run{self.runs}"
        rcs, error = {}, None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                for name, (_, path) in self.configs.items():
                    rcs[name] = self.cli.main(["run", str(path), "--output", str(outroot / name)])
        except Exception:  # noqa: BLE001 - a raising run is counted as failed
            error = traceback.format_exc()
        end = time.perf_counter()
        bad = [error] if error else []
        written = 0
        for name, (cfg, _) in self.configs.items():
            if name not in rcs:
                continue
            recorded = self.recorded.get(name) if self.recorded else None
            try:
                bad += [f"{name}: {p}" for p in check_outputs(outroot / name, cfg, rcs[name], recorded)]
            except (OSError, ValueError, KeyError, TypeError):
                bad.append(f"{name}: unreadable outputs\n{traceback.format_exc()}")
            if (outroot / name).is_dir():
                written += sum(p.stat().st_size for p in (outroot / name).iterdir())
        shutil.rmtree(outroot, ignore_errors=True)
        for problem in bad:
            self.fail(problem)
        return start, end, written


def measure_setup(wl: Workload, clock: SpeedClock) -> list[tuple[float, float]]:
    """(raw, scaled) set-up seconds of SETUP_REPEATS fresh interpreters."""
    paths = [str(path) for _, path in wl.configs.values()]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), *paths],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        raw = float(proc.stdout.strip().splitlines()[-1])
        samples.append((raw, raw * clock.factor(start, time.perf_counter())))
    return samples


def closed_loop(seconds: float, step) -> None:
    """Call ``step()`` back to back for ``seconds``, at least MIN_TIMED_RUNS times."""
    start = time.perf_counter()
    count = 0
    while count < MIN_TIMED_RUNS or time.perf_counter() - start < seconds:
        gc.collect()
        step()
        count += 1


def timed(wl: Workload, seconds: float, clock: SpeedClock) -> tuple[dict, dict]:
    walls = []

    def step():
        start, end, _ = wl.run()
        walls.append((end - start, clock.scaled(start, end)))

    closed_loop(seconds, step)
    wall = statistics.median(scaled for _, scaled in walls)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "wall_s": (wall, "s"),
        "steps_per_s": (wl.steps / wall, "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    return metrics, {"run_walls_s": [raw for raw, _ in walls],
                     "run_walls_scaled_s": [scaled for _, scaled in walls]}


def traced(wl: Workload, seconds: float, clock: SpeedClock, dpvalue) -> tuple[dict, dict, spans.Tracer]:
    """Alternate untraced and traced runs; the last run's tracer is returned.

    Layer seconds are scaled by the speed factor of the traced run they
    come from."""
    plain, walls, layers = [], [], []
    tracer = None

    def step():
        nonlocal tracer
        start, end, _ = wl.run()
        plain.append(clock.scaled(start, end))
        tracer = spans.Tracer()
        with tracer.installed(dpvalue):
            start, end, written = wl.run()
        factor = clock.factor(start, end)
        walls.append((end - start) * factor)
        layer = {key: value * factor if key.endswith(".s") else value
                 for key, value in tracer.layer_metrics().items()}
        layer["cli.bytes_written"] = written
        for name, want in wl.expected_calls.items():
            got = layer[f"{name}.calls"]
            if got != want:
                wl.fail(f"layer coverage: {name} called {got} times, shapes give {want}")
        layers.append(layer)

    closed_loop(seconds, step)
    metrics = {}
    for key in layers[0]:
        unit = "s" if key.endswith(".s") else ("count" if key.endswith(".calls") else "bytes")
        metrics[key] = (statistics.median(layer[key] for layer in layers), unit)
    metrics["trace_overhead"] = (statistics.median(walls) / statistics.median(plain), "ratio")
    return metrics, {"untraced_walls_scaled_s": plain, "traced_walls_scaled_s": walls,
                     "layers": layers}, tracer


def blas_threads() -> int | None:
    """Thread count of the loaded OpenBLAS, if this process has one."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        git_sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "platform": platform.platform(),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def import_dpvalue():
    """Import the checkout's own package, never an installed copy."""
    if not (SRC / "dpvalue" / "__init__.py").is_file():
        raise SystemExit(f"no dpvalue sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import dpvalue
    import dpvalue.cli

    if SRC.resolve() not in Path(dpvalue.__file__).resolve().parents:
        raise SystemExit(f"imported dpvalue from {dpvalue.__file__}, not from {SRC}")
    return dpvalue


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    dpvalue = import_dpvalue()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        wl = Workload(args.workload, args.seed, dpvalue.cli, workdir)
        with SpeedClock() as clock:
            setup = measure_setup(wl, clock)
            wl.run()  # warm-up, checked like every other run
            if args.trace:
                metrics, samples, tracer = traced(wl, args.seconds, clock, dpvalue)
            else:
                metrics, samples = timed(wl, args.seconds, clock)
                metrics["setup_s"] = (statistics.median(scaled for _, scaled in setup), "s")
                metrics["pass_ratio"] = (1.0 - len(wl.failed_runs) / wl.runs, "ratio")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    result = {
        "correct": not wl.failed_runs,
        "attempted": wl.runs,
        "failed": len(wl.failed_runs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "machine": machine_facts(args.seed),
        "config_seeds": {name: cfg["seed"] for name, (cfg, _) in wl.configs.items()},
        "steps_per_run": wl.steps,
        "expected_calls_per_run": wl.expected_calls,
        "recorded_parity_checked": wl.recorded is not None,
        "setup_samples_s": [raw for raw, _ in setup],
        "setup_samples_scaled_s": [scaled for _, scaled in setup],
        "samples": samples,
        "failures": wl.failures,
        "result": result,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        tracer.write(OUT / f"{stem}-spans.tsv.gz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
