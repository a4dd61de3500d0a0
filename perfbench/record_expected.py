#!/usr/bin/env python3
"""Record every result value of every workload at benchmark seeds 0..9.

    python3 perfbench/record_expected.py

Writes perfbench/expected.json, which run.py compares each run's
result.json against (ROADMAP parity rule, 1e-12) when run at one of these
seeds. The values are the seed commit's; re-record only with a change that
states and justifies a different result.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys

import run
import workloads

SEEDS = range(10)


def main() -> int:
    dpvalue = run.import_dpvalue()
    workdir = run.WORK / "record"
    expected = {}
    try:
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                configs = run.write_configs(workload, seed, workdir / "configs")
                values = {}
                for name, (cfg, path) in configs.items():
                    outdir = workdir / name
                    with contextlib.redirect_stdout(io.StringIO()):
                        rc = dpvalue.cli.main(["run", str(path), "--output", str(outdir)])
                    problems = run.check_outputs(outdir, cfg, rc, None)
                    if problems:
                        print(f"{workload} seed {seed} {name}: {problems}", file=sys.stderr)
                        return 1
                    doc = json.loads((outdir / "result.json").read_text(encoding="utf-8"))
                    values[name] = run.leaves(doc)
                    shutil.rmtree(outdir)
                expected.setdefault(workload, {})[str(seed)] = values
                print(f"recorded {workload} seed {seed}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
