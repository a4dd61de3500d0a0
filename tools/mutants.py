"""Mutation run of the config boundary and the engine's rules: what each test kills.

Run it from anywhere, with no arguments (it takes no flags)::

    python tools/mutants.py

Each mutant changes one site of ``src/dpvalue`` in a temporary copy of
``src/``; the checkout is never written. The operators:

- ``path``: the field path of a ``ConfigError(...)`` or ``_field(...)`` call
  in ``config.py`` becomes ``"zz.mutant"``, so a rejection names the wrong field;
- ``raise``: a ``raise`` in ``config.py``, or a ``raise`` of a ``ValueError``
  (or a subclass the module defines) in ``dp``, ``valuation``, ``metrics``,
  ``models`` or ``data``, becomes ``pass``, so the rejection goes;
- ``message``: the message of such a ``ValueError`` is replaced.

Every tier-1 test file but ``test_acceptance.py`` runs against each mutant,
and the test node ids that fail are the mutant's kill set;
``test_acceptance.py`` runs only against the mutants no other file kills. The
unmutated copy runs first and must pass. The run prints the kill matrix per
test file and per test, then each mutant with the number of tests that kill
it, and the survivors; progress goes to standard error. It runs one mutant
per core (at most 4), each test run with one BLAS thread and at most 4 GiB of
address space, and takes about 100 minutes on 2 cores: some 50 for the fast
files and the rest for the acceptance runs of the survivors.
"""

from __future__ import annotations

import ast
import contextlib
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dpvalue"
ENGINE = ("dp", "valuation", "metrics", "models", "data")
ACCEPTANCE = "tests/test_acceptance.py"
FIELD = '"zz.mutant"'
MESSAGE = '"zz mutant message"'
TIMEOUT_S = 600  # a test run that hangs is killed and counted as killed by "(timeout)"


@dataclass(frozen=True)
class Mutant:
    module: str
    line: int
    operator: str  # path, raise or message
    source: str  # the whole mutated module

    @property
    def name(self) -> str:
        return f"{self.module}.py:{self.line} {self.operator}"


def _called(node) -> str | None:
    """The plain name a call calls (``ValueError`` in ``ValueError(...)``)."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id
    return None


def _value_errors(tree: ast.Module) -> set[str]:
    """``ValueError`` and the module's own subclasses of it."""
    names = {"ValueError"}
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id in names for base in node.bases):
            names.add(node.name)
    return names


def sites(module: str, tree: ast.Module):
    """Each (node, operator, replacement) of ``module``'s parsed ``tree``."""
    errors = _value_errors(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            name = _called(node.exc)
            if module == "config" or name in errors:
                yield node, "raise", "pass"
            if name in errors:  # ConfigError(path, message), ValueError(message)
                yield node.exc.args[name == "ConfigError"], "message", MESSAGE
        if module == "config" and _called(node) in ("ConfigError", "_field"):
            yield node.args[0], "path", FIELD


def _replace(text: str, node: ast.AST, replacement: str) -> str:
    """``text`` with ``node``'s span replaced (ast offsets count UTF-8 bytes)."""
    raw = text.encode("utf-8")
    starts = [0]
    for line in raw.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    begin = starts[node.lineno - 1] + node.col_offset
    end = starts[node.end_lineno - 1] + node.end_col_offset
    return (raw[:begin] + replacement.encode("utf-8") + raw[end:]).decode("utf-8")


def mutants() -> list[Mutant]:
    found = []
    for module in ("config", *ENGINE):
        text = (PACKAGE / f"{module}.py").read_text(encoding="utf-8")
        in_order = sorted(sites(module, ast.parse(text)),
                          key=lambda site: (site[0].lineno, site[0].col_offset))
        for node, operator, replacement in in_order:
            found.append(Mutant(module, node.lineno, operator, _replace(text, node, replacement)))
    return found


def pytest_runtest_logreport(report):
    """Plugin hook of each test run: append a failing node id to $MUTANT_FAILURES."""
    if report.failed:
        with open(os.environ["MUTANT_FAILURES"], "a", encoding="utf-8") as fh:
            print(report.nodeid, file=fh)


pytest_collectreport = pytest_runtest_logreport  # a file that fails to import kills as a whole


def run_tests(mutant: Mutant | None, files: list[str]) -> set[str]:
    """The node ids among ``files`` that fail with ``mutant`` applied to a copy of ``src/``."""
    with tempfile.TemporaryDirectory(prefix="dpvalue-mutant-") as work:
        work = Path(work)
        shutil.copytree(ROOT / "src", work / "src", ignore=shutil.ignore_patterns("__pycache__"))
        if mutant is not None:
            (work / "src" / "dpvalue" / f"{mutant.module}.py").write_text(mutant.source,
                                                                          encoding="utf-8")
        failures = work / "failures.txt"
        env = dict(os.environ, PYTHONPATH=f"{work / 'src'}{os.pathsep}{ROOT / 'tools'}",
                   MUTANT_FAILURES=str(failures), OPENBLAS_NUM_THREADS="1",
                   PYTHONDONTWRITEBYTECODE="1")
        env.pop("DPVALUE_OUTPUT_ROOT", None)
        # the run's cwd is the copy, so hypothesis keeps its examples there and not across runs
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "mutants",
             f"--basetemp={work / 'pytest'}", *(str(ROOT / name) for name in files)],
            cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True)
        try:
            proc.wait(timeout=TIMEOUT_S)
            timed_out = False
        except subprocess.TimeoutExpired:
            timed_out = True
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)  # the run's pool workers too
        proc.wait()
        failed = set(failures.read_text(encoding="utf-8").splitlines()
                     if failures.exists() else ())
    return failed | {"(timeout)"} if timed_out else failed


def _file(node_id: str) -> str:
    return node_id.split("::")[0]


def main() -> int:
    resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))  # inherited by each test run
    tier1 = sorted(str(path.relative_to(ROOT)) for path in (ROOT / "tests").glob("test_*.py"))
    fast = [name for name in tier1 if name != ACCEPTANCE]
    found = mutants()
    operators = Counter(mutant.operator for mutant in found)
    print(f"{len(found)} mutants ({', '.join(f'{op} {n}' for op, n in operators.items())})",
          file=sys.stderr, flush=True)
    broken = run_tests(None, tier1)
    if broken:
        print(f"the unmutated copy fails {sorted(broken)}", file=sys.stderr)
        return 1
    workers = min(4, len(os.sched_getaffinity(0)))
    kills: dict[int, set[str]] = {}

    def measure(index: int, files: list[str]) -> None:
        kills[index] = kills.get(index, set()) | run_tests(found[index], files)
        print(f"#{index} {found[index].name}: {len(kills[index])} failing", file=sys.stderr,
              flush=True)

    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(measure, range(len(found)), [fast] * len(found)))
    with ThreadPoolExecutor(workers) as pool:
        survivors = [i for i in range(len(found)) if not kills[i]]
        list(pool.map(measure, survivors, [[ACCEPTANCE]] * len(survivors)))

    by_test: dict[str, set[int]] = defaultdict(set)
    for index, failed in kills.items():
        for node_id in failed:
            by_test[node_id].add(index)
    by_file: dict[str, set[int]] = defaultdict(set)
    for node_id, killed in by_test.items():
        by_file[_file(node_id)] |= killed

    def alone(killed: set[int], owner) -> int:
        return sum(1 for i in killed if all(owner(node_id) for node_id in kills[i]))

    print(f"mutants: {len(found)}; killed: {sum(1 for v in kills.values() if v)}; "
          f"survivors: {sum(1 for v in kills.values() if not v)}")
    print("\nper file: mutants killed, killed by no other file")
    for name in tier1:
        killed = by_file[name]
        print(f"  {name:40} {len(killed):4} {alone(killed, lambda n: _file(n) == name):4}")
    print("\nper test: mutants killed, killed by no other test; * marks a test whose every "
          "kill another test repeats")
    for node_id in sorted(by_test):
        killed = by_test[node_id]
        lone = alone(killed, lambda n: n == node_id)
        print(f"  {'*' if not lone else ' '} {node_id} {len(killed)} {lone}: "
              f"{' '.join(f'#{i}' for i in sorted(killed))}")
    print("\nmutants: tests that kill each")
    for index, mutant in enumerate(found):
        print(f"  #{index} {mutant.name}: {len(kills[index])}")
    print("\nsurvivors:")
    for index, mutant in enumerate(found):
        if not kills[index]:
            print(f"  #{index} {mutant.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
