"""``tools/mutants.py``, the mutation run, loaded as it stands: a refactor that
leaves a mutated module or operator without sites, or a mutant that does not
parse, fails here rather than at the next mutant run."""

import ast
import importlib
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def test_every_module_has_sites_and_every_mutant_parses(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    tool = importlib.import_module("mutants")
    found = tool.mutants()
    expected = {("config", "path")} | {(module, operator) for module in ("config", *tool.ENGINE)
                                        for operator in ("raise", "message")}
    assert {(mutant.module, mutant.operator) for mutant in found} == expected
    originals, blocks = {}, {}  # each module's text and its top-level statements' line spans
    for module, _ in expected:
        originals[module] = (tool.PACKAGE / f"{module}.py").read_text(encoding="utf-8")
        blocks[module] = [(min(d.lineno for d in [node, *getattr(node, "decorator_list", ())]),
                           node.end_lineno) for node in ast.parse(originals[module]).body]
    for mutant in found:
        assert mutant.source != originals[mutant.module], mutant.name
        # compiling the mutated top-level statement alone keeps the test fast
        lines = mutant.source.splitlines(keepends=True)
        start, end = next((start, end) for start, end in blocks[mutant.module]
                          if start <= mutant.line <= end)
        end += len(lines) - len(originals[mutant.module].splitlines())
        compile("".join(lines[start - 1:end]), mutant.name, "exec")
