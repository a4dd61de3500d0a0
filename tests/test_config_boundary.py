"""The config boundary, fuzzed: every leaf of every shipped config, set to
each of a fixed list of awkward values, either parses or fails as a
``ConfigError`` on a field near the cause, and never hangs. Past the
boundary, a tiny run of every traced kind with one numeric field at an
extreme that validates either succeeds or fails with a cause the engine
names, and warns of nothing."""

import copy
import json
import math
import re
import signal
import warnings
from contextlib import contextmanager
from pathlib import Path

import pytest
import yaml
from test_perfbench_bindings import TRACED_CONFIGS

from dpvalue import cli
from dpvalue.config import ConfigError, parse_config

SHIPPED = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))

VALUES = [math.nan, math.inf, -math.inf, 10**400, -10**400, 2**63, 1e308, -1e308, 1e-320,
          -1, 0, 0.5, 3, 1e6, True, "x", "", [], [1], {}, {"a": 1}, None]

# rules that tie two fields report at the field the README names for them
CROSS = {
    "k": {"noise.q"},  # corr_y's burn-in k*q must be integral
    "dataset.n_samples": {"dataset.partition.n_parties", "dataset.corrupt_ratio",
                          "semivalue.kind"},  # parties within the rows; corrupted rows; weights cap
    "noise.epsilon": {"noise.sigma"},  # sigma or epsilon must be given
    "probe.ks": {"probe.q"},  # each budget's burn-in k*q
    "federated.rounds": {"federated.q"},  # the rounds' burn-in
}


def leaves(node, path=()):
    """The key path of every scalar in a YAML document, list entries included."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, path + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from leaves(value, path + (i,))
    else:
        yield path


def fields_near(path) -> set[str]:
    """The dotted field of ``path`` (a list entry is its list's field), its
    enclosing sections and the fields its cross-field rules report at."""
    names = [key for key in path if isinstance(key, str)]
    leaf = ".".join(names)
    return {".".join(names[:i]) for i in range(1, len(names) + 1)} | CROSS.get(leaf, set())


@contextmanager
def deadline(seconds: int):
    def hang(signum, frame):
        raise TimeoutError(f"no answer in {seconds} s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def parse_fails_near(doc, path):
    """Parse ``doc`` under a 2 s alarm: None when it parses, else the failing field."""
    with deadline(2):
        try:
            parse_config(doc)
        except ConfigError as exc:
            assert exc.field_path in fields_near(path), (path, str(exc))
            return exc.field_path
    return None


@pytest.mark.parametrize("shipped", SHIPPED, ids=[p.stem for p in SHIPPED])
def test_every_leaf_and_value_parses_or_names_its_field(shipped):
    base = yaml.safe_load(shipped.read_text(encoding="utf-8"))
    assert parse_fails_near(base, ()) is None
    for path in leaves(base):
        for value in VALUES:
            doc = copy.deepcopy(base)
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            parse_fails_near(doc, path)


@pytest.mark.parametrize("n_samples", [2**62, 2**63, 2**63 + 5])
def test_unallocatable_sample_count_fails_at_n_samples(n_samples):
    # an equal-chunks layout costs O(parties), so only the size rule stops these
    doc = yaml.safe_load((SHIPPED[0].parent / "variance_probe.yaml").read_text(encoding="utf-8"))
    doc["dataset"]["n_samples"] = n_samples
    with pytest.raises(ConfigError) as err, deadline(2):
        parse_config(doc)
    assert err.value.field_path == "dataset.n_samples"


# (section, field, value): one numeric field pushed to an extreme that still validates
EXTREMES = [("model", "learning_rate", 1e6), ("model", "learning_rate", 1e-300),
            ("noise", "sigma", 1e200), ("noise", "sigma", 1e-300),
            ("noise", "clip_norm", 1e-300), ("noise", "clip_norm", 1e300),
            ("dataset", "separation", 1e6), ("model", "l2", 1e300)]

# the causes a run may fail with, as error.json records them: never a numpy
# warning's text or the JSON encoder's
NAMED_CAUSES = [
    ("ChainDiverged", r"non-finite utility at iteration \d+ "),
    ("RuntimeError", r"the \w+ replay at budget k=\d+ diverged at party \d+"),
    ("RuntimeError", r"retraining on \d+ parties \(seed \d+\) diverged"),
    ("ValueError", r"\w+ of party \d+ is \S+, which the result cannot hold"),
    ("ValueError", r"the \w+ probe's variance at budget k=\d+ is \S+, which has no log"),
]


def extreme_cases(doc):
    """The extremes a traced config holds the field of; l2 only where a logistic loss reads it."""
    for section, field, value in EXTREMES:
        if field in doc.get(section, {}) and (
                field != "l2" or doc["model"]["loss"] == "logistic_l2"):
            yield section, field, value


@pytest.mark.parametrize("kind", sorted(TRACED_CONFIGS))
def test_extreme_fields_run_or_name_their_cause(tmp_path, kind):
    failures = []
    for section, field, value in extreme_cases(TRACED_CONFIGS[kind]):
        doc = copy.deepcopy(TRACED_CONFIGS[kind])
        doc[section][field] = value
        doc.update(experiment=kind, seed=1, output_dir=str(tmp_path / "out"))
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        case = f"{section}.{field}={value}"
        with warnings.catch_warnings(record=True) as caught, deadline(10):
            warnings.simplefilter("always")
            code = cli.main(["run", str(path)])
        if caught:
            failures.append((case, [str(w.message) for w in caught]))
        if code == 1:
            record = json.loads((tmp_path / "out" / "error.json").read_text(encoding="utf-8"))
            if not any(record["error"] == error and re.match(cause, record["message"])
                       for error, cause in NAMED_CAUSES):
                failures.append((case, record))
        elif code != 0:
            failures.append((case, f"exit {code}"))
    assert not failures
