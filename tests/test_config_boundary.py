"""The config boundary, fuzzed: every leaf of every shipped config and of one
base document per kind, set to each of a fixed list of awkward values,
either parses or fails as a ``ConfigError`` on a field near the cause, and
never hangs; together the documents set every field the parse reads. Past the
boundary, a tiny run of every traced kind with one numeric field at an
extreme that validates, or with a gaussian init of extreme scale, either
succeeds or fails with a cause the engine names, and warns of nothing."""

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
from conftest import KIND_DOCS, LOGISTIC, TRACED_CONFIGS

from dpvalue import cli, config
from dpvalue.config import ConfigError, parse_config

SHIPPED = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.yaml"))

# One base per kind, its small config (the traced one where it has two), and a
# second document only where the sweep needs fields those leave unset: valuation
# reads data.csv with every optional field of its parse, and noisy-label sets a
# q_grid, which the traced documents cannot carry. With the shipped configs they
# set every field the parse reads.
BASES = KIND_DOCS | TRACED_CONFIGS | {
    "valuation": {
        "experiment": "valuation", "seed": 1, "k": 12, "output_dir": "out",
        "dataset": {"source": "csv", "path": "data.csv", "label": "y", "task": "classification",
                    "standardize": True, "test_rows": 10, "corrupt_ratio": 0.25,
                    "partition": {"mode": "by-size", "n_parties": 4, "size": 3}},
        "model": dict(LOGISTIC, add_bias=True, init={"kind": "gaussian", "scale": 0.1}),
        "utility": "neg_test_loss",
        "noise": {"clip_norm": 1.0, "sigma_g_sq": 0.5, "epsilon": 1.0, "delta": 1e-5,
                  "mode": "corr_y", "q": 0.5},
        "semivalue": {"kind": "beta", "alpha": 4.0, "beta": 1.0}},
    "noisy-label": dict(KIND_DOCS["noisy-label"], noisy_label={
        "modes": ["no_dp", "iid", "corr_y"], "q": 0.5, "q_grid": [0.0, 0.25]}),
}
SWEPT = {path.stem: yaml.safe_load(path.read_text(encoding="utf-8")) for path in SHIPPED} | {
    f"base-{kind}": doc for kind, doc in BASES.items()}

VALUES = [math.nan, math.inf, -math.inf, 10**400, -10**400, 2**63, 1e308, -1e308, 1e-320,
          -1, 0, 0.5, 3, 1e6, True, "x", "", [], [1], {}, {"a": 1}, None]

# rules that tie two fields report at the field the README names for them
CROSS = {
    "k": {"noise.q", "noisy_label.q"},  # corr_y's burn-in k*q must be integral
    "dataset.n_samples": {"dataset.partition.n_parties", "dataset.corrupt_ratio",
                          "semivalue.kind"},  # parties within the rows; corrupted rows; weights cap
    "noise.epsilon": {"noise.sigma"},  # sigma or epsilon must be given
    "probe.ks": {"probe.q"},  # each budget's burn-in k*q
    "federated.rounds": {"federated.q"},  # the rounds' burn-in
    "dataset.n_classes": {"model.loss", "utility"},  # logistic_l2, test_accuracy: labels in {0, 1}
    "dataset.label": {"dataset.path"},  # the label names a column of the file
    "noise.sigma": {"noisy_label.modes"},  # iid at sigma 0 repeats the no_dp run
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


@pytest.fixture
def csv_dir(tmp_path, monkeypatch):
    """Run in ``tmp_path``, beside the data.csv of the valuation base: 30 rows,
    the last 10 its test split."""
    (tmp_path / "data.csv").write_text(
        "a,b,y\n" + "".join(f"{i},{i % 3},{i % 2}\n" for i in range(30)), encoding="utf-8")
    monkeypatch.chdir(tmp_path)


@pytest.mark.parametrize("name", SWEPT)
def test_every_leaf_and_value_parses_or_names_its_field(csv_dir, name):
    base = SWEPT[name]
    assert parse_fails_near(base, ()) is None
    for path in leaves(base):
        for value in VALUES:
            doc = copy.deepcopy(base)
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            parse_fails_near(doc, path)


def test_sweep_sets_every_field_the_parse_reads(csv_dir, monkeypatch):
    # a field the parse reads but no swept document sets is never fuzzed
    made = []

    class Recorded(config._Fields):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(config, "_Fields", Recorded)
    for doc in SWEPT.values():
        parse_config(doc)
    read = {f"{fields.path}.{key}" if fields.path else key for fields in made for key in fields.read}
    swept = {".".join(key for key in path if isinstance(key, str))
             for doc in SWEPT.values() for path in leaves(doc)}
    assert sorted(field for field in read
                  if not any(leaf == field or leaf.startswith(field + ".") for leaf in swept)) == []


@pytest.mark.parametrize("name", SWEPT)
def test_each_section_has_one_recorder(csv_dir, monkeypatch, name):
    # a key read only through a second recorder of its section would be reported as unread
    paths = []

    class Recorded(config._Fields):
        def __init__(self, mapping, path, sections):
            super().__init__(mapping, path, sections)
            paths.append(path)

    monkeypatch.setattr(config, "_Fields", Recorded)
    parse_config(SWEPT[name])
    assert sorted(path for path in set(paths) if paths.count(path) > 1) == []


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
INIT_SCALES = [1e200, 1e308]  # a gaussian init, set in every traced config; 1e308 overflows

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
    """The extremes a traced config holds the field of, l2 only where a logistic loss reads it,
    then a gaussian init at each of ``INIT_SCALES``."""
    for section, field, value in EXTREMES:
        if field in doc.get(section, {}) and (
                field != "l2" or doc["model"]["loss"] == "logistic_l2"):
            yield section, field, value
    for scale in INIT_SCALES:
        yield "model", "init", {"kind": "gaussian", "scale": scale}


@pytest.mark.parametrize("kind", sorted(TRACED_CONFIGS))
def test_extreme_fields_run_or_name_their_cause(tmp_path, kind):
    failures = []
    for section, field, value in extreme_cases(TRACED_CONFIGS[kind]):
        doc = copy.deepcopy(TRACED_CONFIGS[kind])
        doc[section][field] = value
        doc.update(seed=1, output_dir=str(tmp_path / "out"))
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
