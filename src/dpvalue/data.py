"""Dataset ingestion, synthetic generation, party partitioning, and label
corruption for the noisy-label experiments."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class PartitionedDataset:
    features: np.ndarray  # (n_train, d_feat), rows grouped by party
    labels: np.ndarray  # (n_train,)
    ptr: np.ndarray  # (n_parties + 1,) int64 CSR offsets: party j owns rows ptr[j]:ptr[j+1]
    test_features: np.ndarray
    test_labels: np.ndarray
    task: str = "classification"  # classification | regression
    corruption_mask: np.ndarray | None = None

    def __post_init__(self):
        n = self.features.shape[0]
        if self.labels.shape[0] != n:
            raise ValueError("features/labels length mismatch")
        ptr = self.ptr
        if ptr.ndim != 1 or len(ptr) < 2 or ptr[0] != 0 or ptr[-1] != n:
            raise ValueError(f"party offsets must run from 0 to the {n} training rows")
        if np.any(ptr[1:] <= ptr[:-1]):
            raise ValueError("party offsets must rise strictly: every party non-empty")
        if self.corruption_mask is not None and self.corruption_mask.shape[0] != n:
            raise ValueError("corruption mask length must equal n_train")
        if self.task not in ("classification", "regression"):
            raise ValueError(f"unknown task {self.task!r}")

    @property
    def n_train(self) -> int:
        return self.features.shape[0]

    @property
    def n_parties(self) -> int:
        return len(self.ptr) - 1

    @property
    def n_classes(self) -> int:
        if self.task != "classification":
            raise ValueError("n_classes undefined for regression")
        return int(self.labels.max()) + 1


@dataclass(frozen=True)
class CsvSchema:
    label: str
    task: str = "classification"
    standardize: bool = False
    test_rows: int = 0  # tail rows held out as the test split

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise ValueError(f"label must name a column, a non-empty string, got {self.label!r}")
        if self.task not in ("classification", "regression"):
            raise ValueError(f"unknown task {self.task!r}")
        if self.test_rows < 0:
            raise ValueError("test_rows must be >= 0")


class SplitError(ValueError):
    """A file that reads, but whose rows cannot hold the schema's test split."""


def _number(cell: str, row: int, column: str) -> float:
    """A finite float from a CSV cell; ``float()`` alone accepts nan and inf."""
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"non-numeric value at row {row}, column {column!r}: {cell!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value at row {row}, column {column!r}: {cell!r}")
    return value


def load_csv(path, schema: CsvSchema) -> PartitionedDataset:
    """Load a header-bearing CSV deterministically (file row order kept); every
    column but the label is a feature. Column names are unique and every row
    has one cell per column, a blank line included.

    With ``standardize`` the training feature columns are shifted/scaled to
    zero mean and unit variance and the same transform is applied to the test
    rows.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError("CSV file is empty")
        rows = list(reader)
    if schema.label not in header:
        raise ValueError(f"label column {schema.label!r} not in header {header}")
    col_of = {c: i for i, c in enumerate(header)}
    if len(col_of) < len(header):
        name = next(c for i, c in enumerate(header) if col_of[c] != i)
        raise ValueError(f"repeated column {name!r} in header {header}")
    feat_names = [c for c in header if c != schema.label]

    n = len(rows)
    values = np.empty((n, len(feat_names)))
    raw_labels = []
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise ValueError(f"row {r} has {len(row)} cells, the header {len(header)} columns")
        for c, name in enumerate(feat_names):
            values[r, c] = _number(row[col_of[name]], r, name)
        raw_labels.append(row[col_of[schema.label]])

    if schema.task == "regression":
        labels = np.array([_number(v, r, schema.label) for r, v in enumerate(raw_labels)])
    else:
        classes = sorted(set(raw_labels))
        if len(classes) < 2:
            raise ValueError(f"classification needs >= 2 classes, found {len(classes)}")
        lut = {c: i for i, c in enumerate(classes)}
        labels = np.array([lut[v] for v in raw_labels], dtype=np.float64)

    n_test = schema.test_rows
    if n_test >= n:
        raise SplitError(f"test_rows {n_test} leaves no training rows of the file's {n}")
    x_train, x_test = values[: n - n_test], values[n - n_test :]
    y_train, y_test = labels[: n - n_test], labels[n - n_test :]

    if schema.standardize:
        mean = x_train.mean(axis=0)
        std = x_train.std(axis=0)
        std[std == 0] = 1.0
        x_train = (x_train - mean) / std
        x_test = (x_test - mean) / std

    return PartitionedDataset(
        features=x_train,
        labels=y_train,
        ptr=np.arange(len(y_train) + 1, dtype=np.int64),
        test_features=x_test,
        test_labels=y_test,
        task=schema.task,
    )


def check_synth(n_samples: int, d_feat: int, n_classes: int, separation: float, n_test: int) -> None:
    """The shape rules of ``synth_classification``: each split's features
    are one float64 array, so rows * d_feat * 8 bytes must fit numpy's
    largest allocation (``intp``)."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    if n_test < 1:
        raise ValueError("need at least one test sample")
    if d_feat < 1:
        raise ValueError("need at least one feature")
    if max(n_samples, n_test) * d_feat > np.iinfo(np.intp).max // 8:
        raise ValueError(f"{max(n_samples, n_test)} rows of {d_feat} float64 features exceed "
                         "numpy's largest array")
    if n_classes < 2:
        raise ValueError("need at least two classes")
    if separation <= 0:
        raise ValueError("separation must be positive")


def synth_classification(
    n_samples: int,
    d_feat: int,
    n_classes: int,
    seed: int,
    separation: float,
    n_test: int | None = None,
) -> PartitionedDataset:
    """Isotropic Gaussian class blobs with class-mean spread ~ ``separation``.

    Labels are balanced to within one sample per class in both splits, and the
    whole construction is deterministic for a fixed seed.
    """
    if n_test is None:
        n_test = max(n_samples // 2, n_classes)
    check_synth(n_samples, d_feat, n_classes, separation, n_test)

    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((n_classes, d_feat))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means = 0.5 * separation * dirs

    def make_split(count, gen):
        base, extra = divmod(count, n_classes)
        counts = [base + (1 if c < extra else 0) for c in range(n_classes)]
        xs, ys = [], []
        for c, cnt in enumerate(counts):
            xs.append(means[c] + gen.standard_normal((cnt, d_feat)))
            ys.append(np.full(cnt, c, dtype=np.float64))
        x = np.vstack(xs)
        y = np.concatenate(ys)
        perm = gen.permutation(count)
        return x[perm], y[perm]

    x_train, y_train = make_split(n_samples, rng)
    x_test, y_test = make_split(n_test, rng)
    return PartitionedDataset(
        features=x_train,
        labels=y_train,
        ptr=np.arange(n_samples + 1, dtype=np.int64),
        test_features=x_test,
        test_labels=y_test,
        task="classification",
    )


def corruption_count(n: int, ratio: float, task: str) -> int:
    """Labels ``corrupt_labels`` flips among n labels of ``task``: floor(ratio * n)."""
    if not (0.0 <= ratio < 1.0):
        raise ValueError("ratio must lie in [0, 1)")
    if ratio > 0 and task != "classification":
        raise ValueError("label corruption needs classification labels")
    return int(ratio * n)


def corrupt_labels(ds: PartitionedDataset, ratio: float, seed: int) -> PartitionedDataset:
    """Flip exactly floor(ratio * n_train) labels to a uniform different class."""
    n = ds.n_train
    count = corruption_count(n, ratio, ds.task)
    n_classes = ds.n_classes
    mask = np.zeros(n, dtype=bool)
    labels = ds.labels.copy()
    if count:
        rng = np.random.default_rng(seed)
        chosen = rng.choice(n, size=count, replace=False)
        mask[chosen] = True
        for i in chosen:
            old = int(labels[i])
            r = int(rng.integers(0, n_classes - 1))
            labels[i] = r if r < old else r + 1
    return replace(ds, labels=labels, corruption_mask=mask)


def partition_mode(mode: str) -> str:
    if mode not in ("per-sample", "equal-chunks", "by-size"):
        raise ValueError(f"unknown partition mode {mode!r}")
    return mode


def party_layout(n: int, n_parties: int, mode: str, size: int | None = None) -> np.ndarray:
    """The CSR party offsets ``partition`` gives the first rows of n:
    ``per-sample`` makes every row a party, ``equal-chunks`` cuts the rows
    into n_parties nearly equal contiguous groups, and ``by-size`` keeps the
    first n_parties*size in groups of size."""
    if partition_mode(mode) == "per-sample":
        return np.arange(n + 1, dtype=np.int64)
    if n_parties < 1:
        raise ValueError("n_parties must be >= 1")
    if n_parties > n:
        raise ValueError(f"more parties ({n_parties}) than training samples ({n})")
    j = np.arange(n_parties + 1, dtype=np.int64)
    if mode == "equal-chunks":
        base, extra = divmod(n, n_parties)
        return base * j + np.minimum(j, extra)
    if size is None or size < 1:
        raise ValueError("by-size needs a positive party size")
    if n_parties * size > n:
        raise ValueError(f"n_parties*size = {n_parties * size} exceeds {n} training samples")
    return size * j


def partition(ds: PartitionedDataset, n_parties: int, mode: str, size: int | None = None) -> PartitionedDataset:
    """Reassign training samples to parties by ``party_layout``."""
    ptr = party_layout(ds.n_train, n_parties, mode, size)
    keep = ptr[-1]
    mask = ds.corruption_mask[:keep] if ds.corruption_mask is not None else None
    return replace(
        ds,
        features=ds.features[:keep],
        labels=ds.labels[:keep],
        ptr=ptr,
        corruption_mask=mask,
    )
