from dataclasses import replace

import numpy as np
import pytest

from conftest import dataset_task
from dpvalue import _kernels, data, models


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


def test_load_csv_basic(tmp_path):
    p = write_csv(tmp_path / "d.csv", "a,b,label\n1,2,0\n3,4,1\n5,6,0\n7,8,1\n")
    ds = data.load_csv(p, data.CsvSchema(label="label"))
    assert ds.n_train == 4
    assert ds.features.shape == (4, 2)
    assert ds.n_parties == 4  # every sample its own party by default
    assert np.array_equal(ds.labels, [0, 1, 0, 1])


def test_load_csv_non_numeric_cell(tmp_path):
    p = write_csv(tmp_path / "d.csv", "a,label\n1,0\nx,1\n")
    with pytest.raises(ValueError, match=r"row 1.*'a'"):
        data.load_csv(p, data.CsvSchema(label="label"))


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_load_csv_non_finite_feature_cell(tmp_path, cell):
    # float() parses these; the run would only fail later, as a divergence
    p = write_csv(tmp_path / "d.csv", f"a,b,label\n1,2,0\n3,{cell},1\n")
    with pytest.raises(ValueError, match=r"non-finite value at row 1, column 'b'"):
        data.load_csv(p, data.CsvSchema(label="label"))


def test_load_csv_non_finite_regression_label(tmp_path):
    p = write_csv(tmp_path / "d.csv", "a,y\n1,0.5\n2,NaN\n3,1.5\n")
    with pytest.raises(ValueError, match=r"non-finite value at row 1, column 'y'"):
        data.load_csv(p, data.CsvSchema(label="y", task="regression"))


def test_load_csv_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        data.load_csv(tmp_path / "nope.csv", data.CsvSchema(label="label"))


def test_load_csv_single_class_rejected(tmp_path):
    p = write_csv(tmp_path / "d.csv", "a,label\n1,0\n2,0\n")
    with pytest.raises(ValueError, match="2 classes"):
        data.load_csv(p, data.CsvSchema(label="label"))


def test_load_csv_standardize(tmp_path):
    rng = np.random.default_rng(0)
    rows = ["f1,f2,label"]
    for i in range(50):
        rows.append(f"{rng.uniform(5, 9):.6f},{rng.uniform(-3, 3):.6f},{i % 2}")
    p = write_csv(tmp_path / "d.csv", "\n".join(rows) + "\n")
    ds = data.load_csv(p, data.CsvSchema(label="label", standardize=True, test_rows=10))
    assert ds.n_train == 40
    # recompute column means after load
    assert np.all(np.abs(ds.features.mean(axis=0)) < 1e-9)
    assert np.allclose(ds.features.std(axis=0), 1.0)


def test_load_csv_test_split_disjoint(tmp_path):
    p = write_csv(tmp_path / "d.csv", "a,label\n1,0\n2,1\n3,0\n4,1\n")
    ds = data.load_csv(p, data.CsvSchema(label="label", test_rows=2))
    assert ds.n_train == 2
    assert ds.test_features.shape[0] == 2
    assert set(ds.features[:, 0]).isdisjoint(set(ds.test_features[:, 0]))


def test_synth_balance_and_determinism():
    ds = data.synth_classification(400, 10, 2, seed=7, separation=3.0)
    assert ds.n_train == 400
    counts = np.bincount(ds.labels.astype(int))
    assert abs(counts[0] - counts[1]) <= 1
    ds2 = data.synth_classification(400, 10, 2, seed=7, separation=3.0)
    assert np.array_equal(ds.features, ds2.features)
    assert np.array_equal(ds.labels, ds2.labels)
    assert np.array_equal(ds.test_features, ds2.test_features)


def test_synth_wide_separation_is_learnable():
    ds = data.synth_classification(200, 8, 2, seed=3, separation=10.0, n_test=200)
    spec = models.ModelSpec("logistic_l2", 0.5, models.InitSpec("zeros"), l2=0.001)
    uspec = "test_accuracy"
    task = dataset_task(ds, spec, uspec)
    theta = models.train_one_pass(spec, task, np.arange(ds.n_parties), seed=0)
    assert _kernels.utility_np(theta, task) > 0.95


def test_synth_argument_validation():
    with pytest.raises(ValueError):
        data.synth_classification(0, 5, 2, seed=0, separation=1.0)
    with pytest.raises(ValueError):
        data.synth_classification(10, 0, 2, seed=0, separation=1.0)
    with pytest.raises(ValueError):
        data.synth_classification(10, 5, 1, seed=0, separation=1.0)


def test_corrupt_labels_counts_and_mask():
    ds = data.synth_classification(800, 5, 2, seed=1, separation=2.0)
    out = data.corrupt_labels(ds, 0.3, seed=5)
    assert out.corruption_mask.sum() == 240  # floor(0.3 * 800)
    changed = out.labels != ds.labels
    # every corrupted sample got a different label, nothing else moved
    assert np.array_equal(changed, out.corruption_mask)


def test_corrupt_labels_deterministic():
    ds = data.synth_classification(100, 4, 3, seed=3, separation=2.0)
    a = data.corrupt_labels(ds, 0.2, seed=7)
    b = data.corrupt_labels(ds, 0.2, seed=7)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.corruption_mask, b.corruption_mask)


def test_corrupt_labels_zero_ratio():
    ds = data.synth_classification(50, 4, 2, seed=2, separation=2.0)
    out = data.corrupt_labels(ds, 0.0, seed=9)
    assert not out.corruption_mask.any()
    assert np.array_equal(out.labels, ds.labels)


def test_dataset_rejects_an_empty_party():
    # a party index with no rows would give retraining and the chain an empty batch
    ds = data.synth_classification(6, 3, 2, seed=1, separation=3.0, n_test=4)
    with pytest.raises(ValueError, match="non-empty"):
        replace(ds, party_of=np.array([0, 0, 2, 2, 3, 3]))


def test_corrupt_labels_rejects_regression():
    ds = data.synth_classification(20, 4, 2, seed=2, separation=2.0)
    ds = data.PartitionedDataset(
        ds.features, ds.labels, ds.party_of, ds.test_features, ds.test_labels,
        task="regression",
    )
    with pytest.raises(ValueError):
        data.corrupt_labels(ds, 0.1, seed=0)
    with pytest.raises(ValueError):
        data.corrupt_labels(data.synth_classification(20, 4, 2, seed=2, separation=2.0), 1.0, seed=0)


def test_corrupt_multiclass_stays_in_range():
    ds = data.synth_classification(120, 5, 4, seed=6, separation=3.0)
    out = data.corrupt_labels(ds, 0.5, seed=8)
    assert out.labels.min() >= 0 and out.labels.max() <= 3
    flipped = out.labels[out.corruption_mask]
    orig = ds.labels[out.corruption_mask]
    assert np.all(flipped != orig)


def test_partition_per_sample():
    ds = data.synth_classification(400, 4, 2, seed=0, separation=2.0)
    out = data.partition(ds, 0, "per-sample")
    assert out.n_parties == 400
    assert np.all(np.bincount(out.party_of) == 1)


def test_partition_equal_chunks_pigeonhole():
    ds = data.synth_classification(10, 3, 2, seed=0, separation=2.0)
    out = data.partition(ds, 3, "equal-chunks")
    assert sorted(np.bincount(out.party_of), reverse=True) == [4, 3, 3]


def test_partition_by_size():
    ds = data.synth_classification(800, 3, 2, seed=0, separation=2.0)
    out = data.partition(ds, 100, "by-size", size=8)
    assert out.n_parties == 100
    assert np.all(np.bincount(out.party_of) == 8)
    with pytest.raises(ValueError):
        data.partition(ds, 101, "by-size", size=8)


def test_partition_is_a_partition():
    ds = data.synth_classification(101, 3, 2, seed=4, separation=2.0)
    out = data.partition(ds, 7, "equal-chunks")
    counts = np.bincount(out.party_of, minlength=out.n_parties)
    assert counts.sum() == out.n_train
    assert np.all(counts > 0)


def test_partition_validation():
    ds = data.synth_classification(10, 3, 2, seed=0, separation=2.0)
    with pytest.raises(ValueError):
        data.partition(ds, 0, "equal-chunks")
    with pytest.raises(ValueError):
        data.partition(ds, 11, "equal-chunks")
