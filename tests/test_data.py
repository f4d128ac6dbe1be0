"""Dataset utilities: a hand-built IDX byte fixture, CSV parsing, synthetic
target rules, stratified subsetting and splits."""
import struct
from pathlib import Path

import numpy as np
import pytest

from convexdp import data
from convexdp.errors import ConfigError, DomainError, FormatError


def write_idx_pair(tmp_path, pixels, labels, image_magic=0x00000803,
                   label_magic=0x00000801, label_count=None):
    """Serialize a (n, rows, cols) uint8 array and labels as IDX files."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    n, rows, cols = pixels.shape
    img = tmp_path / "images.idx"
    lab = tmp_path / "labels.idx"
    img.write_bytes(
        struct.pack(">IIII", image_magic, n, rows, cols) + pixels.tobytes()
    )
    labels = np.asarray(labels, dtype=np.uint8)
    lab.write_bytes(
        struct.pack(">II", label_magic,
                    len(labels) if label_count is None else label_count)
        + labels.tobytes()
    )
    return str(img), str(lab)


def test_load_idx_hand_fixture(tmp_path):
    # two 2x2 "images" with known bytes; 255 -> 1.0 and 0 -> 0.0 exactly
    pixels = np.array(
        [[[0, 255], [128, 1]], [[7, 0], [0, 255]]], dtype=np.uint8
    )
    img, lab = write_idx_pair(tmp_path, pixels, [3, 9])
    ds = data.load_idx(img, lab)
    assert ds.X.shape == (2, 4)
    np.testing.assert_array_equal(ds.X[0], [0.0, 1.0, 128 / 255, 1 / 255])
    np.testing.assert_array_equal(ds.X[1], [7 / 255, 0.0, 0.0, 1.0])
    np.testing.assert_array_equal(ds.labels, [3, 9])
    assert ds.normalization == "pixel/255"


def test_load_idx_bad_magic(tmp_path):
    img, lab = write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0],
                              image_magic=0x00000801)
    with pytest.raises(FormatError):
        data.load_idx(img, lab)


def test_load_idx_count_mismatch(tmp_path):
    img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2)), [0, 1, 1])
    with pytest.raises(FormatError):
        data.load_idx(img, lab)


def test_load_idx_truncated(tmp_path):
    img, lab = write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0])
    Path(img).write_bytes(Path(img).read_bytes()[:-2])
    with pytest.raises(FormatError):
        data.load_idx(img, lab)


def test_load_csv(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,label\n1.5,2.0,0\n-0.5,3.25,1\n")
    ds = data.load_csv(str(path))
    np.testing.assert_array_equal(ds.X, [[1.5, 2.0], [-0.5, 3.25]])
    np.testing.assert_array_equal(ds.labels, [0, 1])
    assert ds.labels.dtype == np.int64
    assert ds.num_classes == 2


def test_load_csv_real_targets(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,y\n1.0,0.5\n2.0,1.5\n")
    ds = data.load_csv(str(path))
    assert ds.labels.dtype == float
    with pytest.raises(DomainError):
        _ = ds.num_classes


def test_load_csv_errors(tmp_path):
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(FormatError):
        data.load_csv(str(empty))
    bad = tmp_path / "b.csv"
    bad.write_text("a,y\n1.0,zebra\n")
    with pytest.raises(FormatError):
        data.load_csv(str(bad))


def test_synthetic_rules():
    ds = data.synthetic_gaussian(500, 8, rule="norm_threshold", seed=0)
    np.testing.assert_array_equal(
        ds.labels, (np.sum(ds.X**2, axis=1) > 8).astype(int)
    )
    lt = data.synthetic_gaussian(100, 4, rule="linear_teacher", seed=1,
                                 num_classes=3)
    assert set(np.unique(lt.labels)) <= {0, 1, 2}
    explicit = data.synthetic_gaussian(5, 2, rule=[0, 1, 0, 1, 1], seed=2)
    np.testing.assert_array_equal(explicit.labels, [0, 1, 0, 1, 1])
    with pytest.raises(ConfigError):
        data.synthetic_gaussian(5, 2, rule="moons")


def test_synthetic_deterministic_and_feature_target_streams_independent():
    a = data.synthetic_gaussian(50, 3, rule="random_labels", seed=4)
    b = data.synthetic_gaussian(50, 3, rule="random_labels", seed=4)
    np.testing.assert_array_equal(a.X, b.X)
    np.testing.assert_array_equal(a.labels, b.labels)
    # switching the rule must not perturb the feature stream
    c = data.synthetic_gaussian(50, 3, rule="norm_threshold", seed=4)
    np.testing.assert_array_equal(a.X, c.X)


def test_subset_stratified_counts():
    ds = data.synthetic_gaussian(1000, 4, rule="random_labels", seed=7,
                                 num_classes=4)
    sub = data.subset(ds, 100, seed=1)
    assert sub.n == 100
    _, full_counts = np.unique(ds.labels, return_counts=True)
    _, sub_counts = np.unique(sub.labels, return_counts=True)
    for fc, sc in zip(full_counts, sub_counts):
        assert abs(sc - fc * 0.1) <= 1.0  # largest-remainder proportionality


def test_train_test_split_disjoint():
    ds = data.synthetic_gaussian(100, 3, rule="random_labels", seed=0)
    train, test = data.train_test_split(ds, 25, seed=3)
    assert train.n == 75 and test.n == 25
    joined = np.vstack([train.X, test.X])
    # every original row appears exactly once across the two splits
    assert np.unique(joined, axis=0).shape[0] == 100


def test_one_hot():
    np.testing.assert_array_equal(
        data.one_hot([0, 2, 1], k=3),
        [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
    )
