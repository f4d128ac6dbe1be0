"""Dataset utilities: a hand-built IDX byte fixture, CSV parsing, synthetic
target rules, uniform subsetting, splits and the bias column, and the
JSON writer and the array and number decoders of the checkpoints."""
import base64
import io
import json
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from convexdp import baseline_relu as br
from convexdp import convex_dual as cd
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


def test_load_idx_refuses_pixels_past_the_file_size(tmp_path):
    # 0xFFFFFFFF x 255 x 255 pixels: refused against the file's size, not
    # first by a read of 2.8e14 bytes.
    img, lab = write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0])
    Path(img).write_bytes(struct.pack(">IIII", 0x803, 0xFFFFFFFF, 255, 255) + bytes(4))
    with pytest.raises(FormatError, match=f"pixels: {0xFFFFFFFF * 255 * 255} bytes "
                                          "claimed, 4 left"):
        data.load_idx(img, lab)


def test_load_idx_refuses_labels_past_the_file_size(tmp_path):
    img, lab = write_idx_pair(tmp_path, np.zeros((1, 2, 2)), [0], label_count=0xFFFFFFFF)
    with pytest.raises(FormatError, match="labels: 4294967295 bytes claimed, 1 left"):
        data.load_idx(img, lab)


def test_load_csv(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("a,b,label\n1.5,2.0,0\n-0.5,3.25,1\n")
    ds = data.load_csv(str(path))
    np.testing.assert_array_equal(ds.X, [[1.5, 2.0], [-0.5, 3.25]])
    np.testing.assert_array_equal(ds.labels, [0, 1])
    assert ds.labels.dtype == np.int64
    assert ds.num_classes == 2


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_load_csv_real_targets(tmp_path):
    # A label that is not a whole number in int64's range is refused, naming
    # its row, before any cast to integers could warn or wrap.
    path = tmp_path / "t.csv"
    for label in ("0.5", "100.0004", "-1", "nan", "inf", "1e300"):
        path.write_text(f"a,y\n1.0,0\n2.0,{label}\n3.0,1\n")
        with pytest.raises(DomainError, match=f"row 2: label '{label}'; class "
                                              "labels must be non-negative integers"):
            data.load_csv(str(path))


def test_load_csv_refuses_labels_past_the_row_count(tmp_path):
    # A class index no row count can fill would size the model's k from it:
    # labels 250000 and 1 would mean 250001 classes of weights.
    path = tmp_path / "t.csv"
    path.write_text("a,y\n1.0,250000\n2.0,1\n")
    with pytest.raises(DomainError, match="row 1: label '250000'; class labels must "
                                          "be non-negative integers below the 2 data rows"):
        data.load_csv(str(path))
    path.write_text("a,y\n1.0,0\n2.0,3\n3.0,1\n")
    with pytest.raises(DomainError, match="row 2: label '3'"):
        data.load_csv(str(path))
    path.write_text("a,y\n1.0,0\n2.0,2\n3.0,1\n")
    assert data.load_csv(str(path)).num_classes == 3


def test_load_csv_errors(tmp_path):
    empty = tmp_path / "e.csv"
    empty.write_text("")
    with pytest.raises(FormatError):
        data.load_csv(str(empty))
    bad = tmp_path / "b.csv"
    bad.write_text("a,y\n1.0,zebra\n")
    with pytest.raises(FormatError):
        data.load_csv(str(bad))
    ragged = tmp_path / "r.csv"
    ragged.write_text("a,b,y\n1.0,2.0,0\n\n3.0,1\n")
    with pytest.raises(FormatError, match="CSV row 2 has 2 fields; the header has 3"):
        data.load_csv(str(ragged))


def test_synthetic_rules():
    ds = data.synthetic_gaussian(500, 8, rule="norm_threshold", seed=0)
    np.testing.assert_array_equal(
        ds.labels, (np.sum(ds.X**2, axis=1) > 8).astype(int)
    )
    lt = data.synthetic_gaussian(100, 4, rule="linear_teacher", seed=1,
                                 num_classes=3)
    assert set(np.unique(lt.labels)) <= {0, 1, 2}
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


def test_subset_rows_do_not_depend_on_labels():
    # The draw reads no label, so changing one label leaves every drawn row
    # in place.
    ds = data.synthetic_gaussian(1000, 4, rule="random_labels", seed=7,
                                 num_classes=4)
    labels = ds.labels.copy()
    labels[0] = (labels[0] + 1) % 4
    relabelled = data.Dataset(X=ds.X, labels=labels)
    sub = data.subset(ds, 100, seed=1)
    assert sub.n == 100
    np.testing.assert_array_equal(data.subset(relabelled, 100, seed=1).X, sub.X)


def test_train_test_split_disjoint():
    ds = data.synthetic_gaussian(100, 3, rule="random_labels", seed=0)
    train, test = data.train_test_split(ds, 25, seed=3)
    assert train.n == 75 and test.n == 25
    joined = np.vstack([train.X, test.X])
    # every original row appears exactly once across the two splits
    assert np.unique(joined, axis=0).shape[0] == 100


def test_bias_column_and_biased_subset_append_ones():
    # The gather runs ROWS_SLICE rows at a time; the full subset spans a
    # ragged last slice.
    ds = data.synthetic_gaussian(2 * data.ROWS_SLICE + 3, 4, rule="random_labels",
                                 seed=7, num_classes=4)
    ones = lambda A: np.hstack([A, np.ones((len(A), 1))])
    assert np.array_equal(data.subset(ds, ds.n, seed=1).X, ones(ds.X))
    sub = data.subset(ds, 100, seed=1)
    idx = [np.flatnonzero((ds.X == x).all(axis=1))[0] for x in sub.X[:, :-1]]
    assert np.array_equal(sub.X, ones(ds.X[idx]))
    assert np.array_equal(sub.labels, ds.labels[idx])


def test_one_hot():
    np.testing.assert_array_equal(
        data.one_hot([0, 2, 1], k=3),
        [[1, 0, 0], [0, 0, 1], [0, 1, 0]],
    )


def test_write_json_matches_json_dump(tmp_path):
    # Arrays that are empty, shorter than a slice, exactly one slice and a
    # ragged number of slices, beside lists, scalars, strings and a nested
    # dict. Each array is the base64 text of its whole little-endian
    # float64 bytes, although the writer encodes it a slice at a time.
    n = data.ARRAY_SLICE
    rng = np.random.default_rng(0)
    payload = {"empty": np.empty(0), "one": np.array([0.1]),
               "slice": rng.standard_normal(n),
               "ragged": 1e-7 * rng.standard_normal((2 * n + 3, 1)),
               "ints": list(range(5)), "flag": True, "lambda": 0.25, "name": "a\"b",
               "nested": {"x": [1.5, -2.0]}}
    path = tmp_path / "out.json"
    data.write_json(str(path), payload)
    expected = io.StringIO()
    json.dump({key: base64.b64encode(value.astype("<f8").tobytes()).decode()
               if isinstance(value, np.ndarray) else value
               for key, value in payload.items()}, expected)
    assert path.read_text() == expected.getvalue()
    data.write_json(str(path), {})
    assert path.read_text() == "{}"


def roundtrip(tmp_path, array):
    path = tmp_path / "array.json"
    data.write_json(str(path), {"a": array})
    return data.read_array(json.loads(path.read_text()), "a", array.shape)


@pytest.mark.parametrize("values", [
    [-0.0, 0.0, 5e-324, -5e-324, 1.7e308, -1.7e308, 1.0, np.pi],
    np.random.default_rng(1).standard_normal(3 * data.ARRAY_SLICE + 7),
], ids=["extremes", "three-slices-and-ragged"])
def test_array_roundtrip_is_bit_exact(tmp_path, values):
    array = np.asarray(values, dtype=float)
    back = roundtrip(tmp_path, array)
    assert back.tobytes() == array.tobytes()  # -0.0 keeps its sign bit
    assert back.dtype == np.float64 and back.dtype.isnative
    assert back.flags.writeable and back.flags.c_contiguous


def test_array_roundtrip_keeps_logical_order(tmp_path):
    # A transposed view and a big-endian array are written in C order of
    # their values, and come back native-endian.
    a = np.random.default_rng(2).standard_normal((3, 5, 2))
    for array in (a.transpose(2, 0, 1), a.astype(">f8"), a[:, ::2, :]):
        back = roundtrip(tmp_path, array)
        assert back.dtype.isnative
        assert back.shape == array.shape
        assert back.tobytes() == np.ascontiguousarray(array, dtype=float).tobytes()


def test_read_array_refuses_wrong_length_and_lists():
    text = base64.b64encode(np.arange(6.0).tobytes()).decode()
    assert data.read_array({"V": text}, "V", (2, 3)).tolist() == [[0, 1, 2], [3, 4, 5]]
    for shape in [(2, 2), (2, 4), (7,)]:
        with pytest.raises(DomainError, match="holds 48 bytes"):
            data.read_array({"V": text}, "V", shape)
    with pytest.raises(DomainError, match="holds 45 bytes"):
        data.read_array({"V": text[:-4]}, "V", (2, 3))
    with pytest.raises(DomainError, match="base64"):
        data.read_array({"V": text[:-1]}, "V", (2, 3))  # bad padding
    with pytest.raises(DomainError, match="older"):
        data.read_array({"V": [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]}, "V", (2, 3))


def test_read_array_refuses_text_that_is_not_base64():
    # The text is decoded a slice at a time; a bad character or a padding in
    # a later slice is refused as well as one in the first.
    text = base64.b64encode(np.arange(3.0 * data.ARRAY_SLICE).tobytes()).decode()
    cut = 8 * data.ARRAY_SLICE // 3 * 4 + 100  # inside the second slice
    for bad in (text[:cut] + "!" + text[cut + 1 :], text[:cut] + "=" + text[cut + 1 :],
                text[:10] + "\u00e9" + text[11:]):
        with pytest.raises(DomainError, match="base64"):
            data.read_array({"V": bad}, "V", (3, data.ARRAY_SLICE))
    with pytest.raises(DomainError, match="base64"):
        data.read_array({"V": 5}, "V", (1,))


# A checkpoint reader's scalar field that is not a non-negative integer (or,
# for lambda, a non-negative finite number). Unchecked, each would raise a
# TypeError, misstate the array size, or load (a negative seed).
BAD_SCALARS = {
    "lambda-string": (cd, "lambda", "x"),
    "k-float": (cd, "k", 2.0),
    "m-float": (br, "m", 4.0),
    "P-string": (cd, "P", "2"),
    "d-bool": (cd, "d", True),
    "seed-negative": (cd, "seed", -1),
}


@pytest.mark.parametrize("module, key, value", BAD_SCALARS.values(), ids=BAD_SCALARS)
def test_checkpoint_scalar_field_is_refused(module, key, value, tmp_path):
    # A one-feature dual model: d = true equals its d, and only its type is wrong.
    obj = (cd.DualObjective(cd.sample_arrangement(1, 2, 0), k=2, lam=0.5)
           if module is cd else br.MLPObjective(3, 2, m=4))
    path = tmp_path / "model.json"
    obj.save_checkpoint(obj.init_params(0), str(path))
    payload = json.loads(path.read_text())
    path.write_text(json.dumps(dict(payload, **{key: value})))
    with pytest.raises(DomainError, match=f"checkpoint field '{key}' is {value!r}, not"):
        module.load_checkpoint(str(path), "mse")


def test_read_array_refuses_non_finite_values():
    # Every slice is checked, the last of a ragged number too.
    for value in (np.nan, np.inf, -np.inf):
        array = np.arange(2.0 * data.ARRAY_SLICE + 3)
        array[-1] = value
        text = base64.b64encode(array.tobytes()).decode()
        with pytest.raises(DomainError, match="'V' holds a non-finite value"):
            data.read_array({"V": text}, "V", array.shape)


def test_read_array_holds_one_copy_of_the_array():
    # Besides the JSON text, the reader allocates the result and one slice:
    # no whole decoded bytes object, and no second native copy.
    array = np.random.default_rng(3).standard_normal(200 * data.ARRAY_SLICE + 5)
    payload = {"V": base64.b64encode(array.tobytes()).decode()}
    tracemalloc.start()
    try:
        back = data.read_array(payload, "V", array.shape)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back.tobytes() == array.tobytes()
    assert peak <= 1.1 * array.nbytes, (peak, array.nbytes)
