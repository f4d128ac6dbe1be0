"""Dataset ingestion and synthesis: IDX images, CSV tables and synthetic
Gaussian features, loaded without a bias column; subsets and splits, whose
rows ``_rows`` gathers with a constant-1 bias column appended; and the JSON
writer and decoders of the model checkpoints.

Datasets are immutable after load; all randomness is seeded.
"""
from __future__ import annotations

import base64
import csv as _csv
import dataclasses
import json
import math
import os
import struct

import numpy as np

from .errors import ConfigError, DomainError, FormatError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
# floats per base64 call in write_json: 8 * 1536 bytes is a multiple of 3,
# so the slices' texts join into the whole array's text, with no padding
ARRAY_SLICE = 3 * 512
ROWS_SLICE = 256  # rows per gather in a split or subset
# The named target rules of ``synthetic_gaussian``.
RULES = ("random_labels", "linear_teacher", "norm_threshold")


def is_count(value) -> bool:
    """A non-negative int; a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


@dataclasses.dataclass(frozen=True)
class Dataset:
    X: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) non-negative integer class indices

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "labels", np.asarray(self.labels))
        if X.ndim != 2:
            raise DomainError("X must be a 2-d matrix")
        if len(self.labels) != len(X):
            raise DomainError("labels length does not match X")
        if not np.all(np.isfinite(X)):
            raise DomainError("features must be finite")
        if not np.issubdtype(self.labels.dtype, np.integer) or np.any(self.labels < 0):
            raise DomainError("class labels must be non-negative integers")

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def num_classes(self) -> int:
        return int(self.labels.max()) + 1 if len(self.labels) else 0


def _read_exact(fh, count: int, what: str) -> bytes:
    """The next ``count`` bytes of ``fh``; a count the rest of the file cannot
    hold (a header's claim, say) is refused before anything is read."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if count > left:
        raise FormatError(f"truncated IDX file while reading {what}: "
                          f"{count} bytes claimed, {left} left")
    return fh.read(count)


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Parse big-endian IDX image/label files; pixels scaled to [0, 1].

    Images flatten to d = rows * cols (784 for the 28x28 corpora); byte 255
    maps to exactly 1.0 and byte 0 to exactly 0.0.
    """
    with open(images_path, "rb") as fh:
        magic, n, rows, cols = struct.unpack(">IIII", _read_exact(fh, 16, "header"))
        if magic != IDX_IMAGES_MAGIC:
            raise FormatError(f"bad image magic {magic:#010x}")
        raw = _read_exact(fh, n * rows * cols, "pixels")
    X = np.frombuffer(raw, dtype=np.uint8).astype(float).reshape(n, rows * cols)
    X /= 255.0
    with open(labels_path, "rb") as fh:
        magic, n_lab = struct.unpack(">II", _read_exact(fh, 8, "header"))
        if magic != IDX_LABELS_MAGIC:
            raise FormatError(f"bad label magic {magic:#010x}")
        raw = _read_exact(fh, n_lab, "labels")
    labels = np.frombuffer(raw, dtype=np.uint8).astype(np.int64)
    if n_lab != n:
        raise FormatError(f"image count {n} != label count {n_lab}")
    return Dataset(X=X, labels=labels)


def load_csv(path: str) -> Dataset:
    """Header row, float feature columns, final class-label column; errors
    name the data row, counted from 1 without blank lines."""
    with open(path, newline="") as fh:
        reader = _csv.reader(fh)
        try:
            width = len(next(reader))
        except StopIteration:
            raise FormatError("empty CSV file") from None
        rows = [row for row in reader if row]
    if not rows:
        raise FormatError("CSV has a header but no data rows")
    for i, row in enumerate(rows, 1):
        if len(row) != width:
            raise FormatError(f"CSV row {i} has {len(row)} fields; "
                              f"the header has {width}")
    try:
        data = np.asarray(rows, dtype=float)
    except ValueError as exc:
        raise FormatError(f"non-numeric CSV entry: {exc}") from None
    labels = data[:, -1]
    # whole numbers below the row count, so no class count outgrows the file;
    # checked before the cast, which warns on nan
    bad = ~((labels >= 0) & (labels < len(rows)) & (labels == np.floor(labels)))
    if bad.any():
        i = int(np.argmax(bad))
        raise DomainError(f"CSV row {i + 1}: label {rows[i][-1]!r}; class labels must "
                          f"be non-negative integers below the {len(rows)} data rows")
    return Dataset(X=data[:, :-1], labels=labels.astype(np.int64))


def synthetic_gaussian(
    n: int,
    d: int,
    rule: str = "random_labels",
    seed: int = 0,
    num_classes: int = 2,
) -> Dataset:
    """i.i.d. N(0, 1) features with class labels from the given rule.

    Rules (``RULES``): 'random_labels' (uniform classes), 'linear_teacher'
    (argmax of a planted linear map), 'norm_threshold' (class 1 iff
    ||x||^2 > d; a nonlinear boundary no linear model can express).
    """
    if n < 1 or d < 1:
        raise DomainError("n and d must be >= 1")
    ss = np.random.SeedSequence(seed)
    feat_rng, target_rng = (np.random.default_rng(s) for s in ss.spawn(2))
    X = feat_rng.standard_normal((n, d))
    if rule == "random_labels":
        labels = target_rng.integers(0, num_classes, size=n)
    elif rule == "linear_teacher":
        W = target_rng.standard_normal((d, num_classes))
        labels = np.argmax(X @ W, axis=1)
    elif rule == "norm_threshold":
        labels = (np.sum(X**2, axis=1) > d).astype(np.int64)
    else:
        raise ConfigError(f"unknown target rule {rule!r}; expected one of {RULES}")
    return Dataset(X=X, labels=labels)


def subset(dataset: Dataset, n_sub: int, seed: int) -> Dataset:
    """``n_sub`` rows drawn uniformly without replacement, in their original
    order, whose features end in a constant-1 column, as in
    ``train_test_split``. The draw reads no label, so changing a label
    never changes which rows are drawn."""
    if n_sub > dataset.n:
        raise ConfigError(f"n_sub={n_sub} exceeds dataset size {dataset.n}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    idx = np.sort(rng.permutation(dataset.n)[:n_sub])
    return Dataset(X=_rows(dataset.X, idx), labels=dataset.labels[idx])


def one_hot(labels: np.ndarray, k: int) -> np.ndarray:
    return np.eye(k)[np.asarray(labels, dtype=int)]


def _rows(X: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``X[idx]`` followed by a constant-1 column (affine gates and model), in
    one array.

    The rows are gathered ``ROWS_SLICE`` at a time, so no full-size
    temporary is allocated (and page-faulted) besides the result.
    """
    out = np.empty((len(idx), X.shape[1] + 1))
    for s in range(0, len(idx), ROWS_SLICE):
        out[s : s + ROWS_SLICE, :-1] = X[idx[s : s + ROWS_SLICE]]
    out[:, -1] = 1.0
    return out


def train_test_split(dataset: Dataset, n_test: int, seed: int):
    """Seeded split into (train, test) with n_test held-out rows.

    Each split's features end in a constant-1 column, written with the split
    itself, so no copy of the rows without it outlives the split.
    """
    if not (0 < n_test < dataset.n):
        raise ConfigError("n_test must be in (0, n)")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    perm = rng.permutation(dataset.n)
    test_idx, train_idx = np.sort(perm[:n_test]), np.sort(perm[n_test:])
    mk = lambda idx: Dataset(X=_rows(dataset.X, idx), labels=dataset.labels[idx])
    return mk(train_idx), mk(test_idx)


def write_json(path: str, payload: dict) -> None:
    """Write ``payload`` as one JSON object; an ndarray value is a string.

    The string is the base64 text of the array's little-endian float64
    bytes in C order (``read_array`` reverses it), so it round-trips bit for
    bit. Other values are written as ``json.dump`` writes them. An array is
    encoded ``ARRAY_SLICE`` floats at a time, so the writer holds one
    slice's text, not the whole array's.
    """
    with open(path, "w") as fh:
        fh.write("{")
        for i, (key, value) in enumerate(payload.items()):
            fh.write(("" if i == 0 else ", ") + json.dumps(key) + ": ")
            if not isinstance(value, np.ndarray):
                fh.write(json.dumps(value))
                continue
            fh.write('"')
            for s in range(0, value.size, ARRAY_SLICE):
                chunk = value.flat[s : s + ARRAY_SLICE].astype("<f8", copy=False)
                fh.write(base64.b64encode(chunk.tobytes()).decode("ascii"))
            fh.write('"')
        fh.write("}")


def read_checkpoint(path: str) -> dict:
    """The JSON object of the checkpoint at ``path``; DomainError if it holds none."""
    with open(path) as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise DomainError(f"checkpoint {path!r} is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise DomainError(f"checkpoint {path!r} holds a JSON {type(payload).__name__}, "
                          "not an object")
    return payload


def _field(payload: dict, key: str):
    if key not in payload:
        raise DomainError(f"checkpoint has no field {key!r}")
    return payload[key]


def read_number(payload: dict, key: str, count: bool = True):
    """The number ``write_json`` wrote under ``key``: a non-negative integer,
    or with ``count=False`` a non-negative finite number. A bool is no
    number; any other value, or none, raises DomainError."""
    value = _field(payload, key)
    ok = isinstance(value, int) if count else (
        isinstance(value, (int, float)) and math.isfinite(value))
    if isinstance(value, bool) or not ok or value < 0:
        what = "integer" if count else "finite number"
        raise DomainError(f"checkpoint field {key!r} is {value!r}, not a non-negative {what}")
    return value


def read_array(payload: dict, key: str, shape: tuple) -> np.ndarray:
    """The float64 array of ``shape`` that ``write_json`` wrote under ``key``.

    The result is native-endian, finite and writable. A value that is not
    base64 text of exactly ``8 * prod(shape)`` finite floats, or none,
    raises DomainError; a list is a checkpoint of an older version, which wrote
    decimal text. The text is decoded and checked ``ARRAY_SLICE`` floats at
    a time into the result, so besides the text the reader holds one slice's
    bytes, not the whole array's.
    """
    text, size = _field(payload, key), 8 * math.prod(shape)
    if isinstance(text, list):
        raise DomainError(f"checkpoint field {key!r} is a list of decimals: a "
                          "checkpoint of an older convexdp; load it with that version")
    if not isinstance(text, str) or len(text) % 4:
        raise DomainError(f"checkpoint field {key!r} is not base64 text")
    held = len(text) // 4 * 3 - text[-2:].count("=")
    if held != size:
        raise DomainError(f"checkpoint field {key!r} holds {held} bytes; "
                          f"shape {tuple(shape)} needs {size}")
    out = np.empty(size // 8)
    chars = 8 * ARRAY_SLICE // 3 * 4  # base64 characters per slice
    for i, s in enumerate(range(0, out.size, ARRAY_SLICE)):
        part = out[s : s + ARRAY_SLICE]
        try:
            raw = base64.b64decode(text[i * chars : (i + 1) * chars], validate=True)
            part[:] = np.frombuffer(raw, dtype="<f8")
        except ValueError as exc:
            raise DomainError(f"checkpoint field {key!r} is not base64 text: "
                              f"{exc}") from None
        if not np.isfinite(part).all():
            raise DomainError(f"checkpoint field {key!r} holds a non-finite value")
    return out.reshape(shape)
