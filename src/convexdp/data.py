"""Dataset ingestion and synthesis: IDX images, CSV tables, synthetic
Gaussian features, subset selection and train/test splits.

Datasets are immutable after load; all randomness is seeded.
"""
from __future__ import annotations

import csv as _csv
import dataclasses
import struct
from typing import Optional, Sequence, Union

import numpy as np

from .errors import ConfigError, DomainError, FormatError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclasses.dataclass(frozen=True)
class Dataset:
    X: np.ndarray  # (n, d) float64
    labels: np.ndarray  # int class indices, or float targets for regression
    name: str = ""
    normalization: str = "none"

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

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def num_classes(self) -> int:
        if not np.issubdtype(self.labels.dtype, np.integer):
            raise DomainError("dataset has real-valued targets, not classes")
        return int(self.labels.max()) + 1 if len(self.labels) else 0


def _read_exact(fh, count: int, what: str) -> bytes:
    buf = fh.read(count)
    if len(buf) != count:
        raise FormatError(f"truncated IDX file while reading {what}")
    return buf


def load_idx(images_path: str, labels_path: str, name: str = "idx") -> Dataset:
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
    return Dataset(X=X, labels=labels, name=name, normalization="pixel/255")


def load_csv(path: str, name: str = "csv") -> Dataset:
    """Header row, float feature columns, final label column."""
    with open(path, newline="") as fh:
        reader = _csv.reader(fh)
        try:
            next(reader)  # header
        except StopIteration:
            raise FormatError("empty CSV file") from None
        rows = [row for row in reader if row]
    if not rows:
        raise FormatError("CSV has a header but no data rows")
    try:
        data = np.asarray(rows, dtype=float)
    except ValueError as exc:
        raise FormatError(f"non-numeric CSV entry: {exc}") from None
    labels = data[:, -1]
    if np.allclose(labels, np.round(labels)):
        labels = labels.astype(np.int64)
    return Dataset(X=data[:, :-1], labels=labels, name=name)


def synthetic_gaussian(
    n: int,
    d: int,
    rule: Union[str, np.ndarray, Sequence[float]] = "random_labels",
    seed: int = 0,
    num_classes: int = 2,
    name: str = "synthetic",
) -> Dataset:
    """i.i.d. N(0, 1) features with targets from the given rule.

    Rules: 'random_labels' (uniform classes), 'linear_teacher' (argmax of a
    planted linear map), 'norm_threshold' (class 1 iff ||x||^2 > d; a
    nonlinear boundary no linear model can express), or an explicit target
    vector.
    """
    if n < 1 or d < 1:
        raise DomainError("n and d must be >= 1")
    ss = np.random.SeedSequence(seed)
    feat_rng, target_rng = (np.random.default_rng(s) for s in ss.spawn(2))
    X = feat_rng.standard_normal((n, d))
    if isinstance(rule, str):
        if rule == "random_labels":
            labels = target_rng.integers(0, num_classes, size=n)
        elif rule == "linear_teacher":
            W = target_rng.standard_normal((d, num_classes))
            labels = np.argmax(X @ W, axis=1)
        elif rule == "norm_threshold":
            labels = (np.sum(X**2, axis=1) > d).astype(np.int64)
        else:
            raise ConfigError(f"unknown target rule {rule!r}")
    else:
        labels = np.asarray(rule)
        if len(labels) != n:
            raise ConfigError("explicit target vector length != n")
    return Dataset(X=X, labels=labels, name=name)


def subset(dataset: Dataset, n_sub: int, seed: int) -> Dataset:
    """Uniform WOR subset; class-stratified for categorical labels.

    Stratification uses largest-remainder allocation, so per-class counts
    differ by at most 1 from proportionality.
    """
    if n_sub > dataset.n:
        raise ConfigError(f"n_sub={n_sub} exceeds dataset size {dataset.n}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if n_sub == dataset.n:
        return dataset
    if np.issubdtype(dataset.labels.dtype, np.integer):
        classes, counts = np.unique(dataset.labels, return_counts=True)
        exact = counts * (n_sub / dataset.n)
        take = np.floor(exact).astype(int)
        rem = exact - take
        short = n_sub - take.sum()
        for idx in np.argsort(-rem)[:short]:
            take[idx] += 1
        chosen = []
        for cls, cnt in zip(classes, take):
            pool = np.flatnonzero(dataset.labels == cls)
            chosen.append(rng.permutation(pool)[:cnt])
        idx = np.sort(np.concatenate(chosen))
    else:
        idx = np.sort(rng.permutation(dataset.n)[:n_sub])
    return Dataset(
        X=dataset.X[idx],
        labels=dataset.labels[idx],
        name=f"{dataset.name}[{n_sub}]",
        normalization=dataset.normalization,
    )


def one_hot(labels: np.ndarray, k: Optional[int] = None) -> np.ndarray:
    labels = np.asarray(labels, dtype=int)
    k = int(labels.max()) + 1 if k is None else k
    return np.eye(k)[labels]


def train_test_split(dataset: Dataset, n_test: int, seed: int):
    """Seeded split into (train, test) with n_test held-out rows."""
    if not (0 < n_test < dataset.n):
        raise ConfigError("n_test must be in (0, n)")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    perm = rng.permutation(dataset.n)
    test_idx, train_idx = np.sort(perm[:n_test]), np.sort(perm[n_test:])
    mk = lambda idx, tag: Dataset(
        X=dataset.X[idx],
        labels=dataset.labels[idx],
        name=f"{dataset.name}/{tag}",
        normalization=dataset.normalization,
    )
    return mk(train_idx, "train"), mk(test_idx, "test")
