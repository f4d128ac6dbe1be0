"""DP optimizers: subsampled DP-SGD and noisy cyclic mini-batch GD, two
batch schedules of one noisy mini-batch loop.

Privacy unit: exactly the per-example data-term gradient is clipped; the
ridge gradient lam * theta is added after averaging, unclipped, so the
per-step substitution sensitivity is 2C.

RNG discipline: batch selection and noise come from independent streams,
each from its own config seed, so removing noise never shifts batch
sampling. The noise stream is one sequential generator, but its draws run
one block ahead of the update on a worker thread, so they overlap the
gradient (see ``_noise_rows``) and the per-epoch evaluation. The worker is
pinned to the CPUs the process may use other than the one the loop thread
is on, since a kernel that does not balance load keeps a new thread on its
parent's CPU; with no such CPU there is no worker and each block is drawn
inline. The worker never calls BLAS: it only fills preallocated buffers
from the generator.
"""
from __future__ import annotations

import contextlib
import dataclasses
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional

import numpy as np

from .data import is_count
from .errors import ConfigError, NumericError


# ---------------------------------------------------------------------------
# Config
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class DPSGDConfig:
    C: float
    sigma: float
    b: int
    eta: float
    epochs: int
    seed: int
    noise_seed: int

    def __post_init__(self):
        for name in ("seed", "noise_seed"):
            if not is_count(value := getattr(self, name)):
                raise ConfigError(f"{name}: must be a non-negative integer, got {value!r}")
        for name in ("C", "sigma", "eta"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0 or (value == 0 and name != "sigma"):
                least = "non-negative" if name == "sigma" else "positive"
                raise ConfigError(f"{name}: must be finite and {least}, got {value!r}")
        if self.b < 1 or self.epochs < 1:
            raise ConfigError("b and epochs must be positive integers")

    @property
    def noise_std(self) -> float:
        """Std of the noise added to the mean of b clipped gradients: C * sigma / b."""
        return self.C * self.sigma / self.b


def _streams(seed: int, noise_seed: int):
    """Independent batch and noise generators, each from its own seed."""
    return np.random.default_rng(seed), np.random.default_rng(noise_seed)


def _check_finite(params: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(params)):
        bad = int(np.count_nonzero(~np.isfinite(params)))
        raise NumericError(f"{bad} non-finite parameters after {where}; aborting run")


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------

# Bytes of noise per worker hand-off. A hand-off (submit, then wait for the
# result) costs about 50 us on a 2-core Xeon, a quarter of a small model's
# step, so a block carries as many rows as fit in 256 KB: 12 steps at 2600
# parameters, 1 at 32 640. The two block buffers add 0.5 MB; a loop that
# draws inline, for want of a spare CPU, has one.
NOISE_BLOCK_BYTES = 256 * 1024


def _thread_cpu() -> int:
    """The CPU the calling thread last ran on: field 39 of its stat line,
    counted from the state field that follows the parenthesised name."""
    with open("/proc/thread-self/stat", "rb") as fh:
        return int(fh.read().rsplit(b")", 1)[1].split()[36])


def _spare_cpus():
    """The CPUs this process may run on other than the calling thread's,
    or None when either cannot be read."""
    try:
        return os.sched_getaffinity(0) - {_thread_cpu()}
    except (AttributeError, OSError):
        return None


def _pin(cpus) -> None:
    """Pin the calling thread to ``cpus``; left unpinned when ``cpus`` is
    None or the kernel refuses, since an exception here would break the
    worker's pool."""
    if cpus is not None:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, cpus)


@contextlib.contextmanager
def _noise_rows(rng: np.random.Generator, dim: int, steps: int):
    """Yield an iterator over ``steps`` rows of N(0, I_dim) noise from
    ``rng``, in the order sequential ``standard_normal(dim)`` draws would
    give them, with the same bits.

    Rows are drawn in blocks of at most NOISE_BLOCK_BYTES; while the caller
    consumes block j, a worker thread fills block j + 1 into the other of two
    preallocated buffers. The worker is pinned to the process's CPUs other
    than the caller's (``_spare_cpus``); with none, there is no worker, and
    the caller draws every block into one buffer. A block the worker has
    not started when it is due is cancelled and drawn by the caller, so a
    worker thread that waits for a core never stalls the loop. A row may be
    modified in place; it is valid until the next row is taken. The worker
    exists only when more than one block is drawn, and it is joined on
    every exit from the ``with`` block.
    """
    rows = max(1, min(steps, NOISE_BLOCK_BYTES // (8 * dim)))
    blocks = -(-steps // rows)
    cpus = _spare_cpus() if blocks > 1 else set()
    pool = None if cpus == set() else ThreadPoolExecutor(
        1, "convexdp-noise", initializer=_pin, initargs=(cpus,))
    bufs = np.empty((1 if pool is None else 2, rows, dim))

    def draw(j):
        return rng.standard_normal(out=bufs[j % len(bufs), :steps - j * rows])

    def all_rows():
        ahead = None
        for j in range(blocks):
            block = draw(j) if ahead is None or ahead.cancel() else ahead.result()
            if pool is not None and j + 1 < blocks:
                ahead = pool.submit(draw, j + 1)
            yield from block

    try:
        yield all_rows()
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def _noisy_minibatch_loop(objective, params0, X, y, cfg: DPSGDConfig, eval_fn,
                          next_batch: Callable[[int], np.ndarray], noise_rng):
    """The noisy mini-batch update shared by DP-SGD and NoisyCGD.

    Step ``it`` clips the per-sample data-term gradients of the batch
    ``next_batch(it)`` to C, averages them, adds N(0, C^2 sigma^2 / b^2 I)
    noise and the unclipped ridge gradient, and applies the learning-rate
    step; an epoch is floor(n/b) steps. ``noise_rng`` gives one noise row
    per step, in step order across the whole run. Returns the parameters
    and one record per epoch: epoch, train_loss and test_accuracy.
    """
    y = np.asarray(y)
    params = np.array(params0, dtype=float, copy=True)
    records = []
    noise_scale = cfg.noise_std
    eta = float(cfg.eta)
    it = 0
    steps = len(X) // cfg.b
    with _noise_rows(noise_rng, len(params), steps * cfg.epochs) as noise:
        for epoch in range(1, cfg.epochs + 1):
            for z in itertools.islice(noise, steps):
                idx = next_batch(it)
                g = objective.clipped_grad_mean(params, X[idx], y[idx], cfg.C)
                # eta * (g + noise + lam * params), in place in the noise row
                z *= noise_scale
                z += g
                z += objective.lam * params
                z *= eta
                params -= z
                _check_finite(params, f"iteration {it}")
                it += 1
            records.append(dict(
                epoch=epoch,
                train_loss=objective.data_loss(params, X, y)
                + 0.5 * objective.lam * float(params @ params),
                test_accuracy=None if eval_fn is None else eval_fn(params),
            ))
    return params, records


def dpsgd_run(
    objective,
    params0: np.ndarray,
    X: np.ndarray,
    y,
    cfg: DPSGDConfig,
    eval_fn: Optional[Callable[[np.ndarray], float]] = None,
):
    """DP-SGD: the noisy mini-batch loop over a fresh without-replacement
    batch each iteration. Trailing partial batches are dropped."""
    n = len(X)
    if cfg.b > n:
        raise ConfigError(f"batch size {cfg.b} exceeds dataset size {n}")
    batch_rng, noise_rng = _streams(cfg.seed, cfg.noise_seed)
    return _noisy_minibatch_loop(objective, params0, X, y, cfg, eval_fn,
                                 lambda it: batch_rng.choice(n, cfg.b, replace=False),
                                 noise_rng)


def noisycgd_run(
    objective,
    params0: np.ndarray,
    X: np.ndarray,
    y,
    cfg: DPSGDConfig,
    eval_fn: Optional[Callable[[np.ndarray], float]] = None,
):
    """Noisy cyclic mini-batch GD: the noisy mini-batch loop over fixed
    disjoint batches.

    Batches come from one seeded permutation, frozen for all epochs and
    visited in a fixed cyclic order. The accountant receives gradient
    sensitivity L = 2C and sigma_eq = C*sigma/b, and the GDP bound needs
    the ridge weight ``objective.lam`` > 0.
    """
    n = len(X)
    if n % cfg.b != 0:
        raise ConfigError(f"n={n} not divisible by batch size b={cfg.b}")
    if objective.lam <= 0:
        raise ConfigError("NoisyCGD requires lambda > 0")
    batch_rng, noise_rng = _streams(cfg.seed, cfg.noise_seed)
    batches = batch_rng.permutation(n).reshape(n // cfg.b, cfg.b)
    return _noisy_minibatch_loop(objective, params0, X, y, cfg, eval_fn,
                                 lambda it: batches[it % len(batches)], noise_rng)

