"""DP optimizers: subsampled DP-SGD, noisy cyclic mini-batch GD, projected
full-batch DP-GD, plus the projection operators of DP-GD's constraint sets.

Privacy unit: exactly the per-example data-term gradient is clipped; the
ridge gradient lam * theta is added after averaging, unclipped, so the
per-step substitution sensitivity is 2C.

RNG discipline: batch selection and noise come from independent streams
spawned from the run seed, so removing noise never shifts batch sampling.
The noise stream is one sequential generator, but its draws run one block
ahead of the update on a worker thread, so they overlap the gradient (see
``_noise_rows``), also the next epoch's first block during an epoch's
evaluation. A block never spans an epoch end, and the noise state is
copied when an epoch's last block is handed over, so each epoch's digest
sees exactly that epoch's draws. The worker never calls BLAS: it only
fills preallocated buffers from the generator.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, DomainError, NumericError


# ---------------------------------------------------------------------------
# Configs and traces
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class DPSGDConfig:
    C: float
    sigma: float
    b: int
    eta: float
    epochs: int
    seed: int = 0
    noise_seed: Optional[int] = None

    def __post_init__(self):
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


@dataclasses.dataclass
class TrainTrace:
    """Append-only per-epoch records, reproducible given the seeds."""

    records: list = dataclasses.field(default_factory=list)

    def append(self, **record) -> None:
        self.records.append(record)

    def to_csv(self, eps_text: Callable[[float], str] = repr) -> str:
        """The records as CSV; ``eps_text`` renders the epsilon column."""
        lines = ["epoch,train_loss,test_acc,epsilon"]
        for r in self.records:
            eps = r.get("epsilon_at_delta")
            eps_txt = "" if eps is None else eps_text(float(eps))
            lines.append(
                f"{r['epoch']},{r['train_loss']!r},"
                f"{'' if r.get('test_accuracy') is None else repr(r['test_accuracy'])},"
                f"{eps_txt}"
            )
        return "\n".join(lines) + "\n"


def _digest(*states: dict) -> str:
    """Short hash of generator states (``bit_generator.state`` dicts)."""
    blob = json.dumps(list(states), sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _streams(seed: int, noise_seed: Optional[int]):
    """Independent batch and noise generators; explicit or spawned seeds."""
    if noise_seed is None:
        return tuple(
            np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)
        )
    return (
        np.random.default_rng(np.random.SeedSequence(seed)),
        np.random.default_rng(np.random.SeedSequence(noise_seed)),
    )


def _check_finite(params: np.ndarray, where: str) -> None:
    if not np.all(np.isfinite(params)):
        bad = int(np.count_nonzero(~np.isfinite(params)))
        raise NumericError(f"{bad} non-finite parameters after {where}; aborting run")


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------


def project_halfspace(v: np.ndarray, a: np.ndarray, bnd: float) -> np.ndarray:
    """Orthogonal projection onto {x : a . x <= bnd}."""
    a = np.asarray(a, dtype=float)
    nrm2 = float(a @ a)
    if nrm2 == 0.0:
        raise DomainError("half-space normal must be nonzero")
    v = np.asarray(v, dtype=float)
    val = float(a @ v)
    # tolerate dot-product roundoff so that re-projecting a point produced by
    # this function is an exact no-op (idempotence in floating point)
    tol = 64.0 * np.finfo(float).eps * (abs(bnd) + float(np.abs(a) @ np.abs(v)))
    if val <= bnd + tol:
        return v
    return v + (bnd - val) * a / nrm2


def project_band(v: np.ndarray, a: np.ndarray, y: float, C: float) -> np.ndarray:
    """Projection onto {x : |a . x - y| <= C}.

    The two half-spaces have parallel boundaries, so applying the two
    half-space projections in sequence is the exact Euclidean projection.
    """
    if C <= 0:
        raise DomainError("band half-width must be positive")
    out = project_halfspace(v, a, y + C)
    return project_halfspace(out, -np.asarray(a, dtype=float), C - y)


def make_projection(dim: int, /, kind: Optional[str] = None,
                    **kw) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """Projection operator factory for the DP-GD constraint set in R^dim.

    ``kind`` is "none", "ball" or "band", and ``kw`` exactly its keys, all
    finite numbers: a ``radius`` > 0, or a normal ``a`` of ``dim`` entries,
    an offset ``y`` and a half-width ``C`` > 0. Anything else raises
    ConfigError.
    """
    needs = {"none": [], "ball": ["radius"], "band": ["C", "a", "y"]}
    if not isinstance(kind, str) or needs.get(kind) != sorted(kw):
        raise ConfigError(f"constraint set {kind!r} with keys {sorted(kw)}; "
                          f"expected one of {needs}")
    for key, value in kw.items():
        try:
            kw[key] = arr = np.asarray(value)
        except ValueError:  # ragged nested lists
            arr = np.asarray(None)
        if (arr.ndim != (key == "a") or arr.dtype.kind not in "iuf"
                or not np.all(np.isfinite(arr))):
            raise ConfigError(f"constraint {key}: expected finite number"
                              f"{'s' if key == 'a' else ''}, got {value!r:.40}")
        if key in ("radius", "C") and arr <= 0:
            raise ConfigError(f"constraint {key}: must be positive")
    if kind == "band" and kw["a"].shape != (dim,):
        raise ConfigError(f"dpgd_constraint.a: needs one entry per model "
                          f"parameter, {dim}; got shape {kw['a'].shape}")
    if kind == "ball":
        radius = float(kw["radius"])

        def ball(v):
            norm = float(np.linalg.norm(v))
            return v if norm <= radius else v * (radius / norm)

        return ball
    if kind == "band":
        a = kw["a"].astype(float)
        return lambda v: project_band(v, a, float(kw["y"]), float(kw["C"]))
    return None


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------

# Bytes of noise per worker hand-off. A hand-off (submit, then wait for the
# result) costs about 50 us on a 2-core Xeon, a quarter of a small model's
# step, so a block carries as many rows as fit in 256 KB: 12 steps at 2600
# parameters, 1 at 32 640. The two block buffers add 0.5 MB.
NOISE_BLOCK_BYTES = 256 * 1024


@contextlib.contextmanager
def _noise_rows(rng: np.random.Generator, dim: int, steps: int, calls: int = 1):
    """Yield ``(rows, states)``: every one of ``calls`` calls of ``rows()``
    yields ``steps`` rows of N(0, I_dim) noise from ``rng``, in the order
    sequential ``standard_normal(dim)`` draws would give them, with the same
    bits; ``states[i]`` is ``rng.bit_generator.state`` once call i's rows
    are drawn, and it appears when call i hands over its last block.

    Rows are drawn in blocks of at most NOISE_BLOCK_BYTES; while the caller
    consumes block j, a worker thread fills block j + 1 into the other of two
    preallocated buffers, also across calls, so the next call's first block
    is drawn while the caller works between calls. A block the worker has
    not started when it is due is cancelled and drawn by the caller, so a
    worker thread that waits for a core never stalls the loop. No block spans
    two calls. A row may be modified in place; it is valid until the next row
    is taken. The worker exists only when more than one block is drawn, and
    it is joined on every exit from the ``with`` block.
    """
    rows = max(1, min(steps, NOISE_BLOCK_BYTES // (8 * dim)))
    sizes = ([rows] * (steps // rows) + [steps % rows] * (steps % rows > 0)) * calls
    per_call = len(sizes) // calls
    bufs = np.empty((min(2, len(sizes)), rows, dim))
    pool = ThreadPoolExecutor(1, "convexdp-noise") if len(sizes) > 1 else None
    states = []
    ahead = None

    def draw(j):
        return rng.standard_normal(out=bufs[j % 2, :sizes[j]])

    def call_rows():
        nonlocal ahead
        first = len(states) * per_call
        for j in range(first, first + per_call):
            block = draw(j) if ahead is None or ahead.cancel() else ahead.result()
            if j + 1 == first + per_call:
                states.append(rng.bit_generator.state)
            ahead = pool.submit(draw, j + 1) if j + 1 < len(sizes) else None
            yield from block

    try:
        yield call_rows, states
    finally:
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)


def _noisy_minibatch_loop(objective, params0, X, y, cfg: DPSGDConfig, eval_fn,
                          next_batch: Callable[[int], np.ndarray], rngs):
    """The noisy mini-batch update shared by DP-SGD and NoisyCGD.

    Step ``it`` clips the per-sample data-term gradients of the batch
    ``next_batch(it)`` to C, averages them, adds N(0, C^2 sigma^2 / b^2 I)
    noise and the unclipped ridge gradient, and applies the learning-rate
    step; an epoch is floor(n/b) steps. ``rngs`` = (batch, noise) streams,
    whose states at the epoch's end each epoch's trace record digests.
    """
    y = np.asarray(y)
    params = np.array(params0, dtype=float, copy=True)
    trace = TrainTrace()
    noise_scale = cfg.noise_std
    eta = float(cfg.eta)
    it = 0
    with _noise_rows(rngs[1], len(params), len(X) // cfg.b, cfg.epochs) as (
            epoch_noise, noise_states):
        for epoch in range(1, cfg.epochs + 1):
            for z in epoch_noise():
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
            trace.append(
                epoch=epoch,
                train_loss=objective.data_loss(params, X, y)
                + 0.5 * objective.lam * float(params @ params),
                test_accuracy=None if eval_fn is None else eval_fn(params),
                rng_state_digest=_digest(rngs[0].bit_generator.state,
                                         noise_states[-1]),
            )
    return params, trace


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
    rngs = _streams(cfg.seed, cfg.noise_seed)
    return _noisy_minibatch_loop(objective, params0, X, y, cfg, eval_fn,
                                 lambda it: rngs[0].choice(n, cfg.b, replace=False), rngs)


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
    rngs = _streams(cfg.seed, cfg.noise_seed)
    batches = rngs[0].permutation(n).reshape(n // cfg.b, cfg.b)
    return _noisy_minibatch_loop(objective, params0, X, y, cfg, eval_fn,
                                 lambda it: batches[it % len(batches)], rngs)


def dpgd_run(
    objective,
    params0: np.ndarray,
    X: np.ndarray,
    y,
    cfg: DPSGDConfig,
    eval_fn: Optional[Callable[[np.ndarray], float]] = None,
    project: Optional[Callable[[np.ndarray], np.ndarray]] = None,
):
    """Full-batch projected DP gradient descent, releasing the iterate average.

    From theta_0 = ``params0``, each of ``cfg.epochs`` steps adds
    N(0, cfg.noise_std^2 I) to the full-batch mean of per-sample gradients
    clipped to C, takes a step and projects it; the average (1/T) * sum of
    theta_1..theta_T is released with one trace record, at epoch T. The
    batch is the training set, so ``cfg.b`` must be n. It stays apart from
    the noisy mini-batch loop: no ridge term, a projection and an iterate
    average.
    """
    n = len(X)
    if cfg.b != n:
        raise ConfigError(f"DP-GD's batch is the training set: b={cfg.b}, n={n}")
    y = np.asarray(y)
    params = np.array(params0, dtype=float, copy=True)
    accum = np.zeros(len(params))
    with _noise_rows(_streams(cfg.seed, cfg.noise_seed)[1], len(params),
                     cfg.epochs) as (noise, noise_states):
        for z in noise():
            g = objective.clipped_grad_mean(params, X, y, cfg.C)
            z *= cfg.noise_std
            z += g
            params = params - cfg.eta * z
            if project is not None:
                params = project(params)
            _check_finite(params, "DP-GD step")
            accum += params
    params = accum / cfg.epochs
    trace = TrainTrace()
    trace.append(
        epoch=cfg.epochs,
        train_loss=objective.data_loss(params, X, y),
        test_accuracy=None if eval_fn is None else eval_fn(params),
        rng_state_digest=_digest(noise_states[-1]),
    )
    return params, trace
