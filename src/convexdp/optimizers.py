"""DP optimizers: subsampled DP-SGD, noisy cyclic mini-batch GD, projected
full-batch DP-GD, plus the projection operators of DP-GD's constraint sets.

Privacy unit: exactly the per-example data-term gradient is clipped; the
ridge gradient lam * theta is added after averaging, unclipped, so the
per-step substitution sensitivity is 2C.

RNG discipline: batch selection and noise come from independent streams
spawned from the run seed, so removing noise never shifts batch sampling.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
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
        if self.C <= 0:
            raise ConfigError("clip norm C must be positive")
        if self.sigma < 0:
            raise ConfigError("noise multiplier sigma must be non-negative")
        if self.b < 1 or self.epochs < 1:
            raise ConfigError("b and epochs must be positive integers")


@dataclasses.dataclass
class TrainTrace:
    """Append-only per-epoch records, reproducible given the seeds."""

    records: list = dataclasses.field(default_factory=list)

    def append(self, **record) -> None:
        self.records.append(record)

    def to_csv(self) -> str:
        lines = ["epoch,train_loss,test_acc,epsilon"]
        for r in self.records:
            eps = r.get("epsilon_at_delta")
            eps_txt = "" if eps is None else (
                "inf" if math.isinf(eps) else repr(float(eps))
            )
            lines.append(
                f"{r['epoch']},{r['train_loss']!r},"
                f"{'' if r.get('test_accuracy') is None else repr(r['test_accuracy'])},"
                f"{eps_txt}"
            )
        return "\n".join(lines) + "\n"


def _digest(*rngs: np.random.Generator) -> str:
    blob = json.dumps([r.bit_generator.state for r in rngs], sort_keys=True,
                      default=str)
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


def make_projection(kind: str, **kw) -> Optional[Callable[[np.ndarray], np.ndarray]]:
    """Projection operator factory for the DP-GD constraint set."""
    if kind == "none":
        return None
    if kind == "ball":
        radius = float(kw["radius"])
        if radius <= 0:
            raise ConfigError("ball radius must be positive")

        def ball(v):
            norm = float(np.linalg.norm(v))
            return v if norm <= radius else v * (radius / norm)

        return ball
    if kind == "band":
        a = np.asarray(kw["a"], dtype=float)
        return lambda v: project_band(v, a, float(kw["y"]), float(kw["C"]))
    raise ConfigError(f"unsupported constraint set {kind!r}")


# ---------------------------------------------------------------------------
# Training loops
# ---------------------------------------------------------------------------


def _noisy_minibatch_loop(objective, params0, X, y, cfg: DPSGDConfig, eval_fn,
                          next_batch: Callable[[int], np.ndarray], rngs):
    """The noisy mini-batch update shared by DP-SGD and NoisyCGD.

    Step ``it`` clips the per-sample data-term gradients of the batch
    ``next_batch(it)`` to C, averages them, adds N(0, C^2 sigma^2 / b^2 I)
    noise and the unclipped ridge gradient, and applies the learning-rate
    step; an epoch is floor(n/b) steps. ``rngs`` = (batch, noise) streams,
    whose states each epoch's trace record digests.
    """
    noise_rng = rngs[1]
    y = np.asarray(y)
    params = np.array(params0, dtype=float, copy=True)
    trace = TrainTrace()
    noise_scale = cfg.C * cfg.sigma / cfg.b
    eta = float(cfg.eta)
    it = 0
    for epoch in range(1, cfg.epochs + 1):
        for _ in range(len(X) // cfg.b):
            idx = next_batch(it)
            g = objective.clipped_grad_mean(params, X[idx], y[idx], cfg.C)
            z = noise_rng.standard_normal(len(params)) * noise_scale
            params -= eta * (g + z + objective.lam * params)
            _check_finite(params, f"iteration {it}")
            it += 1
        trace.append(
            epoch=epoch,
            train_loss=objective.data_loss(params, X, y)
            + 0.5 * objective.lam * float(params @ params),
            test_accuracy=None if eval_fn is None else eval_fn(params),
            rng_state_digest=_digest(*rngs),
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
                                 lambda it: rngs[0].permutation(n)[: cfg.b], rngs)


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
    X: np.ndarray,
    y,
    L: float,
    project: Optional[Callable[[np.ndarray], np.ndarray]],
    T: int,
    sigma_gd: float,
    eta: float,
    seed: int = 0,
) -> np.ndarray:
    """Full-batch projected DP gradient descent, returning the iterate average.

    theta_0 = 0; each step adds N(0, sigma_gd^2 I) to the full-batch mean of
    per-sample gradients clipped to L, takes a projected step, and the
    average (1/T) * sum of theta_1..theta_T is released. It stays apart
    from the noisy mini-batch loop: no ridge term, noise in absolute units,
    a projection and an iterate average, and no trace.
    """
    if T < 1:
        raise ConfigError("T must be a positive integer")
    noise_rng = np.random.default_rng(np.random.SeedSequence(seed))
    params = np.zeros(objective.dim)
    accum = np.zeros(objective.dim)
    for _ in range(T):
        g = objective.clipped_grad_mean(params, X, np.asarray(y), L)
        g = g + noise_rng.standard_normal(len(params)) * sigma_gd
        params = params - eta * g
        if project is not None:
            params = project(params)
        _check_finite(params, "DP-GD step")
        accum += params
    return accum / T
