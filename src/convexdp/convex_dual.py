"""The gated linear model approximating a two-layer ReLU network.

A fixed collection of random gate vectors u_1..u_P induces, per input x,
a boolean activation mask 1(x . u_i >= 0). The model output is the sum of
the gated per-slice linear responses, and the ridge-regularized training
loss is strongly convex in the parameter tensor V of shape P x d x k.

Ties (x . u = 0) map to gate value 1, matching the indicator literally;
this is a measure-zero event but the convention must be deterministic.
"""
from __future__ import annotations

import dataclasses
import json
from typing import Optional

import numpy as np

from . import losses
from .data import read_array, write_json
from .errors import DomainError
from .losses import ROW_BLOCK

# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Arrangement:
    """P gate vectors sampled i.i.d. standard normal from a seeded stream."""

    U: np.ndarray  # (P, d)
    P: int
    d: int
    seed: int

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
        object.__setattr__(self, "U", U)
        if U.shape != (self.P, self.d):
            raise DomainError(f"gate matrix shape {U.shape} != ({self.P}, {self.d})")


@dataclasses.dataclass
class DualModel:
    """Parameters V (P x d x k) tied to an arrangement, plus ridge weight."""

    arrangement: Arrangement
    V: np.ndarray
    lam: float = 0.0
    bias: bool = True  # whether inputs were bias-augmented before gates/model

    def __post_init__(self):
        self.V = np.asarray(self.V, dtype=float)
        if self.V.ndim != 3 or self.V.shape[:2] != (
            self.arrangement.P,
            self.arrangement.d,
        ):
            raise DomainError(
                f"V shape {self.V.shape} inconsistent with arrangement "
                f"({self.arrangement.P}, {self.arrangement.d}, k)"
            )
        if not np.all(np.isfinite(self.V)):
            raise DomainError("V must be finite")
        if not self.lam >= 0:  # nan too
            raise DomainError("lambda must be non-negative")

    @property
    def k(self) -> int:
        return self.V.shape[2]


# ---------------------------------------------------------------------------
# Arrangements
# ---------------------------------------------------------------------------


def sample_arrangement(d: int, P: int, seed: int) -> Arrangement:
    """Sample P i.i.d. N(0, I_d) gate vectors from a dedicated RNG stream."""
    if d < 1 or P < 1:
        raise DomainError("d and P must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return Arrangement(U=rng.standard_normal((P, d)), P=P, d=d, seed=seed)


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def save_checkpoint(model: DualModel, path: str) -> None:
    """JSON container with everything needed to reload without re-deriving;
    U (P, d) and V (P, d, k) as ``data.write_json`` encodes arrays."""
    payload = {
        "d": model.arrangement.d,
        "P": model.arrangement.P,
        "k": model.k,
        "seed": model.arrangement.seed,
        "lambda": model.lam,
        "bias_flag": model.bias,
        "U": model.arrangement.U,
        "V": model.V,
    }
    write_json(path, payload)


def load_checkpoint(path: str) -> DualModel:
    with open(path) as fh:
        payload = json.load(fh)
    d, P, k = payload["d"], payload["P"], payload["k"]
    arr = Arrangement(
        U=read_array(payload, "U", (P, d)),
        P=P,
        d=d,
        seed=payload["seed"],
    )
    return DualModel(
        arrangement=arr,
        V=read_array(payload, "V", (P, d, k)),
        lam=payload["lambda"],
        bias=payload["bias_flag"],
    )


# ---------------------------------------------------------------------------
# Batch-level objective used by the optimizers
# ---------------------------------------------------------------------------

class DualObjective:
    """Flat-parameter view of the dual model for the training loops.

    The kernel is gate-factored (gated ReLU as masked linear maps). The
    linear responses of a block of rows to all P gates come from one GEMM,
    ``Z = X @ V'`` with ``V'`` the (d, P*k) gate-major view of V, and the
    logits are the mask reduction ``sum_i bits_i * Z_i``. Per-sample
    data-term gradients are rank-one outer products bits (x) x (x) residual,
    so clip factors come from their norms, and the clipped sum is one more
    GEMM over all gates, ``(X (x) r)^T @ (scale * bits)``. The per-sample
    gradient tensor is never built.

    Rows pass through the kernel ``ROW_BLOCK`` at a time. Full-dataset
    evaluation and full-batch DP-GD hand it every row, and unblocked, the
    rows x P bits and rows x P*k responses would grow with n; blocked, they
    stay one block in size, and only the n x k logits cover all rows.
    """

    def __init__(
        self,
        arrangement: Arrangement,
        k: int,
        lam: float,
        loss: str = "mse",
        bias: bool = True,
    ):
        if loss not in ("mse", "ce"):
            raise DomainError(f"unknown loss kind {loss!r}")
        if loss == "ce" and k < 2:
            raise DomainError("cross-entropy requires k >= 2")
        if not lam >= 0:  # nan too
            raise DomainError(f"lambda must be non-negative, got {lam!r}")
        self.arrangement = arrangement
        self.k = k
        self.lam = lam
        self.loss_kind = loss
        self.bias = bias
        self.dim = arrangement.P * arrangement.d * k

    # -- helpers ----------------------------------------------------------
    def _tensor(self, params: np.ndarray) -> np.ndarray:
        return params.reshape(self.arrangement.P, self.arrangement.d, self.k)

    def _gate_major(self, params: np.ndarray) -> np.ndarray:
        """V as one (d, P*k) matrix: column block i holds gate i's V[i]."""
        return self._tensor(params).transpose(1, 0, 2).reshape(
            self.arrangement.d, self.arrangement.P * self.k
        )

    def _forward(self, Vg: np.ndarray, X: np.ndarray):
        """Gate bits and logits of at most ``ROW_BLOCK`` rows of X."""
        bits = (X @ self.arrangement.U.T >= 0).astype(float)
        Z = (X @ Vg).reshape(len(X), self.arrangement.P, self.k)
        return bits, np.matmul(bits[:, None, :], Z)[:, 0, :]

    def _logits(self, params: np.ndarray, X: np.ndarray) -> np.ndarray:
        Vg = self._gate_major(params)
        logits = np.empty((len(X), self.k))
        for s in range(0, len(X), ROW_BLOCK):
            logits[s : s + ROW_BLOCK] = self._forward(Vg, X[s : s + ROW_BLOCK])[1]
        return logits

    # -- optimizer interface ----------------------------------------------
    def init_params(self, seed: int) -> np.ndarray:
        """Zeros; ``seed`` is unused and kept for the MLPObjective signature."""
        return np.zeros(self.dim)

    def data_loss(self, params: np.ndarray, X: np.ndarray, y) -> float:
        """Mean per-sample data-term loss over (X, y)."""
        return losses.mean_loss(self._logits(params, X), y, self.loss_kind)

    def clipped_grad_mean(
        self, params: np.ndarray, X: np.ndarray, y, C: float
    ) -> np.ndarray:
        """Mean of per-sample data-term gradients, each clipped to norm C."""
        P, d, k = self.arrangement.P, self.arrangement.d, self.k
        Vg = self._gate_major(params)
        total = np.zeros((k * d, P))
        for s in range(0, len(X), ROW_BLOCK):
            Xb = X[s : s + ROW_BLOCK]
            bits, logits = self._forward(Vg, Xb)
            r = losses.residuals(logits, y[s : s + ROW_BLOCK], self.loss_kind)
            # ||g_b||^2 = (#active gates) * ||x_b||^2 * ||r_b||^2 (rank-one form)
            norms = np.sqrt(
                bits.sum(axis=1) * np.sum(Xb**2, axis=1) * np.sum(r**2, axis=1)
            )
            scale = np.ones_like(norms)
            np.divide(C, norms, out=scale, where=norms > C)
            Xr = (r[:, :, None] * Xb[:, None, :]).reshape(len(Xb), k * d)
            total += Xr.T @ (scale[:, None] * bits)
        grad = total.reshape(k, d, P).transpose(2, 1, 0) / len(X)
        return grad.ravel()

    def accuracy(self, params: np.ndarray, X: np.ndarray, labels) -> float:
        return losses.accuracy(self._logits(params, X), labels)

    def to_model(self, params: np.ndarray) -> DualModel:
        return DualModel(
            arrangement=self.arrangement,
            V=self._tensor(params).copy(),
            lam=self.lam,
            bias=self.bias,
        )
