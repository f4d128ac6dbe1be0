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

import numpy as np

from . import losses
from .data import read_array, read_checkpoint, read_number, write_json
from .errors import DomainError
from .losses import ROW_BLOCK

# ---------------------------------------------------------------------------
# Arrangements
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Arrangement:
    """P gate vectors sampled i.i.d. standard normal from a seeded stream."""

    U: np.ndarray  # (P, d)
    seed: int

    def __post_init__(self):
        U = np.asarray(self.U, dtype=float)
        object.__setattr__(self, "U", U)
        if U.ndim != 2:
            raise DomainError(f"gate matrix must be 2-d, got shape {U.shape}")

    @property
    def P(self) -> int:
        return self.U.shape[0]

    @property
    def d(self) -> int:
        return self.U.shape[1]


def sample_arrangement(d: int, P: int, seed: int) -> Arrangement:
    """Sample P i.i.d. N(0, I_d) gate vectors from a dedicated RNG stream."""
    if d < 1 or P < 1:
        raise DomainError("d and P must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return Arrangement(U=rng.standard_normal((P, d)), seed=seed)


# ---------------------------------------------------------------------------
# Batch-level objective used by the optimizers
# ---------------------------------------------------------------------------


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a @ b`` into ``out`` in two calls, cut at the last multiple of 8
    columns: OpenBLAS rounds the columns past it by a path that depends on
    its thread split, and each side alone is bit-identical at any count."""
    cut = b.shape[1] - b.shape[1] % 8
    np.matmul(a, b[:, :cut], out=out[:, :cut])
    np.matmul(a, b[:, cut:], out=out[:, cut:])
    return out


class DualObjective:
    """The dual model over flat parameters: the training loops' objective,
    and the writer of its checkpoint (``load_checkpoint`` reads it back).

    The kernel is gates first (gated ReLU as masked linear maps): both GEMMs
    read or write V in its own (P, d, k) order, through the free (P, d*k)
    view ``V2`` of the flat parameters. A block's gate bits select per-row
    (d, k) maps ``H = bits @ V2``, and each row's logits are ``x @ H_x``.
    Per-sample data-term gradients are rank-one outer products bits (x) x (x)
    residual, so clip factors come from their norms; folded into the
    residuals, they leave the clipped sum as one GEMM ``bits^T @ (x (x) r)``
    in the parameter order. Neither the per-sample gradients nor a copy of V
    in another layout is ever built.

    Rows pass through the kernel ``ROW_BLOCK`` at a time. Full-dataset
    evaluation hands it every row, and unblocked, the rows x P bits and
    rows x d*k maps would grow with n; blocked, they stay one block in
    size, and only the n x k logits cover all rows.
    """

    def __init__(self, arrangement: Arrangement, k: int, lam: float, loss: str = "mse"):
        losses.check_head(loss, k, lam)
        self.arrangement = arrangement
        self.k = k
        self.lam = lam
        self.loss_kind = loss
        self.dim = arrangement.P * arrangement.d * k

    # -- helpers ----------------------------------------------------------
    def _forward(self, params: np.ndarray, X: np.ndarray):
        """Gate bits and logits of at most ``ROW_BLOCK`` rows of X."""
        P, d, k = self.arrangement.P, self.arrangement.d, self.k
        bits = (X @ self.arrangement.U.T >= 0).astype(float)
        H = _matmul(bits, params.reshape(P, d * k), np.empty((len(X), d * k)))
        H = H.reshape(len(X), d, k)
        return bits, np.matmul(X[:, None, :], H)[:, 0, :]

    # -- optimizer interface ----------------------------------------------
    def init_params(self, seed: int) -> np.ndarray:
        """Zeros; ``seed`` is unused and kept for the MLPObjective signature."""
        return np.zeros(self.dim)

    def data_loss(self, params: np.ndarray, X: np.ndarray, y) -> float:
        """Mean per-sample data-term loss over (X, y)."""
        return losses.mean_loss(losses.logits(self._forward, params, X, self.k),
                                y, self.loss_kind)

    def clipped_grad_mean(
        self, params: np.ndarray, X: np.ndarray, y, C: float
    ) -> np.ndarray:
        """Mean of per-sample data-term gradients, each clipped to norm C."""
        P, d, k = self.arrangement.P, self.arrangement.d, self.k
        grad, block = np.zeros((P, d * k)), np.empty((P, d * k))
        for s in range(0, len(X), ROW_BLOCK):
            Xb = X[s : s + ROW_BLOCK]
            bits, logits = self._forward(params, Xb)
            r = losses.residuals(logits, y[s : s + ROW_BLOCK], self.loss_kind)
            # ||g_b||^2 = (#active gates) * ||x_b||^2 * ||r_b||^2 (rank-one form)
            norms = np.sqrt(
                bits.sum(axis=1) * np.sum(Xb**2, axis=1) * np.sum(r**2, axis=1)
            )
            scale = np.ones_like(norms)
            np.divide(C, norms, out=scale, where=norms > C)
            r *= scale[:, None]
            Xr = (Xb[:, :, None] * r[:, None, :]).reshape(len(Xb), d * k)
            grad += _matmul(bits.T, Xr, block)
        grad /= len(X)
        return grad.ravel()

    def accuracy(self, params: np.ndarray, X: np.ndarray, labels) -> float:
        return losses.accuracy(losses.logits(self._forward, params, X, self.k), labels)

    def save_checkpoint(self, params: np.ndarray, path: str) -> None:
        """JSON container with everything needed to reload without re-deriving;
        U (P, d) and V (P, d, k) as ``data.write_json`` encodes arrays."""
        arr = self.arrangement
        write_json(path, {
            "d": arr.d, "P": arr.P, "k": self.k, "seed": arr.seed, "lambda": self.lam,
            "U": arr.U, "V": params.reshape(arr.P, arr.d, self.k),
        })


def load_checkpoint(path: str, loss: str):
    """``(objective, params)`` as ``DualObjective.save_checkpoint`` wrote them
    to ``path``; ``loss``, which the file does not hold, picks the head. The
    last of the ``d`` features is the constant-1 bias column."""
    payload = read_checkpoint(path)
    if (flag := payload.get("bias_flag", True)) is not True:
        raise DomainError(f"checkpoint field 'bias_flag' is {json.dumps(flag)}: a "
                          "checkpoint of an older convexdp, trained without the bias "
                          "column; load it with that version")
    d, P, k, seed = (read_number(payload, key) for key in ("d", "P", "k", "seed"))
    lam = read_number(payload, "lambda", count=False)
    arrangement = Arrangement(U=read_array(payload, "U", (P, d)), seed=seed)
    objective = DualObjective(arrangement, k=k, lam=lam, loss=loss)
    return objective, read_array(payload, "V", (P, d, k)).ravel()
