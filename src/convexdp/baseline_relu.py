"""One-hidden-layer ReLU network baseline with exact per-sample gradients.

The kink subgradient is fixed to 0 (activation derivative 1 only where the
pre-activation is strictly positive), which keeps gradients deterministic.
"""
from __future__ import annotations

import dataclasses
import json

import numpy as np

from . import losses
from .data import read_array, write_json
from .errors import DomainError
from .losses import ROW_BLOCK


@dataclasses.dataclass
class MLP:
    """Hidden weights U (m x d), output weights A (m x k)."""

    U: np.ndarray
    A: np.ndarray

    def __post_init__(self):
        self.U = np.asarray(self.U, dtype=float)
        self.A = np.asarray(self.A, dtype=float)
        if self.U.ndim != 2 or self.A.ndim != 2 or self.U.shape[0] != self.A.shape[0]:
            raise DomainError(
                f"inconsistent shapes U {self.U.shape}, A {self.A.shape}"
            )
        if not (np.all(np.isfinite(self.U)) and np.all(np.isfinite(self.A))):
            raise DomainError("weights must be finite")

    @property
    def m(self) -> int:
        return self.U.shape[0]

    @property
    def d(self) -> int:
        return self.U.shape[1]

    @property
    def k(self) -> int:
        return self.A.shape[1]


def init_mlp(d: int, k: int, m: int = 200, seed: int = 0) -> MLP:
    """N(0, 1/d) hidden and N(0, 1/m) output init from a fixed stream."""
    if m < 1:
        raise DomainError("hidden width must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    U = rng.standard_normal((m, d)) / np.sqrt(d)
    A = rng.standard_normal((m, k)) / np.sqrt(m)
    return MLP(U=U, A=A)


def save_checkpoint(net: MLP, path: str) -> None:
    """U (m, d) and A (m, k) as ``data.write_json`` encodes arrays."""
    payload = {
        "m": net.m,
        "d": net.d,
        "k": net.k,
        "U": net.U,
        "A": net.A,
    }
    write_json(path, payload)


def load_checkpoint(path: str) -> MLP:
    with open(path) as fh:
        payload = json.load(fh)
    m, d, k = payload["m"], payload["d"], payload["k"]
    return MLP(
        U=read_array(payload, "U", (m, d)),
        A=read_array(payload, "A", (m, k)),
    )


class MLPObjective:
    """Flat-parameter view of the MLP for the shared training loops.

    Per-sample gradients decompose into two rank-one blocks, outer(G_b, x_b)
    for U and outer(h_b, r_b) for A, with G_b = (A r_b) * 1(pre_b > 0) the
    hidden-layer backprop signal. Clip norms and the clipped sum therefore
    never build per-sample gradient tensors (Goodfellow 2015's per-example
    norm trick): the norms come from row dot products. Both blocks are
    linear in the row's residual r_b and input x_b, so the clip factor and
    1/n scale those rows x k and rows x d operands, not the rows x m G and
    h, before two GEMMs add the block's gradient into views of one flat
    vector.

    Rows pass through ``_forward`` ``ROW_BLOCK`` at a time, and the ReLU is
    applied in place, keeping only the boolean ``pre > 0`` mask for the
    backward pass. Full-dataset loss and accuracy therefore hold one block's
    rows x m activations at a time; only the n x k logits cover all rows.
    """

    def __init__(self, d: int, k: int, m: int = 200, loss: str = "mse",
                 lam: float = 0.0):
        if loss not in ("mse", "ce"):
            raise DomainError(f"unknown loss kind {loss!r}")
        self.d, self.k, self.m = d, k, m
        self.loss_kind = loss
        self.lam = lam
        self.dim = m * d + m * k

    def _unflatten(self, params: np.ndarray):
        U = params[: self.m * self.d].reshape(self.m, self.d)
        A = params[self.m * self.d :].reshape(self.m, self.k)
        return U, A

    def init_params(self, seed: int) -> np.ndarray:
        net = init_mlp(self.d, self.k, self.m, seed)
        return np.concatenate([net.U.ravel(), net.A.ravel()])

    def _forward(self, params, X):
        """Active-unit mask, activations and logits of at most ``ROW_BLOCK`` rows."""
        U, A = self._unflatten(params)
        h = X @ U.T
        active = h > 0
        np.maximum(h, 0.0, out=h)
        return active, h, h @ A

    def _logits(self, params, X) -> np.ndarray:
        logits = np.empty((len(X), self.k))
        for s in range(0, len(X), ROW_BLOCK):
            logits[s : s + ROW_BLOCK] = self._forward(params, X[s : s + ROW_BLOCK])[2]
        return logits

    def data_loss(self, params, X, y) -> float:
        return losses.mean_loss(self._logits(params, X), y, self.loss_kind)

    def clipped_grad_mean(self, params, X, y, C: float) -> np.ndarray:
        """Mean of per-sample gradients, each clipped to norm C."""
        _, A = self._unflatten(params)
        grad = np.zeros(self.dim)
        gU, gA = self._unflatten(grad)
        for s in range(0, len(X), ROW_BLOCK):
            Xb = X[s : s + ROW_BLOCK]
            active, h, out = self._forward(params, Xb)
            r = losses.residuals(out, y[s : s + ROW_BLOCK], self.loss_kind)
            G = r @ A.T
            G *= active
            # ||g_b||^2 = ||h_b||^2 ||r_b||^2 + ||G_b||^2 ||x_b||^2 (rank-one blocks)
            norms = np.sqrt(
                np.einsum("ij,ij->i", h, h) * np.einsum("ij,ij->i", r, r)
                + np.einsum("ij,ij->i", G, G) * np.einsum("ij,ij->i", Xb, Xb)
            )
            scale = np.ones_like(norms)
            np.divide(C, norms, out=scale, where=norms > C)
            scale /= len(X)
            r *= scale[:, None]
            gU += G.T @ (scale[:, None] * Xb)
            gA += h.T @ r
        return grad

    def accuracy(self, params, X, labels) -> float:
        return losses.accuracy(self._logits(params, X), labels)

    def to_model(self, params) -> MLP:
        return MLP(*self._unflatten(params))
