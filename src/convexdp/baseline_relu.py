"""One-hidden-layer ReLU network baseline with exact per-sample gradients.

The kink subgradient is fixed to 0 (activation derivative 1 only where the
pre-activation is strictly positive), which keeps gradients deterministic.
"""
from __future__ import annotations

import numpy as np

from . import losses
from .data import read_array, read_checkpoint, read_number, write_json
from .errors import DomainError
from .losses import ROW_BLOCK


class MLPObjective:
    """The MLP over flat parameters [U (m x d), A (m x k)]: the shared
    training loops' objective, and the writer of its checkpoint.

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
        losses.check_head(loss, k, lam)
        if m < 1:
            raise DomainError("hidden width must be >= 1")
        self.d, self.k, self.m = d, k, m
        self.loss_kind = loss
        self.lam = lam
        self.dim = m * d + m * k

    def _unflatten(self, params: np.ndarray):
        U = params[: self.m * self.d].reshape(self.m, self.d)
        A = params[self.m * self.d :].reshape(self.m, self.k)
        return U, A

    def init_params(self, seed: int) -> np.ndarray:
        """N(0, 1/d) hidden and N(0, 1/m) output init from a fixed stream."""
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        U = rng.standard_normal((self.m, self.d)) / np.sqrt(self.d)
        A = rng.standard_normal((self.m, self.k)) / np.sqrt(self.m)
        return np.concatenate([U.ravel(), A.ravel()])

    def _forward(self, params, X):
        """Active-unit mask, activations and logits of at most ``ROW_BLOCK`` rows."""
        U, A = self._unflatten(params)
        h = X @ U.T
        active = h > 0
        np.maximum(h, 0.0, out=h)
        return active, h, h @ A

    def data_loss(self, params, X, y) -> float:
        return losses.mean_loss(losses.logits(self._forward, params, X, self.k),
                                y, self.loss_kind)

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
        return losses.accuracy(losses.logits(self._forward, params, X, self.k), labels)

    def save_checkpoint(self, params, path: str) -> None:
        """U (m, d) and A (m, k) as ``data.write_json`` encodes arrays."""
        U, A = self._unflatten(params)
        write_json(path, {"m": self.m, "d": self.d, "k": self.k, "U": U, "A": A})


def load_checkpoint(path: str, loss: str):
    """``(objective, params)`` as ``MLPObjective.save_checkpoint`` wrote them
    to ``path``; ``loss``, which the file does not hold, picks the head. The
    file holds no ridge weight either, so the objective's ``lam`` is 0."""
    payload = read_checkpoint(path)
    m, d, k = (read_number(payload, key) for key in ("m", "d", "k"))
    U, A = read_array(payload, "U", (m, d)), read_array(payload, "A", (m, k))
    return MLPObjective(d, k, m=m, loss=loss), np.concatenate([U.ravel(), A.ravel()])
