"""One-hidden-layer ReLU network baseline with exact per-sample gradients.

The kink subgradient is fixed to 0 (activation derivative 1 only where the
pre-activation is strictly positive), which keeps gradients deterministic.
"""
from __future__ import annotations

import dataclasses
import json

import numpy as np

from . import losses
from .errors import DomainError


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


def mlp_forward(net: MLP, x: np.ndarray) -> np.ndarray:
    """out = A^T relu(U x)."""
    x = np.asarray(x, dtype=float)
    return np.maximum(net.U @ x, 0.0) @ net.A


def mlp_per_sample_grad(net: MLP, x: np.ndarray, label, loss: str = "mse") -> np.ndarray:
    """Flat gradient [dU, dA] of one example, exact backprop through relu."""
    x = np.asarray(x, dtype=float)
    pre = net.U @ x
    h = np.maximum(pre, 0.0)
    out = h @ net.A
    if loss == "mse":
        y = np.atleast_1d(np.asarray(label, dtype=float))
        r = out - y
    elif loss == "ce":
        label = int(label)
        if not (0 <= label < net.k):
            raise DomainError(f"label {label} out of range for k={net.k}")
        shifted = out - out.max()
        probs = np.exp(shifted)
        probs /= probs.sum()
        r = probs
        r[label] -= 1.0
    else:
        raise DomainError(f"unknown loss kind {loss!r}")
    gA = np.outer(h, r)
    gU = np.outer((net.A @ r) * (pre > 0), x)
    return np.concatenate([gU.ravel(), gA.ravel()])


def save_checkpoint(net: MLP, path: str) -> None:
    payload = {
        "m": net.m,
        "d": net.d,
        "k": net.k,
        "U": net.U.ravel().tolist(),
        "A": net.A.ravel().tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_checkpoint(path: str) -> MLP:
    with open(path) as fh:
        payload = json.load(fh)
    m, d, k = payload["m"], payload["d"], payload["k"]
    return MLP(
        U=np.asarray(payload["U"], dtype=float).reshape(m, d),
        A=np.asarray(payload["A"], dtype=float).reshape(m, k),
    )


class MLPObjective:
    """Flat-parameter view of the MLP for the shared training loops.

    Per-sample gradients decompose into two rank-one blocks, so clip norms
    and clipped sums avoid materializing per-sample gradient tensors.
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
        """Hidden pre-activations, activations and logits of the rows of X."""
        U, A = self._unflatten(params)
        pre = X @ U.T
        h = np.maximum(pre, 0.0)
        return pre, h, h @ A

    def data_loss(self, params, X, y) -> float:
        return losses.mean_loss(self._forward(params, X)[-1], y, self.loss_kind)

    def clipped_grad_mean(self, params, X, y, C: float) -> np.ndarray:
        _, A = self._unflatten(params)
        pre, h, out = self._forward(params, X)
        r = losses.residuals(out, y, self.loss_kind)
        G = (r @ A.T) * (pre > 0)  # (n, m): hidden-layer backprop signal
        norms = np.sqrt(
            np.sum(h**2, axis=1) * np.sum(r**2, axis=1)
            + np.sum(G**2, axis=1) * np.sum(X**2, axis=1)
        )
        scale = np.ones_like(norms)
        np.divide(C, norms, out=scale, where=norms > C)
        gU = (G * scale[:, None]).T @ X / len(X)
        gA = (h * scale[:, None]).T @ r / len(X)
        return np.concatenate([gU.ravel(), gA.ravel()])

    def accuracy(self, params, X, labels) -> float:
        return losses.accuracy(self._forward(params, X)[-1], labels)
