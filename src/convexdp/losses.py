"""Loss head shared by the gated linear model and the MLP baseline.

Both models end in k logits per row. ``mse`` regresses the logits onto
one-hot targets (integer labels) or onto given real targets; ``ce`` is
softmax cross-entropy on integer labels. Residuals are the per-row
gradients of the loss with respect to the logits.
"""
from __future__ import annotations

import numpy as np

from .data import one_hot
from .errors import DomainError

#: Rows per pass through an objective's forward kernel. Both objectives
#: evaluate and differentiate ``ROW_BLOCK`` rows at a time, so their
#: rows x (gates or hidden units) temporaries stay one block in size.
ROW_BLOCK = 256


def check_head(loss: str, k: int, lam: float) -> None:
    """Refuse an unknown loss kind, cross-entropy over fewer than two
    classes, and a ridge weight that is negative or nan."""
    if loss not in ("mse", "ce"):
        raise DomainError(f"unknown loss kind {loss!r}")
    if loss == "ce" and k < 2:
        raise DomainError("cross-entropy requires k >= 2")
    if not lam >= 0:  # nan too
        raise DomainError(f"lambda must be non-negative, got {lam!r}")


def residuals(logits: np.ndarray, y, kind: str) -> np.ndarray:
    """d loss / d logits per row: logits - target, or softmax - onehot."""
    n, k = logits.shape
    if kind == "mse":
        y = np.asarray(y)
        targets = one_hot(y, k) if np.issubdtype(y.dtype, np.integer) else (
            np.atleast_2d(np.asarray(y, dtype=float)).reshape(n, k))
        return logits - targets
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    probs[np.arange(n), np.asarray(y, dtype=int)] -= 1.0
    return probs


def mean_loss(logits: np.ndarray, y, kind: str) -> float:
    """Mean per-row data-term loss: 0.5*||r||^2, or the CE negative log-likelihood."""
    if kind == "mse":
        return 0.5 * float(np.sum(residuals(logits, y, kind) ** 2)) / len(logits)
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(len(logits)), np.asarray(y, dtype=int)]
    return float(np.mean(log_z - picked))


def accuracy(logits: np.ndarray, labels) -> float:
    """Fraction of rows whose largest logit is at the label."""
    return float(np.mean(np.argmax(logits, axis=1) == np.asarray(labels)))
