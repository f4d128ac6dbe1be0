"""Loss and evaluation head shared by the gated linear model and the MLP baseline.

Both models end in k logits per row, and a label is a class index.
``mse`` regresses the logits onto the labels' one-hot targets; ``ce`` is
softmax cross-entropy. Residuals are the per-row gradients of the loss
with respect to the logits.
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


def logits(objective, params: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The n x k logits of every row of X: the last output of the
    objective's kernel ``_forward``, on ``ROW_BLOCK`` rows at a time."""
    out = np.empty((len(X), objective.k))
    for s in range(0, len(X), ROW_BLOCK):
        out[s : s + ROW_BLOCK] = objective._forward(params, X[s : s + ROW_BLOCK])[-1]
    return out


def residuals(logits: np.ndarray, y, kind: str) -> np.ndarray:
    """d loss / d logits per row: logits - onehot, or softmax - onehot."""
    n, k = logits.shape
    if kind == "mse":
        return logits - one_hot(y, k)
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted)
    probs /= probs.sum(axis=1, keepdims=True)
    probs[np.arange(n), np.asarray(y, dtype=int)] -= 1.0
    return probs


def clip_scale(norms: np.ndarray, C: float) -> np.ndarray:
    """Per-row clip factors: min(1, C / norm)."""
    scale = np.ones_like(norms)
    np.divide(C, norms, out=scale, where=norms > C)
    return scale


# The evaluation head: each objective binds these in its own class body, so
# they are its methods, over its ``_forward``, ``k`` and ``loss_kind``.
def data_loss(objective, params: np.ndarray, X: np.ndarray, y) -> float:
    """Mean per-row data-term loss over (X, y): 0.5*||r||^2, or the CE
    negative log-likelihood."""
    z = logits(objective, params, X)
    if objective.loss_kind == "mse":
        return 0.5 * float(np.sum(residuals(z, y, "mse") ** 2)) / len(z)
    shifted = z - z.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    picked = shifted[np.arange(len(z)), np.asarray(y, dtype=int)]
    return float(np.mean(log_z - picked))


def accuracy(objective, params: np.ndarray, X: np.ndarray, labels) -> float:
    """Fraction of rows whose largest logit is at the label."""
    return float(np.mean(np.argmax(logits(objective, params, X), axis=1)
                         == np.asarray(labels)))
