"""Differentially private training of convexified two-layer ReLU networks.

Subpackages:

* ``accountant`` -- numerical (epsilon, delta) accounting: PLD/FFT
  composition for subsampled DP-SGD and the closed-form GDP bound for
  noisy cyclic mini-batch GD.
* ``convex_dual`` -- the gated linear (convex dual) model: arrangements,
  the gate-factored batch objective with clipped per-sample gradients,
  checkpoints.
* ``losses`` -- the MSE / softmax cross-entropy head (blocked logits,
  residuals, mean loss, accuracy) shared by the dual model and the MLP
  baseline.
* ``optimizers`` -- one noisy mini-batch loop behind DP-SGD and NoisyCGD.
* ``baseline_relu`` -- one-hidden-layer ReLU network baseline.
* ``data`` -- IDX/CSV loading, synthetic data, subsets and splits.
* ``cli`` -- the experiment harness.
"""

from . import accountant, baseline_relu, convex_dual, data, losses, optimizers
from .errors import (
    ConfigError,
    DomainError,
    FormatError,
    NumericError,
    ResourceError,
)

__all__ = [
    "accountant",
    "baseline_relu",
    "convex_dual",
    "data",
    "losses",
    "optimizers",
    "ConfigError",
    "DomainError",
    "FormatError",
    "NumericError",
    "ResourceError",
]

__version__ = "0.1.0"
