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
import itertools
import json
import math
from typing import Optional

import numpy as np
from scipy.optimize import minimize_scalar

from . import losses
from .errors import DomainError, NumericError

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


@dataclasses.dataclass(frozen=True)
class MaskTable:
    """Boolean n x P table: bits[j, i] = 1(x_j . u_i >= 0)."""

    bits: np.ndarray


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
        if self.lam < 0:
            raise DomainError("lambda must be non-negative")

    @property
    def k(self) -> int:
        return self.V.shape[2]


@dataclasses.dataclass(frozen=True)
class SampleLossResult:
    loss: float
    gradient: np.ndarray
    data_term_gradient: np.ndarray


@dataclasses.dataclass(frozen=True)
class ReLUNetSpec:
    """One-hidden-layer scalar ReLU net used in tiny duality checks."""

    weights: np.ndarray  # (m, d)
    alphas: np.ndarray  # (m,)
    lam: float


# ---------------------------------------------------------------------------
# Arrangements and masks
# ---------------------------------------------------------------------------


def sample_arrangement(d: int, P: int, seed: int) -> Arrangement:
    """Sample P i.i.d. N(0, I_d) gate vectors from a dedicated RNG stream."""
    if d < 1 or P < 1:
        raise DomainError("d and P must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return Arrangement(U=rng.standard_normal((P, d)), P=P, d=d, seed=seed)


def compute_masks(X: np.ndarray, arr: Arrangement) -> MaskTable:
    """Activation masks bits[j, i] = 1(x_j . u_i >= 0), ties mapping to 1."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != arr.d:
        raise DomainError(f"X has {X.shape[1] if X.ndim == 2 else '?'} columns, "
                          f"arrangement expects {arr.d}")
    return MaskTable(bits=(X @ arr.U.T) >= 0)


def add_bias_column(X: np.ndarray) -> np.ndarray:
    """Append a constant-1 feature (affine gates and model)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return np.hstack([X, np.ones((X.shape[0], 1))])


# ---------------------------------------------------------------------------
# Forward, losses, per-sample gradients
# ---------------------------------------------------------------------------


def forward(model: DualModel, x: np.ndarray, gate_bits: np.ndarray) -> np.ndarray:
    """Model output: out_c = sum_i bits_i * (x . V[i, :, c])."""
    x = np.asarray(x, dtype=float)
    bits = np.asarray(gate_bits)
    if x.shape != (model.arrangement.d,) or bits.shape != (model.arrangement.P,):
        raise DomainError("x / gate_bits shapes do not match the model")
    return np.einsum("i,idc,d->c", bits.astype(float), model.V, x)


def sample_loss_mse(
    model: DualModel, x: np.ndarray, y: np.ndarray, bits: np.ndarray
) -> SampleLossResult:
    """Per-sample squared loss 0.5*||g(x) - y||^2 + (lam/2)*||V||^2.

    The data-term gradient is the rank-one tensor bits (x) x (x) residual;
    the full gradient adds lam*V.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    out = forward(model, x, bits)
    r = out - y
    data_grad = np.einsum("i,d,c->idc", np.asarray(bits, dtype=float), x, r)
    loss = 0.5 * float(r @ r) + 0.5 * model.lam * float(np.sum(model.V**2))
    return SampleLossResult(
        loss=loss,
        gradient=data_grad + model.lam * model.V,
        data_term_gradient=data_grad,
    )


def sample_loss_ce(
    model: DualModel, x: np.ndarray, label: int, bits: np.ndarray
) -> SampleLossResult:
    """Per-sample softmax cross-entropy on the model logits.

    Gradient backpropagates (softmax - onehot) through the gated linear map;
    the ridge term is kept separate exactly as in the squared-loss case.
    """
    k = model.k
    if k < 2:
        raise DomainError("cross-entropy requires k >= 2 outputs")
    if not (0 <= label < k):
        raise DomainError(f"label {label!r} out of range for k={k}")
    logits = forward(model, x, bits)
    shifted = logits - logits.max()
    log_z = math.log(np.exp(shifted).sum())
    probs = np.exp(shifted - log_z)
    r = probs.copy()
    r[label] -= 1.0
    data_grad = np.einsum("i,d,c->idc", np.asarray(bits, dtype=float), x, r)
    loss = float(log_z - shifted[label]) + 0.5 * model.lam * float(np.sum(model.V**2))
    return SampleLossResult(
        loss=loss,
        gradient=data_grad + model.lam * model.V,
        data_term_gradient=data_grad,
    )


def lipschitz_beta(x: np.ndarray, lam: float) -> float:
    """Per-gate-block gradient Lipschitz constant ||x||^2 + lambda.

    Within a single gate block the per-sample Hessian is bounded by
    bit_i * x x^T + lambda*I; this is the smoothness constant the GDP
    accountant consumes. The joint curvature across all blocks can reach
    (#active gates) * ||x||^2 + lambda.
    """
    x = np.asarray(x, dtype=float)
    return float(x @ x) + lam


# ---------------------------------------------------------------------------
# Tiny-scale arrangement enumeration
# ---------------------------------------------------------------------------


def _pattern(X: np.ndarray, u: np.ndarray) -> tuple:
    return tuple(bool(v) for v in (X @ u >= 0))


def enumerate_arrangements_tiny(
    X: np.ndarray, saturation: int = 100_000, seed: int = 0
) -> set:
    """All realizable activation patterns 1(Xu >= 0) for a tiny instance.

    Candidates come from solutions of sign-perturbed row subsystems
    X_S u = sigma over every subset S of up to d rows and every sigma in
    {-1, 0, +1}^|S| (zero entries land exactly on gate boundaries, which the
    tie convention maps to 1), topped up with dense random sampling until no
    new pattern appears for `saturation` consecutive draws. The resulting
    count is asserted against the 2r(e(n-1)/r)^r bound (vacuous at n=1).
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    if n > 12 or d > 4:
        raise DomainError("enumeration limited to n <= 12, d <= 4")

    patterns = {_pattern(X, np.zeros(d))}
    for s in range(1, min(d, n) + 1):
        for rows in itertools.combinations(range(n), s):
            Xs = X[list(rows)]
            pinv = np.linalg.pinv(Xs)
            for sigma in itertools.product((-1.0, 0.0, 1.0), repeat=s):
                u = pinv @ np.asarray(sigma)
                patterns.add(_pattern(X, u))
                patterns.add(_pattern(X, -u))

    rng = np.random.default_rng(seed)
    misses = 0
    block = 2048
    while misses < saturation:
        us = rng.standard_normal((block, d))
        bits = us @ X.T >= 0
        new = False
        for row in bits:
            pat = tuple(bool(v) for v in row)
            if pat not in patterns:
                patterns.add(pat)
                new = True
        misses = 0 if new else misses + block

    r = np.linalg.matrix_rank(X)
    if n >= 2 and r >= 1:
        bound = 2 * r * (math.e * (n - 1) / r) ** r
        if len(patterns) > bound:
            raise NumericError(
                f"found {len(patterns)} patterns, exceeding the bound {bound:.1f}"
            )
    return patterns


# ---------------------------------------------------------------------------
# Duality checks
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class EmbedResult:
    v: dict  # pattern tuple -> vector (positive output weights)
    w: dict  # pattern tuple -> vector (negative output weights)
    relu_objective: float
    dual_objective: float
    min_constraint_slack: float
    skipped_neurons: int


def relu_objective(net: ReLUNetSpec, X: np.ndarray, y: np.ndarray) -> float:
    """0.5*||sum_j phi(X u_j) a_j - y||^2 + (lam/2) sum_j (||u_j||^2 + a_j^2)."""
    act = np.maximum(X @ net.weights.T, 0.0)  # (n, m)
    resid = act @ net.alphas - y
    reg = 0.5 * net.lam * float(
        np.sum(net.weights**2) + np.sum(net.alphas**2)
    )
    return 0.5 * float(resid @ resid) + reg


def embed_relu_into_dual(
    net: ReLUNetSpec, X: np.ndarray, y: np.ndarray
) -> EmbedResult:
    """Map a ReLU net into the group-regularized dual and evaluate both sides.

    Each neuron is first rescaled to the balanced form ||u_j|| = |a_j|
    (leaves the data term invariant); its contribution u_j * a_j then
    accumulates into v_i or w_i according to the sign of a_j and the
    neuron's activation pattern i. When no pattern is shared the dual
    objective (with group regularization lam * sum(||v_i|| + ||w_i||))
    equals the ReLU objective; sharing can only lower the dual side.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    skipped = 0
    scaled_w, scaled_a = [], []
    for u, a in zip(np.asarray(net.weights, dtype=float), net.alphas):
        nu = float(np.linalg.norm(u))
        if nu == 0.0 or a == 0.0:
            skipped += 1
            continue
        gamma = math.sqrt(abs(a) / nu)
        scaled_w.append(gamma * u)
        scaled_a.append(a / gamma)
    if not scaled_w:
        raise DomainError("all neurons degenerate (zero weight or output)")
    W = np.asarray(scaled_w)
    A = np.asarray(scaled_a)
    balanced = ReLUNetSpec(weights=W, alphas=A, lam=net.lam)
    relu_obj = relu_objective(balanced, X, y)

    v: dict = {}
    w: dict = {}
    for u, a in zip(W, A):
        pat = _pattern(X, u)
        if a >= 0:
            v[pat] = v.get(pat, np.zeros(X.shape[1])) + u * a
        else:
            w[pat] = w.get(pat, np.zeros(X.shape[1])) - u * a

    pred = np.zeros(X.shape[0])
    group_norm = 0.0
    min_slack = math.inf
    for table, sign in ((v, 1.0), (w, -1.0)):
        for pat, vec in table.items():
            mask = np.asarray(pat, dtype=float)
            pred += sign * mask * (X @ vec)
            group_norm += float(np.linalg.norm(vec))
            slack = float(np.min((2.0 * mask - 1.0) * (X @ vec)))
            min_slack = min(min_slack, slack)
    resid = pred - y
    dual_obj = 0.5 * float(resid @ resid) + net.lam * group_norm
    return EmbedResult(
        v=v,
        w=w,
        relu_objective=relu_obj,
        dual_objective=dual_obj,
        min_constraint_slack=min_slack,
        skipped_neurons=skipped,
    )


def young_scaling_gap(u: np.ndarray, alpha: float, lam: float):
    """Numeric vs closed-form minimum of the quartic rescaling objective.

    min over gamma > 0 of (lam/2)(gamma^4 ||u||^4 + alpha^4 / gamma^4)
    equals lam * ||u||^2 * alpha^2 at gamma* = sqrt(|alpha| / ||u||).
    Returns (numeric minimum by golden-section, closed form).
    """
    u = np.asarray(u, dtype=float)
    nu = float(np.linalg.norm(u))
    if nu == 0.0 or alpha == 0.0:
        raise DomainError("u and alpha must be nonzero")
    gamma_star = math.sqrt(abs(alpha) / nu)

    def objective(g):
        return 0.5 * lam * ((g**4) * nu**4 + alpha**4 / g**4)

    res = minimize_scalar(
        objective,
        bracket=(gamma_star / 4.0, gamma_star, gamma_star * 4.0),
        method="golden",
        options={"xtol": 1e-10},
    )
    closed = lam * nu**2 * alpha**2
    return float(res.fun), closed


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def save_checkpoint(model: DualModel, path: str) -> None:
    """JSON container with everything needed to reload without re-deriving."""
    payload = {
        "d": model.arrangement.d,
        "P": model.arrangement.P,
        "k": model.k,
        "seed": model.arrangement.seed,
        "lambda": model.lam,
        "bias_flag": model.bias,
        "U": model.arrangement.U.ravel().tolist(),
        "V": model.V.ravel().tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_checkpoint(path: str) -> DualModel:
    with open(path) as fh:
        payload = json.load(fh)
    d, P, k = payload["d"], payload["P"], payload["k"]
    arr = Arrangement(
        U=np.asarray(payload["U"], dtype=float).reshape(P, d),
        P=P,
        d=d,
        seed=payload["seed"],
    )
    return DualModel(
        arrangement=arr,
        V=np.asarray(payload["V"], dtype=float).reshape(P, d, k),
        lam=payload["lambda"],
        bias=payload["bias_flag"],
    )


# ---------------------------------------------------------------------------
# Batch-level objective used by the optimizers
# ---------------------------------------------------------------------------


class DualObjective:
    """Flat-parameter view of the dual model for the training loops.

    Per-sample data-term gradients are rank-one outer products
    bits (x) x (x) residual, so clipping factors and clipped sums are
    computed without materializing the per-sample gradient tensor.
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
        self.arrangement = arrangement
        self.k = k
        self.lam = lam
        self.loss_kind = loss
        self.bias = bias
        self.dim = arrangement.P * arrangement.d * k

    # -- helpers ----------------------------------------------------------
    def _tensor(self, params: np.ndarray) -> np.ndarray:
        return params.reshape(self.arrangement.P, self.arrangement.d, self.k)

    def _forward(self, params: np.ndarray, X: np.ndarray):
        """Gate bits and logits of the rows of X."""
        bits = (X @ self.arrangement.U.T >= 0).astype(float)
        return bits, np.einsum("bi,bd,idc->bc", bits, X, self._tensor(params))

    # -- optimizer interface ----------------------------------------------
    def init_params(self, seed: int) -> np.ndarray:
        """Zeros; ``seed`` is unused and kept for the MLPObjective signature."""
        return np.zeros(self.dim)

    def data_loss(self, params: np.ndarray, X: np.ndarray, y) -> float:
        """Mean per-sample data-term loss over (X, y)."""
        return losses.mean_loss(self._forward(params, X)[-1], y, self.loss_kind)

    def clipped_grad_mean(
        self, params: np.ndarray, X: np.ndarray, y, C: float
    ) -> np.ndarray:
        """Mean of per-sample data-term gradients, each clipped to norm C."""
        bits, logits = self._forward(params, X)
        r = losses.residuals(logits, y, self.loss_kind)
        # ||g_b||^2 = (#active gates) * ||x_b||^2 * ||r_b||^2 (rank-one form)
        norms = np.sqrt(
            bits.sum(axis=1) * np.sum(X**2, axis=1) * np.sum(r**2, axis=1)
        )
        scale = np.ones_like(norms)
        np.divide(C, norms, out=scale, where=norms > C)
        grad = np.einsum("b,bi,bd,bc->idc", scale, bits, X, r) / len(X)
        return grad.ravel()

    def accuracy(self, params: np.ndarray, X: np.ndarray, labels) -> float:
        return losses.accuracy(self._forward(params, X)[-1], labels)

    def to_model(self, params: np.ndarray) -> DualModel:
        return DualModel(
            arrangement=self.arrangement,
            V=self._tensor(params).copy(),
            lam=self.lam,
            bias=self.bias,
        )
