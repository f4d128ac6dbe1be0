"""Reference oracles that only the tests use.

Weight records of both models (the package keeps them as flat parameters),
per-sample dual-model losses and gradients, the per-gate-block smoothness
constant, tiny-scale arrangement enumeration, the ReLU-to-dual embedding
and the Young rescaling check, and per-example forward and backprop for
the MLP baseline. The package computes the same quantities batched (or
not at all); these loop over single rows so that the tests can check it.
The noisy mini-batch loop is kept here as it was before its noise moved to
a worker thread: one ``standard_normal(dim)`` draw per step, on the calling
thread. The accountant's two Gaussian hockey-stick
implementations are kept as they were before ``gaussian_delta`` replaced
both. The RDP-to-DP conversion is here because no package code calls it.
The exact mu of NoisyCGD on linear losses is the instance the NoisyCGD
bound must dominate.
"""
from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
from scipy.optimize import minimize_scalar

from convexdp.accountant import NoisyCGDSpec, log_ndtr, ndtr
from convexdp.convex_dual import Arrangement
from convexdp.errors import DomainError, NumericError
from convexdp.optimizers import _check_finite


@dataclasses.dataclass(frozen=True)
class DualModel:
    """Gated linear model weights: V (P x d x k) over an arrangement's gates,
    with the ridge weight the per-sample losses add."""

    arrangement: Arrangement
    V: np.ndarray
    lam: float = 0.0

    @property
    def k(self) -> int:
        return self.V.shape[2]


@dataclasses.dataclass(frozen=True)
class MLP:
    """One-hidden-layer ReLU net weights: hidden U (m x d), output A (m x k)."""

    U: np.ndarray
    A: np.ndarray

    @property
    def k(self) -> int:
        return self.A.shape[1]


def dual_model(objective, params, lam: float = 0.0) -> DualModel:
    """The weights of a ``DualObjective``'s flat parameters."""
    arr = objective.arrangement
    return DualModel(arr, params.reshape(arr.P, arr.d, objective.k), lam)


def mlp(objective, params) -> MLP:
    """The weights of an ``MLPObjective``'s flat parameters."""
    return MLP(*objective._unflatten(params))


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
# MLP baseline, one example at a time
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Private optimizers, one sequential noise draw per step
# ---------------------------------------------------------------------------


def sequential_noisy_minibatch_loop(objective, params0, X, y, cfg, next_batch,
                                    noise_rng):
    """``optimizers._noisy_minibatch_loop`` without an eval_fn, drawing each
    step's noise from ``noise_rng`` after its gradient."""
    y = np.asarray(y)
    params = np.array(params0, dtype=float, copy=True)
    records = []
    noise_scale = cfg.C * cfg.sigma / cfg.b
    it = 0
    for epoch in range(1, cfg.epochs + 1):
        for _ in range(len(X) // cfg.b):
            idx = next_batch(it)
            g = objective.clipped_grad_mean(params, X[idx], y[idx], cfg.C)
            z = noise_rng.standard_normal(len(params))
            z *= noise_scale
            z += g
            z += objective.lam * params
            z *= float(cfg.eta)
            params -= z
            _check_finite(params, f"iteration {it}")
            it += 1
        records.append(dict(
            epoch=epoch,
            train_loss=objective.data_loss(params, X, y)
            + 0.5 * objective.lam * float(params @ params),
            test_accuracy=None,
        ))
    return params, records



def hockey_stick_gaussian(alpha, mu: float):
    """H_alpha(N(mu,1) || N(0,1)) on an array of alpha >= 0, as the subsampled
    profile computed it: 1 at alpha = 0, else with t* = log(alpha)/mu + mu/2."""
    alpha = np.atleast_1d(np.asarray(alpha, dtype=float))
    out = np.ones_like(alpha)
    pos = alpha > 0
    log_alpha = np.log(alpha[pos])
    tstar = log_alpha / mu + mu / 2.0
    out[pos] = ndtr(mu - tstar) - np.exp(log_alpha + log_ndtr(-tstar))
    return np.clip(out, 0.0, 1.0)


@dataclasses.dataclass(frozen=True)
class gaussian_profile:
    """The mu-GDP curve as the NoisyCGD route evaluated it, one eps at a time:
    Phi(-eps/mu + mu/2) - exp(eps + log Phi(-eps/mu - mu/2)) on a 0-d array."""

    mu: float

    def delta(self, eps) -> float:
        eps = np.asarray(float(eps))
        a = -eps / self.mu + self.mu / 2.0
        b = -eps / self.mu - self.mu / 2.0
        out = np.clip(ndtr(a) - np.exp(eps + log_ndtr(b)), 0.0, 1.0)
        return float(np.clip(out, 0.0, 1.0))


def rdp_to_dp(alpha: float, eps_rdp: float, eps: float) -> float:
    """delta(eps) of an (alpha, eps_rdp)-RDP mechanism.

    exp((alpha-1)(eps_rdp - eps))/alpha * (1 - 1/alpha)^(alpha-1),
    clamped to [0, 1].
    """
    if not all(map(math.isfinite, (alpha, eps_rdp, eps))):
        raise DomainError(
            f"alpha, eps_rdp and eps must be finite, got {alpha!r}, {eps_rdp!r}, {eps!r}")
    if alpha <= 1:
        raise DomainError(f"alpha must exceed 1, got {alpha!r}")
    log_val = (
        (alpha - 1.0) * (eps_rdp - eps)
        - math.log(alpha)
        + (alpha - 1.0) * math.log1p(-1.0 / alpha)
    )
    if log_val >= 0:
        return 1.0
    return math.exp(log_val)


def noisycgd_linear_mu(spec: NoisyCGDSpec) -> float:
    """Exact mu-GDP of NoisyCGD's last iterate on linear per-sample losses
    ``<g_i, theta>``, swapped rows' gradients at most ``L`` apart, plus the
    ridge ``lambda_sc``; ``beta_sm`` is not read.

    Each step ``theta <- c*theta - eta*(mean g + Z)``, with
    ``c = 1 - eta*lambda_sc`` and ``Z ~ N(0, sigma^2 I)``, is an affine
    Gaussian recursion. Over ``T = E*k`` steps, swapping one row of batch j
    moves the last iterate by ``eta*(L/b) * sum_e c^(T-1-(e*k+j))``, and its
    noise std is ``eta*sigma*sqrt(sum_t c^(2(T-1-t)))``; mu is the largest
    ratio of the two over j.
    """
    c = 1.0 - spec.eta * spec.lambda_sc
    decay = c ** np.arange(spec.E * spec.k - 1, -1, -1.0)  # c^(T-1-t) at step t
    gaps = spec.eta * spec.L / spec.b * decay.reshape(spec.E, spec.k).sum(axis=0)
    std = spec.eta * spec.sigma * math.sqrt(float(decay @ decay))
    return float(np.abs(gaps).max()) / std
