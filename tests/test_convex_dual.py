"""Dual-model tests: finite-difference gradient oracles, convexity and
smoothness properties, brute-force pattern enumeration, duality embedding
and checkpoint round-trips."""
import dataclasses
import io
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from convexdp import convex_dual as cd
from convexdp.errors import DomainError, FormatError

import oracles


def make_model(P=3, d=4, k=2, lam=0.1, seed=0):
    arr = cd.sample_arrangement(d, P, seed)
    rng = np.random.default_rng(seed + 1)
    V = rng.standard_normal((P, d, k))
    return cd.DualModel(arrangement=arr, V=V, lam=lam)


def loss_of(model, x, y, bits, kind):
    if kind == "mse":
        return oracles.sample_loss_mse(model, x, y, bits).loss
    return oracles.sample_loss_ce(model, x, int(y), bits).loss


def with_V(model, V):
    return cd.DualModel(arrangement=model.arrangement, V=V, lam=model.lam)


def compute_masks(X, arr):
    """Reference n x P activation masks bits[j, i] = 1(x_j . u_i >= 0), ties
    mapping to 1."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != arr.d:
        raise DomainError(f"X has {X.shape[1] if X.ndim == 2 else '?'} columns, "
                          f"arrangement expects {arr.d}")
    return (X @ arr.U.T) >= 0


# ---------------------------------------------------------------------------
# Gradient oracles (central finite differences)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["mse", "ce"])
def test_per_sample_gradient_finite_difference(kind):
    rng = np.random.default_rng(0)
    h = 1e-6
    worst = 0.0
    for trial in range(100):
        model = make_model(seed=trial)
        x = rng.standard_normal(4)
        bits = (model.arrangement.U @ x >= 0).astype(float)
        if kind == "mse":
            y = rng.standard_normal(2)
        else:
            y = rng.integers(0, 2)
        res = (oracles.sample_loss_mse if kind == "mse" else oracles.sample_loss_ce)(
            model, x, y, bits
        )
        direction = rng.standard_normal(model.V.shape)
        direction /= np.linalg.norm(direction)
        f_plus = loss_of(with_V(model, model.V + h * direction), x, y, bits, kind)
        f_minus = loss_of(with_V(model, model.V - h * direction), x, y, bits, kind)
        numeric = (f_plus - f_minus) / (2.0 * h)
        analytic = float(np.sum(res.gradient * direction))
        denom = max(abs(numeric), abs(analytic), 1e-8)
        worst = max(worst, abs(numeric - analytic) / denom)
    assert worst <= 1e-5


def test_data_term_gradient_excludes_ridge():
    model = make_model(lam=0.7)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(4)
    bits = (model.arrangement.U @ x >= 0).astype(float)
    res = oracles.sample_loss_mse(model, x, rng.standard_normal(2), bits)
    np.testing.assert_allclose(
        res.gradient, res.data_term_gradient + model.lam * model.V, atol=1e-14
    )


def reference_data_grad(obj, params, x, label):
    """Flat data-term gradient of one example from the per-sample losses,
    which the finite-difference test above checks; it shares no code with
    DualObjective's batch path."""
    model = obj.to_model(params)
    bits = obj.arrangement.U @ x >= 0
    if obj.loss_kind == "mse":
        res = oracles.sample_loss_mse(model, x, np.eye(obj.k)[label], bits)
    else:
        res = oracles.sample_loss_ce(model, x, int(label), bits)
    return res.data_term_gradient.ravel()


def test_objective_per_sample_grad_matches_reference():
    arr = cd.sample_arrangement(4, 3, 0)
    for kind in ("mse", "ce"):
        obj = cd.DualObjective(arr, k=2, lam=0.1, loss=kind)
        rng = np.random.default_rng(1)
        params = rng.standard_normal(obj.dim)
        X = rng.standard_normal((8, 4))
        y = rng.integers(0, 2, size=8)
        ref = np.mean([reference_data_grad(obj, params, X[i], y[i]) for i in range(8)],
                      axis=0)
        np.testing.assert_allclose(obj.clipped_grad_mean(params, X, y, math.inf), ref,
                                   atol=1e-12)


def test_clipped_grad_mean_matches_explicit_clipping():
    arr = cd.sample_arrangement(4, 3, 0)
    for kind in ("mse", "ce"):
        obj = cd.DualObjective(arr, k=2, lam=0.1, loss=kind)
        rng = np.random.default_rng(2)
        params = 3.0 * rng.standard_normal(obj.dim)
        X = 2.0 * rng.standard_normal((16, 4))
        y = rng.integers(0, 2, size=16)
        C = 0.5
        explicit = []
        for i in range(16):
            g = reference_data_grad(obj, params, X[i], y[i])
            norm = np.linalg.norm(g)
            explicit.append(g if norm <= C else g * (C / norm))
        np.testing.assert_allclose(
            obj.clipped_grad_mean(params, X, y, C),
            np.mean(explicit, axis=0),
            atol=1e-12,
        )
        # clipping must actually bind for this test to mean anything
        assert any(np.linalg.norm(g) == pytest.approx(C) for g in explicit)


@pytest.mark.parametrize("kind", ["mse", "ce"])
@pytest.mark.parametrize("P, d", [(9, 3), (3, 9)])
def test_blocked_kernel_matches_per_sample_oracle(kind, P, d):
    # Two full row blocks and a ragged third, against the per-row oracles.
    n, k = 2 * cd.ROW_BLOCK + 37, 3
    arr = cd.sample_arrangement(d, P, 5)
    obj = cd.DualObjective(arr, k=k, lam=0.1, loss=kind)
    rng = np.random.default_rng(6)
    params = 0.5 * rng.standard_normal(obj.dim)
    X = rng.standard_normal((n, d))
    y = rng.integers(0, k, size=n)

    block_rows = []
    forward = obj._forward
    obj._forward = lambda p, Xb: block_rows.append(len(Xb)) or forward(p, Xb)

    grads = np.array([reference_data_grad(obj, params, X[j], y[j]) for j in range(n)])
    norms = np.linalg.norm(grads, axis=1)
    C = float(np.median(norms))
    assert np.any(norms > C) and np.any(norms < C)
    clipped = grads * (C / np.maximum(norms, C))[:, None]
    np.testing.assert_allclose(obj.clipped_grad_mean(params, X, y, C),
                               clipped.mean(axis=0), atol=1e-12)

    model = dataclasses.replace(obj.to_model(params), lam=0.0)
    bits = X @ arr.U.T >= 0
    if kind == "mse":
        rows = [oracles.sample_loss_mse(model, x, np.eye(k)[c], b)
                for x, c, b in zip(X, y, bits)]
    else:
        rows = [oracles.sample_loss_ce(model, x, int(c), b) for x, c, b in zip(X, y, bits)]
    np.testing.assert_allclose(obj.data_loss(params, X, y),
                               np.mean([r.loss for r in rows]), atol=1e-12)
    logits = np.array([oracles.forward(model, X[j], bits[j]) for j in range(n)])
    assert obj.accuracy(params, X, y) == np.mean(np.argmax(logits, axis=1) == y)
    # every call above went through the kernel one bounded block at a time
    assert block_rows == 3 * [cd.ROW_BLOCK, cd.ROW_BLOCK, 37]


@given(
    P=st.integers(1, 10),
    d=st.integers(1, 10),
    k=st.integers(1, 4),
    kind=st.sampled_from(["mse", "ce"]),
    n=st.one_of(st.integers(1, 40), st.sampled_from(
        [cd.ROW_BLOCK - 1, cd.ROW_BLOCK, cd.ROW_BLOCK + 1, 2 * cd.ROW_BLOCK + 37])),
    binding=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(P=3, d=9, k=3, kind="ce", n=cd.ROW_BLOCK + 1, binding=True, seed=0)  # d > P
@example(P=9, d=3, k=3, kind="mse", n=cd.ROW_BLOCK - 1, binding=True, seed=1)  # P > d
@example(P=5, d=4, k=1, kind="mse", n=2 * cd.ROW_BLOCK + 37, binding=False, seed=2)
@example(P=5, d=4, k=1, kind="mse", n=cd.ROW_BLOCK, binding=True, seed=3)
@settings(max_examples=40, deadline=None)
def test_kernel_matches_per_sample_oracles_property(P, d, k, kind, n, binding, seed):
    # Gradient, loss and accuracy of the blocked kernel against the per-row
    # oracles, with C either at the median non-zero per-sample norm (some
    # rows clip, some do not) or above every norm (no row clips).
    if kind == "ce" and k < 2:
        k = 2
    arr = cd.sample_arrangement(d, P, seed)
    obj = cd.DualObjective(arr, k=k, lam=0.1, loss=kind)
    rng = np.random.default_rng(seed)
    params = 0.5 * rng.standard_normal(obj.dim)
    X = rng.standard_normal((n, d))
    y = rng.integers(0, k, size=n)

    grads = np.array([reference_data_grad(obj, params, X[j], y[j]) for j in range(n)])
    norms = np.linalg.norm(grads, axis=1)
    positive = norms[norms > 0]  # a row with no open gate has a zero gradient
    if binding and positive.size:
        C = float(np.median(positive))
        assert np.ptp(positive) == 0 or np.any(norms > C)
    else:
        C = 2.0 * float(norms.max()) + 1.0
    clipped = grads * (C / np.maximum(norms, C))[:, None]
    np.testing.assert_allclose(obj.clipped_grad_mean(params, X, y, C),
                               clipped.mean(axis=0), atol=1e-12)

    model = dataclasses.replace(obj.to_model(params), lam=0.0)
    bits = X @ arr.U.T >= 0
    targets = np.eye(k)[y] if kind == "mse" else y
    sample_loss = oracles.sample_loss_mse if kind == "mse" else oracles.sample_loss_ce
    rows = [sample_loss(model, x, t, b).loss for x, t, b in zip(X, targets, bits)]
    np.testing.assert_allclose(obj.data_loss(params, X, y), np.mean(rows), atol=1e-12)
    logits = np.array([oracles.forward(model, X[j], bits[j]) for j in range(n)])
    assert obj.accuracy(params, X, y) == np.mean(np.argmax(logits, axis=1) == y)


@pytest.mark.parametrize("kind", ["mse", "ce"])
def test_clipped_grad_mean_makes_no_layout_copy(kind):
    # With P*d*k far above rows*d*k, the gradient and the one GEMM result
    # added into it are the only parameter-sized arrays a call needs. A copy
    # of V or of the gradient in another layout would add a third.
    d, P, k, b = 20, 1024, 5, 32
    obj = cd.DualObjective(cd.sample_arrangement(d, P, 0), k=k, lam=0.1, loss=kind)
    rng = np.random.default_rng(0)
    params = rng.standard_normal(obj.dim)
    X = rng.standard_normal((b, d))
    y = rng.integers(0, k, size=b)
    obj.clipped_grad_mean(params, X, y, 1.0)
    tracemalloc.start()
    try:
        obj.clipped_grad_mean(params, X, y, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * obj.dim * 8


# ---------------------------------------------------------------------------
# Convexity and smoothness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["mse", "ce"])
def test_strong_convexity_segment_inequality(kind):
    rng = np.random.default_rng(7)
    lam = 0.3
    worst = -math.inf
    for trial in range(1000):
        arr = cd.sample_arrangement(3, 2, trial)
        x = rng.standard_normal(3)
        bits = (arr.U @ x >= 0).astype(float)
        y = rng.standard_normal(2) if kind == "mse" else rng.integers(0, 2)
        V1 = rng.standard_normal((2, 3, 2))
        V2 = rng.standard_normal((2, 3, 2))
        t = rng.uniform(0.0, 1.0)
        f = lambda V: loss_of(
            cd.DualModel(arrangement=arr, V=V, lam=lam), x, y, bits, kind
        )
        lhs = f(t * V1 + (1 - t) * V2)
        gap = 0.5 * lam * t * (1 - t) * float(np.sum((V1 - V2) ** 2))
        violation = lhs - (t * f(V1) + (1 - t) * f(V2) - gap)
        worst = max(worst, violation)
    assert worst <= 1e-9


def test_gradient_lipschitz_bound_blockwise():
    # The (||x||^2 + lambda) constant bounds the curvature within each gate
    # block: with V1, V2 differing only in gate block i, the block-i gradient
    # difference is (bit_i * ||x||^2 + lambda) * ||dV_i||. (Across blocks the
    # joint curvature is (#active gates) * ||x||^2 instead; the accountant's
    # smoothness input follows the blockwise constant.)
    rng = np.random.default_rng(11)
    lam = 0.3
    worst = -math.inf
    for trial in range(1000):
        arr = cd.sample_arrangement(3, 2, 1000 + trial)
        x = rng.standard_normal(3)
        bits = (arr.U @ x >= 0).astype(float)
        y = rng.standard_normal(2)
        V1 = rng.standard_normal((2, 3, 2))
        V2 = V1.copy()
        i = rng.integers(0, 2)
        V2[i] = rng.standard_normal((3, 2))
        g1 = oracles.sample_loss_mse(
            cd.DualModel(arrangement=arr, V=V1, lam=lam), x, y, bits
        ).gradient
        g2 = oracles.sample_loss_mse(
            cd.DualModel(arrangement=arr, V=V2, lam=lam), x, y, bits
        ).gradient
        lhs = float(np.linalg.norm((g1 - g2)[i].ravel()))
        rhs = oracles.lipschitz_beta(x, lam) * float(np.linalg.norm((V1 - V2).ravel()))
        worst = max(worst, lhs - rhs)
    assert worst <= 1e-9


# ---------------------------------------------------------------------------
# Masks and enumeration
# ---------------------------------------------------------------------------


def test_mask_tie_convention():
    arr = cd.Arrangement(U=np.array([[1.0, 0.0], [0.0, 1.0]]), P=2, d=2, seed=0)
    X = np.array([[0.0, -1.0]])
    # x . u1 = 0 -> gate open (tie maps to 1); x . u2 = -1 -> closed
    np.testing.assert_array_equal(compute_masks(X, arr), [[True, False]])
    # the batch kernel's gate bits follow the same convention
    obj = cd.DualObjective(arr, k=1, lam=0.0)
    bits, _ = obj._forward(np.zeros(obj.dim), X)
    np.testing.assert_array_equal(bits, [[1.0, 0.0]])


def brute_force_patterns_2d(X, steps=200_000):
    """Angle-sweep oracle for d = 2: the pattern of 1(Xu >= 0) only changes
    when u crosses a hyperplane normal to some row, so boundary angles plus
    midpoints between consecutive boundaries realize every pattern."""
    angles = []
    for row in X:
        base = math.atan2(row[1], row[0])
        # u perpendicular to the row lies exactly on the gate boundary
        angles.extend([base + math.pi / 2.0, base - math.pi / 2.0])
    angles = sorted(a % (2.0 * math.pi) for a in angles)
    probes = list(angles)
    wrapped = angles + [angles[0] + 2.0 * math.pi]
    probes.extend(
        (lo + hi) / 2.0 for lo, hi in zip(wrapped, wrapped[1:])
    )
    patterns = set()
    for theta in probes:
        u = np.array([math.cos(theta), math.sin(theta)])
        patterns.add(tuple(bool(v) for v in (X @ u >= 0)))
    # the zero vector is also a valid gate parameter (all ties -> all open)
    patterns.add(tuple([True] * len(X)))
    return patterns


def test_enumeration_matches_angle_sweep_oracle():
    rng = np.random.default_rng(5)
    for trial in range(5):
        X = rng.standard_normal((6, 2))
        got = oracles.enumerate_arrangements_tiny(X, saturation=20_000, seed=trial)
        assert got == brute_force_patterns_2d(X)


def test_enumeration_small_cases():
    # two orthogonal points in the plane: all four sign patterns realizable
    assert len(oracles.enumerate_arrangements_tiny(np.eye(2), saturation=5_000)) == 4
    # a single point: gate open or closed
    assert len(
        oracles.enumerate_arrangements_tiny(np.array([[1.0, 2.0]]), saturation=5_000)
    ) == 2


def test_enumeration_rejects_large_instances():
    with pytest.raises(DomainError):
        oracles.enumerate_arrangements_tiny(np.zeros((13, 2)))
    with pytest.raises(DomainError):
        oracles.enumerate_arrangements_tiny(np.zeros((4, 5)))


# ---------------------------------------------------------------------------
# Duality embedding and rescaling
# ---------------------------------------------------------------------------


def random_distinct_pattern_net(rng, n=6, d=2, m=3):
    """ReLU net whose neurons realize pairwise distinct activation patterns."""
    X = rng.standard_normal((n, d))
    y = rng.standard_normal(n)
    while True:
        W = rng.standard_normal((m, d))
        pats = [tuple(bool(v) for v in (X @ u >= 0)) for u in W]
        if len(set(pats)) == m:
            break
    a = rng.standard_normal(m)
    a[a == 0] = 1.0
    return oracles.ReLUNetSpec(weights=W, alphas=a, lam=0.05), X, y


def test_embedding_feasible_and_tight():
    rng = np.random.default_rng(9)
    for _ in range(20):
        net, X, y = random_distinct_pattern_net(rng)
        res = oracles.embed_relu_into_dual(net, X, y)
        assert res.min_constraint_slack >= -1e-10
        assert res.dual_objective <= res.relu_objective + 1e-8
        # distinct patterns: the embedding loses nothing
        assert res.dual_objective == pytest.approx(res.relu_objective, abs=1e-8)


def test_embedding_shared_pattern_no_worse():
    rng = np.random.default_rng(13)
    X = rng.standard_normal((6, 2))
    y = rng.standard_normal(6)
    u = rng.standard_normal(2)
    # two neurons with the same gate pattern and positive outputs
    net = oracles.ReLUNetSpec(
        weights=np.stack([u, 2.0 * u]), alphas=np.array([1.0, 0.5]), lam=0.05
    )
    res = oracles.embed_relu_into_dual(net, X, y)
    assert res.min_constraint_slack >= -1e-10
    assert res.dual_objective <= res.relu_objective + 1e-8


def test_young_scaling_gap():
    rng = np.random.default_rng(17)
    for _ in range(100):
        u = rng.standard_normal(rng.integers(1, 6))
        while np.linalg.norm(u) == 0:
            u = rng.standard_normal(3)
        alpha = float(rng.uniform(0.1, 3.0)) * float(rng.choice([-1.0, 1.0]))
        lam = float(rng.uniform(0.01, 2.0))
        numeric, closed = oracles.young_scaling_gap(u, alpha, lam)
        assert numeric == pytest.approx(closed, abs=1e-8)
        assert closed == pytest.approx(lam * float(u @ u) * alpha**2, abs=1e-12)


# ---------------------------------------------------------------------------
# Interpolation at tiny scale
# ---------------------------------------------------------------------------


def test_interpolation_when_stacked_features_full_rank():
    n, d, P = 24, 8, 16
    hits = 0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        arr = cd.sample_arrangement(d, P, seed + 100)
        bits = compute_masks(X, arr).astype(float)
        stacked = np.hstack([bits[:, [i]] * X for i in range(P)])  # (n, P*d)
        if np.linalg.matrix_rank(stacked) < n:
            continue
        hits += 1
        y = rng.standard_normal(n)
        coef, *_ = np.linalg.lstsq(stacked, y, rcond=None)
        assert np.linalg.norm(stacked @ coef - y) <= 1e-6
    assert hits >= 1  # full rank should occur essentially always


# ---------------------------------------------------------------------------
# Checkpointing
# ---------------------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path):
    model = make_model(lam=0.25)
    path = str(tmp_path / "model.json")
    cd.save_checkpoint(model, path)
    loaded = cd.load_checkpoint(path)
    np.testing.assert_array_equal(loaded.V, model.V)
    np.testing.assert_array_equal(loaded.arrangement.U, model.arrangement.U)
    assert loaded.lam == model.lam
    assert loaded.bias == model.bias
    assert loaded.arrangement.seed == model.arrangement.seed


def test_checkpoint_bytes_match_json_dump(tmp_path):
    # The checkpoint is exactly what json.dump of its payload writes.
    path = tmp_path / "model.json"
    cd.save_checkpoint(make_model(lam=0.25), str(path))
    text = path.read_text()
    expected = io.StringIO()
    json.dump(json.loads(text), expected)
    assert text == expected.getvalue()


def test_forward_shape_validation():
    model = make_model()
    with pytest.raises(DomainError):
        oracles.forward(model, np.zeros(5), np.zeros(3))


def test_objective_refuses_negative_lambda(tmp_path):
    # Refused at construction, not first by to_model's DualModel after
    # training; the model refuses it too, also from a checkpoint.
    arr = cd.sample_arrangement(3, 4, seed=0)
    path = tmp_path / "model.json"
    cd.save_checkpoint(make_model(P=4, d=3), str(path))
    payload = json.loads(path.read_text())
    for lam in (-1e-3, math.nan):
        with pytest.raises(DomainError, match="non-negative"):
            cd.DualObjective(arr, k=2, lam=lam, loss="ce")
        with pytest.raises(DomainError, match="non-negative"):
            make_model(lam=lam)
        path.write_text(json.dumps(dict(payload, **{"lambda": lam})))
        with pytest.raises(DomainError, match="non-negative"):
            cd.load_checkpoint(str(path))
    assert cd.DualObjective(arr, k=2, lam=0.0, loss="ce").lam == 0.0
