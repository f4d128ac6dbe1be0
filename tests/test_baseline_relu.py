"""ReLU baseline tests: forward pass by hand, finite-difference gradients
away from kinks, the rank-one clipping path against explicit per-sample
clipping, the row-blocked kernel, and checkpoint round-trips."""
import io
import json

import numpy as np
import pytest

from convexdp import baseline_relu as br
from convexdp.errors import DomainError

import oracles


def test_forward_by_hand():
    # U = [[1, -1], [0, 2]], A = [[1, 0], [1, 1]], x = (1, 2):
    # pre = (-1, 4), relu = (0, 4), out = (0*1 + 4*1, 0*0 + 4*1) = (4, 4)
    net = br.MLP(U=np.array([[1.0, -1.0], [0.0, 2.0]]),
                 A=np.array([[1.0, 0.0], [1.0, 1.0]]))
    np.testing.assert_allclose(oracles.mlp_forward(net, np.array([1.0, 2.0])), [4.0, 4.0])


def test_init_shapes_and_determinism():
    a = br.init_mlp(5, 3, m=7, seed=2)
    b = br.init_mlp(5, 3, m=7, seed=2)
    assert a.U.shape == (7, 5) and a.A.shape == (7, 3)
    np.testing.assert_array_equal(a.U, b.U)
    assert not np.array_equal(a.U, br.init_mlp(5, 3, m=7, seed=3).U)


@pytest.mark.parametrize("loss", ["mse", "ce"])
def test_per_sample_gradient_finite_difference(loss):
    rng = np.random.default_rng(0)
    h = 1e-6
    worst = 0.0
    checked = 0
    for trial in range(150):
        net = br.init_mlp(4, 2, m=5, seed=trial)
        x = rng.standard_normal(4)
        # keep a safety margin from relu kinks so central differences are valid
        if np.min(np.abs(net.U @ x)) < 1e-3:
            continue
        checked += 1
        y = rng.standard_normal(2) if loss == "mse" else int(rng.integers(0, 2))
        grad = oracles.mlp_per_sample_grad(net, x, y, loss)
        direction = rng.standard_normal(grad.shape)
        direction /= np.linalg.norm(direction)
        dU = direction[:20].reshape(5, 4)
        dA = direction[20:].reshape(5, 2)

        def loss_at(t):
            m = br.MLP(U=net.U + t * dU, A=net.A + t * dA)
            out = oracles.mlp_forward(m, x)
            if loss == "mse":
                r = out - np.asarray(y, dtype=float)
                return 0.5 * float(r @ r)
            shifted = out - out.max()
            return float(np.log(np.exp(shifted).sum()) - shifted[y])

        numeric = (loss_at(h) - loss_at(-h)) / (2.0 * h)
        analytic = float(grad @ direction)
        denom = max(abs(numeric), abs(analytic), 1e-8)
        worst = max(worst, abs(numeric - analytic) / denom)
    assert checked >= 100
    assert worst <= 1e-4


def test_kink_subgradient_is_zero():
    # pre-activation exactly 0: activation derivative must be 0, so the
    # hidden-weight gradient row vanishes while the output row sees h = 0.
    net = br.MLP(U=np.array([[1.0, -1.0]]), A=np.array([[2.0]]))
    g = oracles.mlp_per_sample_grad(net, np.array([1.0, 1.0]), np.array([1.0]), "mse")
    np.testing.assert_array_equal(g, np.zeros(3))


def test_objective_clipped_grad_matches_explicit():
    for loss in ("mse", "ce"):
        obj = br.MLPObjective(4, 2, m=5, loss=loss)
        rng = np.random.default_rng(1)
        params = obj.init_params(0) * 3.0
        X = 2.0 * rng.standard_normal((10, 4))
        y = rng.integers(0, 2, size=10)
        C = 0.3
        U, A = obj._unflatten(params)
        net = br.MLP(U=U, A=A)
        explicit = []
        for i in range(10):
            target = np.eye(2)[y[i]] if loss == "mse" else int(y[i])
            g = oracles.mlp_per_sample_grad(net, X[i], target, loss)
            norm = np.linalg.norm(g)
            explicit.append(g if norm <= C else g * (C / norm))
        np.testing.assert_allclose(
            obj.clipped_grad_mean(params, X, y, C),
            np.mean(explicit, axis=0),
            atol=1e-12,
        )
        assert any(np.linalg.norm(g) == pytest.approx(C) for g in explicit)


def test_objective_loss_matches_reference():
    obj = br.MLPObjective(3, 2, m=4, loss="ce")
    rng = np.random.default_rng(5)
    params = obj.init_params(1)
    X = rng.standard_normal((6, 3))
    y = rng.integers(0, 2, size=6)
    U, A = obj._unflatten(params)
    net = br.MLP(U=U, A=A)
    ref = []
    for i in range(6):
        out = oracles.mlp_forward(net, X[i])
        shifted = out - out.max()
        ref.append(float(np.log(np.exp(shifted).sum()) - shifted[y[i]]))
    assert obj.data_loss(params, X, y) == pytest.approx(np.mean(ref), abs=1e-12)


@pytest.mark.parametrize("loss", ["mse", "ce"])
def test_blocked_kernel_matches_per_sample_oracle(loss):
    # Two full row blocks and a ragged third, against the per-row oracles.
    n, d, k, m = 2 * br.ROW_BLOCK + 37, 5, 3, 7
    obj = br.MLPObjective(d, k, m=m, loss=loss)
    rng = np.random.default_rng(4)
    params = 2.0 * obj.init_params(3)
    X = rng.standard_normal((n, d))
    y = rng.integers(0, k, size=n)

    block_rows = []
    forward = obj._forward
    obj._forward = lambda p, Xb: block_rows.append(len(Xb)) or forward(p, Xb)

    net = br.MLP(*obj._unflatten(params))
    targets = np.eye(k)[y] if loss == "mse" else y
    grads = np.array([oracles.mlp_per_sample_grad(net, X[j], targets[j], loss)
                      for j in range(n)])
    norms = np.linalg.norm(grads, axis=1)
    C = float(np.median(norms))
    assert np.any(norms > C) and np.any(norms < C)
    clipped = grads * (C / np.maximum(norms, C))[:, None]
    np.testing.assert_allclose(obj.clipped_grad_mean(params, X, y, C),
                               clipped.mean(axis=0), atol=1e-12)

    logits = np.array([oracles.mlp_forward(net, x) for x in X])
    if loss == "mse":
        ref_loss = 0.5 * np.sum((logits - targets) ** 2, axis=1)
    else:
        shifted = logits - logits.max(axis=1, keepdims=True)
        ref_loss = np.log(np.exp(shifted).sum(axis=1)) - shifted[np.arange(n), y]
    np.testing.assert_allclose(obj.data_loss(params, X, y), ref_loss.mean(),
                               atol=1e-12)
    assert obj.accuracy(params, X, y) == np.mean(np.argmax(logits, axis=1) == y)
    # every call above went through the kernel one bounded block at a time
    assert block_rows == 3 * [br.ROW_BLOCK, br.ROW_BLOCK, 37]


def test_checkpoint_bytes_match_json_dump(tmp_path):
    # The checkpoint is exactly what json.dump of its payload writes.
    path = tmp_path / "mlp.json"
    br.save_checkpoint(br.init_mlp(4, 3, m=6, seed=9), str(path))
    text = path.read_text()
    expected = io.StringIO()
    json.dump(json.loads(text), expected)
    assert text == expected.getvalue()


def test_checkpoint_roundtrip(tmp_path):
    net = br.init_mlp(4, 3, m=6, seed=9)
    path = str(tmp_path / "mlp.json")
    br.save_checkpoint(net, path)
    loaded = br.load_checkpoint(path)
    np.testing.assert_array_equal(loaded.U, net.U)
    np.testing.assert_array_equal(loaded.A, net.A)


def test_validation():
    with pytest.raises(DomainError):
        br.MLP(U=np.zeros((2, 3)), A=np.zeros((3, 1)))  # width mismatch
    with pytest.raises(DomainError):
        oracles.mlp_per_sample_grad(br.init_mlp(2, 2, m=2), np.zeros(2), 5, "ce")
    with pytest.raises(DomainError):
        br.MLPObjective(2, 2, loss="hinge")
