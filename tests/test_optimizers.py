"""Optimizer tests: projection against brute-force QP oracles,
one-step analytic oracles, determinism, noise-stream independence, and the
DP-SGD / NoisyCGD harness equivalence under a shared batch schedule."""
import math

import numpy as np
import pytest

from convexdp import convex_dual as cd
from convexdp import optimizers as opt
from convexdp.errors import ConfigError, NumericError


def quadratic_objective(dim=4, lam=0.5, seed=0):
    """Dual objective on a fixed tiny instance (used by most tests)."""
    arr = cd.sample_arrangement(dim, 3, seed)
    return cd.DualObjective(arr, k=2, lam=lam, loss="mse")


def tiny_data(n=12, d=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)), rng.integers(0, 2, size=n)


# ---------------------------------------------------------------------------
# Projections
# ---------------------------------------------------------------------------


def band_qp_oracle(v, a, y, C):
    """Brute-force QP: min ||x - v||^2 s.t. y - C <= a.x <= y + C.

    Enumerates the active sets (none, upper plane, lower plane); each
    equality-constrained subproblem is solved exactly by its Lagrange
    system x = v - nu * a, nu = (a.v - bnd) / ||a||^2. The feasible
    candidate with the smallest objective is the global optimum.
    """
    candidates = []
    if abs(a @ v - y) <= C:
        candidates.append(np.asarray(v, dtype=float))
    for bnd in (y - C, y + C):
        x = v - ((a @ v - bnd) / (a @ a)) * a
        if abs(a @ x - y) <= C + 1e-12:
            candidates.append(x)
    assert candidates
    return min(candidates, key=lambda x: float(np.sum((x - v) ** 2)))


def test_project_band_matches_qp_oracle():
    rng = np.random.default_rng(0)
    for _ in range(100):
        dim = rng.integers(2, 6)
        v = 3.0 * rng.standard_normal(dim)
        a = rng.standard_normal(dim)
        while np.linalg.norm(a) < 1e-3:
            a = rng.standard_normal(dim)
        y = float(rng.standard_normal())
        C = float(rng.uniform(0.05, 1.0))
        got = opt.project_band(v, a, y, C)
        want = band_qp_oracle(v, a, y, C)
        np.testing.assert_allclose(got, want, atol=1e-8)
        # result is feasible and idempotence is exact
        assert abs(a @ got - y) <= C + 1e-10
        np.testing.assert_array_equal(opt.project_band(got, a, y, C), got)


def test_project_halfspace_basics():
    a = np.array([1.0, 0.0])
    np.testing.assert_allclose(
        opt.project_halfspace(np.array([2.0, 3.0]), a, 1.0), [1.0, 3.0]
    )
    v = np.array([0.5, -1.0])  # already feasible: untouched
    np.testing.assert_array_equal(opt.project_halfspace(v, a, 1.0), v)


def test_make_projection_kinds():
    assert opt.make_projection("none") is None
    ball = opt.make_projection("ball", radius=1.0)
    assert np.linalg.norm(ball(np.array([3.0, 4.0]))) == pytest.approx(1.0)
    with pytest.raises(ConfigError):
        opt.make_projection("polytope")


# ---------------------------------------------------------------------------
# DP-SGD loop
# ---------------------------------------------------------------------------


def test_dpsgd_one_step_analytic():
    # b = n, sigma = 0, one epoch, one iteration: the update must equal
    # params - eta * (clipped mean data grad + lam * params) exactly.
    obj = quadratic_objective()
    X, y = tiny_data()
    params0 = np.full(obj.dim, 0.3)
    cfg = opt.DPSGDConfig(C=0.7, sigma=0.0, b=len(X), eta=0.25, epochs=1, seed=5)
    params, trace = opt.dpsgd_run(obj, params0, X, y, cfg)
    g = obj.clipped_grad_mean(params0, X, y, 0.7)
    np.testing.assert_allclose(params, params0 - 0.25 * (g + obj.lam * params0),
                               atol=1e-14)
    assert len(trace.records) == 1
    assert trace.records[0]["epoch"] == 1


def test_dpsgd_ridge_only_step():
    # Zero parameters, zero residual impossible; instead zero data: with C so
    # small the data gradient clips to ~0, the step is pure ridge shrinkage.
    obj = quadratic_objective(lam=1.0)
    X, y = tiny_data()
    params0 = np.ones(obj.dim)
    cfg = opt.DPSGDConfig(C=1e-12, sigma=0.0, b=len(X), eta=0.1, epochs=1, seed=0)
    params, _ = opt.dpsgd_run(obj, params0, X, y, cfg)
    np.testing.assert_allclose(params, 0.9 * params0, atol=1e-10)


def test_dpsgd_deterministic_trace():
    obj = quadratic_objective()
    X, y = tiny_data()
    cfg = opt.DPSGDConfig(C=1.0, sigma=1.0, b=4, eta=0.1, epochs=3, seed=42)
    out1 = opt.dpsgd_run(obj, np.zeros(obj.dim), X, y, cfg)
    out2 = opt.dpsgd_run(obj, np.zeros(obj.dim), X, y, cfg)
    np.testing.assert_array_equal(out1[0], out2[0])
    assert out1[1].to_csv() == out2[1].to_csv()
    assert out1[1].records[-1]["rng_state_digest"] == \
        out2[1].records[-1]["rng_state_digest"]


def test_dpsgd_noise_stream_independent_of_batches():
    # Same batch seed, different noise seed: with sigma = 0 the trajectories
    # coincide; with sigma > 0 only the noise differs (same batch schedule).
    obj = quadratic_objective()
    X, y = tiny_data()
    mk = lambda sigma, noise_seed: opt.DPSGDConfig(
        C=1.0, sigma=sigma, b=4, eta=0.1, epochs=2, seed=7, noise_seed=noise_seed
    )
    p_a, _ = opt.dpsgd_run(obj, np.zeros(obj.dim), X, y, mk(0.0, 1))
    p_b, _ = opt.dpsgd_run(obj, np.zeros(obj.dim), X, y, mk(0.0, 2))
    np.testing.assert_array_equal(p_a, p_b)
    q_a, _ = opt.dpsgd_run(obj, np.zeros(obj.dim), X, y, mk(1.0, 1))
    q_b, _ = opt.dpsgd_run(obj, np.zeros(obj.dim), X, y, mk(1.0, 2))
    assert not np.array_equal(q_a, q_b)


def test_dpsgd_rejects_oversized_batch():
    obj = quadratic_objective()
    X, y = tiny_data(n=4)
    cfg = opt.DPSGDConfig(C=1.0, sigma=0.0, b=8, eta=0.1, epochs=1)
    with pytest.raises(ConfigError):
        opt.dpsgd_run(obj, np.zeros(obj.dim), X, y, cfg)


def test_dpsgd_diverging_run_raises():
    obj = quadratic_objective(lam=0.5)
    X, y = tiny_data()
    # an absurd learning rate drives the ridge term to overflow within two
    # steps; the loop must detect the non-finite iterate and abort
    cfg = opt.DPSGDConfig(C=1e6, sigma=0.0, b=len(X), eta=1e200, epochs=2, seed=0)
    with np.errstate(all="ignore"), pytest.raises(NumericError):
        opt.dpsgd_run(obj, np.ones(obj.dim), X, y, cfg)


# ---------------------------------------------------------------------------
# NoisyCGD loop
# ---------------------------------------------------------------------------


def test_noisycgd_requires_divisible_batches():
    obj = quadratic_objective()
    X, y = tiny_data(n=10)
    cfg = opt.DPSGDConfig(C=1.0, sigma=0.0, b=4, eta=0.1, epochs=1)
    with pytest.raises(ConfigError):
        opt.noisycgd_run(obj, np.zeros(obj.dim), X, y, cfg)


def test_noisycgd_batches_partition_the_data():
    # Each epoch visits n/b disjoint batches that cover every example once,
    # in the same order every epoch. Rows of X carry their own index.
    class Recorder:
        lam, dim = 0.5, 1

        def __init__(self):
            self.batches = []

        def clipped_grad_mean(self, params, X, y, C):
            self.batches.append(X[:, 0].astype(int).tolist())
            return np.zeros(1)

        def data_loss(self, params, X, y):
            return 0.0

    obj = Recorder()
    X = np.arange(12.0)[:, None]
    cfg = opt.DPSGDConfig(C=1.0, sigma=0.0, b=4, eta=0.1, epochs=2, seed=9)
    opt.noisycgd_run(obj, np.zeros(1), X, np.zeros(12, dtype=int), cfg)
    first, second = obj.batches[:3], obj.batches[3:]
    assert sorted(sum(first, [])) == list(range(12))
    assert all(len(batch) == 4 for batch in first)
    assert second == first


def test_noisycgd_batches_frozen_across_epochs():
    # sigma = 0 and a loop written by hand over the frozen cyclic batches
    # must reproduce noisycgd_run exactly.
    obj = quadratic_objective()
    X, y = tiny_data()
    cfg = opt.DPSGDConfig(C=0.8, sigma=0.0, b=4, eta=0.05, epochs=3, seed=21)
    params, _ = opt.noisycgd_run(obj, np.zeros(obj.dim), X, y, cfg)

    batch_rng, _ = opt._streams(cfg.seed, cfg.noise_seed)
    perm = batch_rng.permutation(len(X))
    batches = [perm[i * 4 : (i + 1) * 4] for i in range(3)]
    ref = np.zeros(obj.dim)
    for _ in range(3):
        for idx in batches:
            g = obj.clipped_grad_mean(ref, X[idx], y[idx], cfg.C)
            ref = ref - cfg.eta * (g + obj.lam * ref)
    np.testing.assert_allclose(params, ref, atol=1e-12)


def test_dpsgd_equals_noisycgd_under_shared_schedule():
    # DP-SGD and NoisyCGD are one noisy mini-batch loop that differs only in
    # its batch schedule: fed NoisyCGD's frozen cyclic partition, the loop
    # reproduces noisycgd_run; fed fresh draws from the same batch stream,
    # dpsgd_run.
    obj = quadratic_objective(lam=0.4)
    X, y = tiny_data(n=12)
    cfg = opt.DPSGDConfig(C=0.9, sigma=1.3, b=4, eta=0.07, epochs=2, seed=3,
                          noise_seed=11)

    rngs = opt._streams(3, 11)
    batches = rngs[0].permutation(12).reshape(3, 4)
    cyclic, _ = opt._noisy_minibatch_loop(
        obj, np.zeros(obj.dim), X, y, cfg, None, lambda it: batches[it % 3], rngs
    )
    params_cgd, _ = opt.noisycgd_run(obj, np.zeros(obj.dim), X, y, cfg)
    np.testing.assert_allclose(cyclic, params_cgd, atol=1e-12)

    rngs = opt._streams(3, 11)
    fresh, _ = opt._noisy_minibatch_loop(
        obj, np.zeros(obj.dim), X, y, cfg, None,
        lambda it: rngs[0].permutation(12)[:4], rngs,
    )
    params_sgd, _ = opt.dpsgd_run(obj, np.zeros(obj.dim), X, y, cfg)
    np.testing.assert_allclose(fresh, params_sgd, atol=1e-12)
    assert not np.allclose(params_cgd, params_sgd)


# ---------------------------------------------------------------------------
# Projected full-batch DP-GD
# ---------------------------------------------------------------------------


def test_dpgd_quadratic_average_oracle():
    # sigma = 0, no projection, C huge: plain GD on the mean loss from 0;
    # the released point is the average of the iterates.
    obj = quadratic_objective(lam=0.0)
    X, y = tiny_data()
    T, eta = 5, 0.02
    released = opt.dpgd_run(obj, X, y, L=1e9, project=None, T=T, sigma_gd=0.0,
                            eta=eta)
    theta = np.zeros(obj.dim)
    acc = np.zeros(obj.dim)
    for _ in range(T):
        theta = theta - eta * obj.clipped_grad_mean(theta, X, y, math.inf)
        acc += theta
    np.testing.assert_allclose(released, acc / T, atol=1e-12)


def test_dpgd_projection_applied_each_step():
    obj = quadratic_objective(lam=0.0)
    X, y = tiny_data()
    ball = opt.make_projection("ball", radius=1e-3)
    released = opt.dpgd_run(obj, X, y, L=10.0, project=ball, T=4, sigma_gd=0.5,
                            eta=1.0, seed=0)
    # every iterate lies in the ball, hence so does the average
    assert np.linalg.norm(released) <= 1e-3 + 1e-12


# ---------------------------------------------------------------------------
# Trace format
# ---------------------------------------------------------------------------


def test_trace_csv_format():
    trace = opt.TrainTrace()
    trace.append(epoch=1, train_loss=0.5, test_accuracy=0.75,
                 epsilon_at_delta=1.25)
    trace.append(epoch=2, train_loss=0.25, test_accuracy=None,
                 epsilon_at_delta=math.inf)
    lines = trace.to_csv().splitlines()
    assert lines[0] == "epoch,train_loss,test_acc,epsilon"
    assert lines[1] == "1,0.5,0.75,1.25"
    assert lines[2] == "2,0.25,,inf"


def test_config_validation():
    with pytest.raises(ConfigError):
        opt.DPSGDConfig(C=0.0, sigma=1.0, b=1, eta=0.1, epochs=1)
    with pytest.raises(ConfigError):
        opt.DPSGDConfig(C=1.0, sigma=-1.0, b=1, eta=0.1, epochs=1)
    obj = quadratic_objective(lam=0.0)
    X, y = tiny_data()
    cfg = opt.DPSGDConfig(C=1.0, sigma=1.0, b=4, eta=0.1, epochs=1)
    with pytest.raises(ConfigError):  # NoisyCGD needs a strongly convex objective
        opt.noisycgd_run(obj, np.zeros(obj.dim), X, y, cfg)
