"""Optimizer tests: one-step analytic oracles, determinism, noise-stream
independence, the DP-SGD / NoisyCGD harness equivalence under a shared
batch schedule, and the prefetched noise against one sequential draw per
step."""
import concurrent.futures
import contextlib
import math
import sys
import threading

import numpy as np
import pytest

from convexdp import convex_dual as cd
from convexdp import optimizers as opt
from convexdp.errors import ConfigError, NumericError

import oracles


def quadratic_objective(dim=4, lam=0.5, seed=0):
    """Dual objective on a fixed tiny instance (used by most tests)."""
    arr = cd.sample_arrangement(dim, 3, seed)
    return cd.DualObjective(arr, k=2, lam=lam, loss="mse")


def tiny_data(n=12, d=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d)), rng.integers(0, 2, size=n)


# ---------------------------------------------------------------------------
# DP-SGD loop
# ---------------------------------------------------------------------------


def test_dpsgd_one_step_analytic():
    # b = n, sigma = 0, one epoch, one iteration: the update must equal
    # params - eta * (clipped mean data grad + lam * params) exactly.
    obj = quadratic_objective()
    X, y = tiny_data()
    params0 = np.full(obj.dim, 0.3)
    cfg = opt.DPSGDConfig(C=0.7, sigma=0.0, b=len(X), eta=0.25, epochs=1, seed=5,
                          noise_seed=6)
    params, records = opt.dpsgd_run(obj, params0, X, y, cfg)
    g = obj.clipped_grad_mean(params0, X, y, 0.7)
    np.testing.assert_allclose(params, params0 - 0.25 * (g + obj.lam * params0),
                               atol=1e-14)
    assert len(records) == 1
    assert records[0]["epoch"] == 1


def test_dpsgd_ridge_only_step():
    # Zero parameters, zero residual impossible; instead zero data: with C so
    # small the data gradient clips to ~0, the step is pure ridge shrinkage.
    obj = quadratic_objective(lam=1.0)
    X, y = tiny_data()
    params0 = np.ones(obj.dim)
    cfg = opt.DPSGDConfig(C=1e-12, sigma=0.0, b=len(X), eta=0.1, epochs=1, seed=0,
                          noise_seed=1)
    params, _ = opt.dpsgd_run(obj, params0, X, y, cfg)
    np.testing.assert_allclose(params, 0.9 * params0, atol=1e-10)


def test_dpsgd_deterministic_trace():
    obj = quadratic_objective()
    X, y = tiny_data()
    cfg = opt.DPSGDConfig(C=1.0, sigma=1.0, b=4, eta=0.1, epochs=3, seed=42, noise_seed=43)
    out1 = opt.dpsgd_run(obj, np.zeros(obj.dim), X, y, cfg)
    out2 = opt.dpsgd_run(obj, np.zeros(obj.dim), X, y, cfg)
    np.testing.assert_array_equal(out1[0], out2[0])
    assert out1[1] == out2[1]


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


class BatchRecorder:
    """Objective stub that records the row ids (column 0) of every batch."""

    lam = 0.0

    def __init__(self):
        self.batches = []

    def clipped_grad_mean(self, params, X, y, C):
        self.batches.append(X[:, 0].astype(int))
        return np.zeros_like(params)

    def data_loss(self, params, X, y):
        return 0.0


def test_dpsgd_batches_distinct_and_cover_all_rows():
    n, b = 50, 7
    rec = BatchRecorder()
    cfg = opt.DPSGDConfig(C=1.0, sigma=0.0, b=b, eta=0.1, epochs=20, seed=3, noise_seed=4)
    opt.dpsgd_run(rec, np.zeros(1), np.arange(n, dtype=float)[:, None],
                  np.zeros(n), cfg)
    assert len(rec.batches) == cfg.epochs * (n // b)
    for idx in rec.batches:
        assert len(set(idx)) == b and idx.min() >= 0 and idx.max() < n
    assert set(np.concatenate(rec.batches)) == set(range(n))


def test_dpsgd_rejects_oversized_batch():
    obj = quadratic_objective()
    X, y = tiny_data(n=4)
    cfg = opt.DPSGDConfig(C=1.0, sigma=0.0, b=8, eta=0.1, epochs=1, seed=0, noise_seed=1)
    with pytest.raises(ConfigError):
        opt.dpsgd_run(obj, np.zeros(obj.dim), X, y, cfg)


def test_dpsgd_diverging_run_raises():
    obj = quadratic_objective(lam=0.5)
    X, y = tiny_data()
    # an absurd learning rate drives the ridge term to overflow within two
    # steps; the loop must detect the non-finite iterate and abort
    cfg = opt.DPSGDConfig(C=1e6, sigma=0.0, b=len(X), eta=1e200, epochs=2, seed=0,
                          noise_seed=1)
    threads = threading.active_count()
    with np.errstate(all="ignore"), pytest.raises(NumericError):
        opt.dpsgd_run(obj, np.ones(obj.dim), X, y, cfg)
    assert threading.active_count() == threads


# ---------------------------------------------------------------------------
# NoisyCGD loop
# ---------------------------------------------------------------------------


def test_noisycgd_requires_divisible_batches():
    obj = quadratic_objective()
    X, y = tiny_data(n=10)
    cfg = opt.DPSGDConfig(C=1.0, sigma=0.0, b=4, eta=0.1, epochs=1, seed=0, noise_seed=1)
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
    cfg = opt.DPSGDConfig(C=1.0, sigma=0.0, b=4, eta=0.1, epochs=2, seed=9, noise_seed=10)
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
    cfg = opt.DPSGDConfig(C=0.8, sigma=0.0, b=4, eta=0.05, epochs=3, seed=21, noise_seed=22)
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
        obj, np.zeros(obj.dim), X, y, cfg, None, lambda it: batches[it % 3], rngs[1]
    )
    params_cgd, _ = opt.noisycgd_run(obj, np.zeros(obj.dim), X, y, cfg)
    np.testing.assert_allclose(cyclic, params_cgd, atol=1e-12)

    rngs = opt._streams(3, 11)
    fresh, _ = opt._noisy_minibatch_loop(
        obj, np.zeros(obj.dim), X, y, cfg, None,
        lambda it: rngs[0].choice(12, 4, replace=False), rngs[1],
    )
    params_sgd, _ = opt.dpsgd_run(obj, np.zeros(obj.dim), X, y, cfg)
    np.testing.assert_allclose(fresh, params_sgd, atol=1e-12)
    assert not np.allclose(params_cgd, params_sgd)


# ---------------------------------------------------------------------------
# Noise drawn a block ahead on a worker thread
# ---------------------------------------------------------------------------

STEPS = 10  # steps per epoch (n / b)


def blocked_objective(rows):
    """A dual objective on 4 features whose noise comes in blocks of
    ``rows`` rows (fewer if the run has fewer steps), as NOISE_BLOCK_BYTES
    sizes them."""
    P = opt.NOISE_BLOCK_BYTES // (8 * rows * 4 * 2)  # 4 features x 2 classes per gate
    obj = cd.DualObjective(cd.sample_arrangement(4, P, 0), k=2, lam=0.3, loss="mse")
    assert opt.NOISE_BLOCK_BYTES // (8 * obj.dim) == rows
    return obj


BLOCK_ROWS = [
    pytest.param(1, id="one-row-blocks"),
    # 3 epochs of 10 steps in blocks of 7: blocks cross the epoch ends at
    # steps 10 and 20, and the last block has 2 rows
    pytest.param(7, id="ragged-last-block"),
    pytest.param(STEPS, id="one-block-per-epoch"),
]


@pytest.fixture
def frequent_thread_switches():
    """A 1 us interpreter switch interval, so that the worker and the loop
    interleave at far more points than the default 5 ms allows."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


class NeverScheduledWorker:
    """An executor whose worker never runs: the loop cancels and draws
    every block itself."""

    def __init__(self, *args):
        pass

    def submit(self, fn, *args, **kwargs):
        return concurrent.futures.Future()

    def shutdown(self, wait, cancel_futures):
        pass


class AlwaysAheadWorker(NeverScheduledWorker):
    """An executor whose worker has always finished a block when it is due."""

    def submit(self, fn, *args, **kwargs):
        future = concurrent.futures.Future()
        future.set_result(fn(*args, **kwargs))
        return future


@pytest.mark.parametrize("worker", [None, NeverScheduledWorker, AlwaysAheadWorker],
                         ids=["thread", "never-scheduled", "always-ahead"])
@pytest.mark.parametrize("rows", BLOCK_ROWS)
# "dpgd" is full-batch DP-SGD, the schedule of the retired DP-GD method:
# b = n makes every epoch one step, so each noise block spans several epochs.
@pytest.mark.parametrize("method", ["dpsgd", "noisycgd", "dpgd"])
def test_prefetched_noise_matches_sequential_draws(method, rows, worker, monkeypatch,
                                                   frequent_thread_switches):
    # Blocked draws give the bits of one standard_normal(dim) per step, also
    # where a block crosses an epoch end; whether the worker or the loop
    # draws a block makes no difference.
    if worker is not None:
        monkeypatch.setattr(opt, "ThreadPoolExecutor", worker)
    obj = blocked_objective(rows)
    X, y = tiny_data(n=4 * STEPS)
    b, epochs = (len(X), STEPS) if method == "dpgd" else (4, 3)
    cfg = opt.DPSGDConfig(C=0.9, sigma=1.3, b=b, eta=0.05, epochs=epochs, seed=3,
                          noise_seed=11)
    rngs = opt._streams(3, 11)
    if method in ("dpsgd", "dpgd"):
        params, records = opt.dpsgd_run(obj, np.zeros(obj.dim), X, y, cfg)
        next_batch = lambda it: rngs[0].choice(len(X), cfg.b, replace=False)
    else:
        params, records = opt.noisycgd_run(obj, np.zeros(obj.dim), X, y, cfg)
        batches = rngs[0].permutation(len(X)).reshape(STEPS, cfg.b)
        next_batch = lambda it: batches[it % STEPS]
    want, want_records = oracles.sequential_noisy_minibatch_loop(
        obj, np.zeros(obj.dim), X, y, cfg, next_batch, rngs[1])
    np.testing.assert_array_equal(params, want)
    assert records == want_records


class RecordingWorker(AlwaysAheadWorker):
    """An always-ahead worker that counts the blocks submitted to it."""

    submitted = 0

    def submit(self, fn, *args, **kwargs):
        RecordingWorker.submitted += 1
        return super().submit(fn, *args, **kwargs)


def test_noise_blocks_cross_epoch_ends(monkeypatch):
    # The noise is one stream of blocks for the whole run: 3 epochs of 10
    # steps in blocks of 3 rows are 10 blocks, and the worker draws every
    # block but the first. Blocks cut at epoch ends would be 12.
    monkeypatch.setattr(opt, "ThreadPoolExecutor", RecordingWorker)
    monkeypatch.setattr(RecordingWorker, "submitted", 0)
    obj = blocked_objective(3)
    X, y = tiny_data(n=4 * STEPS)
    cfg = opt.DPSGDConfig(C=0.9, sigma=1.3, b=4, eta=0.05, epochs=3, seed=3, noise_seed=4)
    opt.dpsgd_run(obj, np.zeros(obj.dim), X, y, cfg)
    assert RecordingWorker.submitted == 9


class ThreadCounter:
    """Wraps an objective; records the live thread count at every gradient."""

    def __init__(self, objective):
        self.objective, self.lam, self.dim = objective, objective.lam, objective.dim
        self.seen = []

    def clipped_grad_mean(self, *args):
        self.seen.append(threading.active_count())
        return self.objective.clipped_grad_mean(*args)

    def data_loss(self, *args):
        return self.objective.data_loss(*args)


@pytest.mark.parametrize("run", [opt.dpsgd_run, opt.noisycgd_run])
@pytest.mark.parametrize("eta", [0.05, 1e200])
def test_no_thread_outlives_a_loop_call(run, eta):
    # The noise worker runs during the loop and is joined when it returns,
    # also when a diverging iterate aborts the run mid-epoch.
    obj = ThreadCounter(blocked_objective(rows=1))
    X, y = tiny_data(n=4 * STEPS)
    cfg = opt.DPSGDConfig(C=1e6, sigma=1.0, b=4, eta=eta, epochs=2, seed=0, noise_seed=1)
    diverges = pytest.raises(NumericError) if eta > 1 else contextlib.nullcontext()
    threads = threading.active_count()
    with np.errstate(all="ignore"), diverges:
        run(obj, np.ones(obj.dim), X, y, cfg)
    assert max(obj.seen) == threads + 1
    assert len(obj.seen) < STEPS if eta > 1 else len(obj.seen) == 2 * STEPS
    assert threading.active_count() == threads


def test_config_validation():
    seeds = {"seed": 0, "noise_seed": 1}
    with pytest.raises(ConfigError):
        opt.DPSGDConfig(C=0.0, sigma=1.0, b=1, eta=0.1, epochs=1, **seeds)
    with pytest.raises(ConfigError):
        opt.DPSGDConfig(C=1.0, sigma=-1.0, b=1, eta=0.1, epochs=1, **seeds)
    # C, sigma and eta must be finite, and eta positive; each refusal names its field
    good = {"C": 1.0, "sigma": 1.0, "eta": 0.1}
    for field in good:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match=f"^{field}: must be finite"):
                opt.DPSGDConfig(**dict(good, **{field: bad}), b=1, epochs=1, **seeds)
    for eta in (0.0, -0.1):
        with pytest.raises(ConfigError, match="^eta: must be finite and positive"):
            opt.DPSGDConfig(C=1.0, sigma=1.0, b=1, eta=eta, epochs=1, **seeds)
    # Each seed is a non-negative int: None would draw OS entropy, so two runs
    # of one config would differ, and numpy refuses a negative seed only later.
    for field in seeds:
        for bad in (None, -1, True, 1.0, "1"):
            with pytest.raises(ConfigError, match=f"^{field}: must be a non-negative"):
                opt.DPSGDConfig(**good, b=1, epochs=1, **dict(seeds, **{field: bad}))
    assert opt.DPSGDConfig(C=1.0, sigma=0.0, b=1, eta=0.1, epochs=1,
                           **seeds).noise_std == 0.0
    obj = quadratic_objective(lam=0.0)
    X, y = tiny_data()
    cfg = opt.DPSGDConfig(C=1.0, sigma=1.0, b=4, eta=0.1, epochs=1, seed=0, noise_seed=1)
    with pytest.raises(ConfigError):  # NoisyCGD needs a strongly convex objective
        opt.noisycgd_run(obj, np.zeros(obj.dim), X, y, cfg)
