"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import pytest  # noqa: E402

import harness  # noqa: E402
import spans as sp  # noqa: E402
from convexdp import cli  # noqa: E402

TINY = harness.Workload(
    {"method": "dual-dpsgd", "loss": "ce", "P": 8, "epochs": 1, "eta": 0.05,
     "lam": 1e-3, "b": 50,
     "dataset": {"n": 300, "n_test": 100, "d": 4, "rule": "norm_threshold"}},
    accuracy_floor=0.0,
)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(harness.WORKLOADS, "tiny", TINY)


def test_clean_run_passes(tiny, tmp_path):
    result = harness.measure("tiny", 0, 0.0, True, tmp_path)
    assert result["attempted"] == 3 and result["failed"] == 0
    assert result["counts"]["convex_dual.grad_calls"] == 6
    assert result["counts"]["convex_dual.grad_flops"] == 6 * 4 * 50 * 8 * 5 * 2
    # every span's self time belongs to one layer, so the layers add up to the run
    metrics = result["metrics"]
    layers = sum(metrics[f"{layer}.self_s"] for layer in harness.LAYERS)
    assert layers == pytest.approx(metrics["run_s"], rel=1e-9)


def test_corrupted_epsilon_counts_as_failed(tiny, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "_eps_repr", lambda eps: repr(float(eps) * 1.001))
    result = harness.measure("tiny", 0, 0.0, False, tmp_path)
    assert result["attempted"] == result["failed"] == 2
    assert result["failures"][0].startswith("printed epsilon")
    line = harness.summary(result, harness.declared_metrics(trace=False))
    assert line["correct"] is False


def test_changed_count_is_not_reproducible():
    calls = [harness.Call(True, [], {"n": n}, None, {}, []) for n in (3, 3, 4)]
    harness.flag_mismatches(calls, lambda c: c.counts)
    assert [bool(c.failures) for c in calls] == [False, False, True]


def test_self_time_with_overlapping_children():
    spans = [
        sp.Span(0, None, "cli.main", 0.0, 10.0),
        sp.Span(1, 0, "optimizers.loop", 1.0, 4.0),
        sp.Span(2, 0, "accountant.search", 3.0, 6.0),  # overlaps span 1
        sp.Span(3, 0, "data.load", 8.0, 12.0),  # runs past its parent
        sp.Span(4, 1, "convex_dual.grad", 2.0, 3.0),
    ]
    own = sp.self_times(spans)
    # children of the root cover [1, 6] and [8, 10]
    assert own[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[4] == pytest.approx(1.0)
    layers = sp.layer_self_times(spans)
    assert layers["cli"] == pytest.approx(3.0)
    assert layers["optimizers"] == pytest.approx(2.0)
    assert sp.overhead_frac(traced_run_s=1.2, untraced_run_s=1.0) == pytest.approx(0.2)
