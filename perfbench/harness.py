"""Closed-loop benchmark of `convexdp run`.

One client in one process calls the CLI entry point in-process, each call
starting only after the previous one ended, for a fixed number of seconds.
Every call is checked (exit code, epsilon recomputed from the report's
accountant inputs, finite loss, accuracy floor) and a call that fails a
check is counted as failed and left out of the timings.

Untraced calls carry only three probes (the training loop and the epsilon
computation, a handful of calls per run), which give the end-to-end
metrics. Traced calls carry probes at every module boundary listed in
``probe_targets`` and give the per-layer metrics.
"""
from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import gc
import hashlib
import io
import itertools
import json
import math
import os
import platform
import resource
import statistics
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from convexdp import accountant as acc
from convexdp import baseline_relu, cli, convex_dual, optimizers

import spans as sp
from run import THREAD_VARS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

COMMON = {"b": 100, "sigma": 2.0, "C": 1.0, "delta": 1e-5}
DATASET = {"kind": "synthetic", "n": 6000, "n_test": 1000}


@dataclasses.dataclass(frozen=True)
class Workload:
    config: dict
    accuracy_floor: float  # well below every seed seen while sizing


# Why each workload exists is in README.md; in short: the dual grad kernel
# dominates dpsgd-wide, the same kernel on a narrow many-gate shape with
# cyclic batches and closed-form accounting is noisycgd-narrow, and the
# accountant plus the optimizer loop's own overhead dominate relu-epochs.
WORKLOADS = {
    "dpsgd-wide": Workload(
        {"method": "dual-dpsgd", "loss": "ce", "P": 64, "epochs": 2,
         "eta": 0.05, "lam": 1e-3,
         "dataset": {"d": 50, "rule": "linear_teacher", "num_classes": 10}},
        accuracy_floor=0.30,
    ),
    "noisycgd-narrow": Workload(
        {"method": "dual-noisycgd", "loss": "mse", "P": 512, "epochs": 2,
         "eta": 1e-4, "lam": 1e-2,
         "dataset": {"d": 10, "rule": "norm_threshold", "num_classes": 2}},
        accuracy_floor=0.45,
    ),
    "relu-epochs": Workload(
        {"method": "relu-dpsgd", "loss": "ce", "hidden_m": 200, "epochs": 20,
         "eta": 0.05, "account_every_epoch": True,
         "dataset": {"d": 10, "rule": "norm_threshold", "num_classes": 2}},
        accuracy_floor=0.50,
    ),
}

# Counts that depend only on the config; they must repeat exactly.
EXACT_COUNTS = (
    "convex_dual.grad_calls", "convex_dual.grad_flops",
    "baseline_relu.grad_calls", "optimizers.steps",
    "accountant.compose_calls", "accountant.fft_convolutions",
    "accountant.fft_points", "accountant.pld_points",
    "accountant.delta_queries", "cli.epsilon_calls",
)
LAYERS = ("cli", "data", "optimizers", "convex_dual", "baseline_relu", "accountant")


def make_config(workload: str, seed: int, out_dir: Path) -> dict:
    """The run config of ``workload``; every seed in it derives from ``seed``."""
    data_seed, *run_seeds = (
        int(v) for v in np.random.SeedSequence(seed).generate_state(5)
    )
    spec = WORKLOADS[workload].config
    cfg = dict(COMMON, **spec, name=workload, out_dir=str(out_dir))
    cfg["dataset"] = dict(DATASET, **spec["dataset"], seed=data_seed)
    cfg["seeds"] = dict(zip(("gates", "init", "batches", "noise"), run_seeds))
    return cfg


# ---------------------------------------------------------------------------
# Probes
# ---------------------------------------------------------------------------


def probe_targets(tracer: sp.Tracer, traced: bool) -> list:
    def span(owner, attr, name, on_result=None):
        return owner, attr, sp.spanned(tracer, name, owner.__dict__[attr], on_result)

    targets = [
        span(optimizers, "dpsgd_run", "optimizers.loop"),
        span(optimizers, "noisycgd_run", "optimizers.loop"),
        span(cli, "epsilon_from_inputs", "cli.epsilon"),
    ]
    if not traced:
        return targets

    def dual_flops(_, args):
        objective, _params, X = args[:3]
        tracer.count("convex_dual.grad_flops",
                     4 * X.shape[0] * objective.arrangement.P * X.shape[1] * objective.k)

    def pld_points(pld, _):
        tracer.counts["accountant.pld_points"] = len(pld.masses)

    def fft_points(out, _):
        tracer.count("accountant.fft_convolutions")
        tracer.count("accountant.fft_points", len(out))

    targets += [
        span(cli, "execute_run", "cli.execute_run"),
        span(cli, "load_dataset_pair", "data.load"),
        span(acc, "account_dpsgd", "accountant.account_dpsgd"),
        span(acc, "connect_the_dots", "accountant.discretize"),
        span(acc, "compose_pld", "accountant.compose", pld_points),
        span(acc, "find_epsilon", "accountant.search"),
        span(acc, "pld_delta", "accountant.delta"),
        span(acc, "fftconvolve", "accountant.fftconvolve", fft_points),
    ]
    for layer, cls in (("convex_dual", convex_dual.DualObjective),
                       ("baseline_relu", baseline_relu.MLPObjective)):
        flops = dual_flops if cls is convex_dual.DualObjective else None
        targets += [
            span(cls, "clipped_grad_mean", f"{layer}.grad", flops),
            span(cls, "data_loss", f"{layer}.data_loss"),
            span(cls, "accuracy", f"{layer}.accuracy"),
        ]
    return targets


# ---------------------------------------------------------------------------
# One call and its checks
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Call:
    traced: bool
    spans: list
    counts: dict
    report: dict | None
    digests: dict
    failures: list


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_call(tracer: sp.Tracer, config_path: Path, traced: bool) -> Call:
    """One `convexdp run --config config_path`, with the CLI's stdout captured."""
    tracer.start_run()
    first = len(tracer.spans)
    failures = []
    printed = io.StringIO()
    gc.collect()
    with sp.probes(probe_targets(tracer, traced)), contextlib.redirect_stdout(printed):
        root = tracer.open("cli.main")
        try:
            code = cli.main(["run", "--config", str(config_path)])
        except Exception:  # a crash is a failed run, not a benchmark error
            code = None
            failures.append("crashed: " + traceback.format_exc(limit=4))
        finally:
            tracer.close(root)
    spans = tracer.spans[first:]
    report, digests = None, {}
    if code == 0:
        report = json.loads(printed.getvalue())
        digests = {"csv_sha256": sha256(report["outputs"]["csv"]),
                   "model_sha256": sha256(report["outputs"]["model"])}
    elif code is not None:
        failures.append(f"exit code {code}")
    if traced and report is not None:
        execute = next(s for s in spans if s.name == "cli.execute_run")
        last = max((s for s in spans if s.name in ("cli.epsilon", "optimizers.loop")),
                   key=lambda s: s.end)
        spans.append(tracer.add_span("cli.write", execute.id, last.end, execute.end))
    return Call(traced, spans, dict(tracer.counts), report, digests, failures)


def printed_epsilon(text: str) -> float:
    """Invert the CLI's epsilon formatting; "> X" becomes X."""
    return float(text.lstrip("> "))


class Checker:
    """Correctness checks of one run report, for one workload."""

    def __init__(self, accuracy_floor: float):
        self.accuracy_floor = accuracy_floor
        self._epsilon: dict[str, float] = {}

    def recomputed_epsilon(self, inputs: dict) -> float:
        """Epsilon from the accountant directly, as acceptance criterion 11 does."""
        key = json.dumps(inputs, sort_keys=True)
        if key not in self._epsilon:
            if inputs["method"] == "dpsgd":
                profile = acc.account_dpsgd(inputs["sigma"], inputs["q"], inputs["T"])
            else:
                profile = acc.gaussian_profile(acc.noisycgd_mu(acc.NoisyCGDSpec(
                    L=inputs["L"], b=inputs["b"], sigma=inputs["sigma"],
                    eta=inputs["eta"], lambda_sc=inputs["lambda"],
                    beta_sm=inputs["beta"], k=inputs["k"], E=inputs["E"],
                )))
            self._epsilon[key] = acc.find_epsilon(profile, inputs["delta"])
        return self._epsilon[key]

    def failures(self, report: dict) -> list[str]:
        out = []
        printed = printed_epsilon(report["epsilon"])
        expected = self.recomputed_epsilon(report["accountant_inputs"])
        if report["epsilon"].startswith(">"):
            agrees = expected > printed
        else:
            agrees = printed == expected or abs(printed - expected) <= 1e-9
        if not agrees:
            out.append(f"printed epsilon {report['epsilon']} != recomputed {expected!r}")
        if not math.isfinite(report["final_train_loss"]):
            out.append(f"final loss {report['final_train_loss']!r} is not finite")
        if not report["final_test_accuracy"] >= self.accuracy_floor:
            out.append(f"test accuracy {report['final_test_accuracy']!r} "
                       f"< floor {self.accuracy_floor}")
        return out


def flag_mismatches(calls: list[Call], key) -> None:
    """Fail every call whose ``key(call)`` differs from the first passing call's."""
    passing = [c for c in calls if not c.failures]
    if not passing:
        return
    want = key(passing[0])
    for c in passing[1:]:
        got = key(c)
        if got != want:
            diff = {k: (want.get(k), got.get(k)) for k in want if got.get(k) != want.get(k)}
            c.failures.append(f"not reproducible with the same seed: {diff}")


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def end_to_end_row(call: Call) -> dict:
    root = call.spans[0]
    loop = next(s for s in call.spans if s.name == "optimizers.loop")
    cfg = call.report["config"]
    steps = cfg["epochs"] * (call.report["n_train"] // cfg["b"])
    return {
        "run_s": root.duration,
        "setup_s": loop.start - root.start,
        "train_samples_per_s": steps * cfg["b"] / loop.duration,
        "epsilon_s": sum(s.duration for s in call.spans if s.name == "cli.epsilon"),
    }


def layer_row(call: Call) -> dict:
    named = collections.defaultdict(list)
    for s in call.spans:
        named[s.name].append(s)

    def total(*names):
        return sum(s.duration for name in names for s in named[name])

    loop = named["optimizers.loop"][0]
    grads = named["convex_dual.grad"] + named["baseline_relu.grad"]
    flops = call.counts.get("convex_dual.grad_flops", 0)
    dual_grad_s = total("convex_dual.grad")
    own = sp.layer_self_times(call.spans)
    row = {
        "run_s": call.spans[0].duration,
        "data.load_s": total("data.load"),
        "convex_dual.grad_calls": len(named["convex_dual.grad"]),
        "convex_dual.grad_flops": flops,
        "convex_dual.grad_gflop_per_s": flops / dual_grad_s / 1e9 if dual_grad_s else 0.0,
        "convex_dual.eval_s": total("convex_dual.data_loss", "convex_dual.accuracy"),
        "baseline_relu.grad_calls": len(named["baseline_relu.grad"]),
        "baseline_relu.eval_s": total("baseline_relu.data_loss", "baseline_relu.accuracy"),
        "optimizers.steps": sum(1 for s in grads if s.parent == loop.id),
        "optimizers.loop_s": loop.duration,
        "accountant.discretize_s": total("accountant.discretize"),
        "accountant.compose_s": total("accountant.compose"),
        "accountant.compose_calls": len(named["accountant.compose"]),
        "accountant.fft_convolutions": call.counts.get("accountant.fft_convolutions", 0),
        "accountant.fft_points": call.counts.get("accountant.fft_points", 0),
        "accountant.pld_points": call.counts.get("accountant.pld_points", 0),
        "accountant.search_s": total("accountant.search"),
        "accountant.delta_queries": len(named["accountant.delta"]),
        "cli.write_s": total("cli.write"),
        "cli.epsilon_calls": len(named["cli.epsilon"]),
    }
    row.update({f"{layer}.self_s": own.get(layer, 0.0) for layer in LAYERS})
    return row


def percentile_ms(durations: list[float], q: float) -> float:
    return float(np.percentile(durations, q)) * 1e3 if durations else 0.0


def medians(rows: list[dict]) -> dict:
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]} if rows else {}


def layer_metrics(traced: list[Call], untraced: list[Call]) -> dict:
    rows = [layer_row(c) for c in traced]
    out = medians(rows)
    if rows:  # the same in every passing call; keep them whole numbers
        out.update(exact_counts(traced[0]))
    for layer in ("convex_dual", "baseline_relu"):
        grads = [s.duration for c in traced for s in c.spans if s.name == f"{layer}.grad"]
        out[f"{layer}.grad_ms.p50"] = percentile_ms(grads, 50)
        out[f"{layer}.grad_ms.p99"] = percentile_ms(grads, 99)
    if rows and untraced:
        out["trace_overhead_frac"] = sp.overhead_frac(
            out["run_s"], statistics.median(c.spans[0].duration for c in untraced))
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Environment and reference digests
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def cache_size(level: int) -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        if (_read(index / "level").strip() == str(level)
                and _read(index / "type").strip() in ("Unified", "Data")):
            return _read(index / "size").strip()
    return "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    models = [line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
              if line.startswith("model name")]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": models[0] if models else platform.processor() or "unknown",
        "l2": cache_size(2),
        "l3": cache_size(3),
    }


def compare_reference(workload: str, seed: int, digests: dict, counts: dict) -> list[str]:
    """Differences from the committed reference; informational, not failures."""
    path = HERE / "reference.json"
    ref = json.loads(path.read_text()) if path.exists() else {}
    entry = ref.get("runs", {}).get(workload, {}).get(str(seed))
    if entry is None:
        return []
    notes = [f"{k} differs from reference: {v} vs {entry[k]}"
             for k, v in digests.items() if entry.get(k) != v]
    notes += [f"{k} differs from reference: {v} vs {entry['counts'][k]}"
              for k, v in counts.items() if k in entry.get("counts", {})
              and entry["counts"][k] != v]
    if notes:
        notes.append(f"reference recorded on {ref.get('env')}")
    return notes


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def write_config(workload: str, seed: int, out_dir: Path) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(make_config(workload, seed, out_dir), indent=2))
    return config_path


def exact_counts(call: Call) -> dict:
    row = layer_row(call)
    return {k: row[k] for k in EXACT_COUNTS}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            out_dir: Path) -> dict:
    config_path = write_config(workload, seed, out_dir)
    tracer = sp.Tracer()

    # The first call warms caches and lazy imports; it is checked but not
    # timed, and it counts against the window so a run stays near `seconds`.
    deadline = time.perf_counter() + seconds
    calls = [run_call(tracer, config_path, traced=False)]
    kinds = itertools.cycle((False, True) if trace else (False,))
    while time.perf_counter() < deadline or len(calls) < (3 if trace else 2):
        calls.append(run_call(tracer, config_path, traced=next(kinds)))

    checker = Checker(WORKLOADS[workload].accuracy_floor)
    for c in calls:
        if c.report is not None:
            c.failures += checker.failures(c.report)
    flag_mismatches(calls, lambda c: c.digests)
    traced = [c for c in calls if c.traced]
    flag_mismatches(traced, exact_counts)

    timed = [c for c in calls[1:] if not c.failures]
    untraced = [c for c in timed if not c.traced]
    if trace:
        metrics = layer_metrics([c for c in timed if c.traced], untraced)
    else:
        metrics = dict(medians([end_to_end_row(c) for c in untraced]),
                       peak_rss_mb=peak_rss_mb())
    passing = [c for c in calls if not c.failures]
    digests = passing[0].digests if passing else {}
    passing_traced = [c for c in passing if c.traced]
    counts = exact_counts(passing_traced[0]) if passing_traced else {}
    result = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": environment(),
        "config": json.loads(config_path.read_text()),
        "attempted": len(calls),
        "failed": sum(1 for c in calls if c.failures),
        "failures": [f for c in calls for f in c.failures],
        "digests": digests,
        "counts": counts,
        "reference_notes": compare_reference(workload, seed, digests, counts),
        "calls": [{"traced": c.traced, "run_s": c.spans[0].duration,
                   "failures": c.failures, "digests": c.digests} for c in calls],
        "metrics": metrics,
    }
    (out_dir / "result.json").write_text(json.dumps(result, indent=2))
    if trace:
        tracer.write_jsonl(str(out_dir / "spans.jsonl"))
    return result


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def summary(result: dict, declared: list[dict]) -> dict:
    """The final result line; a metric missing from a failed run reads 0."""
    metrics = result["metrics"]
    correct = result["failed"] == 0 and all(m["name"] in metrics for m in declared)
    return {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}
                    for m in declared},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = declared_metrics(bool(args.trace))
    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    line = summary(result, declared)

    env = result["env"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{line['attempted']} runs, {line['failed']} failed, "
          f"ops_failed_frac={line['failed'] / line['attempted']:g}")
    print("# env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, m in line["metrics"].items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}")
    for k, v in result["digests"].items():
        print(f"# {k} {v}")
    for note in result["reference_notes"] + result["failures"]:
        print(f"# {note}")
    print(json.dumps(line))
    return 0
