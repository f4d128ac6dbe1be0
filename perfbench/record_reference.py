"""Record output digests and exact counts into perfbench/reference.json.

    python3 perfbench/record_reference.py 0 1 2 ...

For each workload and seed this makes one traced, checked run and stores
the sha256 of the trace CSV and of the checkpoint, and the exact counts.
The benchmark then reports any digest or count that differs from the
stored value for the same workload and seed.
Recording is part of a change that adds or alters a workload, never of a
change that claims a gain.
"""
import json
import sys

import run


def main(seeds: list[int]) -> int:
    if not run.prepare():
        return 2
    import harness
    import spans

    ref = {"env": harness.environment(), "runs": {}}
    for workload in sorted(harness.WORKLOADS):
        for seed in seeds:
            config = harness.write_config(
                workload, seed, harness.HERE / "out" / f"reference-{workload}-seed{seed}")
            call = harness.run_call(spans.Tracer(), config, traced=True)
            checker = harness.Checker(harness.WORKLOADS[workload].accuracy_floor)
            failures = call.failures or checker.failures(call.report)
            if failures:
                print(f"{workload} seed {seed}: {failures}", file=sys.stderr)
                return 1
            ref["runs"].setdefault(workload, {})[str(seed)] = dict(
                call.digests, counts=harness.exact_counts(call))
            print(f"{workload} seed {seed}: {call.digests}", flush=True)
    (harness.HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main([int(s) for s in sys.argv[1:]]))
