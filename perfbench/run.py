"""Benchmark entry point: ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>``, run from the repository root.

Pins the BLAS/OpenMP thread pools to one thread before numpy is imported,
then runs the harness against the package under ``src/`` of the same
checkout (never an installed copy).
"""
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def prepare() -> bool:
    """Set the thread caps and import path; False if ``src/`` is missing."""
    if not (SRC / "convexdp" / "__init__.py").is_file():
        print(f"perfbench: no convexdp package under {SRC}", file=sys.stderr)
        return False
    # One thread: the benchmark is a single client, and idle pool threads
    # spinning on a second core add run-to-run noise on small machines.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    return True


def main() -> int:
    if not prepare():
        return 2
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
