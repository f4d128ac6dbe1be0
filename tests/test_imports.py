"""The package's runtime import graph: numpy alone.

A run never needs scipy. Its own Gaussian CDF replaced the last scipy call,
``scipy.special.ndtr`` / ``log_ndtr``, whose import alone loads 315 modules
and a second OpenBLAS. Loading the rest of scipy (linalg, sparse, stats and
more, pulled in by scipy.signal or scipy.optimize) doubles the peak RSS
and triples the start-up time of every ``convexdp`` process, and
scipy.fft's plan caches keep several MB more resident than numpy.fft's,
which the accountant uses. Tests themselves may import any of scipy.

Nor does an import start a thread: the training loops' noise worker lives
only inside a loop call.
"""
import os
import subprocess
import sys
from pathlib import Path

import convexdp


def fresh_import_cli(*names):
    """Print ``names`` after importing convexdp.cli in a fresh interpreter
    (this one has imported scipy for the tests); returns the printed words."""
    src = str(Path(convexdp.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c",
         f"import sys, threading, convexdp, convexdp.cli; print({', '.join(names)})"],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    ).stdout.split()


def test_package_import_loads_no_scipy():
    out = fresh_import_cli("*sorted(sys.modules)")
    loaded = [m for m in out if m == "scipy" or m.startswith("scipy.")]
    assert "convexdp.cli" in out
    assert not loaded, f"importing convexdp.cli loaded {loaded[:10]}"


def test_package_import_starts_no_thread():
    assert fresh_import_cli("threading.active_count()") == ["1"]
