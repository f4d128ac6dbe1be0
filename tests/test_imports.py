"""The package's runtime import graph: numpy and scipy.special.

A run never needs the rest of scipy. Loading it (linalg, sparse, stats and
more, pulled in by scipy.signal or scipy.optimize) doubles the peak RSS and
triples the start-up time of every ``convexdp`` process, and scipy.fft's
plan caches keep several MB more resident than numpy.fft's, which the
accountant uses. Tests themselves may import any of scipy.
"""
import os
import subprocess
import sys
from pathlib import Path

import convexdp

UNUSED_SCIPY = ("scipy.fft", "scipy.signal", "scipy.optimize", "scipy.linalg", "scipy.sparse",
                "scipy.stats", "scipy.integrate", "scipy.interpolate",
                "scipy.ndimage", "scipy.spatial")


def test_package_import_loads_no_unused_scipy_subpackage():
    # A fresh interpreter, since this one has imported scipy for the tests.
    src = str(Path(convexdp.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, convexdp, convexdp.cli; print(*sorted(sys.modules))"],
        env=env, check=True, capture_output=True, text=True, timeout=120,
    ).stdout.split()
    loaded = [m for m in out if m.startswith(tuple(p + "." for p in UNUSED_SCIPY))
              or m in UNUSED_SCIPY]
    assert "convexdp.cli" in out
    assert not loaded, f"importing convexdp.cli loaded {loaded[:10]}"
