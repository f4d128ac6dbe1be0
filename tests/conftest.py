"""Fixtures shared by the test modules."""
import os

import pytest


@pytest.fixture
def two_allowed_cpus(monkeypatch):
    """Report one CPU more than the process may run on, so that a training
    loop starts its noise worker on a one-CPU host too. There the extra CPU
    does not exist, pinning the worker to it fails, and the worker runs
    unpinned; on a larger host the kernel pins it to the real CPUs."""
    allowed = os.sched_getaffinity(0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: allowed | {max(allowed) + 1})
