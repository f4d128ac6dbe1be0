"""In-memory spans and counters recorded around calls into convexdp modules.

A probe replaces a module attribute (a function or a method) with a wrapper
that opens a span on entry and closes it on exit. Probes are installed only
for the duration of one `convexdp run` call and removed afterwards, so the
program's own code is never edited and untraced calls run the original
functions.

Span names are ``<layer>.<what>``; the layer is the part before the first
dot and matches a module of the package (``cli``, ``data``, ``optimizers``,
``convex_dual``, ``baseline_relu``, ``accountant``).
"""
from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import time


@dataclasses.dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float | None = None
    run: int = 0

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans of one process; all spans of one run share ``run``."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.run = 0
        self._stack: list[Span] = []

    def start_run(self) -> None:
        self.run += 1
        self.counts = {}
        self._stack = []

    def open(self, name: str) -> Span:
        span = self.add_span(
            name, self._stack[-1].id if self._stack else None, time.perf_counter()
        )
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def add_span(self, name: str, parent: int | None, start: float,
                 end: float | None = None) -> Span:
        """Record a span directly, e.g. one derived from other spans' edges."""
        span = Span(len(self.spans), parent, name, start, end, self.run)
        self.spans.append(span)
        return span

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dataclasses.asdict(s)) + "\n")


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - covered(s.start, s.end, children.get(s.id, ()))
        for s in spans
    }


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = {}
    own = self_times(spans)
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + own[s.id]
    return out


def overhead_frac(traced_run_s: float, untraced_run_s: float) -> float:
    """Traced run time over untraced run time, minus 1."""
    return traced_run_s / untraced_run_s - 1.0


def spanned(tracer: Tracer, name: str, fn, on_result=None):
    """Wrap ``fn`` so each call is one span named ``name``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if on_result is not None:
            on_result(result, args)
        return result

    return wrapper


@contextlib.contextmanager
def probes(targets):
    """Temporarily set ``(owner, attribute, replacement)`` triples."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
