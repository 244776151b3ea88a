"""In-memory span recorder that times calls into a program from outside.

A `Tracer` replaces chosen functions (module attributes or class
attributes) with wrappers that record one span per call: name, start,
end, parent span, run id and a work-unit count. Nothing in the traced
program changes; `uninstall` puts every original back. Spans stay in
memory until `write_jsonl` is called at the end of a run.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import types
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One wrap point: `owner.attr` is replaced while the tracer is
    installed. `units(args, kwargs)`, when given, counts the work of a
    call; it runs before the clock starts, so its cost stays out of the
    span and is kept as the span's `probe_s`."""
    owner: object
    attr: str
    name: str
    units: object = None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 for a root span
    run_id: str
    units: float
    probe_s: float = 0.0  # time spent counting `units`, outside the span
    failed: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list[Span] = []
        self.run_id = ""
        self._stack: list[int] = []
        self._saved: list = []

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for target in self.targets:
            original = target.owner.__dict__[target.attr]
            self._saved.append((target.owner, target.attr, original))
            setattr(target.owner, target.attr, self._wrap(original, target))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, target: Target):
        spans, stack = self.spans, self._stack
        name, units = target.name, target.units

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            n, probe_s = 1, 0.0
            if units is not None:
                t0 = time.perf_counter()
                n = units(args, kwargs)
                probe_s = time.perf_counter() - t0
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1,
                        self.run_id, n, probe_s)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return wrapper

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": s.name, "start": s.start,
                                    "end": s.end, "parent": s.parent,
                                    "run": s.run_id, "units": s.units,
                                    "probe_s": s.probe_s,
                                    "failed": s.failed}))
                f.write("\n")


def span_cost_s(calls: int = 20000, reps: int = 5) -> float:
    """Seconds one wrapper adds to a call: a wrapped no-op timed against
    the bare one over `calls` calls, median of `reps` rounds."""
    ns = types.SimpleNamespace(noop=lambda: None)
    bare = ns.noop
    costs = []
    with Tracer([Target(ns, "noop", "noop")]) as tracer:
        wrapped = ns.noop
        for _ in range(reps):
            tracer.spans.clear()
            t0 = time.perf_counter()
            for _ in range(calls):
                bare()
            t1 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            t2 = time.perf_counter()
            costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part its direct children cover.
    Children of one span never overlap: the program is single-threaded."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


@dataclass
class NameStats:
    calls: int = 0
    units: float = 0.0
    total_s: float = 0.0
    self_s: float = 0.0


def summarize(spans, keep=lambda span: True) -> dict[str, NameStats]:
    """Per span name: calls, work units, inclusive and self seconds, over
    the spans `keep` accepts."""
    own = self_times(spans)
    out: dict[str, NameStats] = defaultdict(NameStats)
    for s, self_s in zip(spans, own):
        if not keep(s):
            continue
        st = out[s.name]
        st.calls += 1
        st.units += s.units
        st.total_s += s.duration
        st.self_s += self_s
    return dict(out)
