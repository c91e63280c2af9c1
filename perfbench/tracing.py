"""Spans recorded from the benchmark side, around calls into qcldpc.

Nothing inside `src/` is instrumented: the tracer wraps public
functions (by patching the module attribute the caller looks up, or by
wrapping a bound method) and records one span per call.  Spans are
kept in memory as (id, parent, name, trial, start_ns, end_ns) and
written out once at the end.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.trial = None  # (point_index, trial_index) of the trial in flight
        self._stack: list = [None]
        self._next_id = 0

    def _open(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        return sid, parent

    def _close(self, sid, parent, name, t0):
        t1 = perf_counter_ns()
        self._stack.pop()
        self.spans.append((sid, parent, name, self.trial, t0, t1))

    @contextmanager
    def span(self, name: str):
        sid, parent = self._open()
        t0 = perf_counter_ns()
        try:
            yield
        finally:
            self._close(sid, parent, name, t0)

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            sid, parent = self._open()
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(sid, parent, name, t0)

        return traced

    @contextmanager
    def patch(self, module, attr: str, name: str):
        """Route lookups of module.attr through a span-recording wrapper."""
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(original, name))
        try:
            yield
        finally:
            setattr(module, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, trial, t0, t1 in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "trial": trial, "start_ns": t0, "end_ns": t1}) + "\n")


def self_times(spans) -> dict[str, float]:
    """Per span name: total duration minus time covered by direct children, in s."""
    child_ns: dict[int, int] = {}
    for sid, parent, _, _, t0, t1 in spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + (t1 - t0)
    out: dict[str, float] = {}
    for sid, _, name, _, t0, t1 in spans:
        out[name] = out.get(name, 0.0) + (t1 - t0 - child_ns.get(sid, 0)) / 1e9
    return out
