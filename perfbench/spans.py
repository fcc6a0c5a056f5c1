"""In-memory span tracer that wraps the program's public functions from outside.

A span is (name, parent, outer start, start, end, outer end). Spans are
kept in a flat integer array while the run goes on and written out once
at the end. A span's self time is its duration minus the outer durations
of its direct children and the calibrated cost the tracer adds to it, so
the tracer's own work is charged to no span.

``Patches`` swaps module or class attributes for wrappers and puts the
originals back, so the program under test is never edited.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np


_ABSENT = object()


class Patches:
    """Attribute swaps that are undone, newest first, by ``restore``.

    The owner's own attribute is saved as stored (a staticmethod stays a
    staticmethod); an attribute the owner only inherited is deleted again.
    """

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            if value is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


class Tracer:
    """Records nested spans and plain counters.

    Each span keeps two intervals. ``start``..``end`` brackets only the
    wrapped call. ``outer_start``..``outer_end`` brackets the whole
    wrapper, its bookkeeping and its ``after`` hook included, and is what
    the parent loses in ``self_times``. What the tracer still adds to the
    parent (entering and leaving the wrapper, each counted call) is
    measured by ``calibrate`` and subtracted there too.
    """

    FIELDS = 6  # name_id, parent, outer_start, start, end, outer_end

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._rec = array("q")
        self._stack: list[int] = []
        self._counted: dict[int, int] = defaultdict(int)  # span -> counted calls inside it
        self.counters: dict[str, float] = defaultdict(float)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """Wrap ``fn`` in a span; ``after(args, kwargs, result)`` runs
        after the call, inside the outer interval only."""
        nid = self.name_id(name)
        rec, stack, clock = self._rec, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            outer = clock()
            base = len(rec)
            rec.extend((nid, stack[-1] if stack else -1, outer, 0, 0, 0))
            stack.append(base // 6)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rec[base + 3] = start
                rec[base + 4] = end
                rec[base + 5] = end  # replaced below when the call returns
            if after is not None:
                after(args, kwargs, out)
            rec[base + 5] = clock()
            return out

        return traced

    def count(self, name: str, fn):
        """Wrap ``fn`` so that calls are counted but not timed: its time
        stays in the enclosing span's self time."""
        counters, counted, stack = self.counters, self._counted, self._stack

        def counted_call(*args, **kwargs):
            counters[name] += 1
            if stack:
                counted[stack[-1]] += 1
            return fn(*args, **kwargs)

        return counted_call

    def mark(self) -> int:
        """Number of spans opened so far: a phase boundary for ``totals_by_name``."""
        return len(self._rec) // self.FIELDS

    def arrays(self) -> dict[str, np.ndarray]:
        flat = np.frombuffer(self._rec, dtype=np.int64).reshape(-1, self.FIELDS)
        counted = np.zeros(flat.shape[0], dtype=np.int64)
        if self._counted:
            idx = np.fromiter(self._counted.keys(), dtype=np.int64)
            counted[idx] = np.fromiter(self._counted.values(), dtype=np.int64)
        keys = ("name_id", "parent", "outer_start_ns", "start_ns", "end_ns", "outer_end_ns")
        spans = {k: flat[:, c].copy() for c, k in enumerate(keys)}
        spans["counted"] = counted
        return spans

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def calibrate(calls: int = 2000, repeats: int = 15) -> tuple[float, float]:
    """Tracer cost, in ns, that a parent span still pays per wrapped child
    and per counted call, after ``self_times`` has taken out each child's
    outer interval. Each is the median over ``repeats`` of a loop of
    ``calls`` calls to an empty two-argument function, with and without
    the wrapper. The cost of the call itself goes to the child.
    """
    tracer = Tracer()

    def empty(a, b):
        return None

    child = tracer.wrap("child", empty)
    counted = tracer.count("counted", empty)

    def loop(fn):
        if fn is None:
            for _ in range(calls):
                pass
        else:
            for _ in range(calls):
                fn(1, 2)

    cases = {"none": None, "spans": child, "bare": empty, "counted": counted}
    parents = {k: tracer.wrap(k, lambda fn=fn: loop(fn)) for k, fn in cases.items()}
    for _ in range(repeats):
        for parent in parents.values():
            parent()
    spans = tracer.arrays()
    own = self_times(spans)
    per = {k: own[spans["name_id"] == tracer.name_id(k)] for k in cases}
    per_child = float(np.median(per["spans"] - per["none"])) / calls
    per_count = float(np.median(per["counted"] - per["bare"])) / calls
    return max(per_child, 0.0), max(per_count, 0.0)


def self_times(spans: dict[str, np.ndarray], per_child_ns: float = 0.0,
               per_count_ns: float = 0.0) -> np.ndarray:
    """Each span's duration minus the outer durations of its direct
    children, minus the calibrated tracer cost of each wrapped child and
    each counted call made directly inside it."""
    parent = spans["parent"]
    dur = (spans["end_ns"] - spans["start_ns"]).astype(np.float64)
    outer = (spans["outer_end_ns"] - spans["outer_start_ns"]).astype(np.float64) + per_child_ns
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=outer[has_parent], minlength=dur.size)
    return dur - child - per_count_ns * spans["counted"]


def totals_by_name(spans: dict[str, np.ndarray], names: list[str], lo: int = 0,
                   hi: int | None = None, per_child_ns: float = 0.0,
                   per_count_ns: float = 0.0) -> dict[str, tuple[int, float]]:
    """(calls, self ns) per span name over the spans with index in [lo, hi).

    Spans are numbered in the order they open, so one phase of a run (the
    set-up, one round) is a contiguous index range.
    """
    own = self_times(spans, per_child_ns, per_count_ns)[lo:hi]
    ids = spans["name_id"][lo:hi]
    calls = np.bincount(ids, minlength=len(names))
    ns = np.bincount(ids, weights=own, minlength=len(names))
    return {name: (int(calls[k]), float(ns[k])) for k, name in enumerate(names)}
