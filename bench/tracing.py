"""Spans recorded from outside the package.

A layer is timed by replacing the module-level name that its caller looks
up (``pipeline.solve_stage_one``, ``two_stage.solve_lp``, ...) with a
wrapper that records one span per call: name, start, end and the span that
was open when it started.  Spans are kept in flat arrays in memory and
summarised when the run ends.  A span's self time is its duration minus the
durations of its direct children; calls in one thread nest, so children
never overlap.

``patched`` swaps names without recording anything; the workloads use it
for the probes that untraced runs need (per-day timestamps, captured
outputs for the correctness checks).
"""

from __future__ import annotations

import contextlib
from array import array
from time import perf_counter

import numpy as np


@contextlib.contextmanager
def patched(replacements):
    """Temporarily set ``owner.attr = make(original)`` for each
    ``(owner, attr, make)``; originals are restored in reverse order."""
    saved = []
    try:
        for owner, attr, make in replacements:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, make(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class Tracer:
    """In-memory span store.  One instance per traced round."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self._name = array("i")
        self._parent = array("i")
        self._start = array("d")
        self._end = array("d")
        self._open = [-1]

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _begin(self, name_id: int) -> int:
        idx = len(self._start)
        self._name.append(name_id)
        self._parent.append(self._open[-1])
        self._start.append(0.0)
        self._end.append(0.0)
        self._open.append(idx)
        self._start[idx] = perf_counter()
        return idx

    def _finish(self, idx: int) -> None:
        self._end[idx] = perf_counter()
        self._open.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        idx = self._begin(self._id(name))
        try:
            yield
        finally:
            self._finish(idx)

    def wrapper(self, name, on_result=None):
        """A ``make`` for :func:`patched` that records a span per call.

        ``name`` is a string or a function of the call's arguments; the
        optional ``on_result(args, kwargs, result)`` sees every return value.
        """

        def make(original):
            fixed = None if callable(name) else self._id(name)

            def traced(*args, **kwargs):
                idx = self._begin(fixed if fixed is not None else self._id(name(args, kwargs)))
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._finish(idx)
                if on_result is not None:
                    on_result(args, kwargs, result)
                return result

            return traced

        return make

    def summary(self) -> "SpanSummary":
        start = np.frombuffer(self._start, dtype=np.float64)
        end = np.frombuffer(self._end, dtype=np.float64)
        return SpanSummary(
            self.names,
            np.frombuffer(self._name, dtype=np.int32).copy(),
            np.frombuffer(self._parent, dtype=np.int32).copy(),
            end - start,
        )


class SpanSummary:
    """Per-name totals, self times and duration samples of a finished trace."""

    def __init__(self, names, name_ids, parents, durations):
        n = durations.size
        child = parents >= 0
        covered = np.bincount(parents[child], weights=durations[child], minlength=n)
        self._self = durations - covered
        self._dur = durations
        self._by_name = {name: np.flatnonzero(name_ids == k) for k, name in enumerate(names)}

    def _idx(self, name):
        return self._by_name.get(name, np.zeros(0, dtype=np.int64))

    def count(self, name) -> int:
        return int(self._idx(name).size)

    def total(self, name) -> float:
        return float(self._dur[self._idx(name)].sum())

    def self_time(self, name) -> float:
        return float(self._self[self._idx(name)].sum())

    def median(self, name) -> float:
        d = self._dur[self._idx(name)]
        return float(np.median(d)) if d.size else 0.0

    def self_sum(self, exclude=()) -> float:
        return float(sum(self._self[idx].sum() for name, idx in self._by_name.items()
                         if name not in exclude))
