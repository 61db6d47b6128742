"""The benchmark in ``bench/`` wraps package functions by attribute name;
each name must still exist, or a traced benchmark run stops at its set-up."""

import importlib
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def test_trace_wrappers_name_existing_attributes(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    workloads = importlib.import_module("workloads")
    tracer = importlib.import_module("tracing").Tracer()
    wrappers = workloads.trace_wrappers(tracer, defaultdict(list))
    assert len(wrappers) == 24
    missing = [(owner.__name__, attr) for owner, attr, _ in wrappers if not hasattr(owner, attr)]
    assert missing == []
