"""Benchmark of the surropt pipeline: label, train and rollout workloads.

    python3 bench/run.py --workload label --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --trace 1     # each workload in turn

One run sets up, then repeats whole rounds of its workload until
``--seconds`` have passed (at least one round), then checks the outputs of
the first round independently of the program.  With ``--trace 0`` it
reports the end-to-end metrics, measured with no layer wrappers installed;
with ``--trace 1`` it also runs one round with every layer wrapped and
reports the per-layer metrics instead.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(name -> value and unit).  See README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("label", "train", "rollout")
BENCHMARK_JSON = BENCH_DIR.parent / "BENCHMARK.json"


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def prepare_process() -> None:
    """Cap BLAS threads at the core count and put ``src`` on the import path.

    Must run before numpy is imported."""
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        limit = int(current) if current.isdigit() and int(current) > 0 else cores
        os.environ[var] = str(min(limit, cores))
    if not (SRC_DIR / "surropt" / "__init__.py").is_file():
        raise SetupError(f"no surropt package under {SRC_DIR}; run from a checkout")
    sys.path.insert(0, str(SRC_DIR))


def _nearest_rank(values, q: float) -> float:
    """The smallest sample with at least a share q of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    t0 = perf_counter()
    import workloads  # imports numpy and surropt
    import_s = perf_counter() - t0
    if not workloads.TRAJECTORY_CSV.is_file():
        raise SetupError(f"stored input {workloads.TRAJECTORY_CSV} is missing; see make_data.py")

    import numpy as np

    from tracing import Tracer, patched

    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
    try:
        workload = workloads.WORKLOADS[name](seed, workdir)
        setup_times = []
        for _ in range(workload.setup_repeats):
            t0 = perf_counter()
            workload.setup()
            setup_times.append(perf_counter() - t0)

        start = perf_counter()
        rounds = [workload.run_round(capture=True)]
        # later rounds keep nothing, so this peak does not grow with their number
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while perf_counter() - start < seconds:
            rounds.append(workload.run_round())

        traced = None
        if trace:
            tracer = Tracer()
            counts = defaultdict(list)
            with patched(workloads.trace_wrappers(tracer, counts)):
                with tracer.span("bench.round"):
                    traced = workload.run_round(span=tracer.span)
            spans = tracer.summary()

        checked = workload.check(rounds[0].captured)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = rounds + ([traced] if traced else [])
    unattributed = list(checked.unattributed)
    if any(r.fingerprint != rounds[0].fingerprint for r in everything):
        unattributed.append("rounds on the same inputs gave different outputs")
    for msg in checked.problems + unattributed:
        print(f"check failed: {msg}", file=sys.stderr)

    if trace:
        metrics = workloads.layer_metrics(spans, counts)
        metrics.update(checked.values)
        wall = spans.total("bench.round")
        metrics["trace.wall_s"] = wall
        metrics["trace.self_sum_s"] = spans.self_sum(exclude=("bench.round",))
        metrics["trace.overhead_s"] = wall - float(np.median([r.wall_s for r in rounds]))
        # a layer the workload does not use reads 0
        reported = {n: {"value": float(metrics.get(n, 0.0)), "unit": u}
                    for n, u in _listed_metrics("per_layer")}
    else:
        op_ms = np.concatenate([r.op_ms for r in rounds])
        metrics = {
            "setup_s": import_s + float(np.median(setup_times)),
            "peak_rss_mb": peak_rss_mb,
            "ops_per_s": workload.ops_per_round * len(rounds) / sum(r.wall_s for r in rounds),
            "op_p50_ms": _nearest_rank(op_ms, 0.5),
            "op_p90_ms": _nearest_rank(op_ms, 0.9),
            "headline_loss": checked.values[workload.headline_metric],
        }
        reported = {n: {"value": float(metrics[n]), "unit": u}
                    for n, u in _listed_metrics("end_to_end")}

    return {
        "correct": not unattributed,
        "attempted": workload.ops_per_round * len(everything),
        "failed": checked.failed * len(everything),
        "metrics": reported,
    }


def _listed_metrics(kind: str) -> list:
    """(name, unit) of each metric of one kind, as BENCHMARK.json lists them."""
    with open(BENCHMARK_JSON) as fh:
        return [(m["name"], m["unit"]) for m in json.load(fh)[kind]]


def _print_result(name: str, result: dict) -> None:
    print(f"{name}: {result['attempted']} operations attempted, {result['failed']} failed, "
          f"correct={str(result['correct']).lower()}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:40s} {entry['value']:>16.6g} {entry['unit']}")


def run_all(args) -> int:
    """Run each workload in its own process, so peak RSS is per workload."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            check=False,
        )
        if proc.returncode != 0:
            print(f"bench: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        _print_result(name, results[name])
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=20240803, help="workload seed")
    parser.add_argument("--seconds", type=float, default=15.0, help="minimum measured time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        prepare_process()
        if args.workload == "all":
            return run_all(args)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    _print_result(args.workload, result)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
