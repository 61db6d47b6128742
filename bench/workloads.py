"""The three workloads and the layer wrappers of a traced round.

Every workload runs on the acceptance configuration with the acceptance
seed, so its work and its quality figures are the same on every run: the
oracle's cost and the models' errors move only when the program's
behaviour changes, and the spread between runs is the machine's alone.
The benchmark's ``--seed`` picks which five of the labelled days HiGHS
solves again in ``label``; ``train`` and ``rollout`` check every operation,
so their runs do not depend on it.

Each workload runs whole rounds of the same operations, so the share of
failed operations does not depend on how many rounds fit into a run:

- ``label``: the oracle labels the first LABEL_DAYS days of the acceptance
  horizon from the empty state (``oracle_generation_run``).  One operation
  is one labelled day.  The LP does almost all of the work.
- ``train``: read the stored 500-day trajectory, fit ridge, SVR and three
  GBDT losses on its chronological 90% block, and save each model.  One
  operation is one fit and save.  The learners and losses do the work; the
  LP does none.
- ``rollout``: roll the five surrogates, fitted in set-up, over the same
  ROLLOUT_DAYS fresh demand days with ``rollout()``.  One operation is one
  policy-day.  Single-row predict, the simulator and post-processing do the
  work; the LP does none.

A round returns its wall time, one time per operation of the headline kind
and, when asked to capture, the outputs the correctness checks need.
Capture keeps references only; it adds no work.  The checks also measure
the workload's headline quality figure, named by ``headline_metric``.
"""

from __future__ import annotations

import contextlib
import hashlib
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import checks
from acceptance import (
    ACCEPT_SEED,
    ROLLOUT_DAYS,
    SURROGATES,
    TRAJECTORY_CSV,
    experiment_config,
)
from surropt import pipeline, report, simulate, two_stage
from surropt.demand import DemandModel
from surropt.errors import SurroptError
from surropt.learners import gbdt, ridge, store, svr
from surropt.learners.data import split_train_test
from surropt.learners.gbdt import GbdtModel
from surropt.learners.ridge import RidgeModel
from surropt.learners.svr import SvrModel
from tracing import patched

LABEL_DAYS = 100          # a p90 over 100 days has ten samples beyond it
LP_CHECKS = 5             # labelled days per run whose LP HiGHS solves again
HEADLINE = "gbdt-mae"     # the paper's headline model
HOSPITALS, MAX_AGE = 4, 11


def _key(label: str) -> str:
    return label.replace("-", "_")


@dataclass
class Round:
    wall_s: float
    op_ms: np.ndarray          # one entry per timed operation
    fingerprint: tuple         # equal for every round of one run
    captured: dict             # outputs the checks need, first round only


@dataclass
class CheckResult:
    failed: int                # operations of one round that failed
    problems: list             # failures tied to an operation
    unattributed: list         # failures of the run as a whole
    values: dict               # layer figures the checks measured


def _nospan(name):
    return contextlib.nullcontext()


class Label:
    name = "label"
    ops_per_round = LABEL_DAYS
    headline_metric = "pipeline.oracle_cost_per_day"
    setup_repeats = 3

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        days = rng.choice(LABEL_DAYS, LP_CHECKS, replace=False)
        self.lp_check_days = sorted(int(d) for d in days)

    def setup(self):
        self.config = experiment_config(ACCEPT_SEED)
        # day 0 of the horizon, so lazy initialisation ends before timing
        policy = pipeline.OraclePolicy(self.config, pipeline.GENERATION_PHASE)
        policy(0, self.config.initial_state)

    def run_round(self, span=_nospan, capture=False) -> Round:
        stamps, solutions, lps = [], [], {}

        def stamp_days(original):
            def probe(*args, **kwargs):
                stamps.append(perf_counter())
                sol = original(*args, **kwargs)
                if capture:
                    solutions.append(sol)
                return sol

            return probe

        def keep_lps(original):
            def probe(lp, *args, **kwargs):
                sol = original(lp, *args, **kwargs)
                if len(stamps) - 1 in self.lp_check_days:
                    lps[len(stamps) - 1] = (lp, sol)
                return sol

            return probe

        probes = [(pipeline, "solve_stage_one", stamp_days)]
        if capture:
            probes.append((two_stage, "solve_lp", keep_lps))
        with patched(probes):
            start = perf_counter()
            with span("pipeline.oracle_generation_run"):
                result = pipeline.oracle_generation_run(self.config, LABEL_DAYS)
            end = perf_counter()
        decisions = np.stack([d.flatten() for d in result.decisions])
        return Round(
            wall_s=end - start,
            op_ms=np.diff(np.append(stamps, end)) * 1e3,
            fingerprint=(result.cost_sum().total, decisions.tobytes()),
            captured={"result": result, "solutions": solutions, "lps": lps}
            if capture
            else {},
        )

    def check(self, captured) -> CheckResult:
        result, solutions, lps = captured["result"], captured["solutions"], captured["lps"]
        bad, cost_per_day = checks.check_horizon(result, self.config.costs, "oracle")
        if not np.isclose(result.cost_mean().total, cost_per_day, rtol=checks.COST_RTOL):
            bad = {d: "oracle: cost per day differs from the recomputed days"
                   for d in range(LABEL_DAYS)}
        for day, sol in enumerate(solutions):
            msg = checks.check_stage_one(sol)
            if msg:
                bad.setdefault(day, f"oracle day {day}: {msg}")
        for day, (lp, sol) in lps.items():
            msg = checks.check_lp(lp, sol)
            if msg:
                bad.setdefault(day, f"oracle day {day}: {msg}")
        unattributed = []
        if len(solutions) != LABEL_DAYS or sorted(lps) != self.lp_check_days:
            unattributed.append("the oracle was not called once per day")
        values = {"pipeline.oracle_cost_per_day": result.cost_mean().total}
        return CheckResult(len(bad), list(bad.values()), unattributed, values)


class _StampedModel:
    """Hands predictions through and stamps the start of each policy-day."""

    def __init__(self, model):
        self.model = model
        self.stamps = []

    def predict(self, X):
        self.stamps.append(perf_counter())
        return self.model.predict(X)


class Train:
    name = "train"
    ops_per_round = len(SURROGATES)
    headline_metric = "learners.gbdt_mae.test_mad"
    setup_repeats = 3

    def __init__(self, seed, workdir):
        self.workdir = workdir

    def setup(self):
        self.configs = {
            label: experiment_config(ACCEPT_SEED, kind, loss) for label, kind, loss in SURROGATES
        }

    def _path(self, label):
        return self.workdir / f"model-{label}.surropt"

    def run_round(self, span=_nospan, capture=False) -> Round:
        models, errors, op_ms = {}, {}, []
        start = perf_counter()
        data = report.read_dataset_csv(TRAJECTORY_CSV, HOSPITALS, MAX_AGE)
        for label, config in self.configs.items():
            t0 = perf_counter()
            try:
                with span("pipeline.train_surrogate"):
                    model = pipeline.train_surrogate(config, data)
            except SurroptError as exc:
                errors[label] = f"{label}: fit raised {type(exc).__name__}: {exc}"
                continue
            store.save_model(self._path(label), model)
            op_ms.append((perf_counter() - t0) * 1e3)
            models[label] = model
        wall = perf_counter() - start
        files = tuple(hashlib.sha256(self._path(k).read_bytes()).hexdigest() for k in models)
        return Round(
            wall_s=wall,
            op_ms=np.asarray(op_ms),
            fingerprint=(files, tuple(errors)),
            captured={"data": data, "models": models, "errors": errors} if capture else {},
        )

    def check(self, captured) -> CheckResult:
        data, models = captured["data"], captured["models"]
        problems = list(captured["errors"].values())
        failed = len(problems)
        values = {"learners.store.load_s": 0.0, "learners.store.bytes": 0, "learners.gbdt.trees": 0}
        for label, model in models.items():
            train, test = split_train_test(data, self.configs[label].train_fraction)
            path = self._path(label)
            t0 = perf_counter()
            loaded = store.load_model(path)
            values["learners.store.load_s"] += perf_counter() - t0
            values["learners.store.bytes"] += path.stat().st_size
            predicted = model.predict(test.X)
            values[f"learners.{_key(label)}.test_mad"] = float(np.mean(np.abs(predicted - test.Y)))
            if isinstance(model, RidgeModel):
                msg = checks.check_ridge(model, train.X, train.Y)
            elif isinstance(model, SvrModel):
                msg = checks.check_svr(model)
            else:
                values["learners.gbdt.trees"] += sum(len(t) for t in model.ensembles)
                msg = checks.check_gbdt(model, train.Y, model.predict(train.X))
            if not msg and not np.array_equal(loaded.predict(test.X), predicted):
                msg = f"{label}: save -> load -> predict is not bit-identical"
            if msg:
                problems.append(msg)
                failed += 1
        return CheckResult(failed, problems, [], values)


class Rollout:
    name = "rollout"
    ops_per_round = len(SURROGATES) * ROLLOUT_DAYS
    headline_metric = "pipeline.gbdt_mae_cost_per_day"
    setup_repeats = 1   # fitting five surrogates is the set-up

    def __init__(self, seed, workdir):
        pass

    def setup(self):
        self.config = experiment_config(ACCEPT_SEED)
        data = report.read_dataset_csv(TRAJECTORY_CSV, HOSPITALS, MAX_AGE)
        self.models = {
            label: pipeline.train_surrogate(experiment_config(ACCEPT_SEED, kind, loss), data)
            for label, kind, loss in SURROGATES
        }
        self.demands = pipeline.rollout_demands(self.config, ROLLOUT_DAYS)

    def run_round(self, span=_nospan, capture=False) -> Round:
        runs, reports = [], {}

        def keep_runs(original):
            def probe(*args, **kwargs):
                result = original(*args, **kwargs)
                runs.append(result)
                return result

            return probe

        with patched([(pipeline, "run_horizon", keep_runs)] if capture else []):
            start = perf_counter()
            for label, model in self.models.items():
                stamped = _StampedModel(model)
                with span("pipeline.rollout"):
                    reports[label] = pipeline.rollout(self.config, stamped, self.demands, label)
                if label == HEADLINE:
                    # the last day also carries the report summary, so it is left out
                    op_ms = np.diff(stamped.stamps) * 1e3
            wall = perf_counter() - start
        return Round(
            wall_s=wall,
            op_ms=op_ms,
            fingerprint=tuple(r.cost_sum.total for r in reports.values()),
            captured={"runs": dict(zip(self.models, runs)), "reports": reports}
            if capture
            else {},
        )

    def check(self, captured) -> CheckResult:
        costs = self.config.costs
        failed, problems, values = 0, [], {}
        for label, run in captured["runs"].items():
            rep = captured["reports"][label]
            values[f"pipeline.{_key(label)}_cost_per_day"] = rep.cost_mean.total
            if not np.array_equal(np.stack(run.demands), self.demands):
                problems.append(f"{label}: did not consume the shared demand array")
                failed += ROLLOUT_DAYS
                continue
            bad, cost_per_day = checks.check_horizon(run, costs, label)
            if not np.isclose(rep.cost_mean.total, cost_per_day, rtol=checks.COST_RTOL):
                bad = {d: f"{label}: reported cost per day {rep.cost_mean.total!r} is not "
                          f"the recomputed {cost_per_day!r}" for d in range(ROLLOUT_DAYS)}
            failed += len(bad)
            problems.extend(dict.fromkeys(bad.values()))
        unattributed = [] if len(captured["runs"]) == len(SURROGATES) else ["missing rollouts"]
        return CheckResult(failed, problems, unattributed, values)


WORKLOADS = {w.name: w for w in (Label, Train, Rollout)}


def trace_wrappers(tracer, counts):
    """Every layer boundary the traced round records, for all workloads.

    ``counts`` collects what the boundaries return: LP pivots and size,
    rounding gaps, SMO iterations, violating slots."""

    def keep(key, get):
        return lambda args, kwargs, result: counts[key].append(get(args, result))

    w = tracer.wrapper
    return [
        (pipeline, "solve_stage_one", w("two_stage.solve_stage_one", keep(
            "stage_one", lambda a, r: (r.rounding_gap, r.lp_integral)))),
        (pipeline, "fit_ridge", w("learners.ridge.fit")),
        (pipeline, "fit_svr", w("learners.svr.fit")),
        (pipeline, "fit_gbdt", w(lambda a, k: f"learners.gbdt_{a[2].kind}.fit")),
        (pipeline, "postprocess_prediction", w("pipeline.postprocess_prediction")),
        (pipeline, "report_from_run", w("pipeline.report_from_run")),
        (DemandModel, "sample_day", w("demand.sample_day")),
        (two_stage, "build_saa", w("two_stage.build_saa")),
        (two_stage, "solve_lp", w("lp.solve_lp", keep(
            "lp", lambda a, r: (r.iterations, a[0].n_rows, a[0].n_vars)))),
        (two_stage, "repair", w("simulate.repair")),
        (two_stage, "evaluate_decision", w("two_stage.evaluate_decision")),
        (simulate, "check_feasibility", w("simulate.check_feasibility", keep(
            "violations", lambda a, r: len(r)))),
        (simulate, "repair", w("simulate.repair")),
        (simulate, "step", w("simulate.step")),
        (ridge, "solve_ridge", w("learners.ridge.solve_ridge")),
        (svr, "rbf_kernel", w("learners.svr.rbf_kernel")),
        (svr, "smo_solve", w("learners.svr.smo_solve", keep("smo", lambda a, r: r[2]))),
        (gbdt, "loss_grad_hess", w("losses.loss_grad_hess")),
        (gbdt, "leaf_optimal_value", w("losses.leaf_optimal_value")),
        (RidgeModel, "predict", w("learners.ridge.predict")),
        (SvrModel, "predict", w("learners.svr.predict")),
        (GbdtModel, "predict", w(lambda a, k: f"learners.gbdt_{a[0].loss.kind}.predict")),
        (report, "read_dataset_csv", w("report.read_dataset_csv")),
        (store, "save_model", w("learners.store.save_model")),
    ]


# Spans the benchmark opens around its calls into the pipeline.
PIPELINE_ROOTS = (
    "pipeline.oracle_generation_run",
    "pipeline.train_surrogate",
    "pipeline.rollout",
)


def _mean(values):
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(spans, counts) -> dict:
    """Per-layer figures of one traced round; 0 for layers it did not use."""
    lp = np.asarray(counts["lp"], dtype=float).reshape(-1, 3)
    stage_one = np.asarray(counts["stage_one"], dtype=float).reshape(-1, 2)
    m = {
        "lp.solve_s": spans.total("lp.solve_lp"),
        "lp.solve_p50_ms": spans.median("lp.solve_lp") * 1e3,
        "lp.pivots_per_solve": _mean(lp[:, 0]),
        "lp.rows": _mean(lp[:, 1]),
        "lp.cols": _mean(lp[:, 2]),
        "lp.pivot_flops_computed": _mean(lp[:, 0] * 2 * lp[:, 1] * lp[:, 2]),
        "two_stage.build_s": spans.total("two_stage.build_saa"),
        "two_stage.evaluate_s": spans.total("two_stage.evaluate_decision"),
        "two_stage.self_s": spans.self_time("two_stage.solve_stage_one"),
        "two_stage.rounding_gap_mean": _mean(stage_one[:, 0]),
        "two_stage.lp_integral_ratio": _mean(stage_one[:, 1]),
        "demand.sample_s": spans.total("demand.sample_day"),
        "simulate.step_s": spans.total("simulate.step"),
        "simulate.steps": spans.count("simulate.step"),
        "simulate.step_p50_us": spans.median("simulate.step") * 1e6,
        "simulate.repair_s": spans.total("simulate.repair"),
        "simulate.check_s": spans.total("simulate.check_feasibility"),
        "simulate.repaired_slots": int(sum(counts["violations"])),
        "pipeline.self_s": sum(spans.self_time(name) for name in PIPELINE_ROOTS),
        "pipeline.postprocess_s": spans.total("pipeline.postprocess_prediction"),
        "pipeline.summarize_s": spans.total("pipeline.report_from_run"),
        "report.read_dataset_s": spans.total("report.read_dataset_csv"),
        "learners.store.save_s": spans.total("learners.store.save_model"),
        "learners.ridge.fit_s": spans.total("learners.ridge.fit"),
        "learners.ridge.solves": spans.count("learners.ridge.solve_ridge"),
        "learners.svr.fit_s": spans.total("learners.svr.fit"),
        "learners.svr.kernel_s": spans.total("learners.svr.rbf_kernel"),
        "learners.svr.smo_iterations": int(sum(counts["smo"])),
        "losses.grad_hess_s": spans.total("losses.loss_grad_hess"),
        "losses.leaf_value_s": spans.total("losses.leaf_optimal_value"),
    }
    for loss in ("mse", "mae", "huber"):
        m[f"learners.gbdt_{loss}.fit_s"] = spans.total(f"learners.gbdt_{loss}.fit")
    for label, _, _ in SURROGATES:
        name = f"learners.{_key(label)}.predict"
        m[f"{name}_p50_us"] = spans.median(name) * 1e6
    return m
