"""The benchmark in ``bench/`` wraps package functions by attribute name;
each name must still exist, or a traced benchmark run stops at its set-up."""

import importlib
import json
import subprocess
import sys
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


def test_lp_check_reads_the_fixed_form(monkeypatch):
    """``checks.highs_objective`` hands an LP to HiGHS through its
    ``lower``, ``upper`` and ``maximize`` attributes: a scenario LP and its
    simplex optimum must pass ``checks.check_lp``."""
    import numpy as np
    import pytest

    pytest.importorskip("scipy")
    from surropt.lp import solve_lp
    from surropt.simulate import CostParams, InventoryState
    from surropt.two_stage import build_saa

    monkeypatch.syspath_prepend(str(BENCH_DIR))
    checks = importlib.import_module("checks")
    state = InventoryState(np.array([[1, 0, 2], [0, 3, 0]]))
    lp = build_saa(state, [np.array([2, 1]), np.array([0, 4]), np.array([3, 3])], CostParams())
    assert checks.check_lp(lp, solve_lp(lp)) == ""


def test_traced_leaf_values_reach_the_patched_name(monkeypatch):
    """The traced ``losses.leaf_value_s`` wraps ``gbdt.leaf_optimal_value``:
    the grower must look leaf values up through that module global."""
    import numpy as np

    from surropt.learners import Dataset, fit_gbdt, gbdt
    from surropt.learners.gbdt import GbdtParams
    from surropt.losses import LossSpec

    calls = []
    real = gbdt.leaf_optimal_value
    monkeypatch.setattr(gbdt, "leaf_optimal_value", lambda *a: calls.append(a) or real(*a))
    rng = np.random.default_rng(0)
    X = rng.normal(size=(40, 3))
    params = GbdtParams(n_iterations=3, max_depth=2, min_child_weight=1, subsample=1.0)
    # mae leaves are the ones valued through it
    fit_gbdt(Dataset(X, np.abs(X[:, :2]), np.arange(40)), params, LossSpec("mae"))
    # the base, then at least one level of leaves per round
    assert len(calls) >= 1 + params.n_iterations


def test_traced_sampling_reaches_the_patched_name(monkeypatch):
    """The traced ``demand.sample_s`` wraps ``DemandModel.sample_day``: the
    oracle must draw each day's scenarios through that name, once per day."""
    from surropt.demand import DemandModel
    from surropt.pipeline import GENERATION_PHASE, ExperimentConfig, OraclePolicy
    from surropt.two_stage import SaaConfig

    calls = []
    real = DemandModel.sample_day
    monkeypatch.setattr(
        DemandModel, "sample_day", lambda *a, **k: calls.append(a) or real(*a, **k)
    )
    config = ExperimentConfig(seed=3, saa=SaaConfig(scenario_count=5))
    policy = OraclePolicy(config, GENERATION_PHASE)
    for day in range(2):
        policy(day, config.initial_state)
    assert len(calls) == 2


def test_traced_kernel_is_one_call_per_svr_predict(monkeypatch):
    """The traced ``learners.svr.kernel_s`` wraps ``svr.rbf_kernel``: a
    prediction must compute its one kernel through that module global."""
    import numpy as np

    from surropt.learners import Dataset, fit_svr, svr

    rng = np.random.default_rng(0)
    X = rng.integers(0, 5, size=(40, 3)).astype(float)
    Y = np.column_stack([X[:, 0] + X[:, 1], np.abs(X[:, 1] - X[:, 2]), np.full(40, 1.0)])
    model = fit_svr(Dataset(X, Y, np.arange(40)), C=1.0)
    assert model.sv_counts.sum() > 0
    calls = []
    real = svr.rbf_kernel
    monkeypatch.setattr(svr, "rbf_kernel", lambda *a: calls.append(a) or real(*a))
    for n in (1, 7):
        calls.clear()
        model.predict(X[:n])
        assert len(calls) == 1


def test_label_workload_passes_its_checks():
    """One traced pass of the ``label`` workload: 100 oracle days whose LPs
    HiGHS re-solves, whose day cycle is recomputed and whose stage-one
    solutions are checked; the last line of its output is the JSON result."""
    import pytest

    pytest.importorskip("scipy")
    result = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "label", "--seconds", "0", "--trace", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0


def test_train_workload_passes_its_checks():
    """One traced pass of the ``train`` workload: five surrogates fitted on
    the stored trajectory from ``acceptance.experiment_config``, each saved,
    loaded and checked (ridge against least squares, SVR dual feasibility,
    boosted trees below the constant model, bit-identical reloads); the last
    line of its output is the JSON result."""
    result = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "train", "--seconds", "0", "--trace", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0


def test_traced_rollout_day_reaches_the_patched_names(monkeypatch):
    """The traced ``simulate.*`` and ``pipeline.postprocess_s`` figures wrap
    these module globals: a rollout must reach each once per day."""
    import numpy as np

    from surropt import pipeline, simulate

    class ShipsFromEmptyStock:
        """Orders one unit per hospital and ships two units on one lane, which
        the empty first morning cannot supply."""

        def predict(self, X):
            raw = np.zeros((len(X), simulate.decision_length(4, 11)))
            raw[:, :4], raw[:, 4] = 1.0, 2.0
            return raw

    calls = defaultdict(int)

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for owner, name in ((simulate, "check_feasibility"), (simulate, "repair"), (simulate, "step"),
                        (pipeline, "postprocess_prediction")):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    config = pipeline.ExperimentConfig(seed=5, rollout_days=5)
    report = pipeline.rollout(config, ShipsFromEmptyStock(), pipeline.rollout_demands(config))
    assert report.days == 5 and report.violations >= 1
    assert dict(calls) == {"check_feasibility": 5, "repair": 5, "step": 5, "postprocess_prediction": 5}


def test_rollout_workload_passes_its_checks():
    """One traced pass of the ``rollout`` workload: five fitted surrogates
    over 200 days, each day recomputed by ``checks.check_horizon``
    independently of ``simulate``; the last line of its output is the JSON
    result."""
    result = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "rollout", "--seconds", "0", "--trace", "1"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True and summary["failed"] == 0
    assert summary["metrics"]["simulate.steps"]["value"] == 1000
