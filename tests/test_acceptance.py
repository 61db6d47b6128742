"""Acceptance suite: one test per criterion, each printing a PASS line with
its elapsed time and asserting the stated tolerance and runtime budget.

The heavyweight artifacts (a 500-day benchmark-policy run at 50 scenarios,
five trained surrogates, and a 200-day six-policy comparison) are built once
in a module fixture and shared; the determinism criterion rebuilds them from
scratch and compares bytes.
"""

import hashlib
import time

import numpy as np
import pytest

from surropt.learners import Dataset, fit_gbdt, fit_ridge, fit_svr, save_model
from surropt.learners.gbdt import GbdtParams
from surropt.learners.ridge import solve_ridge
from surropt.learners.svr import rbf_kernel, smo_solve
from surropt.losses import LossSpec, loss_grad_hess, loss_value
from surropt.lp import LinearProgram, solve_lp
from surropt.pipeline import (
    ExperimentConfig,
    LearnerSpec,
    compare_models,
    oracle_generation_run,
    train_surrogate,
)
from surropt.report import (
    read_dataset_csv,
    write_comparison_csv,
    write_comparison_text,
    write_inventory_csv,
    write_violations_csv,
)
from surropt.simulate import (
    CostParams,
    DecisionVector,
    InventoryState,
    write_trajectory_csv,
)
from surropt.two_stage import SaaConfig, solve_stage_one
from surropt.util import stream

from _oracles import (
    brute_force_oracle,
    dual_objective,
    enumerate_lp_optimum,
    gradient_descent_ridge,
    projected_gradient_svr_dual,
    replay_rollout,
)
from test_lp import make_random_lp
from test_two_stage import NEWSVENDOR_COSTS, NEWSVENDOR_SCENARIOS, random_tiny_instance

SEED = 20240803
HORIZON_DAYS = 500
ROLLOUT_DAYS = 200

ACCEPT_GBDT = GbdtParams(
    eta=0.1,
    max_depth=4,
    min_child_weight=2.0,
    subsample=0.7,
    colsample_bytree=1.0,
    n_iterations=120,
    l1=0.1,
    l2=1.0,
)


def accept_config(kind="ridge", loss="mse"):
    return ExperimentConfig(
        seed=SEED,
        horizon_days=HORIZON_DAYS,
        rollout_days=ROLLOUT_DAYS,
        train_fraction=0.9,
        saa=SaaConfig(scenario_count=50, seed=SEED),
        learner=LearnerSpec(
            kind=kind,
            loss=LossSpec(loss, 1.0),
            gbdt=ACCEPT_GBDT,
            ridge_lambdas=tuple(np.logspace(-3, 3, 13)),
            svr_C=1.0,
        ),
    )


def report(criterion, elapsed, limit, detail=""):
    line = f"[acceptance] criterion {criterion}: PASS ({elapsed:.1f}s < {limit}s)"
    if detail:
        line += f"  {detail}"
    print(line)
    assert elapsed < limit


def run_full_pipeline(out_dir):
    """Generate, train five surrogates, and compare on fresh paired days."""
    out_dir.mkdir(parents=True, exist_ok=True)
    timings = {}

    t0 = time.time()
    config = accept_config()
    run = oracle_generation_run(config)
    timings["generate"] = time.time() - t0
    write_trajectory_csv(out_dir / "dataset.csv", run)
    # trained on the CSV read back, as `surropt train` is
    data = read_dataset_csv(out_dir / "dataset.csv", 4, 11)

    t0 = time.time()
    models = {}
    models["ridge"] = train_surrogate(accept_config("ridge"), data)
    models["svr"] = train_surrogate(accept_config("svr"), data)
    for loss in ("mse", "mae", "huber"):
        models[f"gbdt-{loss}"] = train_surrogate(accept_config("gbdt", loss), data)
    timings["train"] = time.time() - t0
    for name, model in models.items():
        save_model(out_dir / f"model-{name}.surropt", model)

    t0 = time.time()
    comparison = compare_models(config, models)
    timings["compare"] = time.time() - t0
    write_comparison_csv(out_dir / "comparison.csv", comparison)
    write_comparison_text(out_dir / "comparison.txt", comparison)
    write_violations_csv(out_dir / "violations.csv", comparison)
    write_inventory_csv(out_dir / "inventory.csv", comparison)
    return {
        "config": config,
        "run": run,
        "data": data,
        "models": models,
        "comparison": comparison,
        "timings": timings,
        "out": out_dir,
    }


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    return run_full_pipeline(tmp_path_factory.mktemp("acceptance") / "run-a")


def test_criterion_1_loss_correctness():
    t0 = time.time()
    rng = stream(SEED, 5, 1)
    specs = [LossSpec("mse")] + [LossSpec("huber", d) for d in (0.5, 1.0, 5.0)]
    for spec in specs:
        y = np.zeros(1000)
        e = rng.uniform(-8, 8, size=1000)
        if spec.kind == "huber":
            band = np.abs(np.abs(e) - spec.delta) < 1e-3
            e[band] = spec.delta * 2.5  # move points out of the kink band
        eps = 1e-6
        g, _ = loss_grad_hess(spec, y, e)
        fd = (loss_value(spec, y, e + eps) - loss_value(spec, y, e - eps)) / (2 * eps)
        assert np.max(np.abs(g - fd)) < 1e-6
    for delta in (0.5, 1.0, 5.0):
        spec = LossSpec("huber", delta)
        quad = 0.5 * delta**2
        lin = delta * delta - 0.5 * delta**2
        assert abs(quad - lin) < 1e-12
        assert abs(loss_value(spec, 0.0, delta) - quad) < 1e-12
    e = rng.uniform(-30, 30, size=10_000)
    for delta in (0.5, 1.0, 5.0):
        hub = loss_value(LossSpec("huber", delta), np.zeros_like(e), e)
        assert np.all(hub <= 0.5 * e**2 + 1e-12)
    report(1, time.time() - t0, 1.0)


def test_criterion_2_ridge_oracle_equivalence():
    t0 = time.time()
    rng = stream(SEED, 5, 2)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(60, 201))
        X = rng.normal(size=(n, 44))
        y = rng.normal(size=(n, 1))
        lam = float(rng.uniform(0.1, 10.0))
        closed = solve_ridge(X, y, lam)
        gd = gradient_descent_ridge(X, y, lam)
        worst = max(worst, float(np.max(np.abs(closed - gd))))
    assert worst < 1e-6
    X = rng.normal(size=(100, 44))
    y = rng.normal(size=(100, 1))
    heavy = solve_ridge(X, y, 1e9)
    assert np.max(np.abs(heavy[:, 1:])) < 1e-6
    report(2, time.time() - t0, 10.0, f"max coefficient gap {worst:.2e}")


def test_criterion_3_lp_against_vertex_enumeration():
    t0 = time.time()
    rng = stream(SEED, 5, 3)
    worst = 0.0
    for _ in range(200):
        lp, _ = make_random_lp(rng)
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        ref = enumerate_lp_optimum(lp.c, lp.A, lp.b, upper=lp.upper)
        assert ref is not None
        gap = abs(sol.objective - ref[0])
        worst = max(worst, gap)
        assert gap < 1e-7
    report(3, time.time() - t0, 30.0, f"max objective gap {worst:.2e}")


def test_criterion_4_two_stage_oracle_equivalence():
    t0 = time.time()
    # the hand-checkable micro-instance first
    sol = solve_stage_one(InventoryState.zeros(1, 2), NEWSVENDOR_SCENARIOS, NEWSVENDOR_COSTS)
    brute_dec, brute_obj = brute_force_oracle(
        InventoryState.zeros(1, 2), NEWSVENDOR_COSTS, NEWSVENDOR_SCENARIOS, cap=5
    )
    assert sol.decision.orders[0] == 2 and brute_dec.orders[0] == 2
    assert abs(sol.objective - 2.1) < 1e-9 and abs(brute_obj - 2.1) < 1e-9

    rng = stream(SEED, 5, 4)
    integral_count = 0
    for _ in range(99):
        state, costs, scenarios = random_tiny_instance(rng)
        sol = solve_stage_one(state, scenarios, costs)
        bd, best = brute_force_oracle(state, costs, scenarios, cap=4)
        assert sol.objective >= best - 1e-9
        assert sol.objective - best <= sol.rounding_gap + 1e-7
        if sol.lp_integral:
            integral_count += 1
            assert np.array_equal(sol.decision.flatten(), bd.flatten())
    assert integral_count >= 50
    report(4, time.time() - t0, 120.0, f"{integral_count}/99 instances had integral optima")


def test_criterion_5_conservation_and_accounting(artifacts):
    t0 = time.time()
    run = artifacts["run"]
    assert run.days == HORIZON_DAYS
    for day in range(run.days):
        before = run.states[day]
        after = run.states[day + 1]
        decision = run.decisions[day]
        br = run.breakdowns[day]
        c = artifacts["config"].costs
        issued = int(run.demands[day].sum() - round(br.shortage / c.shortage))
        outdated = int(round(br.outdate / c.outdate))
        assert (
            before.total() + int(decision.orders.sum())
            == issued + outdated + after.total()
        )
        parts = br.holding + br.transshipment + br.outdate + br.ordering + br.shortage
        assert abs(br.total - parts) <= 1e-9
        assert np.all(after.units >= 0)
    assert run.slots_checked == HORIZON_DAYS * 44
    assert 18_500 * 44 == 814_000
    elapsed = artifacts["timings"]["generate"]
    report(5, elapsed, 300.0, f"checked {run.days} days (fixture generation time)")
    assert time.time() - t0 < 60


def test_criterion_6_policy_equivalence(artifacts):
    t0 = time.time()
    config = artifacts["config"]
    replay = replay_rollout(config, artifacts["data"])
    run = artifacts["run"]
    assert replay.days == run.days
    for mine, oracle in zip(replay.breakdowns, run.breakdowns):
        assert mine.as_tuple() == oracle.as_tuple()
        assert mine.total == oracle.total
    assert replay.violations == []
    report(6, time.time() - t0, 60.0)


def test_criterion_7_end_to_end_pipeline(artifacts):
    comparison = artifacts["comparison"]
    rows = comparison.rows()
    assert len(rows) == 6
    assert [r["policy"] for r in rows] == ["ridge", "svr", "gbdt-mse", "gbdt-mae", "gbdt-huber", "oracle"]
    oracle_row = rows[-1]
    assert oracle_row["violations"] == 0
    assert comparison.days == ROLLOUT_DAYS
    for rep in comparison.reports:
        assert rep.days == ROLLOUT_DAYS
        assert np.all(rep.inventory_summary[..., 0] >= 0)  # no negative stock anywhere
    elapsed = sum(artifacts["timings"].values())
    detail = ", ".join(f"{k} {v:.0f}s" for k, v in artifacts["timings"].items())
    report(7, elapsed, 1200.0, detail)


def test_criterion_8_loss_effect_on_outliers():
    t0 = time.time()
    wins = 0
    for seed in range(5):
        rng = stream(SEED, 5, 8, seed)
        n_train, n_test = 400, 200
        X = rng.uniform(0, 1, size=(n_train + n_test, 2))
        clean = 2.0 + 3.0 * (X[:, 0] > 0.5) + 1.5 * (X[:, 1] > 0.3)
        y = clean.copy()
        bad = rng.choice(n_train, size=n_train // 20, replace=False)
        y[bad] += 80.0
        train = Dataset(X[:n_train], y[:n_train, None], np.arange(n_train))
        params = GbdtParams(
            eta=0.1, max_depth=3, min_child_weight=2.0, subsample=1.0,
            n_iterations=150, l1=0.0, l2=1.0,
        )
        test_X, test_clean = X[n_train:], clean[n_train:]
        mae = {}
        for loss in ("mae", "mse"):
            model = fit_gbdt(train, params, LossSpec(loss), seed=seed)
            mae[loss] = float(np.mean(np.abs(model.predict(test_X)[:, 0] - test_clean)))
        if mae["mae"] < mae["mse"]:
            wins += 1
    assert wins >= 3
    report(8, time.time() - t0, 300.0, f"mae-loss model won {wins}/5 seeds")


# the labels of the 500-day generate; a change to them must be declared
DATASET_SHA256 = "e75d8b57a1d5e9c907195ea28df129698714f08afc86edc40b49614c4e5ade2b"
# the gbdt-mae model fitted on them, whose losses head the benchmark; likewise
GBDT_MAE_MODEL_SHA256 = "a9a898461d30471bdab00253fcc4c9e527508dd39a237ee30c0f8743385e77f8"
# the gbdt-mse, gbdt-huber and SVR models fitted on them, which pin the leaf
# values and the SMO path; likewise
GBDT_MSE_MODEL_SHA256 = "6319c0f6dc51da9948361b7507e94b0911ac0d7eaaa809d3030cfc04956d7c10"
GBDT_HUBER_MODEL_SHA256 = "6a980a0b28980177b9e749ba5fbe6e6468452f31bf87357918f2558776814724"
SVR_MODEL_SHA256 = "3d4cf863107f4628f8ceea2b359d439b40fc99eeca4388672dbc8de95f540702"
# the five surrogates' and the oracle's rollout costs, which every predict
# path reaches; likewise
COMPARISON_SHA256 = "bb148d27b5fecb58e94d0b17c53de43505a698adc680fda985e3dad054be02c8"


def test_dataset_labels_pinned(artifacts):
    digest = hashlib.sha256((artifacts["out"] / "dataset.csv").read_bytes()).hexdigest()
    assert digest == DATASET_SHA256


def test_gbdt_mae_model_pinned(artifacts):
    digest = hashlib.sha256((artifacts["out"] / "model-gbdt-mae.surropt").read_bytes()).hexdigest()
    assert digest == GBDT_MAE_MODEL_SHA256


@pytest.mark.parametrize(
    "name, pinned",
    [("gbdt-mse", GBDT_MSE_MODEL_SHA256), ("gbdt-huber", GBDT_HUBER_MODEL_SHA256), ("svr", SVR_MODEL_SHA256)],
)
def test_model_pinned(artifacts, name, pinned):
    digest = hashlib.sha256((artifacts["out"] / f"model-{name}.surropt").read_bytes()).hexdigest()
    assert digest == pinned


def test_comparison_pinned(artifacts):
    digest = hashlib.sha256((artifacts["out"] / "comparison.csv").read_bytes()).hexdigest()
    assert digest == COMPARISON_SHA256


def test_criterion_9_determinism(artifacts, tmp_path_factory):
    t0 = time.time()
    again = run_full_pipeline(tmp_path_factory.mktemp("acceptance-b") / "run-b")
    out_a, out_b = artifacts["out"], again["out"]
    assert (out_a / "dataset.csv").read_bytes() == (out_b / "dataset.csv").read_bytes()
    for name in ("comparison.csv", "comparison.txt", "violations.csv", "inventory.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    test_X = artifacts["data"].X
    for name, model in artifacts["models"].items():
        assert np.array_equal(model.predict(test_X), again["models"][name].predict(test_X)), name
    report(9, time.time() - t0, 1200.0)


def test_criterion_10_svr_against_projected_gradient():
    t0 = time.time()
    rng = stream(SEED, 5, 10)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(20, 61))
        X = rng.normal(size=(n, 3))
        y = np.sin(X[:, 0]) + 0.5 * X[:, 1] + 0.1 * rng.normal(size=n)
        C = float(rng.choice([1.0, 5.0, 10.0]))
        eps = float(rng.choice([0.01, 0.1]))
        gamma = 0.5
        K = rbf_kernel(X, X, gamma)
        beta, _, _, converged = smo_solve(K, y, C, eps, tol=1e-4)
        assert converged
        assert abs(beta.sum()) < 1e-6
        assert np.all(np.abs(beta) <= C + 1e-12)
        ref_obj, _ = projected_gradient_svr_dual(K, y, C, eps)
        mine = dual_objective(K, y, beta, eps)
        gap = mine - ref_obj
        worst = max(worst, gap)
        assert gap < 1e-3
    report(10, time.time() - t0, 120.0, f"max dual objective excess {max(worst, 0):.2e}")
