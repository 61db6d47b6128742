import hashlib
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest

from surropt import pipeline, two_stage
from surropt.errors import InputError
from surropt.lp import _tableau, solve_lp
from surropt.simulate import (
    CostParams,
    DecisionVector,
    InventoryState,
    check_feasibility,
    decision_length,
)
from surropt.pipeline import ExperimentConfig, oracle_generation_run
from surropt.two_stage import SaaConfig, build_saa, evaluate_decision, solve_stage_one

from _oracles import brute_force_oracle, build_age_lp, build_per_scenario_lp, first_stage

NEWSVENDOR_COSTS = CostParams(
    holding=0.1, ordering=1.0, transship_unit=0.0, shortage=10.0, outdate=0.0
)
NEWSVENDOR_SCENARIOS = [np.array([0]), np.array([2])]


def random_tiny_instance(rng, h=2, m=2):
    state = InventoryState(rng.integers(0, 4, size=(h, m)))
    costs = CostParams(
        holding=float(rng.uniform(0.1, 2.0)),
        ordering=float(rng.uniform(1.0, 8.0)),
        transship_unit=float(rng.uniform(0.5, 5.0)),
        shortage=float(rng.uniform(10.0, 50.0)),
        outdate=float(rng.uniform(2.0, 20.0)),
    )
    n_scen = int(rng.integers(1, 4))
    scenarios = [rng.integers(0, 4, size=h) for _ in range(n_scen)]
    return state, costs, scenarios


# outdate rate against holding 1.5: the hinge on the oldest stock, the hinge
# on the younger stock, and no hinge column at all
REGIME_OUTDATE = {"outdate>holding": 4.0, "holding>outdate": 0.5, "equal": 1.5}

# sha256 of the oracle's LP solves over the first 30 acceptance generation
# days (``TestSolveStageOne.test_oracle_pivot_path_pinned``)
PIVOT_PATH_SHA256 = "b082870641f858dfd62110c9558574482483dabf00685a0a51a20e3159dacc5e"

# edge shapes for the scenario-aggregation checks, as (state, scenarios) maps
EDGE_SHAPES = {
    "random": lambda state, scenarios: (state, scenarios),
    "zero-stock": lambda state, scenarios: (InventoryState.zeros(*state.units.shape), scenarios),
    "zero-demand": lambda state, scenarios: (state, np.zeros_like(scenarios)),
    "equal-scenarios": lambda state, scenarios: (state, np.repeat(scenarios[:1], len(scenarios), 0)),
}


def repeated_demand_instance(rng, h, m, regime):
    """A random tiny instance in the given cost regime whose 1-30 scenarios
    are drawn from three demand rows, so most (hospital, demand) pairs
    repeat."""
    state, costs, _ = random_tiny_instance(rng, h, m)
    costs = replace(costs, holding=1.5, outdate=REGIME_OUTDATE[regime])
    pool = rng.integers(0, 6, size=(3, h))
    return state, costs, pool[rng.integers(0, 3, size=int(rng.integers(1, 31)))]


def assert_groups_in_order(state, scenarios, costs):
    """One row group per (hospital, demand) pair, counted and ordered by
    Python ints, and the optimum of the one-group-per-scenario form."""
    h, m = state.n_hospitals, state.max_age
    d, n_cap = decision_length(h, m), (h * m if h > 1 else 0)
    per_pair = 2 if costs.outdate == costs.holding else 3
    groups = sorted(Counter((i, int(s[i])) for s in scenarios for i in range(h)).items())
    on_hand = state.units.sum(axis=1)
    lp = build_saa(state, scenarios, costs)
    assert lp.n_rows == n_cap + per_pair * len(groups)
    unmet = slice(n_cap, None, per_pair)
    # a hospital's order column enters only its own unmet-demand rows
    assert np.argmax(lp.A[unmet, :h], axis=1).tolist() == [i for (i, _), _ in groups]
    assert lp.b[unmet].tolist() == [float(v) - float(on_hand[i]) for (i, v), _ in groups]
    shares = [n / len(scenarios) * costs.shortage for _, n in groups]
    assert lp.c[d::per_pair].tolist() == shares
    a = solve_lp(lp)
    b = solve_lp(build_per_scenario_lp(state, scenarios, costs))
    assert a.status == b.status == "optimal"
    assert a.objective == pytest.approx(b.objective, rel=1e-12)
    assert np.allclose(a.x[:d], b.x[:d], rtol=1e-12, atol=1e-9)


class TestBuildSaa:
    def test_zero_instance_zero_objective(self):
        state = InventoryState.zeros(2, 2)
        lp = build_saa(state, [np.zeros(2, int)], CostParams())
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(sol.x[:6], 0.0, atol=1e-9)

    def test_newsvendor_relaxation(self):
        state = InventoryState.zeros(1, 2)
        for build in (build_saa, build_age_lp):
            sol = solve_lp(build(state, NEWSVENDOR_SCENARIOS, NEWSVENDOR_COSTS))
            assert sol.objective == pytest.approx(2.1, abs=1e-9)
            assert sol.x[0] == pytest.approx(2.0, abs=1e-7)

    def test_relaxation_lower_bounds_rounded_cost(self):
        rng = np.random.default_rng(21)
        for _ in range(15):
            state, costs, scenarios = random_tiny_instance(rng)
            sol = solve_stage_one(state, scenarios, costs)
            assert sol.lp_objective <= sol.objective + 1e-7

    @pytest.mark.parametrize("h, m", [(1, 1), (1, 3), (2, 1), (3, 2), (4, 3)])
    @pytest.mark.parametrize("regime", ["outdate>holding", "holding>outdate", "equal"])
    def test_compact_and_age_forms_agree(self, h, m, regime):
        # one hospital has no lanes and no cap rows; one age class receives
        # orders in its oldest slot; equal rates drop the hinge column
        rng = np.random.default_rng(22)
        for _ in range(6):
            state, costs, scenarios = random_tiny_instance(rng, h, m)
            costs = replace(costs, holding=1.5, outdate=REGIME_OUTDATE[regime])
            lp = build_saa(state, scenarios, costs)
            _, c_fs, caps, rhs = first_stage(state, costs)
            n_cap = caps.shape[0] if h > 1 else 0
            # one row group per distinct (hospital, demand) pair
            n_pairs = len({(i, int(s[i])) for s in scenarios for i in range(h)})
            n_rec = (2 if regime == "equal" else 3) * n_pairs
            assert lp.A.shape == (n_cap + n_rec, c_fs.size + n_rec)
            assert np.array_equal(lp.c[: c_fs.size], c_fs)
            assert np.array_equal(lp.A[:n_cap, : c_fs.size], caps[:n_cap])
            assert not lp.A[:n_cap, c_fs.size :].any() and np.array_equal(lp.b[:n_cap], rhs[:n_cap])
            a = solve_lp(lp)
            b = solve_lp(build_age_lp(state, scenarios, costs))
            assert a.status == b.status == "optimal"
            assert a.objective == pytest.approx(b.objective, abs=1e-7)

    @pytest.mark.parametrize("regime", list(REGIME_OUTDATE))
    def test_merged_groups_match_per_scenario_form(self, regime):
        rng = np.random.default_rng(24)
        for h, m in [(1, 1), (1, 3), (3, 1), (2, 2), (4, 3)]:
            d = decision_length(h, m)
            for edge, shape in list(EDGE_SHAPES.items()) * 5:
                state, costs, scenarios = repeated_demand_instance(rng, h, m, regime)
                state, scenarios = shape(state, scenarios)
                lp = build_saa(state, scenarios, costs)
                if edge == "equal-scenarios":
                    per_pair = 2 if regime == "equal" else 3
                    assert lp.n_rows == (h * m if h > 1 else 0) + per_pair * h
                a = solve_lp(lp)
                b = solve_lp(build_per_scenario_lp(state, scenarios, costs))
                assert a.status == b.status == "optimal"
                assert a.objective == pytest.approx(b.objective, rel=1e-9, abs=1e-12)
                assert np.allclose(a.x[:d], b.x[:d], rtol=0.0, atol=1e-9), (h, m, edge)

    @pytest.mark.parametrize("regime", list(REGIME_OUTDATE))
    def test_crash_basis_covers_every_row(self, regime):
        # every scenario LP starts from a basis of slack and recourse
        # columns, so phase 1 never runs on the oracle path
        rng = np.random.default_rng(26)
        shapes = dict(EDGE_SHAPES)
        shapes["stock-above-demand"] = lambda state, scenarios: (InventoryState(state.units + 6), scenarios)
        for h, m in [(1, 1), (1, 3), (3, 1), (2, 2), (4, 3)]:
            for edge, shape in list(shapes.items()) * 5:
                state, costs, scenarios = repeated_demand_instance(rng, h, m, regime)
                state, scenarios = shape(state, scenarios)
                T, basis, c = _tableau(build_saa(state, scenarios, costs))
                assert T.shape[1] - 1 == c.size and np.all(basis < c.size), (h, m, edge)

    @pytest.mark.parametrize("regime", ["outdate>holding", "holding>outdate"])
    def test_lp_first_stage_is_integral(self, regime):
        # 150 random instances per cost regime: H 1-4, M 1-5, 1-7 scenarios,
        # stock 0-5, demand 0-11, 30 of each shape
        rng = np.random.default_rng(27)
        for edge in ["random", "one-hospital", "one-age", "zero-stock", "zero-demand"] * 30:
            h = 1 if edge == "one-hospital" else int(rng.integers(1, 5))
            m = 1 if edge == "one-age" else int(rng.integers(1, 6))
            units = rng.integers(0, 6, size=(h, m)) * (edge != "zero-stock")
            scenarios = rng.integers(0, 12, size=(int(rng.integers(1, 8)), h)) * (edge != "zero-demand")
            holding = float(rng.uniform(0.1, 2.0))
            ratio = rng.uniform(1.2, 10.0) if regime == "outdate>holding" else rng.uniform(0.05, 0.8)
            costs = CostParams(
                holding=holding,
                ordering=float(rng.uniform(1.0, 8.0)),
                transship_unit=float(rng.uniform(0.5, 5.0)),
                shortage=float(rng.uniform(10.0, 50.0)),
                outdate=float(holding * ratio),
            )
            sol = solve_lp(build_saa(InventoryState(units), scenarios, costs))
            assert sol.status == "optimal"
            first = sol.x[: decision_length(h, m)]
            assert np.max(np.abs(first - np.rint(first)), initial=0.0) <= 1e-9, (edge, units, scenarios, costs)

    def test_scenario_order_does_not_change_the_lp(self):
        rng = np.random.default_rng(25)
        for regime in REGIME_OUTDATE:
            for h, m in [(1, 2), (3, 2), (4, 3)]:
                state, costs, scenarios = repeated_demand_instance(rng, h, m, regime)
                a = build_saa(state, scenarios, costs)
                b = build_saa(state, list(scenarios[rng.permutation(len(scenarios))]), costs)
                assert a.A.tobytes() == b.A.tobytes()
                assert a.b.tobytes() == b.b.tobytes()
                assert a.c.tobytes() == b.c.tobytes()
                assert a.senses == b.senses

    def test_forms_agree_when_holding_exceeds_outdate(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            state, costs, scenarios = random_tiny_instance(rng)
            costs = CostParams(
                holding=5.0,
                ordering=costs.ordering,
                transship_unit=costs.transship_unit,
                shortage=costs.shortage,
                outdate=1.0,
            )
            a = solve_lp(build_saa(state, scenarios, costs))
            b = solve_lp(build_age_lp(state, scenarios, costs))
            assert a.objective == pytest.approx(b.objective, abs=1e-7)

    def test_empty_scenarios_rejected(self):
        state = InventoryState.zeros(2, 2)
        for scenarios in ([], np.zeros((0, 2))):
            with pytest.raises(InputError):
                build_saa(state, scenarios, CostParams())
            with pytest.raises(InputError):
                evaluate_decision(state, DecisionVector.zeros(2, 2), scenarios, CostParams())

    @pytest.mark.parametrize(
        "scenarios",
        [[[-3, 1]], [[2.7, 1.0]], [[np.nan, 1.0]], [[np.inf, 1.0]], [[2**70, 1]]],
        ids=["negative", "fractional", "nan", "inf", "overflow"],
    )
    def test_demand_must_be_whole_and_nonnegative(self, scenarios):
        state = InventoryState.zeros(2, 2)
        with pytest.raises(InputError, match="whole numbers"):
            build_saa(state, scenarios, CostParams())
        with pytest.raises(InputError, match="whole numbers"):
            solve_stage_one(state, scenarios, CostParams())
        with pytest.raises(InputError, match="whole numbers"):
            evaluate_decision(state, DecisionVector.zeros(2, 2), scenarios, CostParams())

    def test_whole_float_demand_builds_the_integer_lp(self):
        state = InventoryState.zeros(2, 2)
        a = build_saa(state, [[2.0, 1.0]], CostParams())
        b = build_saa(state, [[2, 1]], CostParams())
        assert a.b.tobytes() == b.b.tobytes() and a.A.tobytes() == b.A.tobytes()

    def test_stock_past_int64_range_rejected_before_the_lp(self):
        """The LP sums each hospital's stock in int64: three slots of 2**62
        used to enter it as a stock of -4.61e18, and its optimum ordered
        4.61e18 units."""
        state = InventoryState(np.array([[2**62, 2**62, 2**62]]))
        with pytest.raises(InputError, match="int64"):
            build_saa(state, [[0], [3]], CostParams())

    @pytest.mark.parametrize("regime", list(REGIME_OUTDATE))
    def test_demand_near_int64_limit(self, regime):
        # a key like hospital * (max + 1) + value would overflow int64 here
        big = 2**62
        state = InventoryState(np.array([[1, 0], [0, 2], [3, 1]]))
        costs = replace(CostParams(), holding=1.5, outdate=REGIME_OUTDATE[regime])
        scenarios = np.array(
            [[big, 5, big + 1], [big + 1, 5, big], [3, big - 1, big], [big, 0, 2]]
        )
        assert_groups_in_order(state, scenarios, costs)
        assert_groups_in_order(state, scenarios[:, ::-1], costs)

    @pytest.mark.parametrize("regime", list(REGIME_OUTDATE))
    def test_one_hospital(self, regime):
        rng = np.random.default_rng(27)
        for m in (1, 3):
            for _ in range(5):
                state = InventoryState(rng.integers(0, 4, size=(1, m)))
                costs = replace(CostParams(), holding=1.5, outdate=REGIME_OUTDATE[regime])
                scenarios = rng.integers(0, 6, size=(int(rng.integers(1, 31)), 1))
                assert_groups_in_order(state, scenarios, costs)


class TestSolveStageOne:
    def test_zero_demand_zero_decision(self):
        state = InventoryState.zeros(2, 2)
        sol = solve_stage_one(state, [np.zeros(2, int)], CostParams())
        assert sol.decision.flatten().sum() == 0
        assert sol.objective == pytest.approx(0.0, abs=1e-12)

    def test_newsvendor_order(self):
        state = InventoryState.zeros(1, 2)
        sol = solve_stage_one(state, NEWSVENDOR_SCENARIOS, NEWSVENDOR_COSTS)
        assert sol.decision.orders[0] == 2
        assert sol.objective == pytest.approx(2.1, abs=1e-9)
        assert sol.lp_integral

    def test_transshipment_incentive(self):
        state = InventoryState(np.array([[2, 0], [0, 0]]))
        costs = CostParams(
            holding=0.1, ordering=50.0, transship_unit=1.0, shortage=100.0, outdate=0.2
        )
        sol = solve_stage_one(state, [np.array([0, 1])], costs)
        assert sol.decision.transship[0, 1].sum() > 0

    def test_solution_always_feasible(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            state, costs, scenarios = random_tiny_instance(rng)
            sol = solve_stage_one(state, scenarios, costs)
            assert check_feasibility(state, sol.decision) == []

    def test_equal_cost_tie_ships_the_older_unit(self):
        # hospital 0 holds one unit of each age and both hospitals need one:
        # either unit can go to hospital 1 at the same cost
        state = InventoryState(np.array([[1, 1], [0, 0]]))
        costs = CostParams(
            holding=1.0, ordering=5.0, transship_unit=1.0, shortage=20.0, outdate=10.0
        )
        scenarios = [np.array([1, 1])]
        young = DecisionVector.from_flat(np.array([0, 0, 1, 0, 0, 0]), 2, 2)
        old = DecisionVector.from_flat(np.array([0, 0, 0, 1, 0, 0]), 2, 2)
        cost_young = evaluate_decision(state, young, scenarios, costs).total
        assert evaluate_decision(state, old, scenarios, costs).total == cost_young
        sol = solve_stage_one(state, scenarios, costs)
        assert sol.lp_integral
        assert sol.objective == cost_young
        assert np.array_equal(sol.decision.flatten(), old.flatten())
        brute, _ = brute_force_oracle(state, costs, scenarios, cap=2)
        assert np.array_equal(brute.flatten(), old.flatten())


    def test_oracle_pivot_path_pinned(self, monkeypatch):
        # every LP solve of the first 30 acceptance generation days: x, the
        # objective and the pivot count, bit for bit
        digest = hashlib.sha256()
        real = two_stage.solve_lp

        def probe(lp, *args, **kwargs):
            sol = real(lp, *args, **kwargs)
            digest.update(sol.x.tobytes())
            digest.update(np.float64(sol.objective).tobytes())
            digest.update(np.int64(sol.iterations).tobytes())
            return sol

        monkeypatch.setattr(two_stage, "solve_lp", probe)
        config = ExperimentConfig(seed=20240803, saa=SaaConfig(scenario_count=50, seed=20240803))
        assert len(oracle_generation_run(config, 30).decisions) == 30
        assert digest.hexdigest() == PIVOT_PATH_SHA256


class TestBruteForce:
    def test_zero_demand(self):
        state = InventoryState.zeros(2, 2)
        decision, objective = brute_force_oracle(
            state, CostParams(), [np.zeros(2, int)], cap=2
        )
        assert decision.flatten().sum() == 0
        assert objective == 0.0

    def test_newsvendor(self):
        decision, objective = brute_force_oracle(
            InventoryState.zeros(1, 2), NEWSVENDOR_COSTS, NEWSVENDOR_SCENARIOS, cap=5
        )
        assert decision.orders[0] == 2
        assert objective == pytest.approx(2.1, abs=1e-12)

    def test_symmetric_instance_symmetric_cost(self):
        state = InventoryState(np.array([[1, 1], [1, 1]]))
        costs = CostParams(holding=0.5, ordering=2.0, transship_unit=1.0, shortage=9.0, outdate=4.0)
        scen = [np.array([1, 1]), np.array([2, 2])]
        decision, objective = brute_force_oracle(state, costs, scen, cap=2)
        mirrored = DecisionVector(
            decision.orders[::-1].copy(), decision.transship[::-1, ::-1, :].copy()
        )
        assert evaluate_decision(state, mirrored, scen, costs).total == pytest.approx(
            objective, abs=1e-12
        )

    def test_caps_enforced(self):
        with pytest.raises(InputError):
            brute_force_oracle(InventoryState.zeros(3, 2), CostParams(), [np.zeros(3, int)], cap=2)
        with pytest.raises(InputError):
            brute_force_oracle(InventoryState.zeros(2, 3), CostParams(), [np.zeros(2, int)], cap=2)
        with pytest.raises(InputError):
            brute_force_oracle(InventoryState.zeros(2, 2), CostParams(), [np.zeros(2, int)], cap=6)

    def test_oracle_agrees_with_stage_one_on_tiny_instances(self):
        rng = np.random.default_rng(41)
        exact_matches = 0
        for _ in range(15):
            state, costs, scenarios = random_tiny_instance(rng)
            sol = solve_stage_one(state, scenarios, costs)
            _, best = brute_force_oracle(state, costs, scenarios, cap=4)
            gap = sol.rounding_gap
            assert sol.objective >= best - 1e-9
            assert sol.objective - best <= gap + 1e-7
            if sol.lp_integral:
                exact_matches += 1
                assert sol.objective == pytest.approx(best, abs=1e-7)
        assert exact_matches > 0


@pytest.fixture(scope="module")
def acceptance_days():
    """(state, costs, scenarios) of the first 30 acceptance generation days,
    with the scenarios the oracle drew for each."""
    config = ExperimentConfig(seed=20240803, saa=SaaConfig(scenario_count=50, seed=20240803))
    days, real = [], pipeline.solve_stage_one

    def probe(state, scenarios, costs):
        days.append((state, costs, scenarios))
        return real(state, scenarios, costs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "solve_stage_one", probe)
        oracle_generation_run(config, 30)
    assert len(days) == 30
    return days


def metamorphic_instances(acceptance_days):
    """100 random tiny instances per (H, M) shape, then the acceptance days."""
    rng = np.random.default_rng(27)
    for h, m in [(1, 1), (1, 2), (2, 2), (3, 2), (2, 3)]:
        for _ in range(100):
            yield random_tiny_instance(rng, h, m)
    yield from acceptance_days


class TestMetamorphic:
    """Relations the oracle must keep whatever bytes it stores (Chen et al.,
    "Metamorphic testing: a review of challenges and opportunities", ACM
    Computing Surveys 51(1), 2018), so they still check it after a change
    that moves every label."""

    def test_scaled_costs_keep_the_decision(self, acceptance_days):
        # a power of two scales every rate, product and sum exactly
        for state, costs, scenarios in metamorphic_instances(acceptance_days):
            base = solve_stage_one(state, scenarios, costs)
            for factor in (2.0, 4.0):
                scaled = CostParams(**{k: factor * v for k, v in asdict(costs).items()})
                sol = solve_stage_one(state, scenarios, scaled)
                case = (state.units.tolist(), costs, np.asarray(scenarios).tolist(), factor)
                assert np.array_equal(sol.decision.flatten(), base.decision.flatten()), case
                assert sol.objective == factor * base.objective, case
                assert sol.lp_objective == factor * base.lp_objective, case

    def test_repeated_scenarios_keep_the_lp(self, acceptance_days):
        for state, costs, scenarios in metamorphic_instances(acceptance_days):
            base = build_saa(state, scenarios, costs)
            for reps in (2, 3):
                lp = build_saa(state, np.tile(scenarios, (reps, 1)), costs)
                case = (state.units.tolist(), costs, np.asarray(scenarios).tolist(), reps)
                assert lp.c.tobytes() == base.c.tobytes(), case
                assert lp.A.tobytes() == base.A.tobytes(), case
                assert lp.b.tobytes() == base.b.tobytes(), case
                assert lp.senses == base.senses, case


class TestEvaluateDecision:
    def test_breakdown_matches_newsvendor_arithmetic(self):
        state = InventoryState.zeros(1, 2)
        decision = DecisionVector(np.array([2]), np.zeros((1, 1, 2), dtype=np.int64))
        br = evaluate_decision(state, decision, NEWSVENDOR_SCENARIOS, NEWSVENDOR_COSTS)
        assert br.ordering == pytest.approx(2.0)
        assert br.holding == pytest.approx(0.1)
        assert br.shortage == pytest.approx(0.0)
        assert br.total == pytest.approx(2.1)

    def test_infeasible_decision_rejected(self):
        state = InventoryState.zeros(2, 2)
        ship = np.zeros((2, 2, 2), dtype=np.int64)
        ship[0, 1, 0] = 1
        with pytest.raises(InputError):
            evaluate_decision(
                state, DecisionVector(np.zeros(2, int), ship), [np.zeros(2, int)], CostParams()
            )
