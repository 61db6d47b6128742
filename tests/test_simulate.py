import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surropt.errors import InputError, InternalError
from surropt.simulate import (
    CostBreakdown,
    CostParams,
    DecisionVector,
    InventoryState,
    as_demand,
    check_feasibility,
    decision_length,
    receipts_state,
    repair,
    run_horizon,
    step,
    trajectory_columns,
    write_trajectory_csv,
)
from surropt.two_stage import evaluate_decision

from _oracles import audit_total_cost, reference_evaluate_decision, reference_step

# Non-integer rates: sums of their products round differently in another order.
RATES = (0.0, 1e-3, 0.1, 0.7, 1.3, 2.9, 35.35, 40.1)


def _state(grid):
    return InventoryState(np.asarray(grid))


def _ship_one_slot(h, m, sender, age, quantities):
    ship = np.zeros((h, h, m), dtype=np.int64)
    for dest, qty in quantities.items():
        ship[sender, dest, age] = qty
    return DecisionVector(np.zeros(h, dtype=np.int64), ship)


def _lane(value, dtype=np.int64, shape=(2, 2, 3), at=(0, 1, 0)):
    """A transship array holding ``value`` at ``at`` and zeros elsewhere."""
    ship = np.zeros(shape, dtype=dtype)
    ship[at] = value
    return ship


class TestShapes:
    def test_flatten_lengths(self):
        assert decision_length(4, 11) == 136
        assert InventoryState.zeros(4, 11).flatten().shape == (44,)
        assert DecisionVector.zeros(4, 11).flatten().shape == (136,)

    def test_decision_roundtrip(self):
        """Every network size in one process, in and out of order: the lane
        index kept per hospital count never serves another count."""
        rng = np.random.default_rng(0)
        sizes = [(h, m) for m in (1, 2, 3) for h in (1, 2, 3, 4, 5)] + [(4, 11)]
        for h, m in sizes + sizes[::-1]:
            flat = rng.integers(0, 5, size=decision_length(h, m))
            d = DecisionVector.from_flat(flat, h, m)
            ship = np.zeros((h, h, m), dtype=np.int64)
            ship[~np.eye(h, dtype=bool)] = flat[h:].reshape(-1, m)
            assert np.array_equal(d.orders, flat[:h]) and np.array_equal(d.transship, ship)
            assert np.array_equal(d.flatten(), flat)
            again = DecisionVector.from_flat(d.flatten(), h, m)
            assert np.array_equal(again.orders, d.orders) and np.array_equal(again.transship, d.transship)

    def test_lane_sums_kept_read_only(self):
        rng = np.random.default_rng(6)
        ship = rng.integers(0, 4, size=(3, 3, 2))
        ship[np.arange(3), np.arange(3)] = 0
        d = DecisionVector(rng.integers(0, 4, size=3), ship)
        assert np.array_equal(d.outbound(), ship.sum(axis=1))
        assert np.array_equal(d.inbound(), ship.sum(axis=0))
        for lanes in (d.outbound(), d.inbound()):
            with pytest.raises(ValueError):
                lanes[0, 0] = 1
        # the decision holds its own copy of the lanes it summed
        ship[0, 1, 0] += 5
        assert np.array_equal(d.outbound(), d.transship.sum(axis=1))
        assert np.array_equal(d.inbound(), d.transship.sum(axis=0))

    def test_self_shipment_rejected(self):
        ship = np.zeros((2, 2, 3), dtype=np.int64)
        ship[1, 1, 0] = 1
        with pytest.raises(InputError):
            DecisionVector(np.zeros(2, dtype=np.int64), ship)

    @pytest.mark.parametrize(
        "orders, ship",
        [
            (np.array([1.5, 0.0]), _lane(0)),
            ([0, 0], _lane(0.5, float)),
            ([-1, 0], _lane(0)),
            ([0, 0], _lane(-1)),
            ([0, 0], _lane(0, shape=(2, 3, 3))),
            (np.array(2), _lane(0)),
            (np.array([1, 2], dtype=object), _lane(0)),
            (np.array(["1", "2"]), _lane(0)),
            (np.array([np.inf, 0.0]), _lane(0)),
            (np.array([np.nan, 0.0]), _lane(0)),
            (np.array([1 + 0j, 0]), _lane(0)),
            ([0, 0], _lane(np.inf, float)),
            ([0, 0], _lane(1 + 0j, complex)),
        ],
        ids=["fractional-order", "fractional-shipment", "negative-order", "negative-shipment",
             "misshaped-transship", "scalar-orders", "object-orders", "string-orders",
             "infinite-order", "nan-order", "complex-order", "infinite-shipment",
             "complex-shipment"],
    )
    @pytest.mark.filterwarnings("error")
    def test_bad_decision_rejected(self, orders, ship):
        """With test_self_shipment_rejected, every check of the constructor;
        none may warn on the way, as a cast of infinity or of a complex does."""
        with pytest.raises(InputError):
            DecisionVector(np.asarray(orders), ship)

    def test_negative_inventory_rejected(self):
        with pytest.raises(InputError):
            _state([[1, -1], [0, 0]])

    @pytest.mark.parametrize(
        "units",
        [np.array([[1.5, 0.0]]), np.array([[-1, 0]]), np.array([[np.nan, 1.0]]),
         np.array([[np.inf, 1.0]]), np.array([[-np.inf, 1.0]]), np.array([[1, 2]], dtype=object),
         np.array([["a"]]), np.array([[1 + 0j, 0]]), np.zeros(3, dtype=np.int64)],
        ids=["fractional", "negative", "nan", "inf", "minus-inf", "object", "string", "complex", "1-d"],
    )
    @pytest.mark.filterwarnings("error")
    def test_bad_inventory_rejected(self, units):
        """The state takes counts through the decision's check: no warning,
        no stray TypeError."""
        with pytest.raises(InputError):
            InventoryState(units)


# One hospital's counts next to a zero; only the last two pass the count rule.
COUNT_CASES = {
    "ragged": ([[1, 2], 0], False),
    "string": (["3", 0], False),
    "none": ([None, 0], False),
    "nan": ([np.nan, 0], False),
    "fractional": ([1.5, 0], False),
    "negative": ([-1, 0], False),
    "float-2**63": ([2.0**63, 0], False),
    "uint64-2**63": (np.array([2**63, 0], dtype=np.uint64), False),
    "bool": (np.array([True, False]), True),
    "seven": ([7, 0], True),
}


@pytest.mark.parametrize("counts, valid", list(COUNT_CASES.values()), ids=list(COUNT_CASES))
@pytest.mark.filterwarnings("error")
def test_state_decision_and_demand_share_one_count_rule(counts, valid):
    """The state, the orders and the demand accept the same counts, and
    reject the rest with InputError, never a stray numpy error."""
    readers = {
        "state": lambda: InventoryState([counts]),
        "orders": lambda: DecisionVector(counts, np.zeros((2, 2, 1), dtype=np.int64)),
        "demand": lambda: as_demand(counts, 2),
    }
    accepted = {}
    for name, read in readers.items():
        try:
            read()
            accepted[name] = True
        except InputError:
            accepted[name] = False
    assert accepted == dict.fromkeys(readers, valid)


@pytest.mark.parametrize("flat", [[[1, 2], 3], [1.5], ["1"], [-1], [1, 0], [[3]]],
                         ids=["ragged", "fractional", "string", "negative", "long", "2-d"])
@pytest.mark.filterwarnings("error")
def test_flat_decision_read_by_the_count_rule(flat):
    """A flat decision that is not one row of counts of the right length is
    an InputError, not numpy's ValueError."""
    assert DecisionVector.from_flat([3], 1, 1).orders.tolist() == [3]
    with pytest.raises(InputError):
        DecisionVector.from_flat(flat, 1, 1)


class TestFeasibility:
    def test_zero_decision_empty(self):
        state = _state(np.arange(8).reshape(2, 4))
        assert check_feasibility(state, DecisionVector.zeros(2, 4)) == []

    def test_single_violation_record(self):
        # hospital 1 (index 0) holds 2 units of age 3; ship 3 of that age out
        grid = np.zeros((4, 11), dtype=np.int64)
        grid[0, 2] = 2
        state = _state(grid)
        decision = _ship_one_slot(4, 11, 0, 2, {1: 3})
        records = check_feasibility(state, decision, day=5)
        assert len(records) == 1
        r = records[0]
        assert (r.day, r.hospital, r.age, r.requested, r.available) == (5, 1, 3, 3, 2)

    def test_boundary_is_feasible(self):
        grid = np.arange(1, 9).reshape(2, 4)
        state = _state(grid)
        ship = np.zeros((2, 2, 4), dtype=np.int64)
        ship[0, 1, :] = grid[0]
        ship[1, 0, :] = grid[1]
        decision = DecisionVector(np.zeros(2, dtype=np.int64), ship)
        assert check_feasibility(state, decision) == []


class TestRepair:
    def test_identity_on_feasible(self):
        grid = np.full((2, 2), 5)
        state = _state(grid)
        decision = _ship_one_slot(2, 2, 0, 0, {1: 3})
        assert repair(state, decision) is decision

    def test_largest_remainder_trace(self):
        # 2 available, raw lanes (3 -> dest 1, 1 -> dest 2): quotas (1.5, 0.5)
        # floor to (1, 0), one leftover unit goes to the tied lane with the
        # smaller destination index -> (2, 0)
        grid = np.zeros((3, 1), dtype=np.int64)
        grid[0, 0] = 2
        state = _state(grid)
        decision = _ship_one_slot(3, 1, 0, 0, {1: 3, 2: 1})
        fixed = repair(state, decision)
        assert fixed.transship[0, 1, 0] == 2
        assert fixed.transship[0, 2, 0] == 0
        assert check_feasibility(state, fixed) == []

    def test_zero_stock_zeroes_lanes(self):
        state = InventoryState.zeros(2, 2)
        decision = _ship_one_slot(2, 2, 0, 1, {1: 4})
        fixed = repair(state, decision)
        assert fixed.transship.sum() == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_repair_always_feasible_and_capped(self, seed):
        rng = np.random.default_rng(seed)
        h, m = 4, 3
        state = _state(rng.integers(0, 4, size=(h, m)))
        ship = rng.integers(0, 5, size=(h, h, m))
        ship[np.eye(h, dtype=bool)] = 0
        decision = DecisionVector(rng.integers(0, 3, size=h), ship)
        fixed = repair(state, decision)
        assert check_feasibility(state, fixed) == []
        assert np.all(fixed.transship <= decision.transship)
        assert np.array_equal(fixed.orders, decision.orders)


class TestStep:
    def test_empty_zero_day(self):
        state = InventoryState.zeros(4, 11)
        nxt, costs = step(state, DecisionVector.zeros(4, 11), np.zeros(4, int), CostParams())
        assert nxt.total() == 0
        assert costs.total == 0.0

    def test_expiry_day_trace(self):
        # 2 units at the maximum age, demand 1: one unit issued, the other
        # expires during aging; nothing remains to hold
        grid = np.zeros((1, 11), dtype=np.int64)
        grid[0, 10] = 2
        costs = CostParams(holding=1, ordering=0, transship_unit=0, shortage=0, outdate=5)
        nxt, br = step(_state(grid), DecisionVector.zeros(1, 11), np.array([1]), costs)
        assert br.shortage == 0.0
        assert br.outdate == 5.0
        assert br.holding == 0.0
        assert br.total == 5.0
        assert nxt.total() == 0

    def test_transship_day_trace(self):
        # one age-3 unit moves 1 -> 2 before demand, arrives end of day,
        # ages to class 4, and is held once at the receiver
        grid = np.zeros((2, 11), dtype=np.int64)
        grid[0, 2] = 1
        costs = CostParams(holding=1, ordering=0, transship_unit=2, shortage=0, outdate=0)
        decision = _ship_one_slot(2, 11, 0, 2, {1: 1})
        nxt, br = step(_state(grid), decision, np.zeros(2, int), costs)
        assert br.transshipment == 2.0
        assert br.holding == 1.0
        assert br.total == 3.0
        assert nxt.units[1, 3] == 1
        assert nxt.units[0].sum() == 0

    def test_orders_arrive_fresh_then_age(self):
        state = InventoryState.zeros(2, 3)
        decision = DecisionVector(np.array([4, 0]), np.zeros((2, 2, 3), dtype=np.int64))
        costs = CostParams(holding=1, ordering=10, transship_unit=0, shortage=0, outdate=0)
        nxt, br = step(state, decision, np.zeros(2, int), costs)
        assert nxt.units[0, 1] == 4  # received at age 1, aged to 2
        assert br.ordering == 40.0
        assert br.holding == 4.0

    def test_pure_aging(self):
        grid = np.array([[3, 2, 1], [0, 5, 0]])
        costs = CostParams(holding=0, ordering=0, transship_unit=0, shortage=0, outdate=1)
        nxt, br = step(_state(grid), DecisionVector.zeros(2, 3), np.zeros(2, int), costs)
        assert np.array_equal(nxt.units, [[0, 3, 2], [0, 0, 5]])
        assert br.outdate == 1.0

    def test_fifo_issues_oldest_first(self):
        grid = np.array([[2, 0, 3]])
        nxt, _ = step(_state(grid), DecisionVector.zeros(1, 3), np.array([3]), CostParams())
        # the three oldest units are gone; the two young units age forward
        assert np.array_equal(nxt.units, [[0, 2, 0]])

    def test_infeasible_decision_raises(self):
        state = InventoryState.zeros(2, 2)
        decision = _ship_one_slot(2, 2, 0, 0, {1: 1})
        with pytest.raises(InternalError):
            step(state, decision, np.zeros(2, int), CostParams())

    def test_total_is_exact_component_sum(self):
        br = CostBreakdown(1.25, 2.5, 3.0, 4.125, 5.0)
        assert br.total == 1.25 + 2.5 + 3.0 + 4.125 + 5.0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_unit_conservation(self, seed):
        rng = np.random.default_rng(seed)
        h, m = 3, 4
        state = _state(rng.integers(0, 6, size=(h, m)))
        ship = rng.integers(0, 4, size=(h, h, m))
        ship[np.eye(h, dtype=bool)] = 0
        decision = repair(state, DecisionVector(rng.integers(0, 5, size=h), ship))
        demand = rng.integers(0, 8, size=h)
        costs = CostParams(holding=1, ordering=1, transship_unit=1, shortage=1, outdate=1)
        nxt, br = step(state, decision, demand, costs)
        # all rates are 1, so cost components count units directly
        issued_units = int(demand.sum() - br.shortage / 1.0)
        outdated_units = int(br.outdate / 1.0)
        assert state.total() + int(decision.orders.sum()) == issued_units + outdated_units + nxt.total()
        assert np.all(nxt.units >= 0)
        assert br.total == br.holding + br.transshipment + br.outdate + br.ordering + br.shortage


class TestStepInputs:
    @pytest.mark.parametrize(
        "orders, ship_shape",
        [([3], (1, 1, 11)), ([0, 0, 0, 0], (4, 4, 3)), ([0, 0], (2, 2, 11))],
        ids=["one-hospital", "fewer-ages", "fewer-hospitals"],
    )
    def test_decision_of_another_shape_rejected(self, orders, ship_shape):
        state = InventoryState(np.ones((4, 11), dtype=np.int64))
        decision = DecisionVector(np.array(orders), np.zeros(ship_shape, dtype=np.int64))
        with pytest.raises(InputError, match="shape"):
            step(state, decision, np.zeros(4, int), CostParams())
        with pytest.raises(InputError, match="shape"):
            receipts_state(state, decision)
        with pytest.raises(InputError, match="shape"):
            check_feasibility(state, decision)
        with pytest.raises(InputError, match="shape"):
            repair(state, decision)

    @pytest.mark.parametrize(
        "demand",
        [[1.9, 2], [np.nan, 1], [np.inf, 1], [2**70, 1], np.array([2**63, 1], dtype=np.uint64),
         [-1, 2], [1, 2, 3], [[1, 2]], ["a", 1]],
        ids=["fractional", "nan", "inf", "overflow", "uint64-overflow", "negative", "long", "2-d", "text"],
    )
    def test_bad_demand_rejected(self, demand):
        state = InventoryState.zeros(2, 3)
        with pytest.raises(InputError, match="demand"):
            step(state, DecisionVector.zeros(2, 3), demand, CostParams())

    @pytest.mark.parametrize("value", [2**53 + 1, 2**62 + 1])
    def test_integer_demand_kept_exact(self, value):
        """Integer demand skips float64, which would round these values."""
        for demand in ([value, 0], np.array([value, 0]), np.array([value, 0], dtype=np.uint64)):
            assert as_demand(demand, 2).tolist() == [value, 0]
        assert as_demand([[value, 1]], 2, batched=True).tolist() == [[value, 1]]

    @pytest.mark.parametrize(
        "grid, orders, demand",
        [([[0, 2**62, 2**62, 2**62]], [0], [0]), ([[0, 0], [0, 0]], [0, 0], [2**62, 2**62]),
         ([[2**62]], [2**62], [0])],
        ids=["stock", "demand", "stock-plus-orders"],
    )
    @pytest.mark.filterwarnings("error")
    def test_counts_past_int64_range_rejected(self, grid, orders, demand):
        """Holding of 2**63 survivors, shortage of 2**63 units and 2**63
        outdating units used to wrap to negative costs."""
        state = InventoryState(np.array(grid))
        h, m = state.units.shape
        decision = DecisionVector(np.array(orders), np.zeros((h, h, m), dtype=np.int64))
        with pytest.raises(InputError, match="int64"):
            step(state, decision, demand, CostParams())
        with pytest.raises(InputError, match="int64"):
            evaluate_decision(state, decision, [demand], CostParams())

    @pytest.mark.filterwarnings("error")
    def test_lane_sums_past_int64_range_rejected(self):
        """Two lanes of 2**62 out of one slot used to wrap ``outbound()`` to
        -2**63, and ``step`` then made 2**62 units from one with negative
        holding."""
        state = InventoryState(np.array([[1, 0], [0, 0], [0, 0]]))
        ship = np.zeros((3, 3, 2), dtype=np.int64)
        ship[0, 1, 0] = ship[0, 2, 0] = 2**62
        with pytest.raises(InputError, match="int64"):
            step(state, DecisionVector(np.zeros(3, int), ship), [0, 0, 0], CostParams())
        flat = DecisionVector.zeros(3, 2).flatten()
        flat[3] = flat[5] = 2**62  # lanes 1 -> 2 and 1 -> 3, age 1
        with pytest.raises(InputError, match="int64"):
            DecisionVector.from_flat(flat, 3, 2)

    def test_counts_just_below_int64_range_kept_exact(self):
        costs = CostParams()
        state = InventoryState(np.array([[0, 2**61, 2**61 - 2**10]]))
        nxt, cost = step(state, DecisionVector.zeros(1, 3), [0], costs)
        assert nxt.units.tolist() == [[0, 0, 2**61]]
        assert cost.holding == float(2**61) and cost.outdate == float(2**61 - 2**10) * costs.outdate
        demand = [2**61, 2**61 - 2**10]
        _, cost = step(InventoryState.zeros(2, 2), DecisionVector.zeros(2, 2), demand, costs)
        assert cost.shortage == float(2**62 - 2**10) * costs.shortage

    def test_whole_float_demand_accepted(self):
        state = InventoryState(np.array([[0, 0, 3], [1, 0, 0]]))
        a = step(state, DecisionVector.zeros(2, 3), [2.0, 1.0], CostParams())
        b = step(state, DecisionVector.zeros(2, 3), [2, 1], CostParams())
        assert np.array_equal(a[0].units, b[0].units) and a[1] == b[1]


def _bits(breakdown):
    return np.array(breakdown.as_tuple() + (breakdown.total,)).tobytes()


def _random_case(rng, h=None, m=None, stock=True):
    h = h or int(rng.integers(1, 5))
    m = m or int(rng.integers(1, 12))
    units = rng.integers(0, 6, size=(h, m)) if stock else np.zeros((h, m), dtype=np.int64)
    state = _state(units)
    ship = rng.integers(0, 3, size=(h, h, m))
    ship[np.eye(h, dtype=bool)] = 0
    decision = repair(state, DecisionVector(rng.integers(0, 5, size=h), ship))
    return state, decision, CostParams(*rng.choice(RATES, size=5))


def _random_demand(rng, case, state, decision, size):
    if case == "zero-demand":
        return np.zeros(size, dtype=np.int64)
    # every hospital asks for more than the whole network holds after receipts
    low = state.total() + int(decision.orders.sum()) + 1 if case == "demand-above-stock" else 0
    return rng.integers(low, low + 9, size=size)


# case -> (hospitals, ages, any stock); None draws the size
EDGE_CASES = {
    "h1-m1": (1, 1, True),
    "zero-stock": (None, None, False),
    "zero-demand": (None, None, True),
    "demand-above-stock": (None, None, True),
    "random": (None, None, True),
}


class TestDayCycleMatchesReference:
    """step and evaluate_decision against the one-slot, one-scenario path,
    bit for bit: next units and every cost field."""

    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_step(self, case):
        rng = np.random.default_rng(list(EDGE_CASES).index(case))
        for _ in range(60):
            state, decision, costs = _random_case(rng, *EDGE_CASES[case])
            demand = _random_demand(rng, case, state, decision, state.n_hospitals)
            nxt, br = step(state, decision, demand, costs)
            ref_nxt, ref_br = reference_step(state, decision, demand, costs)
            assert nxt.units.tobytes() == ref_nxt.units.tobytes()
            assert _bits(br) == _bits(ref_br)

    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_evaluate_decision(self, case):
        rng = np.random.default_rng(100 + list(EDGE_CASES).index(case))
        for _ in range(25):
            state, decision, costs = _random_case(rng, *EDGE_CASES[case])
            count = int(rng.integers(1, 61))
            scenarios = _random_demand(rng, case, state, decision, (count, state.n_hospitals))
            got = evaluate_decision(state, decision, scenarios, costs)
            want = reference_evaluate_decision(state, decision, scenarios, costs)
            assert _bits(got) == _bits(want)

    def test_horizon_sum_adds_days_in_order(self):
        rng = np.random.default_rng(7)
        orders = rng.integers(0, 6, size=(40, 3))
        demands = rng.integers(0, 9, size=(40, 3))
        costs = CostParams(holding=0.1, ordering=1.3, transship_unit=0.7, shortage=2.9, outdate=35.35)

        def policy(day, state):
            return DecisionVector(orders[day], np.zeros((3, 3, 4), dtype=np.int64))

        result = run_horizon(InventoryState.zeros(3, 4), policy, demands, costs)
        acc = (0.0,) * 5
        for b in result.breakdowns:
            acc = tuple(x + y for x, y in zip(acc, b.as_tuple()))
        assert _bits(result.cost_sum()) == _bits(CostBreakdown(*acc))
        mean = CostBreakdown(*acc).scaled(1.0 / 40)
        assert _bits(result.cost_mean()) == _bits(mean)


class TestRunHorizon:
    def test_empty_horizon(self):
        result = run_horizon(
            InventoryState.zeros(2, 2), lambda d, s: DecisionVector.zeros(2, 2), [], CostParams()
        )
        assert result.days == 0
        assert result.cost_sum().total == 0.0
        assert result.slots_checked == 0

    def test_zero_everything(self):
        demands = [np.zeros(2, int)] * 5
        result = run_horizon(
            InventoryState.zeros(2, 2), lambda d, s: DecisionVector.zeros(2, 2), demands, CostParams()
        )
        assert all(b.total == 0.0 for b in result.breakdowns)
        assert result.slots_checked == 5 * 4

    def test_seeded_run_matches_cost_auditor(self):
        rng = np.random.default_rng(11)
        h, m = 4, 11
        costs = CostParams()

        def policy(day, state):
            ship = rng.integers(0, 2, size=(h, h, m))
            ship[np.eye(h, dtype=bool)] = 0
            return DecisionVector(rng.integers(0, 4, size=h), ship)

        demands = [rng.integers(0, 6, size=h) for _ in range(50)]
        result = run_horizon(InventoryState.zeros(h, m), policy, demands, costs)
        audited = audit_total_cost(result, costs)
        assert result.cost_sum().total == pytest.approx(audited, abs=1e-9)
        assert result.slots_checked == 50 * 44

    def test_determinism(self):
        def policy(day, state):
            rng = np.random.default_rng(day)
            ship = rng.integers(0, 2, size=(2, 2, 3))
            ship[np.eye(2, dtype=bool)] = 0
            return DecisionVector(rng.integers(0, 3, size=2), ship)

        demands = [np.array([1, 2])] * 20
        a = run_horizon(InventoryState.zeros(2, 3), policy, demands, CostParams())
        b = run_horizon(InventoryState.zeros(2, 3), policy, demands, CostParams())
        assert [x.total for x in a.breakdowns] == [x.total for x in b.breakdowns]
        assert all(np.array_equal(x.units, y.units) for x, y in zip(a.states, b.states))


class TestCsvExport:
    def test_schema_and_rows(self, tmp_path):
        h, m = 4, 11
        demands = [np.ones(h, int)] * 3
        result = run_horizon(
            InventoryState.zeros(h, m), lambda d, s: DecisionVector.zeros(h, m), demands, CostParams()
        )
        path = tmp_path / "traj.csv"
        write_trajectory_csv(path, result)
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(trajectory_columns(h, m))
        assert len(lines) == 4
        header = lines[0].split(",")
        assert header[1] == "inv_1_1"
        assert header[45] == "ord_1"
        assert header[49] == "ship_1_2_1"
        assert "cost_holding" in header and "violations" in header
        assert len(header) == 1 + 44 + 136 + 5 + 1
