"""Deterministic day-cycle simulation of the hospital transshipment network.

State is an H x M grid of unit counts: entry (i, m) is the number of units
of age class m+1 held by hospital i+1 (column 0 is the freshest class).
A day applies a decision (orders from the central bank plus lateral
transshipments) and a demand realization in a fixed event order:

  1. charge ordering and transshipment costs;
  2. outbound transshipped units leave the senders' inventories;
  3. demand is realized and issued from on-hand stock, oldest first; unmet
     demand is lost and charged as shortage;
  4. at end of day inbound transshipments arrive at their age class and
     fresh orders arrive at age class 1;
  5. every unit ages one class; units that would exceed age M are discarded
     at the outdate rate and holding is charged on the survivors.

``day_cycle`` runs these steps on integer arrays with any leading batch axes:
one day (``step``) or a whole scenario set (``two_stage.evaluate_decision``).
Issuing is closed form: a slot gives what demand leaves after all older stock,
capped by its own stock.  Each cost part is float(unit count) x rate, one
rounding, and parts add left to right from 0.0, in scenario or day order.

Every count read here (units, orders, lanes, demand) is a whole number in
[0, 2**63); anything else, a string or a ragged sequence too, raises InputError.

A ``DecisionVector`` sums its outbound and inbound units per (hospital, age)
slot once, when it is built, and hands them out read-only: the checks of a
day (``check_feasibility``, ``repair``, ``step``) and ``day_cycle`` read
them and sum no lanes again.

Everything here is a pure function of its inputs, so horizons can run in
parallel on independent states without locking.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import InputError, InternalError


def _as_counts(a, name) -> np.ndarray:
    """The one count rule: ``a`` as a fresh int64 array of whole numbers in
    [0, 2**63), or InputError naming ``name``."""
    try:
        arr = np.asarray(a)
    except ValueError:  # a ragged sequence
        arr = np.asarray(None)
    # NaN fails the bound; strings, objects and complex numbers are not counts;
    # a negative float, or a uint64 from 2**63 up, turns negative in the cast
    kind = arr.dtype.kind
    if kind in "biu" or kind == "f" and ((np.abs(arr) < 2.0**63) & (arr == np.floor(arr))).all():
        counts = arr.astype(np.int64)
        if counts.min(initial=0) >= 0:
            return counts
    raise InputError(f"{name} must be whole numbers in [0, 2**63)")


@dataclass(frozen=True)
class InventoryState:
    """Per-hospital, age-indexed unit counts; the model's input vector."""

    units: np.ndarray

    def __post_init__(self):
        grid = _as_counts(self.units, "units")
        if grid.ndim != 2:
            raise InputError(f"units must be 2-d (hospitals x ages), got shape {grid.shape}")
        grid.flags.writeable = False
        object.__setattr__(self, "units", grid)

    @classmethod
    def zeros(cls, hospitals: int, max_age: int):
        return cls(np.zeros((hospitals, max_age), dtype=np.int64))

    @property
    def n_hospitals(self) -> int:
        return self.units.shape[0]

    @property
    def max_age(self) -> int:
        return self.units.shape[1]

    def flatten(self) -> np.ndarray:
        """Row-major (hospital, age) vector of length H*M."""
        return self.units.reshape(-1).copy()

    def total(self) -> int:
        return int(self.units.sum())


@lru_cache(maxsize=8)
def _lanes(hospitals: int) -> np.ndarray:
    """The (sender, receiver) pairs with sender != receiver, in row-major
    order, as flat indices into an H x H grid."""
    lanes = np.flatnonzero(~np.eye(hospitals, dtype=bool))
    lanes.flags.writeable = False
    return lanes


@dataclass(frozen=True)
class DecisionVector:
    """Orders per hospital plus transship[i, j, m] = age-(m+1) units i+1 -> j+1.

    Construction also sums the lanes into each slot's outbound and inbound
    units, which ``outbound()`` and ``inbound()`` return as read-only arrays."""

    orders: np.ndarray
    transship: np.ndarray

    def __post_init__(self):
        orders = _as_counts(self.orders, "orders")
        ship = _as_counts(self.transship, "transship")
        h = orders.size
        if orders.ndim != 1 or ship.ndim != 3 or ship.shape[:2] != (h, h):
            raise InputError(f"orders {orders.shape} and transship {ship.shape} are not (H,) and (H, H, M)")
        if ship.diagonal().any():
            raise InputError("self-transshipment entries must be zero")
        # every slot's lane sum is at most the total, so below 2**62 none wraps
        if (shipped := ship.sum(dtype=float)) >= 2.0**62:
            raise InputError(f"{shipped:.4g} shipped units reach 2**62: lane sums leave the int64 range")
        outbound, inbound = ship.sum(axis=1), ship.sum(axis=0)
        for name, a in (("orders", orders), ("transship", ship), ("_outbound", outbound),
                        ("_inbound", inbound)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @classmethod
    def zeros(cls, hospitals: int, max_age: int):
        return cls(
            np.zeros(hospitals, dtype=np.int64),
            np.zeros((hospitals, hospitals, max_age), dtype=np.int64),
        )

    @property
    def n_hospitals(self) -> int:
        return self.orders.shape[0]

    @property
    def max_age(self) -> int:
        return self.transship.shape[2]

    def flatten(self) -> np.ndarray:
        """Orders first, then lanes in (sender, receiver, age) order; length
        H + H*(H-1)*M (136 for the four-hospital, eleven-age network)."""
        h = self.n_hospitals
        lanes = self.transship.reshape(h * h, self.max_age)[_lanes(h)]  # drops i == j, keeps (i, j, m) order
        return np.concatenate([self.orders, lanes.reshape(-1)])

    @classmethod
    def from_flat(cls, flat, hospitals: int, max_age: int):
        flat = _as_counts(flat, "flat")
        h, m = hospitals, max_age
        if flat.shape != ((expected := decision_length(h, m)),):
            raise InputError(f"expected {expected} entries, got shape {flat.shape}")
        ship = np.zeros((h * h, m), dtype=np.int64)
        ship[_lanes(h)] = flat[h:].reshape(h * (h - 1), m)
        return cls(flat[:h], ship.reshape(h, h, m))

    def outbound(self) -> np.ndarray:
        """Total units leaving each (hospital, age) slot; shape (H, M), read-only."""
        return self._outbound

    def inbound(self) -> np.ndarray:
        """Total units arriving at each (hospital, age) slot; shape (H, M), read-only."""
        return self._inbound


def decision_length(hospitals: int, max_age: int) -> int:
    return hospitals + hospitals * (hospitals - 1) * max_age


@dataclass(frozen=True)
class CostParams:
    """Unit cost rates; defaults encode shortage >> outdate > transship > holding."""

    holding: float = 1.0
    ordering: float = 10.0
    transship_unit: float = 7.0
    shortage: float = 40.0
    outdate: float = 35.0

    def __post_init__(self):
        for name in ("holding", "ordering", "transship_unit", "shortage", "outdate"):
            if getattr(self, name) < 0:
                raise InputError(f"cost rate {name} must be nonnegative")


@dataclass(frozen=True)
class CostBreakdown:
    holding: float
    transshipment: float
    outdate: float
    ordering: float
    shortage: float

    @property
    def total(self) -> float:
        """The five parts added left to right, in field order."""
        return self.holding + self.transshipment + self.outdate + self.ordering + self.shortage

    def scaled(self, factor: float) -> "CostBreakdown":
        return CostBreakdown(*(part * factor for part in self.as_tuple()))

    def as_tuple(self):
        return (self.holding, self.transshipment, self.outdate, self.ordering, self.shortage)


def sum_breakdowns(parts) -> CostBreakdown:
    """Sum rows of cost parts (as_tuple order) left to right from 0.0."""
    rows = np.vstack([np.zeros(5), np.reshape(parts, (-1, 5))])
    return CostBreakdown(*np.add.accumulate(rows, axis=0)[-1].tolist())


@dataclass(frozen=True)
class ViolationLog:
    """A (hospital, age) slot whose outbound request exceeded on-hand stock."""

    day: int
    hospital: int  # 1-based
    age: int       # 1-based
    requested: int
    available: int


def _over(state: InventoryState, decision: DecisionVector) -> np.ndarray:
    """The (H, M) mask of slots whose outbound units exceed the stock; a
    decision of another shape is bad input."""
    if decision.transship.shape[1:] != state.units.shape:
        raise InputError("decision shape does not match state shape")
    return decision.outbound() > state.units


def _check_applicable(state: InventoryState, decision: DecisionVector):
    """An infeasible decision is a caller bug."""
    if _over(state, decision).any():
        raise InternalError("decision is infeasible against the state; repair it first")


def as_demand(demand, hospitals: int, batched: bool = False) -> np.ndarray:
    """Demand counts: one (H,) day or (S, H) scenarios, S >= 1."""
    counts = _as_counts(demand, "demand")
    if counts.ndim != 1 + batched or counts.shape[-1] != hospitals or (batched and not len(counts)):
        raise InputError(f"demand of shape {counts.shape} does not match {hospitals} hospitals")
    return counts


def check_feasibility(state: InventoryState, decision: DecisionVector, day: int = 0):
    """One record per slot where outbound transshipments exceed stock.

    Exactly H*M slots are inspected per call, which fixes the violation-rate
    denominator at days * H * M for a horizon.
    """
    over = _over(state, decision)
    if not over.any():
        return []
    out = decision.outbound()
    return [
        ViolationLog(
            day=day,
            hospital=int(i) + 1,
            age=int(m) + 1,
            requested=int(out[i, m]),
            available=int(state.units[i, m]),
        )
        for i, m in np.argwhere(over)
    ]


def repair(state: InventoryState, decision: DecisionVector) -> DecisionVector:
    """Scale infeasible outbound slots down to the available stock.

    Per violating (hospital, age) slot the lane quantities are reduced
    proportionally and integerized by the largest-remainder rule: floor the
    scaled quotas, then hand out the remaining units in order of descending
    fractional part, ties broken by ascending destination index.  The split
    is exact in integers: each quota lane * stock / total is taken as a
    quotient and remainder of Python ints, so the rule holds at any count,
    the slot ships exactly its stock, and a lane of 0 (the self-lane among
    them) gets no unit.  Feasible slots pass through untouched, so the map
    is the identity on feasible decisions.
    """
    over = _over(state, decision)
    if not over.any():
        return decision
    ship = decision.transship.copy()
    for i, m in np.argwhere(over):
        lanes, available = ship[i, :, m].tolist(), int(state.units[i, m])
        total = sum(lanes)
        quota = [divmod(lane * available, total) for lane in lanes]
        alloc = [q for q, _ in quota]
        # descending remainder, ascending destination on ties (sorted is stable)
        for j in sorted(range(len(lanes)), key=lambda j: -quota[j][1])[: available - sum(alloc)]:
            alloc[j] += 1
        ship[i, :, m] = alloc
    return DecisionVector(decision.orders, ship)


def check_count_range(units, orders, demand):
    """Raise InputError when the morning stock plus the orders, or one day's
    (one scenario's) total demand, reaches 2**62, summed in float64.  Every
    int64 count that ``day_cycle`` forms is bounded by one of the two, so
    below the limit none can wrap."""
    stock = units.sum(dtype=float) + orders.sum(dtype=float)
    peak = demand.sum(axis=-1, dtype=float)
    if demand.ndim > 1:
        peak = peak.max()
    if stock >= 2.0**62 or peak >= 2.0**62:
        raise InputError(
            f"stock plus orders ({stock:.4g}) or one day's demand ({peak:.4g}) reaches 2**62: "
            "the day's counts would overflow the int64 range"
        )


def day_cycle(units, orders, outbound, inbound, demand, costs: CostParams):
    """Steps 1-5 on int64 units (..., H, M), orders (..., H), a decision's
    outbound and inbound units (..., H, M) and demand (..., H) whose batch
    axes broadcast; returns the next units and the (..., 5) cost parts in
    as_tuple order.  Callers check the inputs, their range with
    ``check_count_range``."""
    on_hand = units - outbound
    older = on_hand[..., ::-1].cumsum(axis=-1)[..., ::-1] - on_hand
    issued = np.minimum(np.maximum(demand[..., None] - older, 0), on_hand)
    end_of_day = on_hand - issued + inbound
    end_of_day[..., 0] += orders
    aged = np.zeros_like(end_of_day)
    aged[..., 1:] = end_of_day[..., :-1]
    parts = np.empty(end_of_day.shape[:-2] + (5,))
    parts[..., 0] = aged.sum(axis=(-2, -1))
    parts[..., 1] = outbound.sum(axis=(-2, -1))
    parts[..., 2] = end_of_day[..., -1].sum(axis=-1)
    parts[..., 3] = orders.sum(axis=-1)
    parts[..., 4] = (demand - issued.sum(axis=-1)).sum(axis=-1)
    parts *= (costs.holding, costs.transship_unit, costs.outdate, costs.ordering, costs.shortage)
    return aged, parts


def step(
    state: InventoryState,
    decision: DecisionVector,
    demand,
    costs: CostParams,
):
    """Advance the network one day; returns (next_state, cost_breakdown).

    The decision must be feasible (run check_feasibility/repair first); an
    infeasible decision is a caller bug and raises InternalError.
    """
    demand = as_demand(demand, state.n_hospitals)
    _check_applicable(state, decision)
    check_count_range(state.units, decision.orders, demand)
    aged, parts = day_cycle(
        state.units, decision.orders, decision.outbound(), decision.inbound(), demand, costs
    )
    return InventoryState(aged), CostBreakdown(*parts.tolist())


@dataclass
class HorizonResult:
    """Everything a rolling run produced, day by day."""

    states: list          # length T+1, InventoryState
    decisions: list       # applied (post-repair) DecisionVector per day
    demands: list         # realized demand vector per day
    breakdowns: list      # CostBreakdown per day
    violations: list      # ViolationLog records across all days
    slots_checked: int    # days * H * M

    @property
    def days(self) -> int:
        return len(self.breakdowns)

    def cost_sum(self) -> CostBreakdown:
        return sum_breakdowns([b.as_tuple() for b in self.breakdowns])

    def cost_mean(self) -> CostBreakdown:
        return self.cost_sum().scaled(1.0 / max(self.days, 1))


def run_horizon(initial: InventoryState, policy, demands, costs: CostParams):
    """Roll a policy forward: check -> repair -> step each day.

    ``policy`` is called as policy(day, state) and returns a DecisionVector;
    ``demands`` is a sequence of per-day demand vectors.  Deterministic given
    its inputs.
    """
    state = initial
    result = HorizonResult([initial], [], [], [], [], 0)
    slots = initial.n_hospitals * initial.max_age
    for day, demand in enumerate(demands):
        decision = policy(day, state)
        result.violations.extend(check_feasibility(state, decision, day=day))
        result.slots_checked += slots
        applied = repair(state, decision)
        state, breakdown = step(state, applied, demand, costs)
        result.states.append(state)
        result.decisions.append(applied)
        result.demands.append(np.asarray(demand, dtype=np.int64))
        result.breakdowns.append(breakdown)
    return result


def trajectory_columns(hospitals: int, max_age: int):
    """CSV header for a trajectory: day, inventory, decision, costs, violations."""
    cols = ["day"]
    cols += [f"inv_{i}_{m}" for i in range(1, hospitals + 1) for m in range(1, max_age + 1)]
    cols += [f"ord_{i}" for i in range(1, hospitals + 1)]
    cols += [
        f"ship_{i}_{j}_{m}"
        for i in range(1, hospitals + 1)
        for j in range(1, hospitals + 1)
        if j != i
        for m in range(1, max_age + 1)
    ]
    cols += ["cost_holding", "cost_transshipment", "cost_outdate", "cost_ordering", "cost_shortage"]
    cols += ["violations"]
    return cols


def write_trajectory_csv(path, result: HorizonResult) -> None:
    """One row per day: state at the morning of the day, the applied decision,
    the day's costs, and how many slots were violated before repair."""
    h = result.states[0].n_hospitals
    m = result.states[0].max_age
    by_day = {}
    for v in result.violations:
        by_day[v.day] = by_day.get(v.day, 0) + 1
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(trajectory_columns(h, m))
        for day in range(result.days):
            row = [day]
            row += [int(x) for x in result.states[day].flatten()]
            row += [int(x) for x in result.decisions[day].flatten()]
            row += [repr(float(c)) for c in result.breakdowns[day].as_tuple()]
            row += [by_day.get(day, 0)]
            writer.writerow(row)
