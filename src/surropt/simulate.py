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

Everything here is a pure function of its inputs, so horizons can run in
parallel on independent states without locking.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, InternalError

N_HOSPITALS = 4
MAX_AGE = 11


def _as_grid(a, name):
    arr = np.asarray(a)
    if arr.ndim != 2:
        raise InputError(f"{name} must be 2-d (hospitals x ages), got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        if not np.all(arr == np.round(arr)):
            raise InputError(f"{name} must hold integers")
        arr = arr.astype(np.int64)
    return arr.astype(np.int64)


@dataclass(frozen=True)
class InventoryState:
    """Per-hospital, age-indexed unit counts; the model's input vector."""

    units: np.ndarray

    def __post_init__(self):
        grid = _as_grid(self.units, "units")
        if np.any(grid < 0):
            raise InputError("inventory counts must be nonnegative")
        grid.flags.writeable = False
        object.__setattr__(self, "units", grid)

    @classmethod
    def zeros(cls, hospitals=N_HOSPITALS, max_age=MAX_AGE):
        return cls(np.zeros((hospitals, max_age), dtype=np.int64))

    @classmethod
    def from_flat(cls, flat, hospitals=N_HOSPITALS, max_age=MAX_AGE):
        flat = np.asarray(flat)
        if flat.size != hospitals * max_age:
            raise InputError(f"expected {hospitals * max_age} entries, got {flat.size}")
        return cls(flat.reshape(hospitals, max_age))

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


@dataclass(frozen=True)
class DecisionVector:
    """Orders per hospital plus transship[i, j, m] = age-(m+1) units i+1 -> j+1."""

    orders: np.ndarray
    transship: np.ndarray

    def __post_init__(self):
        orders = np.asarray(self.orders)
        ship = np.asarray(self.transship)
        for arr, name in ((orders, "orders"), (ship, "transship")):
            if not np.issubdtype(arr.dtype, np.integer) and not np.all(arr == np.round(arr)):
                raise InputError(f"{name} must hold integers")
        orders = orders.astype(np.int64)
        ship = ship.astype(np.int64)
        h = orders.shape[0]
        if ship.shape[:2] != (h, h) or ship.ndim != 3:
            raise InputError(
                f"transship must have shape (H, H, M) matching orders, got {ship.shape}"
            )
        if np.any(orders < 0) or np.any(ship < 0):
            raise InputError("decision quantities must be nonnegative")
        if np.any(np.einsum("iim->im", ship) != 0):
            raise InputError("self-transshipment entries must be zero")
        orders.flags.writeable = False
        ship.flags.writeable = False
        object.__setattr__(self, "orders", orders)
        object.__setattr__(self, "transship", ship)

    @classmethod
    def zeros(cls, hospitals=N_HOSPITALS, max_age=MAX_AGE):
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
        h, m = self.n_hospitals, self.max_age
        lanes = self.transship[~np.eye(h, dtype=bool)]  # drops i == j, keeps (i, j, m) order
        return np.concatenate([self.orders, lanes.reshape(-1)])

    @classmethod
    def from_flat(cls, flat, hospitals=N_HOSPITALS, max_age=MAX_AGE):
        flat = np.asarray(flat)
        h, m = hospitals, max_age
        expected = h + h * (h - 1) * m
        if flat.size != expected:
            raise InputError(f"expected {expected} entries, got {flat.size}")
        orders = flat[:h]
        ship = np.zeros((h, h, m), dtype=np.asarray(flat).dtype)
        ship[~np.eye(h, dtype=bool)] = flat[h:].reshape(h * (h - 1), m)
        return cls(orders, ship)

    def outbound(self) -> np.ndarray:
        """Total units leaving each (hospital, age) slot; shape (H, M)."""
        return self.transship.sum(axis=1)

    def inbound(self) -> np.ndarray:
        """Total units arriving at each (hospital, age) slot; shape (H, M)."""
        return self.transship.sum(axis=0)


def decision_length(hospitals=N_HOSPITALS, max_age=MAX_AGE) -> int:
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
    total: float = field(default=None)

    def __post_init__(self):
        if self.total is None:
            object.__setattr__(
                self,
                "total",
                self.holding + self.transshipment + self.outdate + self.ordering + self.shortage,
            )

    @classmethod
    def zero(cls):
        return cls(0.0, 0.0, 0.0, 0.0, 0.0)

    def __add__(self, other):
        return CostBreakdown(
            self.holding + other.holding,
            self.transshipment + other.transshipment,
            self.outdate + other.outdate,
            self.ordering + other.ordering,
            self.shortage + other.shortage,
        )

    def scaled(self, factor: float) -> "CostBreakdown":
        return CostBreakdown(
            self.holding * factor,
            self.transshipment * factor,
            self.outdate * factor,
            self.ordering * factor,
            self.shortage * factor,
        )

    def as_tuple(self):
        return (self.holding, self.transshipment, self.outdate, self.ordering, self.shortage)


@dataclass(frozen=True)
class ViolationLog:
    """A (hospital, age) slot whose outbound request exceeded on-hand stock."""

    day: int
    hospital: int  # 1-based
    age: int       # 1-based
    requested: int
    available: int


def check_feasibility(state: InventoryState, decision: DecisionVector, day: int = 0):
    """One record per slot where outbound transshipments exceed stock.

    Exactly H*M slots are inspected per call, which fixes the violation-rate
    denominator at days * H * M for a horizon.
    """
    if decision.n_hospitals != state.n_hospitals or decision.max_age != state.max_age:
        raise InputError("decision shape does not match state shape")
    out = decision.outbound()
    records = []
    over = np.argwhere(out > state.units)
    for i, m in over:
        records.append(
            ViolationLog(
                day=day,
                hospital=int(i) + 1,
                age=int(m) + 1,
                requested=int(out[i, m]),
                available=int(state.units[i, m]),
            )
        )
    return records


def repair(state: InventoryState, decision: DecisionVector) -> DecisionVector:
    """Scale infeasible outbound slots down to the available stock.

    Per violating (hospital, age) slot the lane quantities are reduced
    proportionally and integerized by the largest-remainder rule: floor the
    scaled quotas, then hand out the remaining units in order of descending
    fractional part, ties broken by ascending destination index.  Feasible
    slots pass through untouched, so the map is the identity on feasible
    decisions.
    """
    out = decision.outbound()
    if np.all(out <= state.units):
        return decision
    ship = decision.transship.copy()
    h = decision.n_hospitals
    for i, m in np.argwhere(out > state.units):
        raw = ship[i, :, m].astype(np.int64)
        available = int(state.units[i, m])
        total_raw = int(raw.sum())
        if available == 0:
            ship[i, :, m] = 0
            continue
        quota = raw * (available / total_raw)
        alloc = np.floor(quota).astype(np.int64)
        remainder = quota - alloc
        leftover = available - int(alloc.sum())
        if leftover > 0:
            # descending fractional part, ascending destination on ties
            order = np.lexsort((np.arange(h), -remainder))
            alloc[order[:leftover]] += 1
        ship[i, :, m] = alloc
    return DecisionVector(decision.orders, ship)


def _issue(on_hand: np.ndarray, demand: np.ndarray):
    """Units issued per (hospital, age) slot, oldest first."""
    h, m = on_hand.shape
    issued = np.zeros_like(on_hand)
    for i in range(h):
        need = int(demand[i])
        for a in range(m - 1, -1, -1):
            if need == 0:
                break
            take = min(int(on_hand[i, a]), need)
            issued[i, a] = take
            need -= take
    return issued


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
    demand = np.asarray(demand, dtype=np.int64)
    if demand.shape != (state.n_hospitals,):
        raise InputError(f"demand must have shape ({state.n_hospitals},), got {demand.shape}")
    if np.any(demand < 0):
        raise InputError("demand must be nonnegative")

    outbound = decision.outbound()
    if np.any(outbound > state.units):
        raise InternalError("step received an infeasible decision; repair it first")

    ordering_cost = float(decision.orders.sum()) * costs.ordering
    transship_cost = float(decision.transship.sum()) * costs.transship_unit

    on_hand = state.units - outbound
    issued = _issue(on_hand, demand)
    unmet = demand - issued.sum(axis=1)
    shortage_cost = float(unmet.sum()) * costs.shortage

    end_of_day = on_hand - issued + decision.inbound()
    end_of_day[:, 0] += decision.orders

    outdated = end_of_day[:, -1]
    outdate_cost = float(outdated.sum()) * costs.outdate
    aged = np.zeros_like(end_of_day)
    aged[:, 1:] = end_of_day[:, :-1]
    holding_cost = float(aged.sum()) * costs.holding

    breakdown = CostBreakdown(
        holding=holding_cost,
        transshipment=transship_cost,
        outdate=outdate_cost,
        ordering=ordering_cost,
        shortage=shortage_cost,
    )
    return InventoryState(aged), breakdown


def receipts_state(state: InventoryState, decision: DecisionVector) -> InventoryState:
    """Inventory after moving transshipments and receiving orders, before any
    demand or aging.  This is the availability the two-stage model plans
    against when it treats a scenario's demand as served post-receipt."""
    outbound = decision.outbound()
    if np.any(outbound > state.units):
        raise InternalError("decision infeasible against state")
    grid = state.units - outbound + decision.inbound()
    grid[:, 0] += decision.orders
    return InventoryState(grid)


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
        total = CostBreakdown.zero()
        for b in self.breakdowns:
            total = total + b
        return total

    def cost_mean(self) -> CostBreakdown:
        if not self.breakdowns:
            return CostBreakdown.zero()
        return self.cost_sum().scaled(1.0 / self.days)


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


def trajectory_columns(hospitals=N_HOSPITALS, max_age=MAX_AGE):
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
