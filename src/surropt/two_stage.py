"""Scenario-based two-stage program: today's orders and transshipments are
chosen against sampled demand scenarios, with shortage/holding/outdate
recourse priced per scenario.  Its solutions label the training data and
serve as the benchmark policy.

The model plans as if a scenario's demand is served after receipts: ordered
and inbound units count toward that scenario's availability.  A candidate
decision is therefore evaluated as its ordering-plus-transshipment cost plus
the scenario average of one simulated day from the post-receipt inventory,
one batched ``simulate.day_cycle`` call.  First-stage quantities are
integerized by rounding and re-repaired against the current stock.

The LP encodes a hospital's recourse with three hinge variables (unmet
demand, leftover stock, and the old-stock excess that outdates).  Its
optimal value equals that of the explicit formulation with per-age
issued/leftover variables, at a fraction of the row count.  A hospital's
recourse depends on a scenario only through that hospital's demand, so the
LP holds one row group per distinct (hospital, demand value) pair, its
costs weighted by the share of scenarios with that value: 50 scenarios over
four hospitals give about 50 groups instead of 200.  The tests keep both
larger forms as cross-checks.

Only the live part of that program is built, by two presolve rules that
read the state alone (Andersen and Andersen, "Presolving in linear
programming", Math. Programming 71, 1995).  A lane out of an empty slot is
pinned at 0 by the slot's stock cap, so neither is built.  When outdating
costs more than holding, M > 1 and no age-M slot holds stock, each outdate
row reads ``-w <= d`` with d >= 0 and a costly w, so w is 0 at every optimum
and the rows and their w go.  On the acceptance days the LP shrinks from
about 192 x 284 to 105 x 118.

When outdating costs at least as much as holding (the default costs), the
hinges price an integral first stage exactly as the evaluation does:
oldest-first issuing outdates exactly ``max(oldest - d, 0)`` units.  The LP
optimum is then the cost of the LP's decision whenever the LP point is
integral, and a lower bound on every decision's cost otherwise.  When
holding costs more, the hinges let young units be issued first, and the LP
optimum is only a lower bound.

The oracle is a function of the state and the scenario multiset, which the
caller draws (``pipeline.OraclePolicy``, from the day's stream); their order
does not change a byte of the LP.  ``solve_lp`` returns the lexicographically
smallest optimal point, and the live first stage comes first in the LP's
columns, in flatten order (the columns left out are 0 at every optimum), so
among first stages of equal LP cost the lexicographically smallest
flattened decision wins: older units are shipped first (a lane's younger
ages come first), and lower-index hospitals get the smaller order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, InternalError
from .lp import LinearProgram, solve_lp
from .simulate import (
    CostBreakdown,
    CostParams,
    DecisionVector,
    InventoryState,
    as_demand,
    check_count_range,
    check_feasibility,
    day_cycle,
    decision_length,
    repair,
    sum_breakdowns,
)

# Bounds the day and scenario counts, whose demand blocks are (count, H)
# arrays, so a mistyped count fails as a config error instead of as an
# allocation.
MAX_COUNT_LIMIT = 100_000


@dataclass(frozen=True)
class SaaConfig:
    """Controls for the sample-average approximation."""

    scenario_count: int = 50
    seed: int = 0  # inert: nothing reads it; exact recourse pricing deletes it

    def __post_init__(self):
        if not 1 <= self.scenario_count <= MAX_COUNT_LIMIT:
            raise ConfigError(f"scenario_count must be in 1..{MAX_COUNT_LIMIT}, got {self.scenario_count}")


@dataclass(frozen=True)
class StageOneSolution:
    """Integer first-stage decision plus its scenario-evaluated cost."""

    decision: DecisionVector
    objective: float           # expected cost of the decision over the scenarios
    lp_objective: float        # LP optimum; equals `objective` at an integral
                               # LP point when outdate >= holding
    lp_integral: bool          # whether the LP optimum was already integral

    @property
    def rounding_gap(self) -> float:
        return self.objective - self.lp_objective


def live_columns(state: InventoryState) -> np.ndarray:
    """The scenario LP's first-stage columns as ``DecisionVector.flatten``
    indices: every order, then each lane out of a stocked slot."""
    h = state.n_hospitals
    # lane (i, j, a) reads slot (i, a): each sender row once per receiver
    return np.concatenate([np.arange(h), h + np.flatnonzero(np.repeat(state.units, h - 1, axis=0))])


def build_saa(state: InventoryState, scenarios, costs: CostParams) -> LinearProgram:
    """Assemble the live scenario LP (see the module doc).  The first columns
    are the first stage of ``live_columns(state)``, in that order; recourse
    columns follow per (hospital, distinct demand value).

    Rows: one stock cap per slot with live lanes out of it, in slot order,
    then one row group per distinct (hospital, demand value) pair, in
    hospital then value order: the unmet-demand row ``total + u >= d``, the
    leftover row ``total - v <= d`` and, when the hinge has a cost and is
    not left out, the outdate row ``oldest - w <= d`` (``(total - oldest) -
    w <= d`` when holding costs more than outdating).  ``total`` and
    ``oldest`` are the post-receipt stock of a hospital and of its age-M
    slot as linear maps of the first stage.  Recourse column k belongs to
    recourse row k; its cost is its rate times the share of the scenarios
    that hold the group's demand.

    The solver's crash basis covers every row, so phase 1 never runs on this
    LP: after the rows with a negative rhs are negated, every row has a slack
    column or a recourse singleton of the right sign."""
    demand = as_demand(scenarios, state.n_hospitals, batched=True)
    # the LP sums each hospital's stock in int64, and meets each demand value
    # alone, as a float: only the stock must stay in range
    check_count_range(state.units, np.zeros(0, np.int64), np.zeros(state.n_hospitals, np.int64))
    h, m = state.n_hospitals, state.max_age
    columns = live_columns(state)
    d = columns.size
    # the live lanes, in flatten order: (sender, receiver, age)
    pair, age = np.divmod(columns[h:] - h, m)
    sender, receiver = (ends[pair] for ends in np.nonzero(~np.eye(h, dtype=bool)))
    lane_cols = np.arange(h, d)
    on_hand = state.units.sum(axis=1).astype(float)
    on_hand_oldest = state.units[:, -1].astype(float)

    total = np.zeros((h, d))
    total[np.arange(h), np.arange(h)] = 1.0
    total[sender, lane_cols] = -1.0
    total[receiver, lane_cols] = 1.0
    # the age-M part of total: the orders land there only when M == 1
    oldest = np.where(np.append(np.full(h, m == 1), age == m - 1), total, 0.0)

    old_regime = costs.outdate >= costs.holding
    # Per hospital, one entry per recourse row: first-stage coefficients,
    # stock netted out of the rhs, and rate of the recourse column, whose
    # sign is +1, -1, -1 in row order.
    coeffs, stock = [total, total], [on_hand, on_hand]
    rates = [costs.shortage, costs.holding if old_regime else costs.outdate]
    if costs.outdate != costs.holding and not (old_regime and m > 1 and not on_hand_oldest.any()):
        coeffs.append(oldest if old_regime else total - oldest)
        stock.append(on_hand_oldest if old_regime else on_hand - on_hand_oldest)
        rates.append(abs(costs.outdate - costs.holding))
    per_pair = len(coeffs)
    # each hospital's sorted demands, hospital by hospital; a group starts at
    # a hospital's first value and wherever the value changes
    n_scen = demand.shape[0]
    ordered = np.sort(demand.T, axis=1)
    first = np.ones(ordered.shape, dtype=bool)
    first[:, 1:] = ordered[:, 1:] != ordered[:, :-1]
    starts = np.flatnonzero(first)
    hospital, value = starts // n_scen, ordered.reshape(-1)[starts]
    counts = np.diff(starts, append=first.size)
    n_pairs = counts.size
    rhs = value.astype(float)[:, None] - np.stack(stock, axis=1)[hospital]

    # one cap row per sender slot of the live lanes, in slot order
    slots, cap_row = np.unique(sender * m + age, return_inverse=True)
    n_cap = slots.size
    n_rec = per_pair * n_pairs
    A = np.zeros((n_cap + n_rec, d + n_rec))
    A[cap_row, lane_cols] = 1.0
    A[n_cap:, :d] = np.stack(coeffs, axis=1)[hospital].reshape(n_rec, d)
    A[n_cap + np.arange(n_rec), d + np.arange(n_rec)] = np.tile([1.0, -1.0, -1.0][:per_pair], n_pairs)
    b = np.concatenate([state.units.reshape(-1)[slots].astype(float), rhs.reshape(-1)])
    c = np.concatenate([
        np.repeat([costs.ordering, costs.transship_unit], [h, d - h]),
        ((counts / n_scen)[:, None] * rates).reshape(-1),
    ])
    senses = ("<=",) * n_cap + (">=", "<=", "<=")[:per_pair] * n_pairs
    return LinearProgram(c=c, A=A, b=b, senses=senses)


def evaluate_decision(
    state: InventoryState,
    decision: DecisionVector,
    scenarios,
    costs: CostParams,
) -> CostBreakdown:
    """Expected cost of a feasible decision over the given scenarios.

    Ordering and transshipment costs are charged once.  One batched
    ``day_cycle`` call then runs every scenario from the post-receipt
    inventory with no further decision (so the scenario demand is served by
    today's receipts, matching the planning model), and the recourse
    components are summed in scenario order and averaged."""
    if check_feasibility(state, decision):
        raise InputError("decision is infeasible against the state")
    demand = as_demand(scenarios, state.n_hospitals, batched=True)
    check_count_range(state.units, decision.orders, demand)
    # the post-receipt grid, feasible so not checked again, and no recourse decision
    post = state.units - decision.outbound() + decision.inbound()
    post[:, 0] += decision.orders
    none = np.zeros_like(post)
    _, parts = day_cycle(post, none[:, 0], none, none, demand, costs)
    mean = sum_breakdowns(parts).scaled(1.0 / len(demand))
    return CostBreakdown(
        holding=mean.holding, outdate=mean.outdate, shortage=mean.shortage,
        transshipment=float(decision.transship.sum()) * costs.transship_unit,
        ordering=float(decision.orders.sum()) * costs.ordering,
    )


def solve_stage_one(state: InventoryState, scenarios, costs: CostParams) -> StageOneSolution:
    """Solve the scenario LP, integerize the first stage, and price the result.

    Equal-cost first stages go to the lexicographically smallest decision in
    ``DecisionVector.flatten`` order (the LP's tie rule): older units are
    shipped first, and lower-index hospitals get the smaller order."""
    sol = solve_lp(build_saa(state, scenarios, costs))
    if sol.status != "optimal":
        raise InternalError(f"scenario LP reported {sol.status}; the zero decision is always feasible")
    h, m = state.n_hospitals, state.max_age
    columns = live_columns(state)
    first = np.zeros(decision_length(h, m))
    first[columns] = sol.x[: columns.size]
    integral = bool(np.max(np.abs(first - np.round(first))) < 1e-6)
    ints = np.maximum(np.rint(first), 0.0).astype(np.int64)
    decision = repair(state, DecisionVector.from_flat(ints, h, m))
    return StageOneSolution(
        decision=decision,
        objective=evaluate_decision(state, decision, scenarios, costs).total,
        lp_objective=sol.objective,
        lp_integral=integral,
    )
