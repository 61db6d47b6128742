"""Scenario-based two-stage program: today's orders and transshipments are
chosen against sampled demand scenarios, with shortage/holding/outdate
recourse priced per scenario.  Its solutions label the training data and
serve as the benchmark policy.

The model plans as if a scenario's demand is served after receipts: ordered
and inbound units count toward that scenario's availability.  A candidate
decision is therefore evaluated as its ordering-plus-transshipment cost plus
the scenario average of one simulated day starting from the post-receipt
inventory.  The LP relaxation prices issuing age-aggregated (strict
oldest-first issuing is not linear), which makes it a true lower bound on
that evaluation; first-stage quantities are integerized by rounding and
re-repaired against the current stock.

The LP encodes each hospital-scenario recourse with three hinge variables
(unmet demand, leftover stock, and the old-stock excess that outdates).
Its optimal value equals that of the explicit formulation with per-age
issued/leftover variables, at a fraction of the row count; the tests keep
that formulation as a cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .demand import DemandModel
from .errors import ConfigError, InputError, InternalError
from .lp import LinearProgram, LpSolution, solve_lp
from .simulate import (
    CostBreakdown,
    CostParams,
    DecisionVector,
    InventoryState,
    check_feasibility,
    decision_length,
    receipts_state,
    repair,
    step,
)
from .util import TAG_SAA_SCENARIO, stream

ROUNDING_MODES = ("nearest", "floor")


@dataclass(frozen=True)
class SaaConfig:
    """Controls for the sample-average approximation."""

    scenario_count: int = 50
    seed: int = 0
    rounding: str = "nearest"

    def __post_init__(self):
        if self.scenario_count < 1:
            raise ConfigError(f"scenario_count must be >= 1, got {self.scenario_count}")
        if self.rounding not in ROUNDING_MODES:
            raise ConfigError(f"rounding must be one of {ROUNDING_MODES}")


@dataclass(frozen=True)
class StageOneSolution:
    """Integer first-stage decision plus its scenario-evaluated cost."""

    decision: DecisionVector
    objective: float           # expected cost of the decision over the scenarios
    lp_objective: float        # LP relaxation optimum (lower bound)
    breakdown: CostBreakdown   # component split of `objective`
    lp_integral: bool          # whether the LP optimum was already integral
    scenarios: tuple

    @property
    def rounding_gap(self) -> float:
        return self.objective - self.lp_objective


def _lane_columns(h: int, m: int):
    """(sender, receiver, age) per lane column, in DecisionVector.flatten order."""
    return [(i, j, a) for i in range(h) for j in range(h) if j != i for a in range(m)]


def build_saa(
    state: InventoryState,
    scenarios,
    costs: CostParams,
) -> LinearProgram:
    """Assemble the scenario LP.  The first ``decision_length(H, M)`` columns
    are the flattened first stage (orders, then lanes); recourse columns
    follow per scenario."""
    scenarios = [np.asarray(s, dtype=np.int64) for s in scenarios]
    if not scenarios:
        raise InputError("at least one demand scenario is required")
    h, m = state.n_hospitals, state.max_age
    for s in scenarios:
        if s.shape != (h,):
            raise InputError(f"scenario shape {s.shape} does not match {h} hospitals")
    return _build_compact(state, scenarios, costs)


def _first_stage_frame(state, costs):
    """Shared first-stage pieces: column count, objective, cap rows."""
    h, m = state.n_hospitals, state.max_age
    d = decision_length(h, m)
    lanes = _lane_columns(h, m)
    c_fs = np.empty(d)
    c_fs[:h] = costs.ordering
    c_fs[h:] = costs.transship_unit
    rows = []
    rhs = []
    senses = []
    if h > 1:
        for i in range(h):
            for a in range(m):
                row = np.zeros(d)
                for k, (si, sj, sa) in enumerate(lanes):
                    if si == i and sa == a:
                        row[h + k] = 1.0
                rows.append(row)
                rhs.append(float(state.units[i, a]))
                senses.append("<=")
    return d, lanes, c_fs, rows, rhs, senses


def _post_receipt_coeffs(h, m, lanes, d):
    """Linear maps from the first stage onto post-receipt totals.

    total[i]: coefficients adding orders and netting lane flows into the
    hospital-i post-receipt total; oldest[i]: same for the age-M slot only
    (orders land there too when M == 1)."""
    total = np.zeros((h, d))
    oldest = np.zeros((h, d))
    for i in range(h):
        total[i, i] = 1.0
        if m == 1:
            oldest[i, i] = 1.0
    for k, (si, sj, sa) in enumerate(lanes):
        total[si, k + h] -= 1.0
        total[sj, k + h] += 1.0
        if sa == m - 1:
            oldest[si, k + h] -= 1.0
            oldest[sj, k + h] += 1.0
    return total, oldest


def _build_compact(state, scenarios, costs):
    h, m = state.n_hospitals, state.max_age
    d, lanes, c_fs, rows, rhs, senses = _first_stage_frame(state, costs)
    total_c, oldest_c = _post_receipt_coeffs(h, m, lanes, d)
    units_total = state.units.sum(axis=1).astype(float)
    units_oldest = state.units[:, -1].astype(float)
    ns = len(scenarios)
    weight = 1.0 / ns

    old_regime = costs.outdate >= costs.holding
    hinge_cost = costs.outdate - costs.holding if old_regime else costs.holding - costs.outdate
    use_w = hinge_cost > 0.0
    per_pair = 3 if use_w else 2

    n_cols = d + per_pair * ns * h
    obj = np.zeros(n_cols)
    obj[:d] = c_fs

    all_rows = []
    for w, dem in enumerate(scenarios):
        for i in range(h):
            base = d + per_pair * (w * h + i)
            u_col, v_col = base, base + 1
            obj[u_col] = weight * costs.shortage
            obj[v_col] = weight * (costs.holding if old_regime else costs.outdate)
            # unmet demand: total + u >= demand
            row = np.zeros(n_cols)
            row[:d] = total_c[i]
            row[u_col] = 1.0
            all_rows.append((row, float(dem[i]) - units_total[i], ">="))
            # leftover stock: total - v <= demand
            row = np.zeros(n_cols)
            row[:d] = total_c[i]
            row[v_col] = -1.0
            all_rows.append((row, float(dem[i]) - units_total[i], "<="))
            if use_w:
                w_col = base + 2
                obj[w_col] = weight * hinge_cost
                row = np.zeros(n_cols)
                if old_regime:
                    # old-stock excess that must outdate: oldest - w <= demand
                    row[:d] = oldest_c[i]
                    row[w_col] = -1.0
                    all_rows.append((row, float(dem[i]) - units_oldest[i], "<="))
                else:
                    # young leftover beyond the old slots: (total - oldest) - w <= demand
                    row[:d] = total_c[i] - oldest_c[i]
                    row[w_col] = -1.0
                    all_rows.append(
                        (row, float(dem[i]) - (units_total[i] - units_oldest[i]), "<=")
                    )

    n_rows = len(rows) + len(all_rows)
    A = np.zeros((n_rows, n_cols))
    b = np.empty(n_rows)
    sense_list = []
    for r, row in enumerate(rows):
        A[r, :d] = row
        b[r] = rhs[r]
        sense_list.append(senses[r])
    for k, (row, bv, s) in enumerate(all_rows):
        A[len(rows) + k] = row
        b[len(rows) + k] = bv
        sense_list.append(s)
    return LinearProgram(c=obj, A=A, b=b, senses=tuple(sense_list))


def evaluate_decision(
    state: InventoryState,
    decision: DecisionVector,
    scenarios,
    costs: CostParams,
    issuing: str = "fifo",
) -> CostBreakdown:
    """Expected cost of a feasible decision over the given scenarios.

    Ordering and transshipment costs are charged once; each scenario then
    contributes one simulated day starting from the post-receipt inventory
    (so the scenario demand is served by today's receipts, matching the
    planning model), and the recourse components are averaged."""
    if check_feasibility(state, decision):
        raise InputError("decision is infeasible against the state")
    scenarios = list(scenarios)
    post = receipts_state(state, decision)
    zero = DecisionVector.zeros(state.n_hospitals, state.max_age)
    acc = CostBreakdown.zero()
    for dem in scenarios:
        _, br = step(post, zero, dem, costs, issuing=issuing)
        acc = acc + br
    mean = acc.scaled(1.0 / len(scenarios))
    return CostBreakdown(
        holding=mean.holding,
        transshipment=float(decision.transship.sum()) * costs.transship_unit,
        outdate=mean.outdate,
        ordering=float(decision.orders.sum()) * costs.ordering,
        shortage=mean.shortage,
    )


def solve_stage_one(
    state: InventoryState,
    costs: CostParams,
    saa: SaaConfig,
    rng: np.random.Generator = None,
    demand_configs=None,
    scenarios=None,
    issuing: str = "fifo",
) -> StageOneSolution:
    """Solve the scenario LP, integerize the first stage, and price the result.

    Scenarios may be passed explicitly; otherwise ``scenario_count`` draws are
    taken from ``demand_configs`` using ``rng`` (or a generator derived from
    the config seed)."""
    if scenarios is None:
        if demand_configs is None:
            raise InputError("either scenarios or demand_configs must be given")
        if rng is None:
            rng = stream(saa.seed, TAG_SAA_SCENARIO)
        model = DemandModel(tuple(demand_configs))
        scenarios = [model.sample_day(rng) for _ in range(saa.scenario_count)]
    scenarios = [np.asarray(s, dtype=np.int64) for s in scenarios]

    lp = build_saa(state, scenarios, costs)
    sol: LpSolution = solve_lp(lp)
    if sol.status != "optimal":
        raise InternalError(
            f"scenario LP reported {sol.status}; the zero decision is always feasible"
        )
    h, m = state.n_hospitals, state.max_age
    first = sol.x[: decision_length(h, m)]
    integral = bool(np.max(np.abs(first - np.round(first))) < 1e-6)
    if saa.rounding == "nearest":
        ints = np.rint(first)
    else:
        ints = np.floor(first + 1e-9)
    ints = np.maximum(ints, 0.0).astype(np.int64)
    decision = repair(state, DecisionVector.from_flat(ints, h, m))
    breakdown = evaluate_decision(state, decision, scenarios, costs, issuing=issuing)
    return StageOneSolution(
        decision=decision,
        objective=breakdown.total,
        lp_objective=sol.objective,
        breakdown=breakdown,
        lp_integral=integral,
        scenarios=tuple(tuple(int(x) for x in s) for s in scenarios),
    )
