"""End-to-end orchestration: generate labels with the two-stage solver,
train surrogates on the chronological training block, and evaluate policies
by rolling them forward in closed loop on paired demand streams.

Offline phase: each day records the current inventory as the input row,
solves the scenario program for the label row, then advances the state by
simulating the oracle decision against the day's realized demand.

Online phase: a policy (surrogate or oracle) is rolled over fresh demand
days; raw predictions are clamped, rounded, reshaped, checked, repaired,
and stepped, with violations logged and costs accumulated.  Policies being
compared always see bitwise-identical demand draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .demand import DemandModel, ZinbParams, default_demand_configs
from .errors import ConfigError, InputError
from .learners import Dataset, fit_gbdt, fit_ridge, fit_svr, split_train_test
from .learners.gbdt import GbdtParams
from .learners.ridge import DEFAULT_LAMBDAS, check_lambdas
from .learners.svr import check_svr
from .losses import LossSpec
from .simulate import (
    CostBreakdown,
    CostParams,
    DecisionVector,
    HorizonResult,
    InventoryState,
    run_horizon,
)
from .two_stage import MAX_COUNT_LIMIT, SaaConfig, solve_stage_one
from .util import (
    TAG_DATASET_DEMAND,
    TAG_ROLLOUT_DEMAND,
    TAG_SAA_SCENARIO,
    stream,
)

LEARNER_KINDS = ("ridge", "gbdt", "svr")

GENERATION_PHASE = 0
ROLLOUT_PHASE = 1

# Bounds the H x max_age state grid, so a mistyped age count fails as a
# config error instead of as an allocation; the day counts are held to
# MAX_COUNT_LIMIT for the same reason.
MAX_AGE_LIMIT = 1000


@dataclass(frozen=True)
class LearnerSpec:
    """Which surrogate to train and with what knobs."""

    kind: str = "ridge"
    loss: LossSpec = LossSpec("mse")
    gbdt: GbdtParams = GbdtParams()
    ridge_lambdas: tuple = DEFAULT_LAMBDAS
    svr_C: float | tuple = 1.0          # one value, or candidates to cross-validate
    svr_gamma: float | None = None      # None: the 1 / (n_features * Var(X)) default
    svr_epsilon: float = 0.1
    folds: int = 10

    def __post_init__(self):
        if self.kind not in LEARNER_KINDS:
            raise ConfigError(
                f"unknown learner kind {self.kind!r}; valid kinds: {', '.join(LEARNER_KINDS)}"
            )
        if self.folds < 2:
            raise ConfigError("folds must be >= 2")
        check_lambdas(self.ridge_lambdas)
        check_svr(self.svr_C, self.svr_gamma, self.svr_epsilon)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one experiment needs, seeded once."""

    seed: int = 0
    horizon_days: int = 500
    rollout_days: int = 200
    train_fraction: float = 0.9
    hospitals: tuple[ZinbParams, ...] = None  # demand of hospitals 1..H; None: the paper's four
    costs: CostParams = CostParams()
    saa: SaaConfig = SaaConfig()
    learner: LearnerSpec = LearnerSpec()
    max_age: int = 11
    initial_state: InventoryState = None

    def __post_init__(self):
        if self.hospitals is None:
            object.__setattr__(self, "hospitals", default_demand_configs())
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("horizon_days", "rollout_days"):
            if not 1 <= (days := getattr(self, name)) <= MAX_COUNT_LIMIT:
                raise ConfigError(f"{name} must be in 1..{MAX_COUNT_LIMIT}, got {days}")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError("train_fraction must be in (0, 1)")
        if not 1 <= self.max_age <= MAX_AGE_LIMIT:
            raise ConfigError(f"max_age must be in 1..{MAX_AGE_LIMIT}, got {self.max_age}")
        h = len(self.hospitals)
        if self.initial_state is None:
            object.__setattr__(self, "initial_state", InventoryState.zeros(h, self.max_age))
        st = self.initial_state
        if st.n_hospitals != h or st.max_age != self.max_age:
            raise ConfigError(
                f"initial_state is {st.n_hospitals}x{st.max_age}, expected {h}x{self.max_age}"
            )

    @property
    def n_hospitals(self) -> int:
        return len(self.hospitals)

    def demand_model(self) -> DemandModel:
        return DemandModel(self.hospitals)


class OraclePolicy:
    """Draws the day's scenarios from its own stream and solves the scenario
    program on them; the benchmark policy."""

    def __init__(self, config: ExperimentConfig, phase: int):
        self.config = config
        self.phase = phase
        self.demand = config.demand_model()

    def __call__(self, day: int, state: InventoryState) -> DecisionVector:
        cfg = self.config
        scenarios = self.demand.sample_day(stream(cfg.seed, TAG_SAA_SCENARIO, self.phase, day), cfg.saa.scenario_count)
        return solve_stage_one(state, scenarios, cfg.costs).decision


class SurrogatePolicy:
    """Predict, then post-process the raw vector into a valid decision."""

    def __init__(self, model, hospitals: int, max_age: int):
        self.model = model
        self.hospitals = hospitals
        self.max_age = max_age

    def __call__(self, day: int, state: InventoryState) -> DecisionVector:
        raw = self.model.predict(state.units.reshape(1, -1).astype(float))[0]
        return postprocess_prediction(raw, self.hospitals, self.max_age)


def postprocess_prediction(raw, hospitals: int, max_age: int) -> DecisionVector:
    """Clamp negatives, round half to even, and reshape into a decision."""
    raw = np.asarray(raw, dtype=float)
    # one reduction rejects NaN (max propagates it), +-inf and every value the
    # int64 cast below would wrap
    if not np.abs(raw).max(initial=0.0) < 2.0**63:
        raise InputError("raw predictions must be finite and inside the int64 range (|x| < 2**63)")
    ints = np.rint(np.maximum(raw, 0.0)).astype(np.int64)
    return DecisionVector.from_flat(ints, hospitals, max_age)


def generation_demands(config: ExperimentConfig, days: int = None) -> np.ndarray:
    days = config.horizon_days if days is None else days
    return config.demand_model().sample_day(stream(config.seed, TAG_DATASET_DEMAND), days)


def rollout_demands(config: ExperimentConfig, days: int = None) -> np.ndarray:
    days = config.rollout_days if days is None else days
    return config.demand_model().sample_day(stream(config.seed, TAG_ROLLOUT_DEMAND), days)


def oracle_generation_run(config: ExperimentConfig, days: int = None) -> HorizonResult:
    """The oracle trajectory that dataset generation records."""
    demands = generation_demands(config, days)
    policy = OraclePolicy(config, GENERATION_PHASE)
    return run_horizon(config.initial_state, policy, demands, config.costs)


def train_surrogate(config: ExperimentConfig, data: Dataset):
    """Fit the configured learner on the chronological training block."""
    spec = config.learner
    train, _ = split_train_test(data, config.train_fraction)
    if spec.kind == "ridge":
        return fit_ridge(train, lambdas=spec.ridge_lambdas, folds=spec.folds, seed=config.seed)
    if spec.kind == "gbdt":
        return fit_gbdt(train, spec.gbdt, spec.loss, seed=config.seed)
    return fit_svr(
        train,
        C=spec.svr_C,
        gamma=spec.svr_gamma,
        epsilon=spec.svr_epsilon,
        folds=spec.folds,
        seed=config.seed,
    )


@dataclass
class RolloutReport:
    """Costs, violations, and inventory distributions for one policy."""

    label: str
    days: int
    cost_sum: CostBreakdown
    cost_mean: CostBreakdown
    violations: int
    slots_checked: int
    inventory_summary: np.ndarray      # (H, M, 5): min, q1, median, q3, max
    violation_records: list = field(repr=False, default_factory=list)

    @property
    def violation_rate(self) -> float:
        return self.violations / self.slots_checked if self.slots_checked else 0.0


def summarize_inventory(states) -> np.ndarray:
    """Five-number summary of daily inventory levels per (hospital, age)."""
    stack = np.stack([s.units for s in states]).astype(float)
    return np.moveaxis(np.percentile(stack, [0, 25, 50, 75, 100], axis=0), 0, -1)


def report_from_run(label: str, result: HorizonResult) -> RolloutReport:
    return RolloutReport(
        label=label,
        days=result.days,
        cost_sum=result.cost_sum(),
        cost_mean=result.cost_mean(),
        violations=len(result.violations),
        slots_checked=result.slots_checked,
        inventory_summary=summarize_inventory(result.states[1:]),
        violation_records=list(result.violations),
    )


def rollout(config: ExperimentConfig, model, demands, label: str = "model") -> RolloutReport:
    """Closed-loop evaluation of a trained surrogate on the given demands."""
    policy = SurrogatePolicy(model, config.n_hospitals, config.max_age)
    result = run_horizon(config.initial_state, policy, demands, config.costs)
    return report_from_run(label, result)


@dataclass
class ComparisonResult:
    reports: list          # RolloutReport per policy, oracle last
    days: int

    # one row per policy: its mean cost per day by part, and its violations;
    # the text table leaves out the last column
    COLUMNS = ("policy", "holding", "transshipment", "outdate", "ordering", "shortage", "total",
               "violations", "violation_rate")

    def rows(self):
        return [
            dict(zip(self.COLUMNS, (r.label, *r.cost_mean.as_tuple(), r.cost_mean.total,
                                    r.violations, r.violation_rate)))
            for r in self.reports
        ]

    def table(self) -> str:
        """Aligned text table of average per-day costs, one policy per row."""
        headers = [name.capitalize() for name in self.COLUMNS[:-1]]
        rows = [
            [row["policy"], *(f"{row[name]:.2f}" for name in self.COLUMNS[1:-2]), str(row["violations"])]
            for row in self.rows()
        ]
        widths = [max(len(h), *(len(row[k]) for row in rows)) for k, h in enumerate(headers)]
        lines = ["  ".join(h.ljust(widths[k]) for k, h in enumerate(headers))]
        for row in rows:
            lines.append("  ".join(v.ljust(widths[k]) for k, v in enumerate(row)))
        return "\n".join(lines)


def compare_models(config: ExperimentConfig, models: dict) -> ComparisonResult:
    """Roll every model and the oracle over ``config.rollout_days`` days of
    one shared demand stream.

    All policies consume the identical demand array, so cost differences are
    attributable to the policies alone.
    """
    demands = rollout_demands(config)
    reports = [rollout(config, model, demands, label=name) for name, model in models.items()]
    result = run_horizon(config.initial_state, OraclePolicy(config, ROLLOUT_PHASE), demands, config.costs)
    reports.append(report_from_run("oracle", result))
    return ComparisonResult(reports=reports, days=len(demands))
