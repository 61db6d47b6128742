"""surropt: learned surrogate policies for a perishable transshipment network.

The package couples a deterministic day-cycle simulator of a four-hospital
blood network with a scenario-based two-stage solver that produces benchmark
decisions, multi-output regressors (ridge, boosted trees with pluggable
losses, SVR) that imitate those decisions, and a rolling-horizon evaluator
that prices every policy by the holding, transshipment, outdate, ordering,
and shortage costs it induces.
"""

__version__ = "0.1.0"

from .demand import DemandModel, ZinbParams, default_demand_configs
from .errors import ConfigError, InputError, InternalError, ResourceLimitError, SurroptError
from .learners import Dataset, fit_gbdt, fit_ridge, fit_svr, load_model, save_model
from .learners.gbdt import GbdtParams
from .losses import LossSpec, leaf_optimal_value, loss_grad_hess, loss_value
from .lp import LinearProgram, LpSolution, solve_lp
from .pipeline import (
    ComparisonResult,
    ExperimentConfig,
    LearnerSpec,
    RolloutReport,
    compare_models,
    generate_dataset,
    postprocess_prediction,
    rollout,
    train_surrogate,
)
from .simulate import (
    CostBreakdown,
    CostParams,
    DecisionVector,
    InventoryState,
    ViolationLog,
    check_feasibility,
    repair,
    run_horizon,
    step,
)
from .two_stage import SaaConfig, StageOneSolution, build_saa, solve_stage_one
