"""The acceptance configuration that every workload runs on.

It mirrors ``accept_config`` in ``tests/test_acceptance.py``: four hospitals,
max age 11, 50 SAA scenarios in the compact LP form, a 90% chronological
training block, and the acceptance GBDT parameters.  The workloads run it
with the acceptance seed; ``make_data.py`` takes the seed as an argument.

Import this module only after ``run.prepare_process`` has put ``src`` on the
import path.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from surropt.learners.gbdt import GbdtParams
from surropt.losses import LossSpec
from surropt.pipeline import ExperimentConfig, LearnerSpec
from surropt.two_stage import SaaConfig

ACCEPT_SEED = 20240803
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

# (label, learner kind, loss kind) in the order the acceptance comparison uses.
SURROGATES = (
    ("ridge", "ridge", "mse"),
    ("svr", "svr", "mse"),
    ("gbdt-mse", "gbdt", "mse"),
    ("gbdt-mae", "gbdt", "mae"),
    ("gbdt-huber", "gbdt", "huber"),
)



def trajectory_csv(seed: int) -> Path:
    """Where make_data.py writes the 500-day oracle trajectory of a seed."""
    return Path(__file__).resolve().parent / "data" / f"trajectory_seed{seed}_{HORIZON_DAYS}d.csv"


# The stored input of the train and rollout workloads.
TRAJECTORY_CSV = trajectory_csv(ACCEPT_SEED)


def experiment_config(seed: int, kind: str = "ridge", loss: str = "mse") -> ExperimentConfig:
    return ExperimentConfig(
        seed=seed,
        horizon_days=HORIZON_DAYS,
        rollout_days=ROLLOUT_DAYS,
        train_fraction=0.9,
        saa=SaaConfig(scenario_count=50, seed=seed),
        learner=LearnerSpec(
            kind=kind,
            loss=LossSpec(loss, 1.0),
            gbdt=ACCEPT_GBDT,
            ridge_lambdas=tuple(np.logspace(-3, 3, 13)),
            svr_C=1.0,
        ),
    )
