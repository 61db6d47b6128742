"""Multi-output surrogate regressors mapping inventory states to decisions.

Three families are available, all trained one output at a time with shared
folds and hyperparameters: closed-form ridge regression with cross-validated
regularization, gradient-boosted trees with a pluggable loss, and
epsilon-insensitive support vector regression with an RBF kernel.
"""

from .data import Dataset, kfold_split, split_train_test
from .gbdt import GbdtModel, GbdtParams, fit_gbdt
from .ridge import DEFAULT_LAMBDAS, RidgeModel, fit_ridge, solve_ridge
from .store import load_model, save_model
from .svr import SvrModel, fit_svr

__all__ = [
    "Dataset",
    "kfold_split",
    "split_train_test",
    "RidgeModel",
    "fit_ridge",
    "solve_ridge",
    "DEFAULT_LAMBDAS",
    "GbdtModel",
    "GbdtParams",
    "fit_gbdt",
    "SvrModel",
    "fit_svr",
    "save_model",
    "load_model",
]
