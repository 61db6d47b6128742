"""Closed-form ridge regression with a cross-validated shared penalty.

The objective per output is the sum of squared errors plus lambda times the
squared coefficient norm, intercept excluded from the penalty.  All outputs
share one lambda, chosen to minimize the mean cross-validation MSE summed
over outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InputError
from .data import Dataset, cross_validate, read_cv_mse

DEFAULT_LAMBDAS = tuple(np.logspace(-3, 3, 13))


def check_lambdas(lambdas) -> list:
    """The penalty candidates, sorted; InputError unless one or more, each >= 0."""
    lambdas = sorted(float(l) for l in lambdas)
    if not lambdas or not all(l >= 0 for l in lambdas):
        raise InputError(f"lambda candidates must be one or more numbers >= 0, got {lambdas}")
    return lambdas


def solve_ridge(X, Y, lam: float) -> np.ndarray:
    """Minimize ||Z b - y||^2 + lam ||b_noint||^2 per output column, where
    Z is X behind a leading column of ones.

    Returns coefficients with shape (n_outputs, p + 1), intercept first.
    Raises numpy.linalg.LinAlgError when the normal matrix is singular.
    """
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    Z = np.column_stack([np.ones(X.shape[0]), X])
    penalty = np.eye(Z.shape[1]) * lam
    penalty[0, 0] = 0.0
    gram = Z.T @ Z + penalty
    coef = np.linalg.solve(gram, Z.T @ Y)
    if not np.all(np.isfinite(coef)):
        raise np.linalg.LinAlgError("non-finite ridge solution")
    return coef.T


@dataclass(frozen=True)
class RidgeModel:
    """Per-output coefficient rows (intercept first) at the selected lambda.
    A coef that is not a 2-D float array with an intercept column raises
    ``ValueError``, and ``cv_mse`` is read by ``read_cv_mse``."""

    coef: np.ndarray      # (n_outputs, n_features + 1)
    lam: float
    cv_mse: dict          # lambda -> mean CV MSE summed over outputs

    def __post_init__(self):
        if self.coef.ndim != 2 or self.coef.shape[1] < 1 or self.coef.dtype.kind != "f":
            raise ValueError(f"coef is a {self.coef.dtype} array of shape {self.coef.shape}")
        # F-ordered, as fitted: coef[:, 1:].T is then C-contiguous for loaded models too
        object.__setattr__(self, "coef", np.asfortranarray(self.coef))
        object.__setattr__(self, "cv_mse", read_cv_mse(self.cv_mse))

    @property
    def n_features(self) -> int:
        return self.coef.shape[1] - 1

    @property
    def n_outputs(self) -> int:
        return self.coef.shape[0]

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise InputError(f"expected (N, {self.n_features}) inputs, got {X.shape}")
        return X @ self.coef[:, 1:].T + self.coef[:, 0]


def fit_ridge(
    data: Dataset,
    lambdas=DEFAULT_LAMBDAS,
    folds: int = 10,
    seed: int = 0,
) -> RidgeModel:
    """Cross-validate the shared penalty, then solve in closed form.

    A singular normal matrix at lambda = 0 falls back to the smallest
    positive candidate.
    """
    if data.n_rows <= data.n_features + 1:
        raise InputError(
            f"need more rows ({data.n_rows}) than coefficients ({data.n_features + 1})"
        )
    lambdas = check_lambdas(lambdas)

    def fold_predict(lam, X, Y, X_test):
        coef = solve_ridge(X, Y, lam)
        return np.column_stack([np.ones(X_test.shape[0]), X_test]) @ coef.T

    best, cv_mse = cross_validate(data, lambdas, folds, seed, fold_predict)
    try:
        coef = solve_ridge(data.X, data.Y, best)
    except np.linalg.LinAlgError:
        positive = [l for l in lambdas if l > 0]
        if not positive:
            raise
        best = positive[0]
        coef = solve_ridge(data.X, data.Y, best)
    return RidgeModel(coef=coef, lam=best, cv_mse=cv_mse)
