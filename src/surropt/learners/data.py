"""Training data container, fold assignment and cross-validation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import InputError


@dataclass(frozen=True)
class Dataset:
    """Paired input/output matrices with the day index each row came from.

    Rows are chronological; Y holds oracle decisions and must therefore be
    nonnegative and finite.
    """

    X: np.ndarray
    Y: np.ndarray
    day: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        Y = np.asarray(self.Y, dtype=float)
        day = np.asarray(self.day, dtype=np.int64)
        if X.ndim != 2 or Y.ndim != 2:
            raise InputError("X and Y must be 2-d matrices")
        if not (X.shape[0] == Y.shape[0] == day.shape[0]):
            raise InputError(
                f"row counts differ: X {X.shape[0]}, Y {Y.shape[0]}, day {day.shape[0]}"
            )
        if not (np.all(np.isfinite(X)) and np.all(np.isfinite(Y))):
            raise InputError("dataset entries must be finite")
        if np.any(Y < 0):
            raise InputError("outputs must be nonnegative")
        for name, arr in (("X", X), ("Y", Y), ("day", day)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]

    @property
    def n_features(self) -> int:
        return self.X.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.Y.shape[1]

    def take(self, idx) -> "Dataset":
        return Dataset(self.X[idx], self.Y[idx], self.day[idx])


def kfold_split(n: int, folds: int = 10, seed: int = 0) -> np.ndarray:
    """Assign each of n indices to one of ``folds`` folds.

    Assignment is a seeded shuffle cut into contiguous chunks, so fold sizes
    differ by at most one and the same seed reproduces the same folds.
    """
    if folds < 1:
        raise InputError(f"folds must be >= 1, got {folds}")
    if n < folds:
        raise InputError(f"cannot split {n} rows into {folds} folds")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=(101,)))
    perm = rng.permutation(n)
    assignment = np.empty(n, dtype=np.int64)
    base = n // folds
    extra = n % folds
    start = 0
    for k in range(folds):
        size = base + (1 if k < extra else 0)
        assignment[perm[start : start + size]] = k
        start += size
    return assignment


def cross_validate(data: Dataset, candidates, folds: int, seed: int, fold_predict):
    """The candidate of least mean ``kfold_split`` MSE summed over outputs
    (ties to the smaller), and the candidate -> score map.

    ``fold_predict(candidate, X_train, Y_train, X_test)`` fits one fold and
    predicts its test rows.  A candidate whose fit raises ``LinAlgError`` is
    left out, and ``InputError`` is raised when none is left."""
    assignment = kfold_split(data.n_rows, folds=folds, seed=seed)
    cv_mse = {}
    for candidate in candidates:
        total = 0.0
        try:
            for k in range(folds):
                test = assignment == k
                pred = fold_predict(candidate, data.X[~test], data.Y[~test], data.X[test])
                total += float(np.mean((pred - data.Y[test]) ** 2) * data.n_outputs)
        except np.linalg.LinAlgError:
            continue
        cv_mse[candidate] = total / folds
    if not cv_mse:
        raise InputError("every candidate's fold fit left a linear system singular")
    return min(cv_mse, key=lambda c: (cv_mse[c], c)), cv_mse


def split_train_test(data: Dataset, train_fraction: float):
    """Chronological split: the first ceil(fraction * N) rows train."""
    if not 0.0 < train_fraction < 1.0:
        raise InputError(f"train_fraction must be in (0, 1), got {train_fraction}")
    cut = math.ceil(train_fraction * data.n_rows)
    idx = np.arange(data.n_rows)
    return data.take(idx[:cut]), data.take(idx[cut:])
