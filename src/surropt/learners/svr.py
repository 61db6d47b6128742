"""Epsilon-insensitive support vector regression with an RBF kernel.

Each output is solved by sequential minimal optimization on the stacked
dual (positive and negative tube multipliers as one box-constrained vector
with a sum-to-zero coupling).  The working pair is the maximal violating
pair, and the solve stops when the KKT violation drops below ``tol``.
Non-convergence within the iteration cap raises a resource error that
carries the best model found so far.

The penalty C may be a single value or a candidate list cross-validated
with shared folds; the default bandwidth is 1 / (n_features * Var(X)).

Prediction computes one RBF kernel between the inputs and the distinct
support rows of all outputs (the outputs share most of them, since every
support vector is a training row), whose squared norms the model keeps from
its construction, then takes each output's dot product over its own columns
of it, output by output.  Where the inputs and the support rows are whole
numbers, as the pipeline's inventory counts are, every squared distance is
exact, so each output gets the bits of a kernel against its own support
vectors alone.  On other float rows a kernel entry's matrix product can
round differently with the column's place, in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import InputError, ResourceLimitError
from .data import Dataset, cross_validate

DEFAULT_EPSILON = 0.1
DEFAULT_TOL = 1e-3


def rbf_kernel(A, B, gamma: float, B_sq=None) -> np.ndarray:
    """exp(-gamma |a - b|^2) for every row a of A and b of B; ``B_sq``, when
    given, holds the rows' squared norms ``np.sum(B * B, axis=1)``."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if B_sq is None:
        B_sq = np.sum(B * B, axis=1)
    sq = np.sum(A * A, axis=1)[:, None] + B_sq[None, :] - 2.0 * (A @ B.T)
    return np.exp(-gamma * np.maximum(sq, 0.0))


def scale_gamma(X) -> float:
    """1 / (n_features * variance of all feature values)."""
    X = np.asarray(X, dtype=float)
    var = float(X.var())
    if var <= 0:
        var = 1.0
    return 1.0 / (X.shape[1] * var)


def check_svr(C, gamma, epsilon) -> list:
    """C's candidates (one value, or a list to cross-validate) as floats; InputError
    unless each C and gamma (None: default) is finite and > 0 and epsilon >= 0."""
    candidates = [float(c) for c in np.ravel(C)]
    if not candidates:
        raise InputError("C needs at least one candidate value")
    for c in candidates:
        if not (np.isfinite(c) and c > 0):
            raise InputError(f"C must be finite and positive, got {c}")
    if gamma is not None and not (np.isfinite(gamma) and gamma > 0):
        raise InputError(f"gamma must be finite and positive, got {gamma}")
    if not epsilon >= 0:  # NaN fails it
        raise InputError(f"epsilon must be nonnegative, got {epsilon}")
    return candidates


def smo_solve(K, y, C, epsilon, tol=DEFAULT_TOL, max_iter=None):
    """Solve one output's dual; returns (beta, b, iterations, converged).

    beta are the per-sample dual coefficients (difference of the two tube
    multipliers), bounded by [-C, C] and summing to zero.
    """
    n = K.shape[0]
    if max_iter is None:
        max_iter = max(20_000, 300 * n)
    a = np.zeros(2 * n)                       # stacked multipliers, box [0, C]
    z = np.concatenate([np.ones(n), -np.ones(n)])
    p = np.concatenate([epsilon - y, epsilon + y])
    G = p.copy()                              # gradient of the dual objective
    sample = np.concatenate([np.arange(n), np.arange(n)])

    it = 0
    converged = False
    while it < max_iter:
        zg = -z * G
        up = ((z > 0) & (a < C - 1e-12)) | ((z < 0) & (a > 1e-12))
        low = ((z > 0) & (a > 1e-12)) | ((z < 0) & (a < C - 1e-12))
        if not up.any() or not low.any():
            converged = True
            break
        up_vals = np.where(up, zg, -np.inf)
        low_vals = np.where(low, zg, np.inf)
        i = int(np.argmax(up_vals))
        j = int(np.argmin(low_vals))
        m_val = up_vals[i]
        m_low = low_vals[j]
        if m_val - m_low <= tol:
            converged = True
            break
        si, sj = sample[i], sample[j]
        eta = K[si, si] + K[sj, sj] - 2.0 * K[si, sj]
        if eta < 1e-12:
            eta = 1e-12
        t = (m_val - m_low) / eta
        # box limits along the feasible direction a_i += z_i t, a_j -= z_j t
        hi_i = (C - a[i]) if z[i] > 0 else a[i]
        hi_j = a[j] if z[j] > 0 else (C - a[j])
        t = min(t, hi_i, hi_j)
        if t <= 0.0:
            converged = True
            break
        a[i] += z[i] * t
        a[j] -= z[j] * t
        # gradient update: dG_t = z_t * t * (K[sample(t), si] - K[sample(t), sj])
        col = K[:, si] - K[:, sj]
        G[:n] += col * t
        G[n:] -= col * t
        it += 1

    beta = a[:n] - a[n:]
    # bias from free multipliers, else midpoint of the KKT interval
    zg = -z * G
    free = (a > 1e-9) & (a < C - 1e-9)
    if free.any():
        b = float(np.mean(zg[free]))
    else:
        up = ((z > 0) & (a < C - 1e-12)) | ((z < 0) & (a > 1e-12))
        low = ((z > 0) & (a > 1e-12)) | ((z < 0) & (a < C - 1e-12))
        hi = np.max(np.where(up, zg, -np.inf)) if up.any() else 0.0
        lo = np.min(np.where(low, zg, np.inf)) if low.any() else 0.0
        b = float((hi + lo) / 2.0)
    return beta, b, it, converged


@dataclass
class SvrModel:
    """Per-output support vectors, dual coefficients, and bias.  Arrays that
    do not fit together (float arrays, one support set, coefficient vector
    and bias per output, each support vector of ``n_features`` entries and
    one coefficient per support vector) raise ``ValueError``.

    Construction also keeps the distinct support rows of all outputs, their
    squared norms and, per output with support vectors, its columns among
    them, so that ``predict`` computes one kernel and no norm of a support
    row."""

    support: list                 # per output: (n_sv, n_features) array
    coef: list                    # per output: (n_sv,) dual coefficients
    bias: np.ndarray              # per output
    gamma: float
    epsilon: float
    C: float
    n_features: int
    cv_mse: dict = field(default_factory=dict)

    def __post_init__(self):
        bias = self.bias
        if len(self.coef) != len(self.support) or bias.shape != (len(self.support),) or bias.dtype.kind != "f":
            raise ValueError(
                f"{len(self.support)} support sets, {len(self.coef)} coefficient vectors "
                f"and a {bias.dtype} bias of shape {bias.shape}"
            )
        for j, (sv, coef) in enumerate(zip(self.support, self.coef)):
            if (
                sv.ndim != 2 or sv.shape[1] != self.n_features or coef.shape != sv.shape[:1]
                or sv.dtype.kind != "f" or coef.dtype.kind != "f"
            ):
                raise ValueError(
                    f"output {j}: {sv.dtype} support vectors {sv.shape} and {coef.dtype} "
                    f"coefficients {coef.shape} for {self.n_features} features"
                )
        stacked = np.concatenate([np.zeros((0, self.n_features))] + list(self.support))
        self._rows, inverse = np.unique(stacked, axis=0, return_inverse=True)
        self._rows_sq = np.sum(self._rows * self._rows, axis=1)
        cols = np.split(inverse.reshape(-1), np.cumsum([sv.shape[0] for sv in self.support])[:-1])
        self._terms = [(j, c, coef) for j, (c, coef) in enumerate(zip(cols, self.coef)) if c.size]

    @property
    def n_outputs(self) -> int:
        return len(self.support)

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise InputError(f"expected (N, {self.n_features}) inputs, got {X.shape}")
        out = np.tile(self.bias, (X.shape[0], 1))
        K = rbf_kernel(X, self._rows, self.gamma, self._rows_sq)
        for j, cols, coef in self._terms:
            # take gives a C-ordered block, as a kernel of its own would be, so
            # the product adds each row's terms in the same order
            out[:, j] += K.take(cols, axis=1) @ coef
        return out


def _fit_all_outputs(X, Y, gamma, C, epsilon, tol, max_iter) -> SvrModel:
    """One SMO solve per output; raises ResourceLimitError, carrying the
    outputs fitted so far, at the first output that does not converge."""
    K = rbf_kernel(X, X, gamma)
    support, coefs, bias, converged = [], [], [], True
    for j in range(Y.shape[1]):
        beta, b, _, converged = smo_solve(K, Y[:, j], C, epsilon, tol, max_iter)
        sv = np.abs(beta) > 1e-9
        support.append(X[sv].copy())
        coefs.append(beta[sv].copy())
        bias.append(b)
        if not converged:
            break
    model = SvrModel(support, coefs, np.array(bias), gamma=gamma, epsilon=epsilon, C=C, n_features=X.shape[1])
    if not converged:
        raise ResourceLimitError(
            f"SMO did not reach the KKT tolerance within the iteration cap "
            f"(output {j}, C={C})",
            partial=model,
        )
    return model


def fit_svr(
    data: Dataset,
    C=1.0,
    gamma: float = None,
    epsilon: float = DEFAULT_EPSILON,
    folds: int = 10,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_iter: int = None,
) -> SvrModel:
    """Train one SMO solve per output at a fixed or cross-validated C.

    When C is a list, the shared value minimizing mean CV MSE summed over
    outputs is selected with ``folds`` folds before the final fit.
    """
    X, Y = data.X, data.Y
    candidates = check_svr(C, gamma, epsilon)
    tuned = np.ndim(C) > 0
    if gamma is None:
        gamma = scale_gamma(X)
    best, cv_mse = candidates[0], {}
    if tuned:
        def fold_predict(c, X_train, Y_train, X_test):
            return _fit_all_outputs(X_train, Y_train, gamma, c, epsilon, tol, max_iter).predict(X_test)

        best, cv_mse = cross_validate(data, candidates, folds, seed, fold_predict)
    model = _fit_all_outputs(X, Y, gamma, best, epsilon, tol, max_iter)
    model.cv_mse = cv_mse
    return model
