"""Epsilon-insensitive support vector regression with an RBF kernel.

Each output is solved by sequential minimal optimization on the stacked
dual (positive and negative tube multipliers as one box-constrained vector
with a sum-to-zero coupling).  The working pair is the maximal violating
pair, and the solve stops when the KKT violation drops below ``tol``.  A
fit fails whole: the first output whose solve does not converge within the
iteration cap raises ResourceLimitError, and no model is built.

The penalty C may be a single value or a candidate list cross-validated
with shared folds; the default bandwidth is 1 / (n_features * Var(X)).

A model is five packed arrays, which its file holds: the distinct support
rows of all outputs, each once (the outputs share most of them, since every
support vector is a training row), found by the fit; and per output its
count of support vectors, their indices among those rows, their dual
coefficients, and its bias.  Prediction computes one RBF kernel between the
inputs and the distinct rows, whose squared norms the model keeps from its
construction, then takes each output's dot product over its own columns of
it, output by output.  Where the inputs and the support rows are whole
numbers, as the pipeline's inventory counts are, every squared distance is
exact, so each output gets the bits of a kernel against its own support
vectors alone.  On other float rows a kernel entry's matrix product can
round differently with the column's place, in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import InputError, ResourceLimitError
from .data import Dataset, cross_validate, read_cv_mse

DEFAULT_EPSILON = 0.1
_PACKED = ("rows", "sv_counts", "sv_rows", "dual", "bias")


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


def smo_solve(K, y, C, epsilon, tol=1e-3, max_iter=None):
    """Solve one output's dual; returns (beta, b, iterations, converged).

    beta are the per-sample dual coefficients (difference of the two tube
    multipliers), bounded by [-C, C] and summing to zero.
    """
    n = K.shape[0]
    if max_iter is None:
        max_iter = max(20_000, 300 * n)
    a = np.zeros(2 * n)                       # stacked multipliers, box [0, C]
    z = np.concatenate([np.ones(n), -np.ones(n)])
    # -z times the gradient of the dual objective, kept across iterations:
    # negation is exact, so -(G + x) is -G - x
    zg = -z * np.concatenate([epsilon - y, epsilon + y])
    sample = np.concatenate([np.arange(n), np.arange(n)])
    # who may move up or down; only a[i] and a[j] change, so only they are redone
    up = ((z > 0) & (a < C - 1e-12)) | ((z < 0) & (a > 1e-12))
    low = ((z > 0) & (a > 1e-12)) | ((z < 0) & (a < C - 1e-12))

    it = 0
    converged = False
    while it < max_iter:
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
        for k in (i, j):
            inner, outer = a[k] < C - 1e-12, a[k] > 1e-12
            up[k], low[k] = (inner, outer) if z[k] > 0 else (outer, inner)
        # dG_t = z_t * t * (K[sample(t), si] - K[sample(t), sj]), so each half
        # of -z G falls by t (K[:, si] - K[:, sj])
        step = (K[:, si] - K[:, sj]) * t
        zg[:n] -= step
        zg[n:] -= step
        it += 1

    beta = a[:n] - a[n:]
    # bias from free multipliers, else midpoint of the KKT interval
    free = (a > 1e-9) & (a < C - 1e-9)
    if free.any():
        b = float(np.mean(zg[free]))
    else:
        hi = np.max(np.where(up, zg, -np.inf)) if up.any() else 0.0
        lo = np.min(np.where(low, zg, np.inf)) if low.any() else 0.0
        b = float((hi + lo) / 2.0)
    return beta, b, it, converged


@dataclass
class SvrModel:
    """Output j owns the next ``sv_counts[j]`` entries of ``sv_rows`` (its
    support vectors, as indices into ``rows``) and of ``dual``, and
    ``bias[j]``.  Arrays that do not fit together raise ``ValueError``, and
    ``cv_mse`` is read by ``read_cv_mse``."""

    rows: np.ndarray              # (distinct rows, n_features)
    sv_counts: np.ndarray         # (outputs,) int64
    sv_rows: np.ndarray           # (support vectors,) int64 indices into rows
    dual: np.ndarray              # (support vectors,) dual coefficients
    bias: np.ndarray              # (outputs,)
    gamma: float
    epsilon: float
    C: float
    n_features: int
    cv_mse: dict = field(default_factory=dict)   # C -> mean CV MSE summed over outputs

    def __post_init__(self):
        rows, counts, sv_rows, dual, bias = self.rows, self.sv_counts, self.sv_rows, self.dual, self.bias
        if (
            rows.ndim != 2 or rows.shape[1] != self.n_features or rows.dtype.kind != "f"
            or counts.ndim != 1 or counts.dtype.kind != "i" or (counts < 0).any()
            or sv_rows.ndim != 1 or sv_rows.dtype.kind != "i" or dual.shape != sv_rows.shape
            or dual.dtype.kind != "f" or bias.shape != counts.shape or bias.dtype.kind != "f"
            or counts.sum() != sv_rows.size or (sv_rows < 0).any() or (sv_rows >= len(rows)).any()
        ):
            raise ValueError(f"{self.n_features} features and " + ", ".join(
                f"{a.dtype} {name} {a.shape}" for name, a in zip(_PACKED, (rows, counts, sv_rows, dual, bias))))
        self.cv_mse = read_cv_mse(self.cv_mse)
        self._rows_sq = np.sum(rows * rows, axis=1)
        self._spans = [slice(e - c, e) for c, e in zip(counts.tolist(), np.cumsum(counts).tolist())]
        self._terms = [(j, sv_rows[s], dual[s]) for j, s in enumerate(self._spans) if s.start < s.stop]

    @property
    def n_outputs(self) -> int:
        return self.sv_counts.size

    @property
    def coef(self) -> list:
        """Per output, its dual coefficients as a view of ``dual``."""
        return [self.dual[s] for s in self._spans]

    def predict(self, X) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise InputError(f"expected (N, {self.n_features}) inputs, got {X.shape}")
        out = np.tile(self.bias, (X.shape[0], 1))
        K = rbf_kernel(X, self.rows, self.gamma, self._rows_sq)
        for j, cols, coef in self._terms:
            # take gives a C-ordered block, as a kernel of its own would be, so
            # the product adds each row's terms in the same order
            out[:, j] += K.take(cols, axis=1) @ coef
        return out


def pack_support(support, coef, n_features: int) -> dict:
    """``SvrModel``'s arrays but ``bias`` from per-output support vectors,
    (n_sv, n_features) arrays, and their (n_sv,) dual coefficients."""
    rows, sv_rows = np.unique(np.concatenate([np.zeros((0, n_features)), *support]), axis=0, return_inverse=True)
    counts = np.array([len(c) for c in coef], dtype=np.int64)
    return dict(rows=rows, sv_counts=counts, sv_rows=sv_rows.reshape(-1), dual=np.concatenate([np.zeros(0), *coef]))


def _fit_all_outputs(X, Y, gamma, C, epsilon) -> SvrModel:
    """One SMO solve per output; raises ResourceLimitError at the first
    output that does not converge."""
    K = rbf_kernel(X, X, gamma)
    support, coefs, bias = [], [], []
    for j in range(Y.shape[1]):
        beta, b, _, converged = smo_solve(K, Y[:, j], C, epsilon)
        if not converged:
            raise ResourceLimitError(f"SMO did not converge within the iteration cap (output {j}, C={C})")
        sv = np.abs(beta) > 1e-9
        support.append(X[sv])
        coefs.append(beta[sv])
        bias.append(b)
    return SvrModel(**pack_support(support, coefs, X.shape[1]), bias=np.array(bias),
                    gamma=gamma, epsilon=epsilon, C=C, n_features=X.shape[1])


def fit_svr(
    data: Dataset,
    C=1.0,
    gamma: float = None,
    epsilon: float = DEFAULT_EPSILON,
    folds: int = 10,
    seed: int = 0,
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
            return _fit_all_outputs(X_train, Y_train, gamma, c, epsilon).predict(X_test)

        best, cv_mse = cross_validate(data, candidates, folds, seed, fold_predict)
    model = _fit_all_outputs(X, Y, gamma, best, epsilon)
    model.cv_mse = cv_mse
    return model
