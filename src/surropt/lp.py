"""Dense linear programming by the primal simplex method.

Problems arrive in inequality form (row senses <=, ==, >= plus variable
bounds) and are converted to standard equalities with nonnegative variables.
A crash pass builds the starting basis from slack columns and structural
singleton columns, so LPs with an obvious feasible point (like the
scenario programs built by the two-stage solver) skip phase one entirely.

Pivoting is deterministic.  The default rule prices by the most negative
reduced cost and falls back permanently to Bland's smallest-index rule after
a run of degenerate pivots, which preserves the anti-cycling guarantee;
``pivot_rule="bland"`` forces the textbook rule throughout.  Identical
inputs always produce the identical pivot sequence.

Equal-cost optima are broken by a fixed rule: the returned point is the
lexicographically smallest point of the optimal face (within ``COST_TOL``),
taken over the standard-form structural columns in order.  For nonnegative
variables that is the variables' own order.  The point therefore does not
depend on ``pivot_rule`` or on the path the pivots took.

Tolerances: primal feasibility 1e-7, reduced-cost optimality 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, InternalError, ResourceLimitError

FEAS_TOL = 1e-7
COST_TOL = 1e-9
PIVOT_TOL = 1e-9
STALL_LIMIT = 100  # degenerate pivots before switching to Bland's rule

SENSES = ("<=", "==", ">=")


def _pivot_kernel(T, r, j):
    # Only rows with a nonzero in column j and columns with a nonzero in row r
    # change; elsewhere the dense rank-one update subtracts a zero.  The
    # scenario tableaux are sparse, so that block is a small part of T.
    T[r] = T[r] / T[r, j]
    rows = np.flatnonzero(T[:, j])
    rows = rows[rows != r]
    cols = np.flatnonzero(T[r])
    T[np.ix_(rows, cols)] -= np.outer(T[rows, j], T[r, cols])
    T[:, j] = 0.0
    T[r, j] = 1.0


@dataclass(frozen=True)
class LinearProgram:
    """min (or max) c.x subject to row senses on A x vs b and bounds on x."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    senses: tuple
    lower: np.ndarray = None
    upper: np.ndarray = None
    maximize: bool = False

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float)
        n = c.size
        m = b.size
        if A.shape != (m, n):
            raise InputError(f"A must be {m}x{n}, got {A.shape}")
        senses = tuple(self.senses)
        if len(senses) != m or any(s not in SENSES for s in senses):
            raise InputError(f"senses must be one of {SENSES} per row")
        lower = np.zeros(n) if self.lower is None else np.asarray(self.lower, dtype=float)
        upper = np.full(n, np.inf) if self.upper is None else np.asarray(self.upper, dtype=float)
        if lower.shape != (n,) or upper.shape != (n,):
            raise InputError("bounds must match the variable count")
        if np.any(lower > upper):
            raise InputError("lower bounds must not exceed upper bounds")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise InputError("c, A, b must be finite")
        if np.any(np.isposinf(lower)) or np.any(np.isneginf(upper)):
            raise InputError("bounds may not be infinite in the wrong direction")
        for name, arr in (("c", c), ("A", A), ("b", b), ("lower", lower), ("upper", upper)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "senses", senses)

    @property
    def n_vars(self) -> int:
        return self.c.size

    @property
    def n_rows(self) -> int:
        return self.b.size


@dataclass(frozen=True)
class LpSolution:
    status: str                 # optimal | infeasible | unbounded
    x: np.ndarray = None
    objective: float = None
    iterations: int = 0


class _Standardizer:
    """Rewrites an LP as min c.x, A x = b, x >= 0, b >= 0 and remembers how
    to map a standard-form point back onto the original variables.

    A variable with a finite lower bound becomes ``x - lower`` (plus a row
    ``x - lower <= upper - lower`` when the upper bound is finite too), one
    with only an upper bound ``upper - x``, and a free one the difference of
    two columns.  Standard column k stands for ``col_sign[k]`` times original
    variable ``source[k]``, less its ``offset``."""

    def __init__(self, lp: LinearProgram):
        n, m0 = lp.n_vars, lp.n_rows
        sign = -1.0 if lp.maximize else 1.0
        has_lower = np.isfinite(lp.lower)
        upper_only = ~has_lower & np.isfinite(lp.upper)
        free = ~has_lower & ~upper_only
        boxed = has_lower & np.isfinite(lp.upper)
        width = np.where(free, 2, 1)
        self.source = np.repeat(np.arange(n), width)
        first = np.cumsum(width) - width  # each variable's first standard column
        self.col_sign = np.ones(self.source.size)
        self.col_sign[first[upper_only]] = -1.0
        self.col_sign[first[free] + 1] = -1.0
        # -0.0 adds exactly nothing, so a free variable restores to the bits
        # of x_plus - x_minus
        self.offset = np.where(has_lower, lp.lower, np.where(upper_only, lp.upper, -0.0))

        # b - A[:, j] * offset[j], one shifted variable after the other
        terms = np.vstack([lp.b, lp.A.T[~free]])
        terms[1:] *= self.offset[~free, None]
        rhs = np.concatenate([np.subtract.reduce(terms, axis=0), (lp.upper - lp.lower)[boxed]])
        senses = np.array(lp.senses + ("<=",) * int(boxed.sum()), dtype="U2")
        # +1: slack column, -1: surplus column, 0: none
        slack = (senses == "<=").astype(float) - (senses == ">=")

        # negate the rows with a negative rhs (bound rows never have one)
        row_sign = np.where(rhs < 0, -1.0, 1.0)
        rhs *= row_sign
        slack *= row_sign

        m, n_struct = rhs.size, self.source.size
        slack_rows = np.flatnonzero(slack)
        self.A = np.zeros((m, n_struct + slack_rows.size))
        self.A[:m0, :n_struct] = lp.A[:, self.source] * self.col_sign * row_sign[:m0, None]
        self.A[np.arange(m0, m), first[boxed]] = 1.0
        self.A[slack_rows, n_struct + np.arange(slack_rows.size)] = slack[slack_rows]
        self.b = rhs
        self.c = np.zeros(self.A.shape[1])
        self.c[:n_struct] = sign * lp.c[self.source] * self.col_sign

    def restore(self, x_std: np.ndarray) -> np.ndarray:
        x = self.offset.copy()
        np.add.at(x, self.source, self.col_sign * x_std[: self.source.size])
        return x


def _crash_basis(A, b):
    """Choose a starting basis: for each row, the first column whose support
    is that row alone, with a positive entry (the row is rescaled to make it a
    unit column).  Rows left uncovered (-1) get artificials."""
    m, n = A.shape
    basis = np.full(m, -1, dtype=np.int64)
    if m == 0:
        return basis
    support = A != 0.0
    row = np.argmax(support, axis=0)
    singleton = (support.sum(axis=0) == 1) & (A[row, np.arange(n)] > PIVOT_TOL)
    cols = np.flatnonzero(singleton)
    rows, firsts = np.unique(row[cols], return_index=True)
    cols = cols[firsts]
    scale = np.ones(m)  # x / 1.0 is exactly x
    scale[rows] = A[rows, cols]
    A /= scale[:, None]
    b /= scale
    basis[rows] = cols
    return basis


def _simplex_loop(T, basis, allowed, pivot_rule, max_pivots, start_iter):
    """Run pivots until optimal/unbounded/caps; returns (status, iterations)."""
    m = basis.size
    iters = start_iter
    bland = pivot_rule == "bland"
    stall = 0
    last_obj = T[-1, -1]
    while True:
        rc = T[-1, :-1]
        if bland:
            cand = np.flatnonzero((rc < -COST_TOL) & allowed)
            if cand.size == 0:
                return "optimal", iters
            j = int(cand[0])
        else:
            masked = np.where(allowed, rc, 0.0)
            j = int(np.argmin(masked))
            if masked[j] >= -COST_TOL:
                return "optimal", iters
        col = T[:m, j]
        rhs = T[:m, -1]
        eligible = col > PIVOT_TOL
        if not np.any(eligible):
            return "unbounded", iters
        ratios = np.where(eligible, np.maximum(rhs, 0.0) / np.where(eligible, col, 1.0), np.inf)
        rmin = ratios.min()
        ties = np.flatnonzero(ratios <= rmin + 1e-12)
        r = int(ties[np.argmin(basis[ties])])
        _pivot_kernel(T, r, j)
        basis[r] = j
        iters += 1
        if iters >= max_pivots:
            raise ResourceLimitError(f"simplex exceeded {max_pivots} pivots")
        if not bland:
            # T[-1, -1] holds the negated objective, so progress pushes it up
            obj = T[-1, -1]
            if obj <= last_obj + 1e-12:
                stall += 1
                if stall >= STALL_LIMIT:
                    bland = True
            else:
                stall = 0
            last_obj = obj


def _lexicographic_min(T, basis, allowed, n_struct, pivot_rule, max_pivots, start_iter):
    """From an optimal phase-2 tableau, move to the lexicographically smallest
    optimal point over structural columns 0..n_struct-1; returns the pivot
    count.

    For k = 0, 1, ... it minimises x_k, entering only columns whose reduced
    cost is zero in the primary objective and in every earlier x_j
    objective.  Such pivots leave those cost rows, and so the optimal value
    and the earlier minima, unchanged; the primary row in ``T`` is
    overwritten.  It stops as soon as no nonbasic column has a zero reduced
    cost, at once when the optimal face is a single point."""
    iters = start_iter
    face = allowed & (np.abs(T[-1, :-1]) <= COST_TOL)
    for k in range(n_struct):
        nonbasic = face.copy()
        nonbasic[basis] = False
        if not nonbasic.any():
            break
        rows = np.flatnonzero(basis == k)
        if rows.size == 0:
            face[k] = False  # nonbasic, so already at its least value 0
            continue
        # cost row of min x_k: e_k less the row where x_k is basic
        T[-1] = -T[rows[0]]
        T[-1, k] = 0.0
        status, iters = _simplex_loop(T, basis, face, pivot_rule, max_pivots, iters)
        if status != "optimal":
            raise InternalError("a nonnegative variable cannot be unbounded below")
        face &= np.abs(T[-1, :-1]) <= COST_TOL
    return iters


def solve_lp(lp: LinearProgram, max_pivots: int = 1_000_000, pivot_rule: str = "auto") -> LpSolution:
    """Solve to optimality, or report infeasible/unbounded.

    An optimal solve returns the lexicographically smallest optimal point
    (within ``COST_TOL``) over the standard-form structural columns, which
    for nonnegative variables is ``x`` itself in index order, so equal-cost
    optima are broken the same way under either ``pivot_rule``.

    Raises ResourceLimitError if the pivot cap is exhausted and InputError
    for malformed problems.
    """
    if pivot_rule not in ("auto", "bland"):
        raise InputError(f"pivot_rule must be 'auto' or 'bland', got {pivot_rule!r}")
    std = _Standardizer(lp)
    A, b, c = std.A, std.b, std.c
    m, n = A.shape

    basis = _crash_basis(A, b)
    art_rows = np.flatnonzero(basis < 0)
    n_art = art_rows.size
    total_cols = n + n_art
    T = np.zeros((m + 1, total_cols + 1))
    T[:m, :n] = A
    T[:m, -1] = b
    T[art_rows, n + np.arange(n_art)] = 1.0
    basis[art_rows] = n + np.arange(n_art)
    allowed = np.ones(total_cols, dtype=bool)
    iterations = 0

    if n_art:
        # phase 1: minimize the artificial sum
        phase_cost = np.zeros(total_cols)
        phase_cost[n:] = 1.0
        T[-1, :-1] = phase_cost
        T[-1, -1] = 0.0
        T[-1] = np.subtract.reduce(np.vstack([T[-1:], T[art_rows]]), axis=0)
        status, iterations = _simplex_loop(T, basis, allowed, pivot_rule, max_pivots, iterations)
        if status != "optimal":
            raise InternalError("phase 1 cannot be unbounded")
        if -T[-1, -1] > FEAS_TOL * max(1.0, np.abs(b).max()):
            return LpSolution(status="infeasible", iterations=iterations)
        # drive remaining artificials out of the basis
        drop_rows = []
        for i in range(m):
            if basis[i] >= n:
                row = T[i, :n]
                pivots = np.flatnonzero(np.abs(row) > FEAS_TOL)
                if pivots.size:
                    _pivot_kernel(T, i, int(pivots[0]))
                    basis[i] = int(pivots[0])
                    iterations += 1
                else:
                    drop_rows.append(i)
        if drop_rows:
            keep = np.setdiff1d(np.arange(m), drop_rows)
            T = np.vstack([T[keep], T[-1:]])
            basis = basis[keep]
            m = keep.size
        allowed[n:] = False

    # phase 2 cost row: c less c_B times each basic row, one row after the other
    T[-1, :] = 0.0
    T[-1, :n] = c
    c_basic = np.append(c, 0.0)[np.minimum(basis, n)]
    priced = np.flatnonzero(c_basic)
    terms = np.vstack([T[-1:], T[priced]])
    terms[1:] *= c_basic[priced, None]
    T[-1] = np.subtract.reduce(terms, axis=0)
    status, iterations = _simplex_loop(T, basis, allowed, pivot_rule, max_pivots, iterations)
    if status == "unbounded":
        return LpSolution(status="unbounded", iterations=iterations)
    iterations = _lexicographic_min(
        T, basis, allowed, std.source.size, pivot_rule, max_pivots, iterations
    )

    x_std = np.zeros(n)
    structural = basis < n
    x_std[basis[structural]] = T[:m, -1][structural]
    x = std.restore(x_std)
    objective = float(lp.c @ x)
    _verify(lp, x)
    return LpSolution(status="optimal", x=x, objective=objective, iterations=iterations)


def _verify(lp: LinearProgram, x: np.ndarray) -> None:
    scale = max(1.0, float(np.abs(lp.b).max()) if lp.n_rows else 1.0)
    resid = lp.A @ x - lp.b
    senses = np.asarray(lp.senses)
    tol = FEAS_TOL * scale
    ok = np.where(
        senses == "<=", resid <= tol, np.where(senses == ">=", resid >= -tol, np.abs(resid) <= tol)
    )
    bad = np.flatnonzero(~ok)
    if bad.size:
        raise InternalError(f"optimal point violates row {bad[0]} by {resid[bad[0]]:.3e}")
    if np.any(x < lp.lower - FEAS_TOL * scale) or np.any(x > lp.upper + FEAS_TOL * scale):
        raise InternalError("optimal point violates variable bounds")
