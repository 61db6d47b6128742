"""Dense linear programming by the primal simplex method.

Problems arrive as ``min c.x`` over nonnegative variables, each row of
``A x`` held ``<=``, ``==`` or ``>=`` its ``b`` entry, and are written, as
standard equalities, straight into the one dense tableau a solve pivots on.
A crash pass builds the starting basis from slack columns and structural
singleton columns, so LPs with an obvious feasible point (like the scenario
programs built by the two-stage solver) skip phase one entirely.

Pivoting is deterministic.  The rule prices by the most negative reduced
cost and falls back permanently to Bland's smallest-index rule after
``STALL_LIMIT`` degenerate pivots in a row, which preserves the anti-cycling
guarantee.  Identical inputs always produce the identical pivot sequence.

Equal-cost optima are broken by a fixed rule: the returned point is the
lexicographically smallest point of the optimal face (within ``COST_TOL``),
taken over ``x`` in its own index order.  The point therefore does not
depend on the path the pivots took.

Tolerances: primal feasibility 1e-7, reduced-cost optimality 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    col, row = T[:, j], T[r]
    row /= row[j]
    rows = col.nonzero()[0]
    rows = rows[rows != r]
    cols = row.nonzero()[0]
    T[rows[:, None], cols] -= col[rows, None] * row[cols]
    col[:] = 0.0
    row[j] = 1.0


@dataclass(frozen=True)
class LinearProgram:
    """min c.x subject to row senses on A x vs b and x >= 0."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    senses: tuple

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
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise InputError("c, A, b must be finite")
        for name, arr in (("c", c), ("A", A), ("b", b)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "senses", senses)

    @property
    def n_vars(self) -> int:
        return self.c.size

    @property
    def n_rows(self) -> int:
        return self.b.size

    # the fixed form in general-LP terms, for solvers that take bounds and a
    # sense: every variable in [0, inf), minimised
    lower = property(lambda self: np.zeros(self.n_vars))
    upper = property(lambda self: np.full(self.n_vars, np.inf))
    maximize = property(lambda self: False)


@dataclass(frozen=True)
class LpSolution:
    status: str                 # optimal | infeasible | unbounded
    x: np.ndarray = None
    objective: float = None
    iterations: int = 0


def _tableau(lp: LinearProgram):
    """Write the LP's standard form, min c.x, A x = b, x >= 0, b >= 0, into a
    fresh simplex tableau that starts from a crash basis.

    Structural column k is variable k.  Slack and surplus columns follow the
    structural ones, and rows with a negative rhs are negated.

    The crash basis gives each row the first column whose only nonzero is a
    positive entry in that row, and divides the row by that entry.  Rows left
    uncovered get artificial columns, after the slack columns.

    Returns the tableau with an empty cost row, the basis and the phase-2
    cost of the standard columns."""
    m, n_struct = lp.n_rows, lp.n_vars
    senses = np.asarray(lp.senses, dtype="U2")
    # +1: slack column, -1: surplus column, 0: none
    slack = (senses == "<=").astype(float) - (senses == ">=")
    row_sign = np.where(lp.b < 0, -1.0, 1.0)
    slack_rows = np.flatnonzero(slack)
    n = n_struct + slack_rows.size

    # each column's crash row, or -1: the row of its only nonzero, if that is
    # positive
    support = lp.A != 0.0
    # argmax has no answer over zero rows
    top = support.argmax(axis=0) if m else np.zeros(n_struct, np.int64)
    crash_row = np.full(n_struct, -1)
    alone = np.flatnonzero(support.sum(axis=0) == 1)
    row = top[alone]
    positive = lp.A[row, alone] * row_sign[row] > PIVOT_TOL
    crash_row[alone[positive]] = row[positive]
    crash_row = np.append(crash_row, np.where(slack[slack_rows] * row_sign[slack_rows] > 0, slack_rows, -1))
    cols = np.flatnonzero(crash_row >= 0)
    rows, firsts = np.unique(crash_row[cols], return_index=True)
    basis = np.full(m, -1, dtype=np.int64)
    basis[rows] = cols[firsts]
    art_rows = np.flatnonzero(basis < 0)
    basis[art_rows] = n + np.arange(art_rows.size)

    T = np.zeros((m + 1, n + art_rows.size + 1))
    T[:m, :n_struct] = lp.A
    T[slack_rows, n_struct + np.arange(slack_rows.size)] = slack[slack_rows]
    T[:m, -1] = lp.b
    # negate and crash-scale each row in one pass: x / -s is exactly -(x / s),
    # and x / 1.0 is x
    divisor = row_sign.copy()
    divisor[rows] = T[rows, basis[rows]]
    T[:m] /= divisor[:, None]
    T[art_rows, basis[art_rows]] = 1.0
    c = np.zeros(n)
    c[:n_struct] = lp.c
    return T, basis, c


def _simplex_loop(T, basis, allowed, max_pivots, iters):
    """Run pivots from ``iters`` done until optimal/unbounded/caps; returns
    (status, iterations)."""
    bland, stall, last_obj = False, 0, T[-1, -1]
    # allowed reduced costs, 0 elsewhere and in a last entry for the empty LP
    masked = np.zeros(T.shape[1])
    while True:
        np.copyto(masked[:-1], T[-1, :-1], where=allowed)
        # Bland: the first improving column, or column 0 when none improves
        j = int((masked < -COST_TOL).argmax() if bland else masked.argmin())
        if masked[j] >= -COST_TOL:
            return "optimal", iters
        # ratio test over the column's positive entries only: the same pivots
        col = T[:-1, j]
        eligible = (col > PIVOT_TOL).nonzero()[0]
        if eligible.size == 0:
            return "unbounded", iters
        ratios = np.maximum(T[eligible, -1], 0.0) / col[eligible]
        ties = eligible[ratios <= ratios.min() + 1e-12]
        r = int(ties[basis[ties].argmin()])
        _pivot_kernel(T, r, j)
        basis[r] = j
        iters += 1
        if iters >= max_pivots:
            raise ResourceLimitError(f"simplex exceeded {max_pivots} pivots")
        if not bland:
            # T[-1, -1] holds the negated objective, so progress pushes it up
            stall = stall + 1 if T[-1, -1] <= last_obj + 1e-12 else 0
            bland, last_obj = stall >= STALL_LIMIT, T[-1, -1]


def _lexicographic_min(T, basis, allowed, n_struct, max_pivots, start_iter):
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
        status, iters = _simplex_loop(T, basis, face, max_pivots, iters)
        if status != "optimal":
            raise InternalError("a nonnegative variable cannot be unbounded below")
        face &= np.abs(T[-1, :-1]) <= COST_TOL
    return iters


def solve_lp(lp: LinearProgram, max_pivots: int = 1_000_000) -> LpSolution:
    """Solve min c.x over nonnegative x to optimality, or report
    infeasible/unbounded.

    An optimal solve returns the lexicographically smallest optimal point
    (within ``COST_TOL``) over ``x`` in index order, so equal-cost optima
    are broken the same way whatever path the pivots take.

    Raises ResourceLimitError if the pivot cap is exhausted and InputError
    for malformed problems.
    """
    T, basis, c = _tableau(lp)
    m, n, total_cols = basis.size, c.size, T.shape[1] - 1
    allowed = np.ones(total_cols, dtype=bool)
    iterations = 0

    if total_cols > n:
        # phase 1: minimize the artificial sum; infeasibility is measured
        # against the largest rhs of the crash-scaled standard form
        infeasible = FEAS_TOL * max(1.0, np.abs(T[:m, -1]).max())
        art_rows = np.flatnonzero(basis >= n)
        T[-1, n:-1] = 1.0
        for r in art_rows:
            T[-1] -= T[r]
        status, iterations = _simplex_loop(T, basis, allowed, max_pivots, iterations)
        if status != "optimal":
            raise InternalError("phase 1 cannot be unbounded")
        if -T[-1, -1] > infeasible:
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
    for r in np.flatnonzero(c_basic):
        T[-1] -= c_basic[r] * T[r]
    status, iterations = _simplex_loop(T, basis, allowed, max_pivots, iterations)
    if status == "unbounded":
        return LpSolution(status="unbounded", iterations=iterations)
    iterations = _lexicographic_min(T, basis, allowed, lp.n_vars, max_pivots, iterations)

    x_std = np.zeros(n)
    structural = basis < n
    x_std[basis[structural]] = T[:m, -1][structural]
    # 0.0 + turns a -0.0 into +0.0
    x = 0.0 + x_std[: lp.n_vars]
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
    if np.any(x < -FEAS_TOL * scale):
        raise InternalError("optimal point has a negative variable")
