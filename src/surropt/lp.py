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


def dump_lp(lp: LinearProgram) -> str:
    """Fixed-layout text rendering of an LP, for bug reports."""
    lines = [f"{'max' if lp.maximize else 'min'} {lp.n_vars} vars, {lp.n_rows} rows"]
    lines.append("c: " + " ".join(f"{v:.12g}" for v in lp.c))
    for i in range(lp.n_rows):
        row = " ".join(f"{v:.12g}" for v in lp.A[i])
        lines.append(f"r{i}: {row} {lp.senses[i]} {lp.b[i]:.12g}")
    lines.append("lb: " + " ".join(f"{v:.12g}" for v in lp.lower))
    lines.append("ub: " + " ".join(f"{v:.12g}" for v in lp.upper))
    return "\n".join(lines)


class _Standardizer:
    """Rewrites an LP as min c.x, A x = b, x >= 0, b >= 0 and remembers how
    to map a standard-form point back onto the original variables."""

    def __init__(self, lp: LinearProgram):
        n = lp.n_vars
        sign = -1.0 if lp.maximize else 1.0
        c_orig = sign * lp.c

        cols = []        # columns of structural standard-form variables
        costs = []
        self.var_map = []  # per original var: (kind, data...)
        A = lp.A
        shift_b = np.array(lp.b, dtype=float)
        extra_rows = []  # (column_index, rhs) for residual upper bounds

        for j in range(n):
            lo, up = lp.lower[j], lp.upper[j]
            if np.isfinite(lo):
                shift_b -= A[:, j] * lo
                cols.append(A[:, j].copy())
                costs.append(c_orig[j])
                idx = len(cols) - 1
                self.var_map.append(("shift", idx, lo))
                if np.isfinite(up):
                    extra_rows.append((idx, up - lo))
            elif np.isfinite(up):
                # x = up - t with t >= 0
                shift_b -= A[:, j] * up
                cols.append(-A[:, j])
                costs.append(-c_orig[j])
                self.var_map.append(("neg", len(cols) - 1, up))
            else:
                cols.append(A[:, j].copy())
                costs.append(c_orig[j])
                cols.append(-A[:, j])
                costs.append(-c_orig[j])
                self.var_map.append(("free", len(cols) - 2, len(cols) - 1))

        n_struct = len(cols)
        m0 = lp.n_rows
        m = m0 + len(extra_rows)
        body = np.zeros((m, n_struct))
        if n_struct:
            body[:m0, :] = np.column_stack(cols) if cols else body[:m0, :]
        rhs = np.concatenate([shift_b, [r for _, r in extra_rows]]) if extra_rows else shift_b.copy()
        senses = list(lp.senses) + ["<="] * len(extra_rows)
        for k, (idx, _) in enumerate(extra_rows):
            body[m0 + k, idx] = 1.0

        # normalize to nonnegative rhs
        flip = rhs < 0
        body[flip] *= -1.0
        rhs = np.where(flip, -rhs, rhs)
        swap = {"<=": ">=", ">=": "<=", "==": "=="}
        senses = [swap[s] if f else s for s, f in zip(senses, flip)]

        # slack / surplus columns
        aug_cols = []
        aug_costs = []
        for i, s in enumerate(senses):
            if s == "<=":
                col = np.zeros(m)
                col[i] = 1.0
                aug_cols.append(col)
                aug_costs.append(0.0)
            elif s == ">=":
                col = np.zeros(m)
                col[i] = -1.0
                aug_cols.append(col)
                aug_costs.append(0.0)

        if aug_cols:
            body = np.hstack([body, np.column_stack(aug_cols)])
        self.A = body
        self.b = rhs
        self.c = np.concatenate([costs, aug_costs]) if aug_costs else np.asarray(costs, float)
        self.n_struct = n_struct
        self.n_orig = n
        self.sign = sign

    def restore(self, x_std: np.ndarray) -> np.ndarray:
        x = np.empty(self.n_orig)
        for j, spec in enumerate(self.var_map):
            kind = spec[0]
            if kind == "shift":
                x[j] = spec[2] + x_std[spec[1]]
            elif kind == "neg":
                x[j] = spec[2] - x_std[spec[1]]
            else:
                x[j] = x_std[spec[1]] - x_std[spec[2]]
        return x


def _crash_basis(A, b):
    """Choose a starting basis: slack columns first, then any unused column
    whose support is a single row with a positive entry (the row is rescaled
    to make it a unit column).  Rows left uncovered get artificials."""
    m, n = A.shape
    basis = np.full(m, -1, dtype=np.int64)
    nonzero_rows = [np.flatnonzero(np.abs(A[:, j]) > 0) for j in range(n)]
    taken = np.zeros(n, dtype=bool)
    # singleton columns indexed by their row
    for j in range(n):
        rows = nonzero_rows[j]
        if rows.size == 1:
            i = rows[0]
            if basis[i] < 0 and A[i, j] > PIVOT_TOL and not taken[j]:
                scale = A[i, j]
                A[i] /= scale
                b[i] /= scale
                basis[i] = j
                taken[j] = True
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


def solve_lp(lp: LinearProgram, max_pivots: int = 1_000_000, pivot_rule: str = "auto") -> LpSolution:
    """Solve to optimality, or report infeasible/unbounded.

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
    for k, i in enumerate(art_rows):
        T[i, n + k] = 1.0
        basis[i] = n + k
    allowed = np.ones(total_cols, dtype=bool)
    iterations = 0

    if n_art:
        # phase 1: minimize the artificial sum
        phase_cost = np.zeros(total_cols)
        phase_cost[n:] = 1.0
        T[-1, :-1] = phase_cost
        T[-1, -1] = 0.0
        for i in range(m):
            if basis[i] >= n:
                T[-1] -= T[i]
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

    # phase 2 cost row
    T[-1, :] = 0.0
    T[-1, :n] = c
    for i in range(m):
        j = basis[i]
        cj = c[j] if j < n else 0.0
        if cj != 0.0:
            T[-1] -= cj * T[i]
    status, iterations = _simplex_loop(T, basis, allowed, pivot_rule, max_pivots, iterations)
    if status == "unbounded":
        return LpSolution(status="unbounded", iterations=iterations)

    x_std = np.zeros(n)
    for i in range(m):
        if basis[i] < n:
            x_std[basis[i]] = T[i, -1]
    x = std.restore(x_std)
    objective = float(lp.c @ x)
    _verify(lp, x)
    return LpSolution(status="optimal", x=x, objective=objective, iterations=iterations)


def _verify(lp: LinearProgram, x: np.ndarray) -> None:
    scale = max(1.0, float(np.abs(lp.b).max()) if lp.n_rows else 1.0)
    ax = lp.A @ x
    for i, s in enumerate(lp.senses):
        resid = ax[i] - lp.b[i]
        ok = (
            resid <= FEAS_TOL * scale
            if s == "<="
            else resid >= -FEAS_TOL * scale
            if s == ">="
            else abs(resid) <= FEAS_TOL * scale
        )
        if not ok:
            raise InternalError(f"optimal point violates row {i} by {resid:.3e}")
    if np.any(x < lp.lower - FEAS_TOL * scale) or np.any(x > lp.upper + FEAS_TOL * scale):
        raise InternalError("optimal point violates variable bounds")
