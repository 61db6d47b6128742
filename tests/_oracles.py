"""Independent reference implementations used only by the tests.

Each oracle recomputes a quantity through a different route than the
package code it checks: basis enumeration instead of simplex pivoting,
projected gradient instead of SMO, first-principles cost accounting instead
of the simulator's bookkeeping, plain gradient descent instead of the
ridge normal equations, the explicit per-age scenario LP instead of the
hinge form, exhaustive enumeration instead of the LP oracle, and a
row-by-row, tree-by-tree walk instead of the packed GBDT forest.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from surropt.errors import InputError
from surropt.lp import LinearProgram
from surropt.simulate import DecisionVector
from surropt.two_stage import evaluate_decision

BRUTE_MAX_HOSPITALS = 2
BRUTE_MAX_AGE = 2
BRUTE_MAX_CAP = 5
BRUTE_MAX_ENUM = 200_000


def enumerate_lp_optimum(c, A, b, upper=None, maximize=False):
    """Optimal objective of min/max c.x s.t. A x <= b, 0 <= x <= upper by
    enumerating basic solutions of the slack-extended equality system.

    Only <= rows and nonnegative variables are supported; that is the shape
    the random acceptance instances use.  Returns (objective, x) or None if
    no feasible basic solution exists.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = c.size
    rows = [A]
    rhs = [b]
    if upper is not None:
        upper = np.asarray(upper, dtype=float)
        finite = np.flatnonzero(np.isfinite(upper))
        if finite.size:
            bound_rows = np.zeros((finite.size, n))
            bound_rows[np.arange(finite.size), finite] = 1.0
            rows.append(bound_rows)
            rhs.append(upper[finite])
    A_full = np.vstack(rows)
    b_full = np.concatenate(rhs)
    m = A_full.shape[0]
    # standard form: [A | I] z = b with z = (x, slacks) >= 0
    tableau = np.hstack([A_full, np.eye(m)])
    total = n + m
    best = None
    best_x = None
    sign = -1.0 if maximize else 1.0
    for basis in combinations(range(total), m):
        B = tableau[:, basis]
        try:
            z = np.linalg.solve(B, b_full)
        except np.linalg.LinAlgError:
            continue
        if np.any(z < -1e-9):
            continue
        x = np.zeros(total)
        x[list(basis)] = z
        val = sign * float(c @ x[:n])
        if best is None or val < best - 1e-12:
            best = val
            best_x = x[:n].copy()
    if best is None:
        return None
    return (best if not maximize else -best), best_x


def projected_gradient_svr_dual(K, y, C, epsilon, iters=40_000):
    """Minimize 0.5 a'Qa + p'a over the SVR dual box with sum-zero coupling.

    Uses projected gradient with a fixed 1/L step.  The projection onto
    {0 <= a <= C, z.a = 0} is clip(v - mu z, 0, C) at the root mu of the
    piecewise-linear, nonincreasing s(mu) = z.clip(v - mu z, 0, C); the root
    is found exactly by walking the sorted breakpoints of s.
    Returns the dual objective value and the beta vector.
    """
    n = K.shape[0]
    z = np.concatenate([np.ones(n), -np.ones(n)])
    p = np.concatenate([epsilon - y, epsilon + y])
    Q = np.outer(z, z) * np.vstack(
        [np.hstack([K, K]), np.hstack([K, K])]
    )
    lip = float(np.linalg.eigvalsh(Q).max()) + 1e-9
    step = 1.0 / lip
    # a_i(mu) moves linearly between C and 0 for mu in [z_i v_i + shift_i,
    # z_i v_i + shift_i + C]; inside that interval it adds -1 to the slope of s.
    shift = np.where(z > 0, -C, 0.0)
    slope_change = np.concatenate([-np.ones(2 * n), np.ones(2 * n)])

    def project(v):
        start = z * v + shift
        points = np.concatenate([start, start + C])
        order = np.argsort(points, kind="stable")
        points = points[order]
        slope = np.cumsum(slope_change[order])
        # s = n C left of every breakpoint (all z=+1 entries at C, the rest at 0)
        s = n * C + np.concatenate([[0.0], np.cumsum(slope[:-1] * np.diff(points))])
        k = int(np.argmax(s <= 0.0)) - 1
        mu = points[k] + s[k] / -slope[k]
        return np.clip(v - mu * z, 0.0, C)

    a = project(np.zeros(2 * n))
    for _ in range(iters):
        grad = Q @ a + p
        a_new = project(a - step * grad)
        if np.max(np.abs(a_new - a)) < 1e-12:
            a = a_new
            break
        a = a_new
    obj = float(0.5 * a @ Q @ a + p @ a)
    beta = a[:n] - a[n:]
    return obj, beta


def audit_total_cost(result, costs) -> float:
    """Recompute a horizon's total cost from states, decisions, and demands.

    Works from first principles: ordering and transshipment from the applied
    decision, issuance as min(demand, post-outbound stock), outdates from the
    unit-conservation residual, and holding from the next state's total.
    """
    total = 0.0
    for day in range(len(result.decisions)):
        before = result.states[day].units
        after = result.states[day + 1].units
        decision = result.decisions[day]
        demand = result.demands[day]
        ordered = int(decision.orders.sum())
        shipped = int(decision.transship.sum())
        on_hand = before - decision.transship.sum(axis=1)
        issued = np.minimum(np.asarray(demand), on_hand.sum(axis=1)).sum()
        shortage_units = int(np.asarray(demand).sum() - issued)
        outdated = int(before.sum()) + ordered - int(issued) - int(after.sum())
        total += (
            costs.ordering * ordered
            + costs.transship_unit * shipped
            + costs.shortage * shortage_units
            + costs.outdate * outdated
            + costs.holding * int(after.sum())
        )
    return total


def gradient_descent_ridge(X, Y, lam, iters=60_000, intercept=True):
    """Plain gradient descent on ||Z b - y||^2 + lam ||b_noint||^2."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    Z = np.column_stack([np.ones(X.shape[0]), X]) if intercept else X
    mask = np.ones(Z.shape[1])
    if intercept:
        mask[0] = 0.0
    gram = Z.T @ Z
    lip = 2.0 * (float(np.linalg.eigvalsh(gram).max()) + lam)
    step = 1.0 / lip
    B = np.zeros((Z.shape[1], Y.shape[1]))
    ZtY = Z.T @ Y
    for _ in range(iters):
        grad = 2.0 * (gram @ B - ZtY) + 2.0 * lam * (B * mask[:, None])
        B_new = B - step * grad
        if np.max(np.abs(B_new - B)) < 1e-13:
            B = B_new
            break
        B = B_new
    return B.T


def central_difference(fn, x, eps=1e-6):
    return (fn(x + eps) - fn(x - eps)) / (2.0 * eps)


def reference_gbdt_predict(model, X):
    """GbdtModel.predict one tree and one row at a time: each output starts
    at its base and adds its trees' leaf values in fit order, each row
    walked node by node (left when x[feature] <= threshold)."""
    X = np.asarray(X, dtype=float)
    out = np.tile(model.base, (X.shape[0], 1))
    for j, trees in enumerate(model.ensembles):
        for tree in trees:
            for r, row in enumerate(X):
                node = 0
                while tree.feature[node] >= 0:
                    go_left = row[tree.feature[node]] <= tree.threshold[node]
                    node = tree.left[node] if go_left else tree.right[node]
                out[r, j] += tree.value[node]
    return out


def lane_columns(h: int, m: int):
    """(sender, receiver, age) per lane column, in DecisionVector.flatten order."""
    return [(i, j, a) for i in range(h) for j in range(h) if j != i for a in range(m)]


def first_stage(state, costs):
    """The first stage written out loop by loop: its lanes, objective, and one
    stock-cap row per (hospital, age) slot over the first-stage columns."""
    h, m = state.n_hospitals, state.max_age
    lanes = lane_columns(h, m)
    d = h + len(lanes)
    c_fs = np.array([costs.ordering] * h + [costs.transship_unit] * len(lanes), dtype=float)
    rows = np.zeros((h * m, d))
    rhs = np.zeros(h * m)
    for i in range(h):
        for a in range(m):
            for k, (si, _, sa) in enumerate(lanes):
                if (si, sa) == (i, a):
                    rows[i * m + a, h + k] = 1.0
            rhs[i * m + a] = float(state.units[i, a])
    return lanes, c_fs, rows, rhs


def build_age_lp(state, scenarios, costs):
    """The scenario LP with explicit per-scenario issued y[i,m], leftover
    o[i,m] and shortage s[i] variables, post-receipt availability balance and
    demand balance.  Same first-stage columns as ``two_stage.build_saa``, and
    the same optimal value."""
    scenarios = [np.asarray(s, dtype=np.int64) for s in scenarios]
    h, m = state.n_hospitals, state.max_age
    lanes, c_fs, rows, rhs = first_stage(state, costs)
    d = c_fs.size
    ns = len(scenarios)
    weight = 1.0 / ns
    per_scn = 2 * h * m + h  # y block, o block, s block
    n_cols = d + ns * per_scn
    obj = np.zeros(n_cols)
    obj[:d] = c_fs

    def y_col(w, i, a):
        return d + w * per_scn + i * m + a

    def o_col(w, i, a):
        return d + w * per_scn + h * m + i * m + a

    def s_col(w, i):
        return d + w * per_scn + 2 * h * m + i

    all_rows = []
    for w, dem in enumerate(scenarios):
        for i in range(h):
            obj[s_col(w, i)] = weight * costs.shortage
            for a in range(m):
                rate = costs.outdate if a == m - 1 else costs.holding
                obj[o_col(w, i, a)] = weight * rate
                # availability: y + o - inbound - order[m=1] + outbound = units
                row = np.zeros(n_cols)
                row[y_col(w, i, a)] = 1.0
                row[o_col(w, i, a)] = 1.0
                if a == 0:
                    row[i] = -1.0
                for k, (si, sj, sa) in enumerate(lanes):
                    if sa != a:
                        continue
                    if sj == i:
                        row[h + k] -= 1.0
                    if si == i:
                        row[h + k] += 1.0
                all_rows.append((row, float(state.units[i, a]), "=="))
            # demand balance: sum_m y + s = demand
            row = np.zeros(n_cols)
            for a in range(m):
                row[y_col(w, i, a)] = 1.0
            row[s_col(w, i)] = 1.0
            all_rows.append((row, float(dem[i]), "=="))

    caps = np.hstack([rows, np.zeros((rows.shape[0], n_cols - d))])
    A = np.vstack([caps] + [row for row, _, _ in all_rows])
    b = np.concatenate([rhs, [bv for _, bv, _ in all_rows]])
    senses = ("<=",) * rows.shape[0] + tuple(s for _, _, s in all_rows)
    return LinearProgram(c=obj, A=A, b=b, senses=senses)


def brute_force_oracle(state, costs, scenarios, cap: int):
    """Exhaustive minimizer over integer decisions on tiny instances.

    Orders range over 0..cap; each lane over 0..min(cap, stock in its slot),
    which keeps every enumerated decision feasible because a slot has at
    most one outbound lane when H <= 2.  Ties go to the lexicographically
    smallest flattened decision.  Returns (decision, expected cost)."""
    h, m = state.n_hospitals, state.max_age
    if h > BRUTE_MAX_HOSPITALS or m > BRUTE_MAX_AGE:
        raise InputError(f"brute force capped at H<={BRUTE_MAX_HOSPITALS}, M<={BRUTE_MAX_AGE}")
    if cap < 0 or cap > BRUTE_MAX_CAP:
        raise InputError(f"per-variable cap must be in 0..{BRUTE_MAX_CAP}")
    scenarios = [np.asarray(s, dtype=np.int64) for s in scenarios]
    lanes = lane_columns(h, m)
    ranges = [range(cap + 1)] * h
    for (i, j, a) in lanes:
        ranges.append(range(min(cap, int(state.units[i, a])) + 1))
    size = 1
    for r in ranges:
        size *= len(r)
    if size > BRUTE_MAX_ENUM:
        raise InputError(f"enumeration of {size} decisions exceeds {BRUTE_MAX_ENUM}")

    best = None
    best_cost = np.inf
    for combo in product(*ranges):
        decision = DecisionVector.from_flat(np.asarray(combo, dtype=np.int64), h, m)
        cost = evaluate_decision(state, decision, scenarios, costs).total
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = decision
    return best, float(best_cost)
