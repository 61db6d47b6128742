"""Independent reference implementations used only by the tests.

Each oracle recomputes a quantity through a different route than the
package code it checks: basis enumeration instead of simplex pivoting,
projected gradient instead of SMO, first-principles cost accounting instead
of the simulator's bookkeeping, plain gradient descent instead of the
ridge normal equations, the explicit per-age scenario LP instead of the
hinge form, one hinge row group per scenario instead of one per distinct
(hospital, demand) pair, exhaustive enumeration instead of the LP oracle, a
row-by-row, tree-by-tree walk instead of the packed GBDT forest, one RBF
kernel per output instead of one over all outputs' distinct support rows,
one-output, one-node-at-a-time recursive tree growth on its own
searchsorted bins instead of the level-wise GBDT grower and its threshold
comparisons, rational arithmetic instead of the integer quotients of the
largest-remainder repair, bisection of the Huber leaf constant instead of
the exact root, the rank bisection over each segment's merged and sorted
Huber breakpoints instead of a checked guess of the bracket, one day and
one scenario at a time with a slot-by-slot issuing loop instead of the
batched day-cycle kernel, and one fold at a time on index arrays instead
of the shared cross-validation loop.  The label replay rolls stored labels through the simulator so a
test can check that they reproduce the oracle run's costs, and
``nonnegative_form`` writes an LP with variable bounds and a sense in the
solver's nonnegative-min form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

import numpy as np

from surropt.errors import InputError, InternalError
from surropt.learners.data import kfold_split
from surropt.learners.gbdt import _NODE_ARRAYS, GbdtModel, Tree
from surropt.learners.svr import rbf_kernel
from surropt.losses import leaf_optimal_value, loss_grad_hess, loss_value
from surropt.lp import LinearProgram
from surropt.pipeline import generation_demands
from surropt.simulate import (
    CostBreakdown,
    DecisionVector,
    InventoryState,
    as_demand,
    decision_length,
    run_horizon,
)
from surropt.two_stage import evaluate_decision
from surropt.util import TAG_LEARNER, stream

BRUTE_MAX_HOSPITALS = 2
BRUTE_MAX_AGE = 2
BRUTE_MAX_CAP = 5
BRUTE_MAX_ENUM = 200_000


def enumerate_lp_optimum(c, A, b, upper=None):
    """Optimal objective of min c.x s.t. A x <= b, 0 <= x <= upper by
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
        val = float(c @ x[:n])
        if best is None or val < best - 1e-12:
            best = val
            best_x = x[:n].copy()
    if best is None:
        return None
    return best, best_x


def nonnegative_form(c, A, b, senses, lower=None, upper=None, maximize=False):
    """The LP min (or max) c.x subject to ``A x {senses} b`` and
    ``lower <= x <= upper``, rewritten as the equivalent nonnegative-min
    ``LinearProgram``; returns it with the map from its point back to x.

    A finite lower bound becomes a shift, ``x = lower + x'``; an upper-only
    bound ``x = upper - x'``; a free variable a column pair,
    ``x = x+ - x-``.  The upper bound of a lower-bounded variable becomes a
    row ``x' <= upper - lower``, and maximisation becomes ``min -c``.
    Missing bounds mean ``x >= 0``."""
    c = np.asarray(c, dtype=float)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    b = np.asarray(b, dtype=float)
    n = c.size
    lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=float)
    upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float)
    has_lower = np.isfinite(lower)
    upper_only = ~has_lower & np.isfinite(upper)
    free = ~has_lower & ~upper_only
    # x = offset + M x', one column of M per column of the new LP
    offset = np.where(has_lower, lower, np.where(upper_only, upper, 0.0))
    source = np.repeat(np.arange(n), np.where(free, 2, 1))
    M = np.zeros((n, source.size))
    M[source, np.arange(source.size)] = 1.0
    second = np.flatnonzero(np.diff(source, prepend=-1) == 0)  # x- of a free pair
    M[source[second], second] = -1.0
    M[upper_only] *= -1.0
    boxed = has_lower & np.isfinite(upper)
    lp = LinearProgram(
        c=(-1.0 if maximize else 1.0) * (c @ M),
        A=np.vstack([A @ M, M[boxed]]),
        b=np.concatenate([b - A @ offset, (upper - lower)[boxed]]),
        senses=tuple(senses) + ("<=",) * int(boxed.sum()),
    )
    return lp, lambda x: offset + M @ x


def dual_objective(K, y, beta, epsilon) -> float:
    """0.5 b'Kb + eps*sum|b| - y.b, the quantity ``svr.smo_solve`` minimizes."""
    beta = np.asarray(beta, dtype=float)
    return float(0.5 * beta @ K @ beta + epsilon * np.abs(beta).sum() - y @ beta)


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


def reference_repair(state, decision):
    """``simulate.repair`` slot by slot in exact rationals: the lanes of each
    slot that ships more than its stock get their quotas lane * stock / total
    floored, and the leftover units go one each by descending fractional
    part, ascending destination on ties."""
    ship = decision.transship.copy()
    h, m = state.units.shape
    for i, a in product(range(h), range(m)):
        lanes, stock = [int(v) for v in ship[i, :, a]], int(state.units[i, a])
        if sum(lanes) <= stock:
            continue
        quota = [Fraction(v * stock, sum(lanes)) for v in lanes]
        alloc = [math.floor(q) for q in quota]
        order = sorted(range(h), key=lambda j: (alloc[j] - quota[j], j))
        for j in order[: stock - sum(alloc)]:
            alloc[j] += 1
        ship[i, :, a] = alloc
    return DecisionVector(decision.orders.copy(), ship)


def _issue(on_hand, demand):
    """Units issued per (hospital, age) slot, oldest first."""
    h, m = on_hand.shape
    issued = np.zeros_like(on_hand)
    for i in range(h):
        need = int(demand[i])
        for a in range(m - 1, -1, -1):
            if need == 0:
                break
            take = min(int(on_hand[i, a]), need)
            issued[i, a] = take
            need -= take
    return issued


def reference_step(state, decision, demand, costs):
    """One simulated day, one slot at a time: (next_state, CostBreakdown)."""
    demand = np.asarray(demand, dtype=np.int64)
    if demand.shape != (state.n_hospitals,):
        raise InputError(f"demand must have shape ({state.n_hospitals},), got {demand.shape}")
    if np.any(demand < 0):
        raise InputError("demand must be nonnegative")

    outbound = decision.outbound()
    if np.any(outbound > state.units):
        raise InternalError("step received an infeasible decision; repair it first")

    ordering_cost = float(decision.orders.sum()) * costs.ordering
    transship_cost = float(decision.transship.sum()) * costs.transship_unit

    on_hand = state.units - outbound
    issued = _issue(on_hand, demand)
    unmet = demand - issued.sum(axis=1)
    shortage_cost = float(unmet.sum()) * costs.shortage

    end_of_day = on_hand - issued + decision.inbound()
    end_of_day[:, 0] += decision.orders

    outdated = end_of_day[:, -1]
    outdate_cost = float(outdated.sum()) * costs.outdate
    aged = np.zeros_like(end_of_day)
    aged[:, 1:] = end_of_day[:, :-1]
    holding_cost = float(aged.sum()) * costs.holding

    breakdown = CostBreakdown(
        holding=holding_cost,
        transshipment=transship_cost,
        outdate=outdate_cost,
        ordering=ordering_cost,
        shortage=shortage_cost,
    )
    return InventoryState(aged), breakdown


def reference_evaluate_decision(state, decision, scenarios, costs):
    """Expected cost of a feasible decision: one reference_step per scenario
    from the post-receipt inventory, recourse parts added in scenario order."""
    scenarios = list(scenarios)
    grid = state.units - decision.outbound() + decision.inbound()
    grid[:, 0] += decision.orders
    post = InventoryState(grid)
    zero = DecisionVector.zeros(state.n_hospitals, state.max_age)
    acc = (0.0,) * 5
    for dem in scenarios:
        _, br = reference_step(post, zero, dem, costs)
        acc = tuple(a + b for a, b in zip(acc, br.as_tuple()))
    mean = CostBreakdown(*acc).scaled(1.0 / len(scenarios))
    return CostBreakdown(
        holding=mean.holding,
        transshipment=float(decision.transship.sum()) * costs.transship_unit,
        outdate=mean.outdate,
        ordering=float(decision.orders.sum()) * costs.ordering,
        shortage=mean.shortage,
    )


def gradient_descent_ridge(X, Y, lam, iters=60_000):
    """Plain gradient descent on ||Z b - y||^2 + lam ||b_noint||^2, Z being X
    behind a column of ones."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    if Y.ndim == 1:
        Y = Y[:, None]
    Z = np.column_stack([np.ones(X.shape[0]), X])
    mask = np.ones(Z.shape[1])
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


def reference_cv_mse(data, candidates, folds, seed, fit_predict):
    """Mean k-fold MSE summed over outputs per candidate, one fold at a
    time on index arrays through ``Dataset.take``; a candidate whose fit
    ``fit_predict(candidate, train, X_test)`` raises ``LinAlgError`` on a
    fold has no entry."""
    assignment = kfold_split(data.n_rows, folds=folds, seed=seed)
    splits = [
        (data.take(np.flatnonzero(assignment != k)), data.take(np.flatnonzero(assignment == k)))
        for k in range(folds)
    ]
    scores = {}
    for candidate in candidates:
        fold_mse = []
        for train, test in splits:
            try:
                pred = fit_predict(candidate, train, test.X)
            except np.linalg.LinAlgError:
                break
            fold_mse.append(float(np.mean((pred - test.Y) ** 2) * data.n_outputs))
        else:
            total = 0.0
            for mse in fold_mse:
                total += mse
            scores[candidate] = total / folds
    return scores


def central_difference(fn, x, eps=1e-6):
    return (fn(x + eps) - fn(x - eps)) / (2.0 * eps)


def reference_huber_leaf(residuals, delta):
    """The Huber leaf constant by bisection, 64 halvings of the residual
    range: the derivative of sum huber(r - c) in c is -sum clip(r - c,
    -delta, delta), nondecreasing; bisect for its zero crossing."""
    r = np.asarray(residuals, dtype=float)
    lo = float(np.min(r))
    hi = float(np.max(r))
    if lo == hi:
        return lo
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        slope = -np.clip(r - mid, -delta, delta).sum()
        if slope < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_huber_roots(residuals, counts, delta):
    """Each segment's Huber leaf constant by the rank bisection over its
    merged, sorted breakpoints: the 2 * count values r - delta and r +
    delta of a segment are sorted together, and their ranks are bisected,
    keeping F(bp[lo]) > 0 >= F(bp[hi]) for F(c) = sum clip(r - c, -delta,
    delta), each segment's terms added in sorted order.  The exact root is
    then solved on the piece (bp[lo], bp[hi]), where F is linear."""
    r, counts, d = np.asarray(residuals, dtype=float), np.asarray(counts, dtype=np.int64), delta
    n, start = counts.size, np.cumsum(counts) - counts
    seg = np.repeat(np.arange(n), counts)
    s = r[np.lexsort((r, seg))]
    bp = np.concatenate([s - d, s + d])
    bp = bp[np.lexsort((bp, np.concatenate([seg, seg])))]
    # F is count * d at the first breakpoint and -count * d at the last
    lo, hi = 2 * start, 2 * (start + counts) - 1
    while (hi - lo > 1).any():
        mid = (lo + hi) // 2
        above = np.bincount(seg, np.clip(s - bp[mid][seg], -d, d), minlength=n) > 0
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    a, b = bp[lo], bp[hi]
    below, over = s + d <= a[seg], s - d >= b[seg]
    n_below, n_over = np.bincount(seg[below], minlength=n), np.bincount(seg[over], minlength=n)
    ref = s[start + np.minimum(n_below, counts - 1)]
    dev = np.bincount(seg, np.where(below | over, 0.0, s - ref[seg]), minlength=n)
    inside = np.maximum(counts - n_below - n_over, 1)
    root = np.clip(ref + (d * (n_over - n_below) + dev) / inside, a, b)
    # a flat stretch of roots: its left end
    half = start + counts // 2
    left, right = s[half - 1] + d, s[half] - d
    return np.where((counts % 2 == 0) & (left < right), left, root)


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


def support_rows(model):
    """Per output of an ``SvrModel``, its support vectors as rows."""
    end = np.cumsum(model.sv_counts)
    return [model.rows[model.sv_rows[e - c : e]] for c, e in zip(model.sv_counts, end)]


def reference_svr_predict(model, X):
    """SvrModel.predict one output at a time: each output adds to its bias
    the product of its own support vectors' kernel and its coefficients."""
    X = np.asarray(X, dtype=float)
    out = np.tile(model.bias, (X.shape[0], 1))
    for j, sv in enumerate(support_rows(model)):
        if sv.shape[0]:
            out[:, j] += rbf_kernel(X, sv, model.gamma) @ model.coef[j]
    return out


def apply_tree(tree, X):
    """The leaf value each row of X reaches in one tree, all rows stepped
    down a level at a time (left when x[feature] <= threshold)."""
    idx = np.zeros(X.shape[0], dtype=np.int64)
    rows = np.arange(X.shape[0])
    while (split := tree.feature[idx] >= 0).any():
        at = idx[split]
        go_left = X[rows[split], tree.feature[at]] <= tree.threshold[at]
        idx[split] = np.where(go_left, tree.left[at], tree.right[at])
    return tree.value[idx]


def _soft_threshold(G, l1):
    return np.sign(G) * np.maximum(np.abs(G) - l1, 0.0)


def _grow_tree(binned, thresholds, rows, feats, g, h, residual, loss, params, subtract):
    """Depth-first growth of one tree on the sampled rows and features.

    With ``subtract``, a split counts the cumulative histograms of its child
    with fewer rows (the left one on a tie) and gives the other child its
    own less that child's, cell by cell; without it, every node counts its
    own rows."""
    feature, threshold, left, right, value = [], [], [], [], []
    max_bins = params.max_bins
    offsets = (np.arange(feats.size) * max_bins).astype(np.int32)
    n_cells = feats.size * max_bins
    # bins beyond a feature's threshold list can never be split positions
    valid = np.zeros((feats.size, max_bins), dtype=bool)
    for k, f in enumerate(feats):
        valid[k, : thresholds[f].size] = True

    def new_node():
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        return len(feature) - 1

    def cumulative(node_rows):
        """The node's cumulative gradient and hessian sums, counted from its rows."""
        flat = (binned[node_rows][:, feats] + offsets[None, :]).ravel()
        hg = np.bincount(flat, weights=np.repeat(g[node_rows], feats.size), minlength=n_cells)
        hh = np.bincount(flat, weights=np.repeat(h[node_rows], feats.size), minlength=n_cells)
        return (np.cumsum(hg.reshape(feats.size, max_bins), axis=1),
                np.cumsum(hh.reshape(feats.size, max_bins), axis=1))

    def grow(node_rows, depth, hist=None):
        node = new_node()
        g_tot = float(g[node_rows].sum())
        h_tot = float(h[node_rows].sum())

        best = None
        if depth < params.max_depth and h_tot >= 2 * params.min_child_weight:
            gl, hl = cumulative(node_rows) if hist is None else hist
            gr = g_tot - gl
            hr = h_tot - hl
            side = np.minimum(hl, hr)
            ok = valid & (side >= params.min_child_weight) & (side > 0)
            parent = _soft_threshold(g_tot, params.l1) ** 2 / (h_tot + params.l2)
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = np.where(
                    ok,
                    _soft_threshold(gl, params.l1) ** 2 / (hl + params.l2)
                    + _soft_threshold(gr, params.l1) ** 2 / (hr + params.l2)
                    - parent,
                    -np.inf,
                )
            flat_best = int(np.argmax(gain))
            if gain.ravel()[flat_best] > 1e-12:
                best = divmod(flat_best, max_bins)

        if best is None:
            value[node] = params.eta * leaf_optimal_value(loss, residual[node_rows])
            return node
        k, b = best
        f = int(feats[k])
        go_left = binned[node_rows, f] <= b
        feature[node] = f
        threshold[node] = float(thresholds[f][b])
        kids = [node_rows[go_left], node_rows[~go_left]]
        hists = [None, None]
        if subtract:
            small = int(kids[1].size < kids[0].size)
            hists[small] = cumulative(kids[small])
            hists[1 - small] = tuple(p - c for p, c in zip((gl, hl), hists[small]))
        left[node] = grow(kids[0], depth + 1, hists[0])
        right[node] = grow(kids[1], depth + 1, hists[1])
        return node

    grow(rows, 0)
    return Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold, dtype=float),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value, dtype=float),
    )


def _fit_single_output(X, binned, thresholds, y, params, loss, rng, subtract):
    base = leaf_optimal_value(loss, y)
    pred = np.full(y.shape[0], base)
    n = y.shape[0]
    n_rows = max(1, int(round(params.subsample * n)))
    n_feats = max(1, int(round(params.colsample_bytree * X.shape[1])))
    all_rows = np.arange(n)
    all_feats = np.arange(X.shape[1])
    trees = []
    for _ in range(params.n_iterations):
        residual = y - pred
        if np.max(np.abs(residual)) < 1e-15:
            break
        g, hess = loss_grad_hess(loss, y, pred)
        # the gradients on the grid of 2**(ceil(log2(n * max|g|)) - 52), where every sum is exact
        mant, exp = math.frexp(n * float(np.max(np.abs(g))))
        step = math.ldexp(1.0, exp - (mant == 0.5) - 52)
        g = np.rint(g / step) * step
        # the hessian of each row, summed row by row below
        h = np.full_like(g, hess)
        rows = all_rows if n_rows == n else np.sort(rng.choice(n, size=n_rows, replace=False))
        feats = (
            all_feats
            if n_feats == X.shape[1]
            else np.sort(rng.choice(X.shape[1], size=n_feats, replace=False))
        )
        tree = _grow_tree(binned, thresholds, rows, feats, g, h, residual, loss, params, subtract)
        pred += apply_tree(tree, X)
        trees.append(tree)
    return base, trees, pred


def quantile_bins(X, max_bins):
    """Per feature, its candidate thresholds (the distinct quantiles at
    1/max_bins .. (max_bins-1)/max_bins that lie below the column's largest
    value), and the (rows, features) bins: the count of a feature's
    thresholds below each x."""
    thresholds = []
    for col in X.T:
        edges = np.unique(np.quantile(col, np.arange(1, max_bins) / max_bins))
        thresholds.append(edges[edges < col.max()])
    binned = np.column_stack([np.searchsorted(t, col, side="left") for t, col in zip(thresholds, X.T)])
    return thresholds, binned


def reference_fit_gbdt(data, params, loss, seed=0, subtract=True):
    """fit_gbdt one output at a time, each tree grown by depth-first
    recursion over its node's rows (nodes numbered in creation order) and
    each prediction update walked through the numeric thresholds; the
    per-output tree lists are then concatenated into the packed arrays.
    ``subtract=False`` counts every node's histograms from its own rows, the
    grower before sibling subtraction."""
    X = data.X
    thresholds, binned = quantile_bins(X, params.max_bins)
    base = np.empty(data.n_outputs)
    ensembles = []
    train_loss = np.empty(data.n_outputs)
    train_rmse = np.empty(data.n_outputs)
    for j in range(data.n_outputs):
        rng = stream(seed, TAG_LEARNER, j)
        b, trees, pred = _fit_single_output(
            X, binned, thresholds, data.Y[:, j], params, loss, rng, subtract
        )
        base[j] = b
        ensembles.append(trees)
        resid = data.Y[:, j] - pred
        train_loss[j] = float(np.mean(loss_value(loss, data.Y[:, j], pred)))
        train_rmse[j] = float(np.sqrt(np.mean(resid**2)))
    diagnostics = {
        "train_loss_mean": float(train_loss.mean()),
        "train_rmse_mean": float(train_rmse.mean()),
        "trees_per_output": [len(t) for t in ensembles],
    }
    trees = [t for output in ensembles for t in output]
    return GbdtModel(
        params=params,
        loss=loss,
        base=base,
        tree_counts=np.asarray(diagnostics["trees_per_output"], dtype=np.int64),
        node_counts=np.asarray([t.feature.size for t in trees], dtype=np.int64),
        **{
            a: np.concatenate([np.zeros(0, d)] + [getattr(t, a) for t in trees])
            for a, d in zip(_NODE_ARRAYS, (np.int32, float, np.int32, np.int32, float))
        },
        n_features=data.n_features,
        seed=seed,
        diagnostics=diagnostics,
    )


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


def build_per_scenario_lp(state, scenarios, costs):
    """The compact hinge LP with one recourse row group per (scenario,
    hospital), each weighted ``1 / S``, in scenario then hospital order.
    ``two_stage.build_saa`` merges the groups of equal (hospital, demand)
    pairs; this form keeps every scenario, with the same first-stage columns
    and cap rows, and must reach the same optimal value and first stage."""
    h, m = state.n_hospitals, state.max_age
    demand = as_demand(scenarios, h, batched=True)
    d = decision_length(h, m)
    sender, receiver = np.nonzero(~np.eye(h, dtype=bool))
    age = np.tile(np.arange(m), sender.size)
    sender, receiver = np.repeat(sender, m), np.repeat(receiver, m)
    lane_cols = h + np.arange(sender.size)
    on_hand = state.units.sum(axis=1).astype(float)
    on_hand_oldest = state.units[:, -1].astype(float)

    total = np.zeros((h, d))
    total[np.arange(h), np.arange(h)] = 1.0
    total[sender, lane_cols] = -1.0
    total[receiver, lane_cols] = 1.0
    oldest = np.zeros((h, d))
    if m == 1:
        oldest[np.arange(h), np.arange(h)] = 1.0
    last = age == m - 1
    oldest[sender[last], lane_cols[last]] = -1.0
    oldest[receiver[last], lane_cols[last]] = 1.0

    old_regime = costs.outdate >= costs.holding
    hinge_cost = costs.outdate - costs.holding if old_regime else costs.holding - costs.outdate
    weight = 1.0 / demand.shape[0]
    coeffs, stock = [total, total], [on_hand, on_hand]
    signs = [1.0, -1.0]
    rec_costs = [weight * costs.shortage, weight * (costs.holding if old_regime else costs.outdate)]
    if hinge_cost > 0.0:
        coeffs.append(oldest if old_regime else total - oldest)
        stock.append(on_hand_oldest if old_regime else on_hand - on_hand_oldest)
        signs.append(-1.0)
        rec_costs.append(weight * hinge_cost)
    per_pair = len(coeffs)
    pairs = demand.size
    block = np.stack(coeffs, axis=1).reshape(h * per_pair, d)
    rhs = demand.astype(float)[:, :, None] - np.stack(stock, axis=1)

    n_cap = h * m if h > 1 else 0
    n_rec = per_pair * pairs
    A = np.zeros((n_cap + n_rec, d + n_rec))
    A[sender * m + age, lane_cols] = 1.0
    A[n_cap:, :d] = np.tile(block, (demand.shape[0], 1))
    A[n_cap + np.arange(n_rec), d + np.arange(n_rec)] = np.tile(signs, pairs)
    b = np.concatenate([state.units.reshape(-1)[:n_cap].astype(float), rhs.reshape(-1)])
    c = np.concatenate([
        np.repeat([costs.ordering, costs.transship_unit], [h, d - h]),
        np.tile(rec_costs, pairs),
    ])
    senses = ("<=",) * n_cap + (">=", "<=", "<=")[:per_pair] * pairs
    return LinearProgram(c=c, A=A, b=b, senses=senses)


def _brute_force_costs(state, costs, scenarios, cap: int):
    """(decision, expected cost) of every integer decision in the box, the
    flattened decisions in lexicographic order.

    Orders range over 0..cap; each lane over 0..min(cap, stock in its slot),
    which keeps every enumerated decision feasible because a slot has at
    most one outbound lane when H <= 2."""
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
    for combo in product(*ranges):
        decision = DecisionVector.from_flat(np.asarray(combo, dtype=np.int64), h, m)
        yield decision, evaluate_decision(state, decision, scenarios, costs).total


def brute_force_oracle(state, costs, scenarios, cap: int):
    """Exhaustive minimizer over integer decisions on tiny instances (the
    box of ``_brute_force_costs``).  Ties go to the lexicographically
    smallest flattened decision.  Returns (decision, expected cost)."""
    best = None
    best_cost = np.inf
    for decision, cost in _brute_force_costs(state, costs, scenarios, cap):
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = decision
    return best, float(best_cost)


def brute_force_optima(state, costs, scenarios, cap: int, tol: float = 1e-9):
    """Every decision of the box whose expected cost is within ``tol`` of the
    least; one decision when the optimum is unique."""
    found = list(_brute_force_costs(state, costs, scenarios, cap))
    least = min(cost for _, cost in found)
    return [decision for decision, cost in found if cost <= least + tol]


class LabelReplayPolicy:
    """Replays stored oracle labels by day index."""

    def __init__(self, dataset, hospitals: int, max_age: int):
        self.dataset = dataset
        self.hospitals = hospitals
        self.max_age = max_age

    def __call__(self, day: int, state: InventoryState) -> DecisionVector:
        row = self.dataset.Y[day]
        return DecisionVector.from_flat(
            np.rint(row).astype(np.int64), self.hospitals, self.max_age
        )


def replay_rollout(config, data):
    """Replay stored labels against the generation demand stream: the
    rollout the oracle's own run must reproduce cost for cost."""
    demands = generation_demands(config, data.n_rows)
    policy = LabelReplayPolicy(data, config.n_hospitals, config.max_age)
    return run_horizon(config.initial_state, policy, demands, config.costs)
