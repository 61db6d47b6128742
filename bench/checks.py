"""Correctness checks that do not trust the program.

Each check recomputes its answer from first principles or with another
solver: the day cycle from the rules in ``simulate``'s docstring, the LP
with HiGHS, ridge with ``numpy.linalg.lstsq``, the losses from their
textbook formulas.  Nothing is compared against a stored copy of earlier
outputs.  The checks run after the timed region; each returns the
problems it found, keyed by the operation that failed.
"""

from __future__ import annotations

import numpy as np

COST_RTOL = 1e-9
LP_RTOL = 1e-6
RIDGE_TOL = 1e-6
SVR_SUM_TOL = 1e-6


def _day_cycle(units, orders, ship, demand, costs):
    """One day under oldest-first issuing, written out from the event order:
    pay, ship out, issue, receive, age.  Returns (next units, five costs)."""
    h, m = units.shape
    outbound = ship.sum(axis=1)
    inbound = ship.sum(axis=0)
    on_hand = units - outbound
    issued = np.zeros_like(units)
    for i in range(h):
        need = int(demand[i])
        for a in range(m - 1, -1, -1):
            take = min(need, int(on_hand[i, a]))
            issued[i, a] = take
            need -= take
    unmet = demand - issued.sum(axis=1)
    end = on_hand - issued + inbound
    end[:, 0] += orders
    nxt = np.zeros_like(end)
    nxt[:, 1:] = end[:, :-1]
    parts = (
        costs.holding * float(nxt.sum()),
        costs.transship_unit * float(ship.sum()),
        costs.outdate * float(end[:, -1].sum()),
        costs.ordering * float(orders.sum()),
        costs.shortage * float(unmet.sum()),
    )
    return nxt, parts


def check_horizon(result, costs, label=""):
    """Check every day of a ``HorizonResult``.

    Returns ({day: problem}, the mean daily cost recomputed from the days).

    - the applied decision is feasible against the morning state;
    - stock is conserved: before + orders = issued + outdated + after, with
      issued = min(demand, stock on hand after outbound);
    - no stock is negative;
    - the next state and the five cost parts match the day cycle recomputed
      from state, decision and demand.
    """
    bad = {}
    total = 0.0
    days = len(result.breakdowns)
    for day in range(days):
        units = np.asarray(result.states[day].units, dtype=np.int64)
        after = np.asarray(result.states[day + 1].units, dtype=np.int64)
        dec = result.decisions[day]
        orders = np.asarray(dec.orders, dtype=np.int64)
        ship = np.asarray(dec.transship, dtype=np.int64)
        demand = np.asarray(result.demands[day], dtype=np.int64)
        br = result.breakdowns[day]
        on_hand = units - ship.sum(axis=1)
        if np.any(on_hand < 0):
            bad[day] = f"{label} day {day}: decision ships more than the morning stock"
            continue
        if np.any(after < 0):
            bad[day] = f"{label} day {day}: negative stock"
            continue
        issued = np.minimum(demand, on_hand.sum(axis=1)).sum()
        outdated = br.outdate / costs.outdate if costs.outdate else 0.0
        if units.sum() + orders.sum() != issued + outdated + after.sum():
            bad[day] = f"{label} day {day}: stock not conserved"
            continue
        nxt, parts = _day_cycle(units, orders, ship, demand, costs)
        total += sum(parts)
        got = (br.holding, br.transshipment, br.outdate, br.ordering, br.shortage)
        if not np.array_equal(nxt, after):
            bad[day] = f"{label} day {day}: next state differs from the recomputed day"
        elif not np.allclose(got, parts, rtol=COST_RTOL, atol=COST_RTOL):
            bad[day] = f"{label} day {day}: costs {got} differ from recomputed {parts}"
    return bad, total / days


def highs_objective(lp) -> float:
    """Optimal objective of a ``LinearProgram`` solved by HiGHS."""
    from scipy.optimize import linprog

    A = np.asarray(lp.A)
    b = np.asarray(lp.b)
    senses = np.asarray(lp.senses)
    le, ge, eq = senses == "<=", senses == ">=", senses == "=="
    A_ub = np.vstack([A[le], -A[ge]])
    b_ub = np.concatenate([b[le], -b[ge]])
    sign = -1.0 if lp.maximize else 1.0
    bounds = [
        (None if np.isinf(lo) else lo, None if np.isinf(up) else up)
        for lo, up in zip(lp.lower, lp.upper)
    ]
    res = linprog(
        sign * np.asarray(lp.c),
        A_ub=A_ub if A_ub.size else None,
        b_ub=b_ub if A_ub.size else None,
        A_eq=A[eq] if eq.any() else None,
        b_eq=b[eq] if eq.any() else None,
        bounds=bounds,
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not solve the LP: {res.message}")
    return sign * float(res.fun)


def check_lp(lp, solution) -> str:
    """Empty string if the simplex optimum agrees with HiGHS to 1e-6 relative."""
    ref = highs_objective(lp)
    if abs(solution.objective - ref) > LP_RTOL * max(1.0, abs(ref)):
        return f"LP objective {solution.objective!r} differs from HiGHS {ref!r}"
    return ""


def check_stage_one(sol) -> str:
    """The rounded decision cannot cost less than the LP lower bound."""
    if sol.objective < sol.lp_objective - 1e-9:
        return f"objective {sol.objective!r} is below the LP bound {sol.lp_objective!r}"
    return ""


def check_ridge(model, X, Y) -> str:
    """Coefficients equal a least-squares solve of [Z; sqrt(lam) [0 I]]."""
    n, p = X.shape
    Z = np.column_stack([np.ones(n), X])
    penalty = np.sqrt(model.lam) * np.eye(p + 1)[1:]
    A = np.vstack([Z, penalty])
    B = np.vstack([Y, np.zeros((p, Y.shape[1]))])
    ref = np.linalg.lstsq(A, B, rcond=None)[0].T
    err = float(np.max(np.abs(model.coef - ref)))
    if err > RIDGE_TOL * max(1.0, float(np.max(np.abs(ref)))):
        return f"ridge coefficients differ from lstsq by {err:.3e}"
    return ""


def check_svr(model) -> str:
    """Every output's dual is feasible: sum(beta) = 0 and |beta| <= C."""
    for j, beta in enumerate(model.coef):
        if abs(float(np.sum(beta))) >= SVR_SUM_TOL:
            return f"svr output {j}: sum of duals {float(np.sum(beta)):.3e}"
        if np.any(np.abs(beta) > model.C * (1 + 1e-12)):
            return f"svr output {j}: a dual exceeds C = {model.C}"
    return ""


def loss_mean(kind, y, yhat, delta=1.0) -> float:
    e = np.abs(np.asarray(yhat) - np.asarray(y))
    if kind == "mse":
        return float(np.mean(e * e))
    if kind == "mae":
        return float(np.mean(e))
    return float(np.mean(np.where(e <= delta, 0.5 * e * e, delta * e - 0.5 * delta * delta)))


def check_gbdt(model, Y, fitted) -> str:
    """Training loss is below the loss of the boost-from constant."""
    kind, delta = model.loss.kind, model.loss.delta
    trained = loss_mean(kind, Y, fitted, delta)
    constant = loss_mean(kind, Y, np.broadcast_to(model.base, Y.shape), delta)
    if not trained < constant:
        return f"gbdt-{kind}: training loss {trained!r} is not below the constant's {constant!r}"
    return ""
