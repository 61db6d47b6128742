import numpy as np
import pytest

from surropt.errors import InputError, ResourceLimitError
from surropt.lp import FEAS_TOL, LinearProgram, solve_lp
from surropt.two_stage import build_saa
from surropt.util import stream

from _oracles import enumerate_lp_optimum, nonnegative_form
from test_two_stage import random_tiny_instance


def make_random_lp(rng, with_upper=None):
    """A feasible, bounded LP with <= rows around a random interior point;
    its upper bounds, if any, are <= rows after the others."""
    if with_upper is None:
        with_upper = bool(rng.integers(0, 2))
    n = int(rng.integers(2, 7 if with_upper else 9))
    m = int(rng.integers(1, 7))
    A = rng.normal(size=(m, n))
    x0 = rng.uniform(0.0, 2.0, size=n)
    b = A @ x0 + rng.uniform(0.1, 1.0, size=m)
    if with_upper:
        c = rng.normal(size=n)
        upper = x0 + rng.uniform(0.5, 3.0, size=n)
    else:
        c = np.abs(rng.normal(size=n)) + 0.01  # bounded below without uppers
        upper = np.full(n, np.inf)
    lp, _ = nonnegative_form(c, A, b, ("<=",) * m, upper=upper)
    return lp, x0


def solve_general(c, A, b, senses, **bounds):
    """Status, x and c.x of an LP with bounds and a sense, solved in the
    nonnegative-min form; x and c.x are None unless optimal."""
    lp, to_x = nonnegative_form(c, A, b, senses, **bounds)
    sol = solve_lp(lp)
    if sol.status != "optimal":
        return sol.status, None, None
    x = to_x(sol.x)
    return sol.status, x, float(np.asarray(c, dtype=float) @ x)


class TestTrivial:
    def test_max_bounded_single_var(self):
        status, x, objective = solve_general([1.0], [[1.0]], [1.0], ("<=",), maximize=True)
        assert status == "optimal"
        assert x[0] == pytest.approx(1.0, abs=1e-9)
        assert objective == pytest.approx(1.0, abs=1e-9)

    def test_min_sum_with_cover(self):
        lp = LinearProgram(c=[1.0, 1.0], A=[[1.0, 1.0]], b=[2.0], senses=(">=",))
        sol = solve_lp(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(2.0, abs=1e-9)

    def test_equality_row(self):
        _, _, objective = solve_general([2.0, 3.0], [[1.0, 1.0]], [4.0], ("==",), upper=[3.0, 3.0])
        assert objective == pytest.approx(9.0, abs=1e-9)

    def test_free_variable(self):
        _, _, objective = solve_general(
            [0.0, 1.0],
            [[1.0, -1.0], [-1.0, -1.0]],
            [2.0, -2.0],
            ("<=", "<="),
            lower=[-np.inf, -np.inf],
        )
        assert objective == pytest.approx(0.0, abs=1e-9)

    def test_infeasible(self):
        lp = LinearProgram(c=[1.0], A=[[1.0]], b=[-1.0], senses=("<=",))
        assert solve_lp(lp).status == "infeasible"

    def test_unbounded(self):
        lp = LinearProgram(c=[-1.0], A=[[1.0]], b=[-5.0], senses=(">=",))
        assert solve_lp(lp).status == "unbounded"

    @pytest.mark.parametrize(
        "bounds, maximize, status, x",
        [
            (dict(upper=[2.0]), True, "optimal", [2.0]),
            (dict(lower=[-1.0], upper=[3.0]), False, "optimal", [-1.0]),
            (dict(lower=[-np.inf]), False, "unbounded", None),
            ({}, False, "optimal", [0.0]),
        ],
        ids=["boxed-max", "shifted-min", "free", "nonnegative"],
    )
    def test_no_rows_only_bounds(self, bounds, maximize, status, x):
        # only "nonnegative" reaches the solver with no rows; a boxed
        # variable brings its bound row
        got, got_x, _ = solve_general([1.0], np.zeros((0, 1)), [], (), maximize=maximize, **bounds)
        assert got == status
        assert got_x is None if x is None else got_x.tolist() == x

    def test_negative_zero_rhs_leaves_no_negative_zero(self):
        # the crash row 2 x >= -0.0 scales its rhs to -0.0 / 2 = -0.0, and
        # the solver returns that zero as +0.0
        lp = LinearProgram(c=[0.0], A=[[2.0]], b=[-0.0], senses=(">=",))
        sol = solve_lp(lp)
        assert sol.x.tolist() == [0.0] and not np.signbit(sol.x).any()


class TestAgainstEnumeration:
    def test_random_instances(self):
        rng = np.random.default_rng(2024)
        for _ in range(40):
            lp, _ = make_random_lp(rng)
            sol = solve_lp(lp)
            assert sol.status == "optimal"
            ref = enumerate_lp_optimum(lp.c, lp.A, lp.b)
            assert ref is not None
            assert sol.objective == pytest.approx(ref[0], abs=1e-7)

    def test_weak_duality_spot_check(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            lp, x0 = make_random_lp(rng, with_upper=True)
            sol = solve_lp(lp)
            assert sol.status == "optimal"
            # random convex combinations of feasible points stay feasible
            pts = [x0, sol.x]
            for _ in range(1000):
                w = rng.uniform(size=len(pts))
                w /= w.sum()
                x = sum(wk * np.asarray(p) for wk, p in zip(w, pts))
                val = float(lp.c @ x)
                assert val >= sol.objective - 1e-7 * max(1.0, abs(sol.objective))


class TestDeterminism:
    def test_identical_runs(self):
        rng = np.random.default_rng(99)
        lp, _ = make_random_lp(rng)
        a = solve_lp(lp)
        b = solve_lp(lp)
        assert a.iterations == b.iterations
        assert np.array_equal(a.x, b.x)
        assert a.objective == b.objective


class TestTieBreaking:
    def test_lexicographically_smallest_optimum(self):
        # every point of x0 + x1 = 1, x >= 0 costs 1; the smallest x0 is 0
        lp = LinearProgram(c=[1.0, 1.0], A=[[1.0, 1.0]], b=[1.0], senses=(">=",))
        sol = solve_lp(lp)
        assert sol.objective == pytest.approx(1.0, abs=1e-12)
        assert np.array_equal(sol.x, [0.0, 1.0])

    def test_tie_with_a_shifted_lower_bound(self):
        # x0 >= 0.5 leaves x0 = 0.5, x1 = 0.5 as the smallest optimal point
        _, x, objective = solve_general(
            [1.0, 1.0], [[1.0, 1.0]], [1.0], (">=",), lower=[0.5, 0.0]
        )
        assert objective == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(x, [0.5, 0.5], atol=1e-12)

    def test_early_bland_fallback_returns_the_same_point(self, monkeypatch):
        """Falling back to Bland's rule after one degenerate pivot, not
        ``STALL_LIMIT``, takes another pivot path to the same bits."""
        # the 99 tiny scenario LPs of acceptance criterion 4
        rng = stream(20240803, 5, 4)
        lps = []
        for _ in range(99):
            state, costs, scenarios = random_tiny_instance(rng)
            lps.append(build_saa(state, scenarios, costs))
        default = [solve_lp(lp) for lp in lps]
        monkeypatch.setattr("surropt.lp.STALL_LIMIT", 1)
        early = [solve_lp(lp) for lp in lps]
        assert all(np.array_equal(a.x, b.x) and a.objective == b.objective for a, b in zip(default, early))
        assert any(a.iterations != b.iterations for a, b in zip(default, early))


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            LinearProgram(c=[1.0, 2.0], A=[[1.0]], b=[1.0], senses=("<=",))

    def test_bad_sense(self):
        with pytest.raises(InputError):
            LinearProgram(c=[1.0], A=[[1.0]], b=[1.0], senses=("<",))

    def test_nonfinite_matrix(self):
        with pytest.raises(InputError):
            LinearProgram(c=[np.nan], A=[[1.0]], b=[1.0], senses=("<=",))

    def test_pivot_cap(self):
        rng = np.random.default_rng(13)
        A = rng.uniform(0.5, 2.0, size=(4, 4))
        lp = LinearProgram(
            c=[-1.0, -2.0, -3.0, -4.0],
            A=A,
            b=A.sum(axis=1),
            senses=("<=",) * 4,
        )
        assert solve_lp(lp).iterations > 1
        with pytest.raises(ResourceLimitError):
            solve_lp(lp, max_pivots=1)

    def test_solution_satisfies_constraints(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            lp, _ = make_random_lp(rng)
            sol = solve_lp(lp)
            resid = lp.A @ sol.x - lp.b
            assert np.all(resid <= FEAS_TOL * max(1.0, np.abs(lp.b).max()))
            assert np.all(sol.x >= 0.0)


class TestAgainstHighs:
    def test_mixed_senses_bounds_and_maximize(self):
        """Random LPs with <=, >= and == rows, every bound kind (nonnegative,
        shifted, boxed, upper-only, free) and both objective senses, solved
        in the nonnegative-min form, agree with HiGHS on status and
        optimum."""
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(404)
        statuses = set()
        for _ in range(300):
            n, m = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            A = rng.normal(size=(m, n))
            x0 = rng.uniform(-2.0, 2.0, size=n)
            senses = tuple(rng.choice(["<=", ">=", "=="], size=m))
            gap = rng.uniform(-0.5, 1.0, size=m) * [{"<=": 1, ">=": -1, "==": 0}[s] for s in senses]
            kind = rng.integers(0, 5, size=n)
            lower = np.select([kind == 0, kind <= 2], [0.0, x0 - rng.uniform(0, 2, n)], -np.inf)
            upper = np.where((kind == 2) | (kind == 3), x0 + rng.uniform(0, 2, n), np.inf)
            c, b = rng.normal(size=n), A @ x0 + gap
            maximize = bool(rng.integers(0, 2))
            got, _, objective = solve_general(
                c, A, b, senses, lower=lower, upper=upper, maximize=maximize
            )

            def highs(c):
                le, ge, eq = (np.asarray(senses) == s for s in ("<=", ">=", "=="))
                return linprog(
                    c, A_ub=np.vstack([A[le], -A[ge]]), b_ub=np.concatenate([b[le], -b[ge]]),
                    A_eq=A[eq], b_eq=b[eq], bounds=np.column_stack([lower, upper]),
                    method="highs",
                )

            sign = -1.0 if maximize else 1.0
            ref = highs(sign * c)
            status = {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
            if status == "infeasible" and highs(np.zeros(n)).status == 0:
                status = "unbounded"  # HiGHS may call a feasible unbounded LP infeasible
            assert got == status
            statuses.add(status)
            if status == "optimal":
                assert objective == pytest.approx(sign * ref.fun, rel=1e-6, abs=1e-6)
        assert statuses == {"optimal", "infeasible", "unbounded"}
