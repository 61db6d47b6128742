import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surropt.errors import ConfigError, InputError
from surropt.losses import LossSpec, leaf_optimal_value, loss_grad_hess, loss_value

from _oracles import central_difference, reference_huber_leaf, reference_huber_roots


def test_huber_quadratic_branch():
    assert loss_value(LossSpec("huber", 1.0), 0.0, 0.5) == pytest.approx(0.125, abs=1e-15)


def test_huber_linear_branch():
    assert loss_value(LossSpec("huber", 1.0), 0.0, 2.0) == pytest.approx(1.5, abs=1e-15)


def test_huber_continuity_at_knee():
    spec = LossSpec("huber", 1.0)
    quad = 0.5 * 1.0**2
    lin = 1.0 * 1.0 - 0.5
    assert quad == pytest.approx(lin, abs=1e-15)
    assert loss_value(spec, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_mae_gradient_sign_convention():
    g, _ = loss_grad_hess(LossSpec("mae"), 3.0, 5.0)
    assert g == 1.0
    g, _ = loss_grad_hess(LossSpec("mae"), 5.0, 3.0)
    assert g == -1.0
    g, _ = loss_grad_hess(LossSpec("mae"), 3.0, 3.0)
    assert g == 0.0


def test_mse_gradient_matches_finite_differences():
    spec = LossSpec("mse")
    rng = np.random.default_rng(3)
    for _ in range(10):
        y, yhat = rng.normal(size=2) * 5
        g, _ = loss_grad_hess(spec, y, yhat)
        fd = central_difference(lambda v: loss_value(spec, y, v), yhat)
        assert abs(g - fd) < 1e-6


def test_huber_gradient_matches_finite_differences_away_from_knee():
    rng = np.random.default_rng(4)
    spec = LossSpec("huber", 1.0)
    checked = 0
    while checked < 25:
        y, yhat = rng.normal(size=2) * 3
        if abs(abs(yhat - y) - spec.delta) < 1e-3:
            continue
        g, _ = loss_grad_hess(spec, y, yhat)
        fd = central_difference(lambda v: loss_value(spec, y, v), yhat)
        assert abs(g - fd) < 1e-6
        checked += 1


def test_hessians():
    """One float per loss, for every sample: huber's inside and outside the knee."""
    for spec, want in ((LossSpec("mse"), 2.0), (LossSpec("mae"), 1.0), (LossSpec("huber", 1.0), 1.0)):
        _, h = loss_grad_hess(spec, [1.0, 1.0], [1.2, 9.0])
        assert type(h) is float and h == want == spec.hessian


def test_nonnegative_and_zero_iff_equal():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(100, 2)) * 4
    for spec in (LossSpec("mse"), LossSpec("mae"), LossSpec("huber", 0.7)):
        vals = loss_value(spec, pts[:, 0], pts[:, 1])
        assert np.all(vals >= 0)
        assert np.all(loss_value(spec, pts[:, 0], pts[:, 0]) == 0)
        nonzero = np.abs(pts[:, 0] - pts[:, 1]) > 1e-12
        assert np.all(vals[nonzero] > 0)


def test_huber_below_half_mse_and_limit():
    rng = np.random.default_rng(6)
    e = rng.normal(size=1000) * 10
    half_mse = 0.5 * e**2
    for delta in (0.5, 1.0, 5.0):
        hub = loss_value(LossSpec("huber", delta), np.zeros_like(e), e)
        assert np.all(hub <= half_mse + 1e-12)
    wide = loss_value(LossSpec("huber", 1e9), np.zeros_like(e), e)
    assert np.allclose(wide, half_mse, rtol=0, atol=1e-9)


def test_mae_gradient_unit_magnitude():
    rng = np.random.default_rng(7)
    e = rng.normal(size=200)
    e = e[np.abs(e) > 1e-9]
    g, _ = loss_grad_hess(LossSpec("mae"), np.zeros_like(e), e)
    assert np.all(np.abs(g) == 1.0)


def test_convexity_along_segments():
    rng = np.random.default_rng(8)
    ts = np.linspace(0, 1, 100)
    for spec in (LossSpec("mse"), LossSpec("mae"), LossSpec("huber", 1.3)):
        for _ in range(20):
            a, b = rng.normal(size=2) * 6
            va = loss_value(spec, 0.0, a)
            vb = loss_value(spec, 0.0, b)
            pts = loss_value(spec, 0.0, a + ts * (b - a))
            chord = va + ts * (vb - va)
            assert np.all(pts <= chord + 1e-12)


def test_leaf_optimal_values():
    rng = np.random.default_rng(9)
    r = rng.normal(size=101) * 3
    assert leaf_optimal_value(LossSpec("mse"), r) == pytest.approx(np.mean(r), abs=1e-12)
    assert leaf_optimal_value(LossSpec("mae"), r) == pytest.approx(np.median(r), abs=1e-12)
    spec = LossSpec("huber", 0.8)
    c = leaf_optimal_value(spec, r)
    at = loss_value(spec, r, np.full_like(r, c)).sum()
    for eps in (1e-4, 1e-3, 1e-2):
        assert at <= loss_value(spec, r, np.full_like(r, c + eps)).sum() + 1e-9
        assert at <= loss_value(spec, r, np.full_like(r, c - eps)).sum() + 1e-9
    assert leaf_optimal_value(spec, np.array([])) == 0.0


def test_input_validation():
    with pytest.raises(InputError):
        loss_value(LossSpec("mse"), np.nan, 1.0)
    with pytest.raises(InputError):
        loss_grad_hess(LossSpec("mae"), 1.0, np.inf)
    with pytest.raises(ConfigError):
        LossSpec("quantile")
    with pytest.raises(ConfigError):
        LossSpec("huber", 0.0)


@pytest.mark.parametrize("kind", ["mse", "mae", "huber"])
@pytest.mark.parametrize(
    "residuals, counts",
    [
        ([1.0, np.inf], None),
        ([1.0, np.nan, 2.0], [2, 1]),
        ([1.0, 2.0], [1]),  # one residual left over
        ([1.0, 2.0], [0, 2]),  # an empty segment
        ([1.0, 2.0], [3, -1]),
        ([1.0, 2.0], [1.5, 0.5]),
        ([1.0, 2.0], [True, True]),
        ([1.0, 2.0], [[2]]),
        ([[1.0], [2.0]], [2]),
        (3.0, None),
    ],
    ids=["inf", "nan", "short-counts", "zero-count", "negative-count", "fractional-counts",
         "bool-counts", "2d-counts", "2d-residuals", "scalar"],
)
def test_leaf_value_inputs_checked(kind, residuals, counts):
    """Non-finite residuals, or counts that are not positive integers adding
    up to the residual count, raise InputError, with no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError):
            leaf_optimal_value(LossSpec(kind), residuals, counts)


def test_leaf_value_of_no_segments():
    for kind in ("mse", "mae", "huber"):
        out = leaf_optimal_value(LossSpec(kind), [], np.zeros(0, dtype=np.int64))
        assert out.dtype == float and out.shape == (0,)


def huber_sets(rng, count):
    """(residuals, delta) of sizes 1-300: normal at three scales, rounded to
    0.1 and to whole numbers (ties, and roots on breakpoints), and Cauchy."""
    for i in range(count):
        r = rng.normal(size=int(rng.integers(1, 301))) * rng.choice([0.1, 1.0, 10.0])
        r = (r, np.round(r, 1), np.round(r), rng.standard_cauchy(r.size))[i % 4]
        yield r, (0.3, 1.0, 5.0)[i % 3]


def flat_stretch(r, delta):
    """The stretch [a, b] where the Huber derivative is zero, or None: the
    two middle residuals of an even count more than 2 delta apart."""
    s, h = np.sort(r), r.size // 2
    if r.size % 2 == 0 and s[h] - s[h - 1] > 2 * delta:
        return s[h - 1] + delta, s[h] - delta
    return None


def test_huber_leaf_matches_bisection():
    """The exact root agrees with 64 halvings to 1e-12 max(1, |c|).  On a
    flat stretch the exact value is the left end; the bisection tends there
    as well, exactly so when delta is a whole number, but with delta = 0.3
    its sum of +-delta terms can round above zero and end anywhere on the
    stretch, so there it is only held to the stretch."""
    rng = np.random.default_rng(10)
    flats = 0
    for r, delta in huber_sets(rng, 800):
        c = leaf_optimal_value(LossSpec("huber", delta), r)
        ref = reference_huber_leaf(r, delta)
        tol = 1e-12 * max(1.0, abs(ref))
        stretch = flat_stretch(r, delta)
        if stretch is None or delta != 0.3:
            assert abs(c - ref) <= tol, (r.size, delta, c, ref)
        if stretch is not None:
            flats += 1
            assert c == stretch[0]
            assert stretch[0] - tol <= ref <= stretch[1] + tol
    assert flats >= 5


def test_huber_leaf_edge_cases():
    spec = LossSpec("huber", 1.0)
    # one residual, and equal residuals, give themselves exactly
    assert leaf_optimal_value(spec, [0.7]) == 0.7 == reference_huber_leaf([0.7], 1.0)
    for r in ([0.1] * 3, [-2.5] * 8, [1e9] * 5):
        assert leaf_optimal_value(spec, r) == r[0] == reference_huber_leaf(r, 1.0)
    # two residuals more than 2 delta apart: every c in [1, 4] is a root, and
    # both routines return the left end
    for delta in (0.3, 1.0, 5.0):
        r = [0.0, 2 * delta + 3.0]
        c = leaf_optimal_value(LossSpec("huber", delta), r)
        assert c == 0.0 + delta
        assert abs(reference_huber_leaf(r, delta) - c) <= 1e-12 * max(1.0, c)
    # the root is the breakpoint 2 - delta: F(1) = -1 + 0 + 1
    assert leaf_optimal_value(spec, [-1.0, 1.0, 2.0]) == 1.0
    assert abs(reference_huber_leaf([-1.0, 1.0, 2.0], 1.0) - 1.0) <= 1e-12
    # amid tied residuals the root is the breakpoint 3 - delta: F(2) = -1 + 0 + 0 + 1
    assert leaf_optimal_value(spec, [0.0, 2.0, 2.0, 3.0]) == 2.0
    assert abs(reference_huber_leaf([0.0, 2.0, 2.0, 3.0], 1.0) - 2.0) <= 1e-12


def test_mae_leaf_has_median_bits():
    rng = np.random.default_rng(11)
    for i in range(500):
        r = rng.normal(size=int(rng.integers(1, 200))) * 3
        r = np.round(r, 1) if i % 2 else r
        assert leaf_optimal_value(LossSpec("mae"), r) == np.median(r)


def huber_segments(rng, count):
    """(residuals, counts, delta) of up to 40 segments of 1-60 residuals:
    delta from 1e-3 to 5 and scales from 1e-3 to 1e6, log-uniform; normal,
    whole-number (ties, roots on breakpoints), on the delta grid (roots on
    breakpoints), five distinct values (long ties), Cauchy, and two far
    clusters, whose even segments are flat stretches."""
    for i in range(count):
        counts = rng.integers(1, 61, size=int(rng.integers(1, 41)))
        counts[rng.random(counts.size) < 0.2] = 1
        delta, scale = 10 ** rng.uniform(-3, np.log10(5)), 10 ** rng.uniform(-3, 6)
        r = rng.normal(size=counts.sum()) * scale
        r = (
            r, np.round(r), np.round(r / delta) * delta,
            rng.choice(np.round(rng.normal(size=5) * scale), size=r.size),
            rng.standard_cauchy(r.size) * scale,
            r * 1e-3 + np.where(rng.random(r.size) < 0.5, -scale, scale) - 3 * delta,
        )[i % 6]
        yield r, counts, delta


def test_huber_roots_match_rank_bisection():
    """The checked guess finds, bit for bit, the bracket and root of the
    rank bisection over merged, sorted breakpoints."""
    rng = np.random.default_rng(13)
    flats = singles = 0
    for r, counts, delta in huber_segments(rng, 600):
        got = leaf_optimal_value(LossSpec("huber", delta), r, counts)
        assert got.tobytes() == reference_huber_roots(r, counts, delta).tobytes(), (counts, delta)
        singles += int((counts == 1).sum())
        for segment in np.split(r, np.cumsum(counts)[:-1]):
            flats += flat_stretch(segment, delta) is not None
    assert flats >= 200 and singles >= 1000


@settings(max_examples=300, deadline=None)
@given(
    segments=st.lists(
        st.lists(
            st.one_of(
                st.floats(-1e6, 1e6, allow_nan=False),
                st.integers(-50, 50).map(float),
                st.sampled_from([0.0, -0.0, 1.0, 2.5]),
            ),
            min_size=1, max_size=30,
        ),
        min_size=1, max_size=8,
    ),
    delta=st.one_of(st.floats(1e-3, 5.0), st.sampled_from([1e-3, 0.5, 1.0, 5.0])),
)
def test_huber_roots_match_rank_bisection_drawn(segments, delta):
    r, counts = np.concatenate([np.array(x) for x in segments]), [len(x) for x in segments]
    got = leaf_optimal_value(LossSpec("huber", delta), r, counts)
    assert got.tobytes() == reference_huber_roots(r, counts, delta).tobytes()


@settings(max_examples=200, deadline=None)
@given(segments=st.lists(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]), min_size=1, max_size=9),
                         min_size=1, max_size=6))
def test_mae_leaf_sorts_like_lexsort(segments):
    """Each segment is sorted as a stable sort would: tied zeros keep their
    signs in the given order, so the midpoint keeps its sign bit."""
    r, counts = np.concatenate([np.array(x) for x in segments]), np.array([len(x) for x in segments])
    start = np.cumsum(counts) - counts
    s = r[np.lexsort((r, np.repeat(np.arange(counts.size), counts)))]
    want = 0.5 * (s[start + (counts - 1) // 2] + s[start + counts // 2])
    assert leaf_optimal_value(LossSpec("mae"), r, counts).tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", [LossSpec("mse"), LossSpec("mae"), LossSpec("huber", 0.7)],
                         ids=lambda spec: spec.kind)
def test_segments_valued_alone(spec):
    """Many segments in one call get, bit for bit, the values of one call
    each, whatever their order and neighbours."""
    rng = np.random.default_rng(12)
    segments = [rng.normal(size=int(rng.integers(1, 80))) * rng.choice([0.1, 3.0]) for _ in range(150)]
    segments += [np.round(x, 1) for x in segments[:50]] + [np.full(4, 2.5), np.array([-3.0, 3.0])]
    alone = np.array([leaf_optimal_value(spec, x) for x in segments])
    for seed in range(3):
        order = np.random.default_rng(seed).permutation(len(segments))
        together = leaf_optimal_value(
            spec, np.concatenate([segments[k] for k in order]), [segments[k].size for k in order]
        )
        assert together.dtype == float and together.tobytes() == alone[order].tobytes()
