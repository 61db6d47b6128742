"""Pointwise regression losses with gradients and hessians.

Three losses are supported: squared error, absolute error, and the Huber
loss that is quadratic within ``delta`` of zero error and linear beyond.
Gradients are taken with respect to the prediction and feed the boosting
learner.  A loss's hessian is one float for every sample: 2 for mse, else 1,
also where the true curvature is 0, so that split gains stay finite; it only
weighs split gains and child sizes; leaf values are leaf-optimal constants.

A leaf value is exact.  mse takes the mean; mae the mean of the two middle
residuals, sorted as ``np.lexsort`` sorts them (stably, so tied zeros keep
their given signs), which is ``np.median``'s value up to the sign of a
zero.  The Huber constant is the root of the nonincreasing, piecewise
linear F(c) = sum clip(r - c, -delta, delta), whose breakpoints are the
r +- delta (Huber 1964, "Robust estimation of a location parameter").  The
root lies between the last breakpoint a with F(a) > 0 and the next one, b,
where F is linear, and is solved there.  F is nonincreasing in c also as
computed: each term is a rounded difference, clipped, and ``np.bincount``
adds a segment's terms in one fixed order, each addition rounding
monotonically.  So a and b are unique, and any search that evaluates F so
finds the same two.  The search sorts no breakpoints: a segment's r - delta
and r + delta are two lists, each sorted with the residuals.  Its guess,
the median refined by two Newton steps on the piece that holds it, is
placed between two neighbouring breakpoints, and one evaluation of F at
both checks them; only the segments whose check fails bisect the two lists
for their breakpoints with F > 0.  Where F is zero on a whole stretch (no
residual within delta of it, as many below as above), the value is the
stretch's left end, which needs no bracket.  Many leaves are valued in one
call, each from its own residuals alone.

Conventions, fixed here once:
    error e = yhat - y
    mse value (y - yhat)^2, gradient 2e, hessian 2
    mae value |y - yhat|, gradient sign(e) (0 at e = 0), hessian 1
    huber value e^2/2 for |e| <= delta else delta*|e| - delta^2/2,
          gradient e or delta*sign(e), hessian 1 in both branches
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError

LOSS_KINDS = ("mse", "mae", "huber")


@dataclass(frozen=True)
class LossSpec:
    """Identity of a loss function: its kind and, for huber, the knee width."""

    kind: str = "mse"
    delta: float = 1.0

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ConfigError(
                f"unknown loss kind {self.kind!r}; valid kinds: {', '.join(LOSS_KINDS)}"
            )
        if self.kind == "huber" and not self.delta > 0:
            raise ConfigError(f"huber delta must be > 0, got {self.delta}")

    @property
    def hessian(self) -> float:
        """The second derivative taken for every sample (see the module doc)."""
        return 2.0 if self.kind == "mse" else 1.0


def _check_finite(*arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise InputError("loss inputs must be finite")


def loss_value(spec: LossSpec, y, yhat):
    """Per-sample loss value; broadcasts like the inputs."""
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    _check_finite(y, yhat)
    e = yhat - y
    if spec.kind == "mse":
        return e * e
    if spec.kind == "mae":
        return np.abs(e)
    d = spec.delta
    ae = np.abs(e)
    return np.where(ae <= d, 0.5 * e * e, d * ae - 0.5 * d * d)


def loss_grad_hess(spec: LossSpec, y, yhat):
    """Per-sample gradient w.r.t. the prediction, and the loss's float hessian."""
    y = np.asarray(y, dtype=float)
    yhat = np.asarray(yhat, dtype=float)
    _check_finite(y, yhat)
    e = yhat - y
    if spec.kind == "mse":
        return 2.0 * e, spec.hessian
    if spec.kind == "mae":
        return np.sign(e), spec.hessian
    return np.clip(e, -spec.delta, spec.delta), spec.hessian


def leaf_optimal_value(spec: LossSpec, residuals, counts=None):
    """Constant c minimizing the summed loss of predicting c on ``residuals``.

    residuals are y - current_prediction, so c is the optimal additive
    correction for a tree leaf: a float, 0.0 for no residuals.  With
    ``counts``, ``residuals`` holds consecutive nonempty segments of
    ``counts[k]`` values, and the result is the array of their constants,
    each with the bits of a call on its segment alone.
    mse: ``np.mean`` of the segment as given; mae: the mean of the two middle
    values, sorted as ``np.lexsort`` sorts them, which is ``np.median``'s
    value up to the sign of a zero; huber: the exact root of the
    module doc, the left end of a flat stretch of roots.  Residuals that are
    not a finite 1-D array, or counts that are not positive integers adding
    up to their number, raise ``InputError``.
    """
    r = np.asarray(residuals, dtype=float)
    if r.ndim != 1:
        raise InputError(f"residuals must be a 1-D array, got shape {r.shape}")
    _check_finite(r)
    if counts is None:
        return float(_leaf_values(spec, r, np.array([r.size]))[0]) if r.size else 0.0
    counts = np.asarray(counts)
    if (
        counts.ndim != 1 or (counts.size and counts.dtype.kind not in "iu")
        or not ((counts >= 1) & (counts <= r.size)).all() or counts.sum() != r.size
    ):
        raise InputError(f"counts must be positive integers adding up to the {r.size} residuals")
    return _leaf_values(spec, r, counts.astype(np.int64))


def _leaf_values(spec, r, counts):
    start = np.cumsum(counts) - counts
    if spec.kind == "mse":
        # np.mean's bits: its pairwise sum of each segment, then one division
        sums = [np.add.reduce(r[s : s + c]) for s, c in zip(start.tolist(), counts.tolist())]
        return np.array(sums, dtype=float) / counts
    seg = np.repeat(np.arange(counts.size), counts)
    s = _sorted_within(r, seg)
    if spec.kind == "mae":
        return 0.5 * (s[start + (counts - 1) // 2] + s[start + counts // 2])
    return _huber_roots(s, seg, start, counts, spec.delta)


def _sorted_within(r, seg):
    """``r`` sorted within the segments that ``seg`` numbers, with the bits of
    ``r[np.lexsort((r, seg))]``: one sort ranks the values, and one of the
    integer keys (segment, rank) groups them.  Equal values have equal bits
    but for zeros of both signs, which are put back in their given order."""
    order = np.argsort(r)
    key = np.empty(r.size, np.int64)
    key[order] = np.arange(r.size)
    offset = seg * r.size
    key += offset
    key.sort()
    key -= offset
    s = r[order[key]]
    s[s == 0] = r[r == 0]
    return s


def _huber_roots(s, seg, start, counts, d):
    """Each segment's root of F(c) = sum clip(s - c, -d, d); ``s`` is sorted
    within the segments, which ``seg`` numbers."""
    n, last = counts.size, start + counts - 1
    # each segment's breakpoints are two sorted lists, the rows s - d and
    # s + d of bp, and a point is placed by how many of each lie under it
    bp = np.stack([s - d, s + d])

    def positive(c):
        """F > 0 at each segment's two points, c[0] and c[1]; bincount adds
        each segment's terms in order, apart from the others."""
        t = c[:, seg]
        np.clip(np.subtract(s, t, out=t), -d, d, out=t)
        return np.stack([np.bincount(seg, f, minlength=n) for f in t]) > 0

    def bracket(below):
        """The last breakpoint under, and the first not under, the points
        with ``below`` breakpoints of each list under them."""
        under = np.take_along_axis(bp, np.maximum(start + below - 1, start), axis=1)
        over = np.take_along_axis(bp, np.minimum(start + below, last), axis=1)
        under, over = np.where(below > 0, under, -np.inf), np.where(below < counts, over, np.inf)
        return under.max(axis=0), over.min(axis=0)

    def place(c):
        """Which breakpoints lie under each segment's point c, and how many
        of each list."""
        under = bp < c[seg]
        return under, np.add.reduceat(under, start, axis=1, dtype=np.int64)

    # the guess: the median, then two Newton steps, each to the root of the
    # line through the piece of F that holds the point; only F's checks need
    # bincount's order of addition
    c = 0.5 * (s[start + (counts - 1) // 2] + s[start + counts // 2])
    for _ in range(2):
        under, below = place(c)
        k = below[0] - below[1]
        sums = np.add.reduceat(np.where(under[0] & ~under[1], s, 0.0), start)
        c = np.where(k > 0, (sums + d * (counts - below[0] - below[1])) / np.maximum(k, 1), c)
    a, b = bracket(place(c)[1])
    # a flat stretch: the two middle residuals of an even count lie more
    # than 2d apart, so no residual is within d of it and half lie each side
    half = start + counts // 2
    left, right = s[half - 1] + d, s[half] - d
    flat = (counts % 2 == 0) & (left < right)
    # F is nonincreasing, so a and b are the last breakpoint with F > 0 and
    # the next one exactly when F(a) > 0 >= F(b); a flat stretch needs neither
    above = positive(np.stack([a, b]))
    miss = (~above[0] | above[1]) & ~flat
    if miss.any():
        # bisect both lists of those segments for their breakpoints with F > 0
        lo, hi = np.zeros((2, n), np.int64), np.tile(np.where(miss, counts, 0), (2, 1))
        while (open_ := lo < hi).any():
            mid = (lo + hi) // 2
            up = positive(np.take_along_axis(bp, np.minimum(start + mid, last), axis=1))
            lo, hi = np.where(open_ & up, mid + 1, lo), np.where(open_ & ~up, mid, hi)
        a, b = np.where(miss, bracket(lo), (a, b))
    # on (a, b) the residuals within d of c are fixed, so F is linear there
    below, over = s + d <= a[seg], s - d >= b[seg]
    n_below, n_over = np.bincount(seg[below], minlength=n), np.bincount(seg[over], minlength=n)
    # centred on the first residual inside, so equal residuals give themselves
    ref = s[start + np.minimum(n_below, counts - 1)]
    dev = np.bincount(seg, np.where(below | over, 0.0, s - ref[seg]), minlength=n)
    inside = np.maximum(counts - n_below - n_over, 1)
    root = np.clip(ref + (d * (n_over - n_below) + dev) / inside, a, b)
    return np.where(flat, left, root)
