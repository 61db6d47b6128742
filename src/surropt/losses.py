"""Pointwise regression losses with gradients and hessians.

Three losses are supported: squared error, absolute error, and the Huber
loss that is quadratic within ``delta`` of zero error and linear beyond.
Gradients are taken with respect to the prediction and feed the boosting
learner.  A loss's hessian is one float for every sample: 2 for mse, else 1,
also where the true curvature is 0, so that split gains stay finite; it only
weighs split gains and child sizes; leaf values are leaf-optimal constants.

A leaf value is exact.  mse takes the mean, mae the median from the sorted
residuals.  The Huber constant is the root of the nonincreasing, piecewise
linear F(c) = sum clip(r - c, -delta, delta), whose breakpoints are the
r +- delta (Huber 1964, "Robust estimation of a location parameter"): a
search over the sorted breakpoints finds the piece that holds the root, and
the root is solved on that piece.  Where F is zero on a whole stretch (no
residual within delta of it, as many below as above), the value is the
stretch's left end.  Many leaves are valued in one call, each from its own
residuals alone.

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
    mse: ``np.mean`` of the segment as given; mae: ``np.median``'s bits, the
    mean of the two middle sorted values; huber: the exact root of the
    module doc, the left end of a flat stretch of roots.
    """
    r = np.asarray(residuals, dtype=float)
    if counts is None:
        return float(leaf_optimal_value(spec, r, [r.size])[0]) if r.size else 0.0
    counts = np.asarray(counts, dtype=np.int64)
    start = np.cumsum(counts) - counts
    if spec.kind == "mse":
        return np.array([np.mean(r[s : s + c]) for s, c in zip(start.tolist(), counts.tolist())], dtype=float)
    seg = np.repeat(np.arange(counts.size), counts)
    s = r[np.lexsort((r, seg))]
    if spec.kind == "mae":
        return 0.5 * (s[start + (counts - 1) // 2] + s[start + counts // 2])
    return _huber_roots(s, seg, start, counts, spec.delta)


def _huber_roots(s, seg, start, counts, d):
    """Each segment's root of F(c) = sum clip(s - c, -d, d); ``s`` is sorted
    within the segments, which ``seg`` numbers."""
    n = counts.size
    # each segment's 2 * count breakpoints, sorted, from 2 * start on
    bp = np.concatenate([s - d, s + d])
    bp = bp[np.lexsort((bp, np.concatenate([seg, seg])))]
    # bisect breakpoint ranks, keeping F(bp[lo]) > 0 >= F(bp[hi]); F is
    # count * d at the first breakpoint and -count * d at the last.
    # bincount adds each segment's terms in order, apart from the others.
    lo, hi = 2 * start, 2 * (start + counts) - 1
    while (hi - lo > 1).any():
        mid = (lo + hi) // 2
        above = np.bincount(seg, np.clip(s - bp[mid][seg], -d, d), minlength=n) > 0
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    a, b = bp[lo], bp[hi]
    # on (a, b) the residuals within d of c are fixed, so F is linear there
    below, over = s + d <= a[seg], s - d >= b[seg]
    n_below, n_over = np.bincount(seg[below], minlength=n), np.bincount(seg[over], minlength=n)
    # centred on the first residual inside, so equal residuals give themselves
    ref = s[start + np.minimum(n_below, counts - 1)]
    dev = np.bincount(seg, np.where(below | over, 0.0, s - ref[seg]), minlength=n)
    inside = np.maximum(counts - n_below - n_over, 1)
    root = np.clip(ref + (d * (n_over - n_below) + dev) / inside, a, b)
    # a flat stretch: the two middle residuals of an even count lie more
    # than 2d apart, so no residual is within d of it and half lie each side
    half = start + counts // 2
    left, right = s[half - 1] + d, s[half] - d
    return np.where((counts % 2 == 0) & (left < right), left, root)
