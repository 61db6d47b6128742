"""Pointwise regression losses with gradients and hessians.

Three losses are supported: squared error, absolute error, and the Huber
loss that is quadratic within ``delta`` of zero error and linear beyond.
Gradients are taken with respect to the prediction and feed the boosting
learner.  A loss's hessian is one float for every sample: 2 for mse, else 1,
also where the true curvature is 0, so that split gains stay finite.

The learner values mse and Huber leaves by the Newton step of its split
score, from the leaf's gradient sum and hessian mass alone, as LightGBM
does; LightGBM renews only the leaves of its L1-type objectives from the
residuals, with a residual quantile.  So ``leaf_optimal_value`` values mae
leaves only: each the mean of its two middle residuals, sorted as
``np.lexsort`` sorts them (stably, so tied zeros keep their given signs),
which is ``np.median``'s value up to the sign of a zero.  Many leaves are
valued in one call, each from its own residuals alone.

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
    """The mae constant c minimizing sum |r - c| over ``residuals``.

    residuals are y - current_prediction, so c is the optimal additive
    correction for a tree leaf: a float, 0.0 for no residuals.  With
    ``counts``, ``residuals`` holds consecutive nonempty segments of
    ``counts[k]`` values, and the result is the array of their constants,
    each with the bits of a call on its segment alone: the mean of the two
    middle values, sorted as ``np.lexsort`` sorts them, which is
    ``np.median``'s value up to the sign of a zero.  Residuals that are not
    a finite 1-D array, counts that are not positive integers adding up to
    their number, or a loss other than mae raise ``InputError``.
    """
    r = np.asarray(residuals, dtype=float)
    if r.ndim != 1:
        raise InputError(f"residuals must be a 1-D array, got shape {r.shape}")
    _check_finite(r)
    if counts is not None:
        counts = np.asarray(counts)
        if (
            counts.ndim != 1 or (counts.size and counts.dtype.kind not in "iu")
            or not ((counts >= 1) & (counts <= r.size)).all() or counts.sum() != r.size
        ):
            raise InputError(f"counts must be positive integers adding up to the {r.size} residuals")
    if spec.kind != "mae":
        raise InputError(f"leaf constants are taken for mae only, not {spec.kind}")
    if counts is None:
        return float(_medians(r, np.array([r.size]))[0]) if r.size else 0.0
    return _medians(r, counts.astype(np.int64))


def _medians(r, counts):
    """Each segment's mean of its two middle values, sorted as lexsort sorts."""
    start = np.cumsum(counts) - counts
    s = _sorted_within(r, np.repeat(np.arange(counts.size), counts))
    return 0.5 * (s[start + (counts - 1) // 2] + s[start + counts // 2])


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
