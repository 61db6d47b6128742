"""Pointwise regression losses with gradients and hessians.

Three losses are supported: squared error, absolute error, and the Huber
loss that is quadratic within ``delta`` of zero error and linear beyond.
Gradients are taken with respect to the prediction and feed the boosting
learner.  A loss's hessian is one float for every sample: 2 for mse, else 1,
also where the true curvature is 0, so that split gains stay finite; it only
weighs split gains and child sizes; leaf values are leaf-optimal constants.

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


def leaf_optimal_value(spec: LossSpec, residuals) -> float:
    """Constant c minimizing the summed loss of predicting c on ``residuals``.

    residuals are y - current_prediction, so the returned constant is the
    optimal additive correction for a tree leaf.  mse: mean; mae: median;
    huber: root of the monotone derivative, bracketed by the residual range
    and found by bisection (deterministic, 64 halvings).
    """
    r = np.asarray(residuals, dtype=float)
    if r.size == 0:
        return 0.0
    if spec.kind == "mse":
        return float(np.mean(r))
    if spec.kind == "mae":
        return float(np.median(r))
    d = spec.delta
    lo = float(np.min(r))
    hi = float(np.max(r))
    if lo == hi:
        return lo
    # derivative of sum huber(r - c) w.r.t. c is -sum clip(r - c, -d, d),
    # nondecreasing in c; bisect for its zero crossing.
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        slope = -np.clip(r - mid, -d, d).sum()
        if slope < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
