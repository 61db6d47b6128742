"""Seeded daily demand from a zero-inflated negative binomial distribution.

A hospital is a ``ZinbParams``: its demand mixes a point mass at zero
(probability ``pi``) with a negative binomial count.  The negative binomial
here counts failures before the r-th success, so its mean is r(1-p)/p; the
zero-inflated mean is (1-pi) r (1-p)/p.

``DemandModel.sample_day`` is the one sampler.  It inverts each hospital's
mixture CDF over the integer support, using a table truncated at cumulative
probability 1 - 1e-12, with one uniform block per call: day-major, one
uniform per hospital and day, so ``days`` days at once read the same stream
as ``days`` one-day draws.  This keeps draws exactly reproducible: the same
seed yields the same integers on any platform.  A hospital whose table does
not reach 1 - 1e-12 within ``MAX_SUPPORT`` values (a huge mean, or ``p**r``
underflowing to 0) is a ``ConfigError`` when the model is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

TAIL_MASS = 1e-12
# The most steps a CDF table takes past demand 0 before it must reach 1 - TAIL_MASS.
MAX_SUPPORT = 100_000

# Per-hospital parameters reported for the four-hospital network: hospital 1
# (pi=0.6, r=4, p=0.6), 2 (0.6, 3, 0.57), 3 (0.25, 15, 0.57), 4 (0.25, 15, 0.48).
DEFAULT_HOSPITAL_PARAMS = (
    (0.60, 4, 0.60),
    (0.60, 3, 0.57),
    (0.25, 15, 0.57),
    (0.25, 15, 0.48),
)


@dataclass(frozen=True)
class ZinbParams:
    """pi: inflated zero probability; r: successes required; p: success probability."""

    pi: float
    r: int
    p: float

    def __post_init__(self):
        if not 0.0 <= self.pi <= 1.0:
            raise ConfigError(f"pi must be in [0, 1], got {self.pi}")
        if not (isinstance(self.r, (int, np.integer)) and self.r >= 1):
            raise ConfigError(f"r must be a positive integer, got {self.r}")
        if not 0.0 < self.p <= 1.0:
            raise ConfigError(f"p must be in (0, 1], got {self.p}")

    @property
    def mean(self) -> float:
        return (1.0 - self.pi) * self.r * (1.0 - self.p) / self.p

    @property
    def variance(self) -> float:
        mu = self.r * (1.0 - self.p) / self.p
        var_nb = self.r * (1.0 - self.p) / (self.p * self.p)
        return (1.0 - self.pi) * var_nb + self.pi * (1.0 - self.pi) * mu * mu


def default_demand_configs() -> tuple[ZinbParams, ...]:
    return tuple(ZinbParams(pi, r, p) for pi, r, p in DEFAULT_HOSPITAL_PARAMS)


def _mixture_cdf(params: ZinbParams) -> np.ndarray:
    """CDF table F(k) = pi + (1-pi) F_NB(k), truncated at 1 - TAIL_MASS or
    after MAX_SUPPORT steps, whichever comes first."""
    pi, r, p = params.pi, params.r, params.p
    pmf0 = p**r
    table = []
    pmf = pmf0
    cum_nb = pmf0
    cum = pi + (1.0 - pi) * cum_nb
    table.append(cum)
    k = 0
    while cum < 1.0 - TAIL_MASS and k < MAX_SUPPORT:
        pmf *= (k + r) / (k + 1) * (1.0 - p)
        cum_nb += pmf
        cum = pi + (1.0 - pi) * cum_nb
        table.append(cum)
        k += 1
    return np.asarray(table)


@dataclass(frozen=True)
class DemandModel:
    """The network's demand: one CDF table per hospital, in hospital order."""

    hospitals: tuple[ZinbParams, ...]
    _tables: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_tables", tuple(map(_mixture_cdf, self.hospitals)))
        for k, table in enumerate(self._tables):
            if table[-1] < 1.0 - TAIL_MASS:
                raise ConfigError(
                    f"hospital {k + 1}: {self.hospitals[k]} does not reach cumulative "
                    f"probability 1 - {TAIL_MASS:g} within {MAX_SUPPORT} demand values"
                )

    @property
    def n_hospitals(self) -> int:
        return len(self.hospitals)

    def sample_day(self, rng: np.random.Generator, days: int) -> np.ndarray:
        """An int64 (days, H) block: one draw per day and hospital."""
        u = rng.random((days, self.n_hospitals))
        out = np.empty(u.shape, dtype=np.int64)
        for i, table in enumerate(self._tables):
            out[:, i] = np.searchsorted(table, u[:, i], side="right")
        return out
