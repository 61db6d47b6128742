"""Seeded daily demand from a zero-inflated negative binomial distribution.

Each hospital's demand mixes a point mass at zero (probability ``pi``) with
a negative binomial count.  The negative binomial here counts failures
before the r-th success, so its mean is r(1-p)/p; the zero-inflated mean is
(1-pi) r (1-p)/p.  Sampling inverts the mixture CDF over the integer
support, using a table truncated at cumulative probability 1 - 1e-12, with
one uniform block per call: day-major, one uniform per hospital and day, so
``days`` days at once read the same stream as ``days`` one-day draws.  This
keeps draws exactly reproducible: the same seed yields the same integers on
any platform.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

TAIL_MASS = 1e-12

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


@dataclass(frozen=True)
class HospitalDemandConfig:
    """One hospital's identity (1-based, contiguous) and demand parameters."""

    hospital_id: int
    params: ZinbParams


def default_demand_configs() -> list[HospitalDemandConfig]:
    return [
        HospitalDemandConfig(i + 1, ZinbParams(pi, r, p))
        for i, (pi, r, p) in enumerate(DEFAULT_HOSPITAL_PARAMS)
    ]


def validate_configs(configs) -> None:
    ids = [c.hospital_id for c in configs]
    if ids != list(range(1, len(configs) + 1)):
        raise ConfigError(f"hospital ids must be 1..{len(configs)} and contiguous, got {ids}")


def _mixture_cdf(params: ZinbParams) -> np.ndarray:
    """CDF table F(k) = pi + (1-pi) F_NB(k), truncated at 1 - TAIL_MASS."""
    pi, r, p = params.pi, params.r, params.p
    pmf0 = p**r
    table = []
    pmf = pmf0
    cum_nb = pmf0
    cum = pi + (1.0 - pi) * cum_nb
    table.append(cum)
    k = 0
    while cum < 1.0 - TAIL_MASS and k < 100_000:
        pmf *= (k + r) / (k + 1) * (1.0 - p)
        cum_nb += pmf
        cum = pi + (1.0 - pi) * cum_nb
        table.append(cum)
        k += 1
    return np.asarray(table)


class ZinbSampler:
    """Immutable inverse-CDF sampler for one parameter set.

    Thread safety: the sampler holds only the precomputed table; callers own
    their generators, so independent streams can draw concurrently.
    """

    def __init__(self, params: ZinbParams):
        self.params = params
        self._cdf = _mixture_cdf(params)

    def sample(self, rng: np.random.Generator, size=None):
        u = rng.random(size)
        k = np.searchsorted(self._cdf, u, side="right")
        return int(k) if size is None else k.astype(np.int64)


@dataclass(frozen=True)
class DemandModel:
    """Samplers for the whole network, one per hospital."""

    configs: tuple[HospitalDemandConfig, ...]
    _samplers: tuple[ZinbSampler, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        validate_configs(self.configs)
        object.__setattr__(
            self, "_samplers", tuple(ZinbSampler(c.params) for c in self.configs)
        )

    @property
    def n_hospitals(self) -> int:
        return len(self.configs)

    def sample_day(self, rng: np.random.Generator, days: int = None) -> np.ndarray:
        """One draw per hospital: an int64 (H,) day, or a (days, H) block of days."""
        u = rng.random((1 if days is None else days, self.n_hospitals))
        out = np.empty(u.shape, dtype=np.int64)
        for i, s in enumerate(self._samplers):
            out[:, i] = np.searchsorted(s._cdf, u[:, i], side="right")
        return out[0] if days is None else out
