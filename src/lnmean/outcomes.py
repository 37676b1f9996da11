"""Shared result containers for tests and confidence intervals."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class Alternative(Enum):
    """Direction of the alternative hypothesis."""

    GREATER = "greater"
    LESS = "less"
    TWO_SIDED = "two-sided"

    @classmethod
    def coerce(cls, value) -> "Alternative":
        if isinstance(value, cls):
            return value
        name = str(value).strip().lower().replace("_", "-")
        for member in cls:
            if member.value == name:
                return member
        raise ValueError(f"unknown alternative {value!r}; use greater, less or two-sided")


@dataclass(frozen=True)
class TestOutcome:
    """A p-value with its Monte Carlo precision, if any.

    ``mc_std_error`` is the standard error of the underlying tail proportion
    and ``reps_used`` the number of pivots it was read from (both zero for
    closed-form tests); ``statistic`` carries the test statistic when the
    method has one (Wald z, likelihood ratio).
    """

    __test__ = False  # not a pytest class, despite the name

    p_value: float
    mc_std_error: float
    reps_used: int
    statistic: float | None = None

    def __post_init__(self):
        if not 0.0 <= self.p_value <= 1.0:
            raise ValueError(f"p_value {self.p_value} outside [0, 1]")
        if self.mc_std_error < 0.0:
            raise ValueError("mc_std_error must be nonnegative")
        if self.reps_used < 0:
            raise ValueError("reps_used must be nonnegative")


@dataclass(frozen=True)
class IntervalOutcome:
    """A two-sided confidence interval on both parameter scales.

    ``lower``/``upper`` bound the log-scale parameter mu; ``phi_lower``/
    ``phi_upper`` bound exp(mu) on the original scale.  One pair is native to
    the method and the other is derived from it, so methods whose original
    scale bound can be nonpositive (Wald-type) get ``lower = -inf``, and
    ``lower <= mu <= upper`` is the coverage check for every method, so order
    is checked there only: a derived original-scale bound may be inf, or 0.
    ``estimate`` is the method's point estimate of exp(mu), if it has one.
    """

    lower: float
    upper: float
    level: float
    phi_lower: float
    phi_upper: float
    estimate: float | None = None

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must be in (0, 1)")
        if not self.lower < self.upper:
            raise ValueError(f"empty interval: [{self.lower}, {self.upper}]")

    @property
    def width(self) -> float:
        return self.phi_upper - self.phi_lower


def exp_or_inf(x: float) -> float:
    """exp(x) on the original scale, where a value beyond the float range is inf."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def log_phi0(phi0: float) -> float:
    """log(phi0) of a null phi0 on the original scale, which must be positive and finite."""
    if not (math.isfinite(phi0) and phi0 > 0.0):
        raise ValueError("phi0 must be positive and finite")
    return math.log(phi0)


def interval_from_log(lower: float, upper: float, level: float,
                      estimate: float | None = None) -> IntervalOutcome:
    """Interval whose native scale is the log scale; exponentiates exactly."""
    return IntervalOutcome(
        lower=float(lower),
        upper=float(upper),
        level=float(level),
        phi_lower=exp_or_inf(lower),
        phi_upper=exp_or_inf(upper),
        estimate=estimate,
    )


def interval_from_phi(phi_lower: float, phi_upper: float, level: float,
                      estimate: float | None = None) -> IntervalOutcome:
    """Interval whose native scale is the original scale of exp(mu)."""
    return IntervalOutcome(
        lower=math.log(phi_lower) if phi_lower > 0.0 else -math.inf,
        upper=math.log(phi_upper) if phi_upper > 0.0 else -math.inf,
        level=float(level),
        phi_lower=float(phi_lower),
        phi_upper=float(phi_upper),
        estimate=estimate,
    )
