"""Monte Carlo pivot engines for the shared-mean family.

Two pivot constructions are available.  The "weighted" pivot averages
per-group pivots with data-dependent random weights; the "umvue" pivot plugs
random variance surrogates into the known-variance point estimator.  Both
simulate the pivot distribution and read off tail frequencies (tests) or
empirical quantiles (confidence intervals) for mu, the shared parameter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import Dataset
from .outcomes import (Alternative, IntervalOutcome, TestOutcome, exp_or_inf,
                       interval_from_log)
from .samplers import StreamKey, chi_square, std_normal


class PivotMethod(Enum):
    """Which pivot construction to simulate."""

    WEIGHTED = "weighted"
    UMVUE = "umvue"

    @classmethod
    def coerce(cls, value) -> "PivotMethod":
        if isinstance(value, cls):
            return value
        name = str(value).strip().lower()
        for member in cls:
            if member.value == name:
                return member
        raise ValueError(f"unknown pivot method {value!r}; use weighted or umvue")


_METHOD_TAGS = {PivotMethod.WEIGHTED: "gv-weighted", PivotMethod.UMVUE: "gv-umvue"}


def require_draws(reps: int, level: float | None = None) -> None:
    """Raise ValueError if ``reps`` draws are too few, or leave under 10 per tail at ``level``."""
    if reps < 1000:
        raise ValueError("reps must be at least 1000 for a usable standard error")
    if level is not None and reps * (1.0 - level) / 2.0 < 10.0:
        raise ValueError(f"reps={reps} too small to resolve the {level:.3%} tails")


@dataclass(frozen=True)
class MCConfig:
    """Monte Carlo settings for pivot simulation."""

    reps: int = 100_000
    seed: int = 0
    method: PivotMethod = PivotMethod.WEIGHTED

    def __post_init__(self):
        require_draws(self.reps)
        object.__setattr__(self, "method", PivotMethod.coerce(self.method))


@dataclass(frozen=True)
class TestSpec:
    """Null value of mu (log scale for the lognormal model) and the alternative."""

    __test__ = False  # not a pytest class, despite the name

    mu0: float
    alternative: Alternative = Alternative.TWO_SIDED

    def __post_init__(self):
        if not math.isfinite(self.mu0):
            raise ValueError("mu0 must be finite")
        object.__setattr__(self, "alternative", Alternative.coerce(self.alternative))


def _check_positive(arr: np.ndarray, what: str) -> None:
    if np.any(arr <= 0.0):
        raise ValueError(f"{what} chi-square draws must be strictly positive")


def _column_sum(columns):
    """Sum of per-group columns, left to right: numpy's own order for k < 8."""
    columns = iter(columns)
    total = next(columns)
    for col in columns:
        total = total + col
    return total


def _weight_columns(ds: Dataset, v: np.ndarray) -> list:
    """One column w_i = r_i / sum_j r_j per group, r_i = n_i v_i / ((n_i - 1) s_i^2)."""
    raw = [n * v[..., i] / scaled for i, (n, _, scaled) in enumerate(ds.group_terms())]
    total = _column_sum(raw)
    return [col / total for col in raw]


def pivot_weights(ds: Dataset, v) -> np.ndarray:
    """Normalized weights n_i * v_i / ((n_i - 1) s_i^2) for chi-square draws v.

    ``v`` has shape (..., k); the weights sum to one along the last axis.
    """
    v = np.asarray(v, dtype=float)
    _check_group_axis(ds, v, "v")
    _check_positive(v, "weight")
    return np.stack(_weight_columns(ds, v), axis=-1)


def pivot_draw_weighted(ds: Dataset, z, u, v):
    """Weighted-combination pivot value(s) from explicit random draws.

    Per group, with observed (n_i, ybar_i, s_i^2) and draws z_i ~ N(0,1),
    u_i, v_i ~ chi2(n_i - 1):

        t_i = (ybar_i - b (n_i-1) s_i^2 / u_i
                      - z_i sqrt((n_i-1) s_i^2 / (n_i u_i))) / a

    and the pivot is sum_i w_i t_i with weights from ``pivot_weights``.  All
    of ``z``, ``u``, ``v`` have shape (..., k); leading axes are draw axes.
    """
    z = np.asarray(z, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    for name, arr in (("z", z), ("u", u)):
        _check_group_axis(ds, arr, name)
    _check_positive(u, "pivot")
    _check_group_axis(ds, v, "v")
    _check_positive(v, "weight")
    a, b = ds.model.a, ds.model.b
    groups = zip(ds.group_terms(), _weight_columns(ds, v))
    out = _column_sum(
        w * ((ybar - b * scaled / u[..., i] - z[..., i] * np.sqrt(scaled / (n * u[..., i]))) / a)
        for i, ((n, ybar, scaled), w) in enumerate(groups))
    return float(out) if np.ndim(out) == 0 else out


def pivot_draw_umvue(ds: Dataset, u, z):
    """Estimator-based pivot value(s) from explicit random draws.

    With u_i ~ chi2(n_i - 1) of shape (..., k) and a single z ~ N(0,1) per
    draw (shape (...)):

        A = sum_i n_i ybar_i u_i / ((n_i-1) s_i^2) - n b
        B = sum_i n_i u_i / ((n_i-1) s_i^2)
        pivot = A / (a B) - z / (|a| sqrt(B))
    """
    u = np.asarray(u, dtype=float)
    z = np.asarray(z, dtype=float)
    _check_group_axis(ds, u, "u")
    _check_positive(u, "pivot")
    a = ds.model.a
    groups = ds.group_terms()
    rates = [n * u[..., i] / scaled for i, (n, _, scaled) in enumerate(groups)]
    a_sum = _column_sum(rate * ybar for rate, (_, ybar, _) in zip(rates, groups)) \
        - ds.total_n * ds.model.b
    b_sum = _column_sum(rates)
    out = a_sum / (a * b_sum) - z / (abs(a) * np.sqrt(b_sum))
    return float(out) if np.ndim(out) == 0 else out


def sample_pivots(ds: Dataset, method: PivotMethod, reps: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Simulate ``reps`` pivot values; the draw order per replication is fixed."""
    method = PivotMethod.coerce(method)
    dfs = ds.counts() - 1
    shape = (reps, ds.k)
    if method is PivotMethod.WEIGHTED:
        u = chi_square(dfs, rng, shape)
        v = chi_square(dfs, rng, shape)
        z = std_normal(rng, shape)
        return pivot_draw_weighted(ds, z, u, v)
    u = chi_square(dfs, rng, shape)
    z = std_normal(rng, reps)
    return pivot_draw_umvue(ds, u, z)


def pvalue_from_pivots(pivots: np.ndarray, mu0: float, alternative: Alternative) -> tuple[float, float]:
    """Tail frequency of simulated pivots at mu0, with its binomial standard error.

    The alternative "greater" counts pivots <= mu0, "less" counts >= mu0, and
    the two-sided p doubles the smaller strict tail (clipped to 1).  The
    returned standard error is that of the underlying tail proportion; a tail
    of no draws or of all m draws is resolved only to 1/m, so its error is
    taken at one draw in or out of the tail rather than reported as zero.
    """
    alternative = Alternative.coerce(alternative)
    m = pivots.size
    if alternative is Alternative.GREATER:
        count = np.count_nonzero(pivots <= mu0)
        return count / m, _tail_std_error(count, m)
    if alternative is Alternative.LESS:
        count = np.count_nonzero(pivots >= mu0)
        return count / m, _tail_std_error(count, m)
    tail = min(np.count_nonzero(pivots < mu0), np.count_nonzero(pivots > mu0))
    return min(1.0, 2.0 * (tail / m)), _tail_std_error(tail, m)


def _tail_std_error(count: int, m: int) -> float:
    p = min(max(count, 1), m - 1) / m
    return math.sqrt(p * (1.0 - p) / m)


def interval_from_pivots(pivots: np.ndarray, level: float) -> tuple[float, float, float]:
    """Equal-tailed interval and median from empirical pivot quantiles (linear
    interpolation), as ``(lower, upper, median)`` from one partition."""
    alpha = 1.0 - level
    lower, median, upper = np.quantile(pivots, [alpha / 2.0, 0.5, 1.0 - alpha / 2.0])
    return float(lower), float(upper), float(median)


def gp_value(ds: Dataset, spec: TestSpec, cfg: MCConfig, *,
             pivots: np.ndarray | None = None) -> TestOutcome:
    """Monte Carlo p-value for mu from the configured pivot method.

    ``pivots``, if given, are ``cfg.method`` pivots the caller already drew;
    they replace the draw of ``cfg.reps`` from the stream of ``cfg.seed``.
    """
    if pivots is None:
        pivots = sample_pivots(ds, cfg.method, cfg.reps, StreamKey(cfg.seed).generator())
    p, se = pvalue_from_pivots(pivots, spec.mu0, spec.alternative)
    return TestOutcome(p_value=p, mc_std_error=se, reps_used=pivots.size,
                       method=_METHOD_TAGS[cfg.method])


def gci(ds: Dataset, level: float, cfg: MCConfig, *,
        pivots: np.ndarray | None = None) -> IntervalOutcome:
    """Confidence interval for mu from empirical quantiles of simulated pivots.

    ``pivots``, if given, are ``cfg.method`` pivots the caller already drew;
    they replace the draw of ``cfg.reps`` from the stream of ``cfg.seed``.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    require_draws(cfg.reps, level)
    if pivots is None:
        pivots = sample_pivots(ds, cfg.method, cfg.reps, StreamKey(cfg.seed).generator())
    lower, upper, median = interval_from_pivots(pivots, level)
    return interval_from_log(lower, upper, level, method=_METHOD_TAGS[cfg.method],
                             estimate=exp_or_inf(median))


def _check_group_axis(ds: Dataset, arr: np.ndarray, name: str) -> None:
    if arr.ndim == 0 or arr.shape[-1] != ds.k:
        raise ValueError(f"{name} must have trailing axis of length k={ds.k}")
