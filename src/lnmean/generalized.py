"""Monte Carlo pivot engines for the shared-mean family.

Two pivot constructions are available.  The "weighted" pivot averages
per-group pivots with data-dependent random weights; the "umvue" pivot plugs
random variance surrogates into the known-variance point estimator.

``PivotDraws`` holds the random draws of one Monte Carlo stream, which both
pivots read, and ``sample_pivots`` evaluates one pivot for mu, the shared
parameter, on them.  ``pvalue_from_pivots`` reads a test outcome off the
pivots (a tail frequency) and ``interval_from_pivots`` an interval (two
empirical quantiles), each checking that there are enough pivots for what it
reads.
``gp_value`` and ``gci`` draw from a seed and read in one call.
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


class PivotDraws:
    """The random draws of one Monte Carlo stream, shared by both pivots.

    The draws are group-major ``(k, reps)`` arrays taken from ``rng`` in a
    fixed order: u ~ chi2(n_i - 1), then z ~ N(0, 1), then v ~ chi2(n_i - 1).
    The umvue pivot reads u and z[0]; the rest of z, and v, are drawn the
    first time the weighted pivot asks for them.  Either pivot alone draws
    only what it reads, and each reads the same numbers whichever asks first.
    """

    def __init__(self, ds: Dataset, reps: int, rng: np.random.Generator):
        self.ds = ds
        self.reps = reps
        self._rng = rng
        self._dfs = (ds.counts() - 1)[:, None]
        self._u = chi_square(self._dfs, rng, (ds.k, reps))
        self._z = np.empty((ds.k, reps))
        self._z[0] = std_normal(rng, reps)
        self._v = None

    def umvue(self) -> tuple[np.ndarray, np.ndarray]:
        """(u, z[0]): the draws of the umvue pivot."""
        return self._u, self._z[0]

    def weighted(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(z, u, v): the draws of the weighted pivot."""
        if self._v is None:
            self._z[1:] = std_normal(self._rng, (self.ds.k - 1, self.reps))
            self._v = chi_square(self._dfs, self._rng, (self.ds.k, self.reps))
        return self._z, self._u, self._v


# rows of draws per pivot evaluation: the formulas' temporaries stay this
# long instead of ``reps`` long
PIVOT_BLOCK = 8192


def sample_pivots(draws: PivotDraws, method: PivotMethod) -> np.ndarray:
    """``draws.reps`` pivot values of ``method`` from ``draws``.

    The formulas run over ``PIVOT_BLOCK`` rows at a time into one array; they
    work row by row, so each value is the one they give on the whole arrays.
    """
    method = PivotMethod.coerce(method)
    ds = draws.ds
    if method is PivotMethod.WEIGHTED:
        z, u, v = draws.weighted()

        def block(rows):
            return pivot_draw_weighted(ds, z[:, rows].T, u[:, rows].T, v[:, rows].T)
    else:
        u, z0 = draws.umvue()

        def block(rows):
            return pivot_draw_umvue(ds, u[:, rows].T, z0[rows])
    out = np.empty(draws.reps)
    for start in range(0, draws.reps, PIVOT_BLOCK):
        rows = slice(start, start + PIVOT_BLOCK)
        out[rows] = block(rows)
    return out


def pvalue_from_pivots(pivots: np.ndarray, spec: TestSpec) -> TestOutcome:
    """Tail frequency of simulated pivots at ``spec.mu0``, with its binomial standard error.

    The alternative "greater" counts pivots <= mu0, "less" counts >= mu0, and
    the two-sided p doubles the smaller strict tail (clipped to 1).  The
    standard error is that of the underlying tail proportion; a tail of no
    draws or of all m draws is resolved only to 1/m, so its error is taken at
    one draw in or out of the tail rather than reported as zero.
    """
    m = pivots.size
    require_draws(m)
    if spec.alternative is Alternative.GREATER:
        count = np.count_nonzero(pivots <= spec.mu0)
        p = count / m
    elif spec.alternative is Alternative.LESS:
        count = np.count_nonzero(pivots >= spec.mu0)
        p = count / m
    else:
        count = min(np.count_nonzero(pivots < spec.mu0), np.count_nonzero(pivots > spec.mu0))
        p = min(1.0, 2.0 * (count / m))
    tail = min(max(count, 1), m - 1) / m
    return TestOutcome(p_value=float(p), mc_std_error=math.sqrt(tail * (1.0 - tail) / m),
                       reps_used=m)


def interval_from_pivots(pivots: np.ndarray, level: float) -> IntervalOutcome:
    """Equal-tailed interval from empirical pivot quantiles (linear
    interpolation), with exp(median) as the estimate, from one partition."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    require_draws(pivots.size, level)
    alpha = 1.0 - level
    lower, median, upper = np.quantile(pivots, [alpha / 2.0, 0.5, 1.0 - alpha / 2.0])
    return interval_from_log(lower, upper, level, estimate=exp_or_inf(median))


def gp_value(ds: Dataset, spec: TestSpec, cfg: MCConfig) -> TestOutcome:
    """Monte Carlo p-value for mu: ``cfg.reps`` pivots of ``cfg.method`` from
    the stream of ``cfg.seed``, read by ``pvalue_from_pivots``."""
    draws = PivotDraws(ds, cfg.reps, StreamKey(cfg.seed).generator())
    return pvalue_from_pivots(sample_pivots(draws, cfg.method), spec)


def gci(ds: Dataset, level: float, cfg: MCConfig) -> IntervalOutcome:
    """Confidence interval for mu: ``cfg.reps`` pivots of ``cfg.method`` from
    the stream of ``cfg.seed``, read by ``interval_from_pivots``."""
    draws = PivotDraws(ds, cfg.reps, StreamKey(cfg.seed).generator())
    return interval_from_pivots(sample_pivots(draws, cfg.method), level)


def _check_group_axis(ds: Dataset, arr: np.ndarray, name: str) -> None:
    if arr.ndim == 0 or arr.shape[-1] != ds.k:
        raise ValueError(f"{name} must have trailing axis of length k={ds.k}")
