"""Monte Carlo pivot engines for the shared-mean family.

Two pivot constructions are available.  The "weighted" pivot averages
per-group pivots with data-dependent random weights; the "umvue" pivot plugs
random variance surrogates into the known-variance point estimator.

``PivotDraws`` addresses the random draws of one Monte Carlo stream, one
substream per draw row, which both pivots read, and ``sample_pivots``
evaluates the requested pivots for mu, the shared parameter, on them in one
pass.  ``pvalue_from_pivots`` reads a test outcome off the pivots (a tail
frequency) and ``interval_from_pivots`` an interval (two empirical
quantiles off one sort), each checking that there are enough pivots for
what it reads.
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
from .samplers import StreamKey, chi_square, std_normal, stream_generator, stream_words


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


def pivot_draw_weighted(ds: Dataset, z, u, v):
    """Weighted-combination pivot value(s) from explicit random draws.

    Per group, with observed (n_i, ybar_i, s_i^2) and draws z_i ~ N(0,1),
    u_i, v_i ~ chi2(n_i - 1):

        t_i = (ybar_i - b (n_i-1) s_i^2 / u_i
                      - z_i sqrt((n_i-1) s_i^2 / (n_i u_i))) / a

    and the pivot is sum_i w_i t_i with weights from ``_weight_columns``.  All
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

    The pivot is NaN where some (n_i - 1) s_i^2 overflows.
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
    if math.isinf(max(scaled for _, _, scaled in groups)):
        # a group whose (n_i - 1) s_i^2 overflows has rate 0 but still counts in
        # n b, so the pivot is not defined
        out = np.full_like(out, math.nan)
    return float(out) if np.ndim(out) == 0 else out


class PivotDraws:
    """The draw rows of one Monte Carlo stream, shared by both pivots.

    There are 3k rows of ``reps`` draws: u_i ~ chi2(n_i - 1) are rows 0..k-1,
    z_i ~ N(0, 1) rows k..2k-1 and v_i ~ chi2(n_i - 1) rows 2k..3k-1.  Row j
    is its own substream, ``key.generator(*lanes, j)`` (see ``samplers``).
    The umvue pivot reads the u rows and z_1, k + 1 rows; the weighted pivot
    reads all 3k.  Nothing is drawn or kept here: ``sample_pivots`` makes the
    generators of the rows it reads and draws them in order, so each pivot
    reads the same numbers whichever other pivots are evaluated with it, and
    the first m of ``reps`` pivots are the pivots of m draws.

    The rows' starting words are hashed as one block on first use, or given
    as ``words``, a (3k, 3) slice of a larger block that the caller hashed
    at once (``samplers.stream_words(key.seed, key.stream_index, *lanes,
    np.arange(3 * k))``, the simulation's replicates).
    """

    def __init__(self, ds: Dataset, reps: int, key: StreamKey, *lanes: int,
                 words: np.ndarray | None = None):
        self.ds = ds
        self.reps = reps
        self.key = key
        self.lanes = lanes
        self._words = words

    def row_words(self) -> np.ndarray:
        """The (3k, 3) starting words of the draw rows, row j in row j."""
        if self._words is None:
            self._words = stream_words(self.key.seed, self.key.stream_index, *self.lanes,
                                       np.arange(3 * self.ds.k))
        return self._words


# draws per row taken at a time: the draw arrays and the formulas'
# temporaries stay this long instead of ``reps`` long.  It changes no number.
PIVOT_BLOCK = 8192


def sample_pivots(draws: PivotDraws, kinds) -> np.ndarray:
    """``draws.reps`` pivots of each of ``kinds``: row i holds those of ``kinds[i]``.

    One pass walks the draws ``PIVOT_BLOCK`` at a time.  It fills reused
    (k, block) arrays from the row substreams that the kinds read and runs
    each kind's formula on them.  The formulas work draw by draw and each row
    is one sequential stream, so no value depends on the block length.
    """
    kinds = [PivotMethod.coerce(kind) for kind in kinds]
    ds, k, reps = draws.ds, draws.ds.k, draws.reps
    weighted = PivotMethod.WEIGHTED in kinds
    dfs = [g.n - 1 for g in ds.groups]
    words = draws.row_words()
    u_rows = [stream_generator(words[i]) for i in range(k)]
    z_rows = [stream_generator(words[k + i]) for i in range(k if weighted else 1)]
    v_rows = [stream_generator(words[2 * k + i]) for i in range(k)] if weighted else []
    width = min(PIVOT_BLOCK, reps)
    u, z, v = (np.empty((len(rows), width)) for rows in (u_rows, z_rows, v_rows))
    out = np.empty((len(kinds), reps))
    for start in range(0, reps, width):
        m = min(width, reps - start)
        for i, rng in enumerate(u_rows):
            chi_square(dfs[i], rng, out=u[i, :m])
        for i, rng in enumerate(z_rows):
            std_normal(rng, out=z[i, :m])
        for i, rng in enumerate(v_rows):
            chi_square(dfs[i], rng, out=v[i, :m])
        with np.errstate(all="ignore"):  # a NaN pivot is named where it is read
            for row, kind in zip(out, kinds):
                if kind is PivotMethod.WEIGHTED:
                    row[start:start + m] = pivot_draw_weighted(ds, z[:, :m].T, u[:, :m].T,
                                                               v[:, :m].T)
                else:
                    row[start:start + m] = pivot_draw_umvue(ds, u[:, :m].T, z[0, :m])
    return out


def pvalue_from_pivots(pivots: np.ndarray, spec: TestSpec) -> TestOutcome:
    """Tail frequency of simulated pivots at ``spec.mu0``, with its binomial standard error.

    The alternative "greater" counts pivots <= mu0, "less" counts >= mu0, and
    the two-sided p doubles the smaller strict tail (clipped to 1).  The
    standard error is that of the underlying tail proportion; a tail of no
    draws or of all m draws is resolved only to 1/m, so its error is taken at
    one draw in or out of the tail rather than reported as zero.  A NaN pivot
    lies in neither tail, so pivots with one are refused.
    """
    m = pivots.size
    require_draws(m)
    if np.isnan(pivots).any():
        raise ValueError("NaN pivots: no tail frequency can be read off them")
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


def _linear_quantile(ordered: np.ndarray, q: float) -> float:
    """``np.quantile``'s default (linear) quantile at ``q`` < 1 of the sorted ``ordered``.

    It is numpy's own arithmetic: the virtual index (m - 1) q, its floor and
    fractional part gamma, and the lerp from whichever of the two straddling
    order statistics is nearer.
    """
    virtual = (ordered.size - 1) * q
    below = math.floor(virtual)
    gamma = virtual - below
    a, b = float(ordered[below]), float(ordered[below + 1])
    diff = b - a
    return b - diff * (1.0 - gamma) if gamma >= 0.5 else a + diff * gamma


def interval_from_pivots(pivots: np.ndarray, level: float) -> IntervalOutcome:
    """Equal-tailed interval from empirical pivot quantiles (linear
    interpolation), with exp(median) as the estimate.

    One sort serves all three quantiles, each read off as ``np.quantile``
    reads it.  A NaN pivot sorts last and makes every quantile NaN, as it does
    in ``np.quantile``, and the interval is then empty.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    require_draws(pivots.size, level)
    alpha = 1.0 - level
    ordered = np.sort(pivots)
    if math.isnan(ordered[-1]):
        lower = median = upper = math.nan
    else:
        lower, median, upper = (_linear_quantile(ordered, q)
                                for q in (alpha / 2.0, 0.5, 1.0 - alpha / 2.0))
    return interval_from_log(lower, upper, level, estimate=exp_or_inf(median))


def gp_value(ds: Dataset, spec: TestSpec, cfg: MCConfig) -> TestOutcome:
    """Monte Carlo p-value for mu: ``cfg.reps`` pivots of ``cfg.method`` from
    the stream of ``cfg.seed``, read by ``pvalue_from_pivots``."""
    draws = PivotDraws(ds, cfg.reps, StreamKey(cfg.seed))
    return pvalue_from_pivots(sample_pivots(draws, [cfg.method])[0], spec)


def gci(ds: Dataset, level: float, cfg: MCConfig) -> IntervalOutcome:
    """Confidence interval for mu: ``cfg.reps`` pivots of ``cfg.method`` from
    the stream of ``cfg.seed``, read by ``interval_from_pivots``."""
    draws = PivotDraws(ds, cfg.reps, StreamKey(cfg.seed))
    return interval_from_pivots(sample_pivots(draws, [cfg.method])[0], level)


def _check_group_axis(ds: Dataset, arr: np.ndarray, name: str) -> None:
    if arr.ndim == 0 or arr.shape[-1] != ds.k:
        raise ValueError(f"{name} must have trailing axis of length k={ds.k}")
