"""Classical procedures for the common lognormal mean.

All of these assume the (a=1, b=-0.5) model on the log scale: a pooled Wald
estimator with per-group delta-method variances (ahmed), the chi-square
acceptance-set interval centred on its pooled estimate (baklizi), maximum
likelihood with a Wald interval from the efficient information for mu
(gupta-li), and a profile likelihood-ratio test (lrt).  Every procedure
takes any number of groups.

The variances maximize the likelihood in closed form at any fixed mu, so the
ML fit is a global search over the one-dimensional profile likelihood of mu.

Each procedure is written once, over arrays whose leading axis runs over the
datasets of a ``GroupBlock``; a single dataset is a block of one.  Two
builders do the shared work of a block: ``ahmed_components_block`` (ahmed and
baklizi) and ``gupta_li_mle_block`` (gupta-li and lrt).  The ``*_block``
readers give each dataset what its outcome needs, a ``TestBlock`` or an
``IntervalBlock``, whose ``lane(i)`` is dataset i's outcome or raises its
failure reason, written once next to its formula and built only when read.
``ahmed_components(ds)``, ``gupta_li_mle(ds)`` and the six per-dataset
readers are views of a block of one.  The builders refuse a dataset outside
the lognormal-mean model.

The datasets of a block share their group count k; their group sizes may
differ from lane to lane, so a block may hold the stacks of several cells.
Sums over the groups run column by column, left to right, as numpy sums
fewer than 8 elements, so for k < 8 the figures have the bits that the same
formulas give on numpy arrays.  exp and log are numpy's; x ** -0.5 and the log
of an original-scale bound are Python's, as when these formulas ran on Python
floats (where numpy has SIMD versions, the two differ in the last bit for some
arguments).

The p-values and quantiles need no special-function library: erfc is
Python's ``math.erfc``, the normal and chi-square(1) tails are erfc, a
chi-square tail of integer df is erfc and a finite Poisson-type sum, and a
quantile is its tail bisected down to adjacent floats.

A decision needs no p-value and no Python log.  ``TestBlock.rejects`` reads
each lane's erfc argument against the critical value at which erfc crosses
alpha, and ``IntervalBlock.covers`` reads numpy's log of each original-scale
bound against mu.  A lane within a relative ``_BAND`` of the critical value,
of mu or of its other bound is decided again from Python's erfc or log.  The
band is millions of ulps wide, and two faithful implementations of erfc or
log differ by a few ulps, so every lane decides as its p-value or its
``IntervalOutcome`` does.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import Dataset
from .outcomes import (Alternative, IntervalOutcome, TestOutcome, exp_or_inf,
                       interval_from_log, interval_from_phi, is_ordered, is_p_value, log_phi0)

_SIGMA2_FLOOR = 1e-12
# the largest x whose exp is finite
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_AHMED_RANGE = "ahmed delta-method variances overflow or underflow the float range"
# the Brent search for the ML estimate of mu: an absolute tolerance, and
# scipy's default relative tolerance and iteration cap for brentq
_MU_XTOL = 1e-14
_MU_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_MAXITER = 100
# values of one scan array, groups x datasets x points; a larger block is fitted in halves
_SCAN_BUDGET = 2 ** 20
# the arithmetic of every kernel: overflow, 0 * inf and the like are read off
# the results (inf and NaN) and named, not warned about
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")
_SQRT2 = math.sqrt(2.0)
_LN2 = math.log(2.0)
# the binary exponent by which a chi-square tail's sum is scaled down where it would overflow
_RESCALE_BITS = 900
# the relative width about a critical value within which a decision is read
# from Python's erfc or log; numpy's log, and a critical value bisected to
# adjacent floats, lie a few ulps (2^-52 each) from Python's figures
_BAND = 2.0 ** -30
# the smallest erfc target read against a critical value: about a smaller
# one erfc's values come near the subnormal range, whose ulps are coarse
_CUT_FLOOR = 2.0 ** -1000


def _require_mu0(mu0: float) -> None:
    if not math.isfinite(mu0):
        raise ValueError("mu0 must be finite")


def _erfc(x: np.ndarray) -> np.ndarray:
    """``math.erfc`` of each value of the 1-d ``x``: NaN stays NaN, +-inf give 0 and 2."""
    return np.fromiter(map(math.erfc, x.tolist()), float, count=x.size)


def _normal_tail(x: float) -> float:
    """P(Z > x) for a standard normal Z."""
    return 0.5 * math.erfc(x / _SQRT2)


def _chi2_tail(x: float, df: int) -> float:
    """P(X > x) for X ~ chi-square(df), integer df >= 1, in closed form.

    With h = x / 2 the tail is e^-h sum_a h^a / a! over a = 0, 1, .., < df/2
    for even df, and erfc(sqrt(h)) + e^-h sum_a h^a / Gamma(a + 1) over
    a = 1/2, 3/2, .., < df/2 for odd df.  Every term is positive, each one a
    rounding from the last.  From a df in the thousands on the terms pass
    the float range, so a term past 2^_RESCALE_BITS scales the sum down by
    that power of two, exactly, and the final exp scales it back.
    """
    half = x / 2.0
    if df % 2:
        tail, a, term = math.erfc(math.sqrt(half)), 0.5, 2.0 * math.sqrt(half / math.pi)
    else:
        tail, a, term = 0.0, 0.0, 1.0
    total, shift = 0.0, 0
    while a < df / 2.0:
        total += term
        a += 1.0
        term *= half / a
        if term > 2.0 ** _RESCALE_BITS:
            term, total = math.ldexp(term, -_RESCALE_BITS), math.ldexp(total, -_RESCALE_BITS)
            shift += _RESCALE_BITS
    return tail + math.exp(shift * _LN2 - half) * total


def _tail_quantile(tail: Callable[[float], float], p: float, start: float) -> float:
    """The x >= 0 at which the decreasing ``tail`` falls to ``p`` in (0, 1),
    bisected down to adjacent floats (the nearer in tail of the two)."""
    lo, hi = 0.0, start
    while tail(hi) > p:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := lo + (hi - lo) / 2.0) < hi:
        if tail(mid) > p:
            lo = mid
        else:
            hi = mid
    return lo if tail(lo) - p < p - tail(hi) else hi


@functools.lru_cache(maxsize=64)
def _erfc_cut(target: float) -> float:
    """The x >= 0 at which erfc falls to ``target`` in (0, 1]: a p-value
    erfc(x) is below the target where x lies past it."""
    return _tail_quantile(math.erfc, target, 1.0)


# The quantiles depend only on the level (and k), so they are computed once per
# distinct argument, from the upper tail 1 - level (exact for level >= 1/2).
# A level outside (0, 1) has none; the interval it would give is refused.
@functools.lru_cache(maxsize=64)
def _normal_quantile(level: float) -> float:
    if not 0.0 < level < 1.0:
        return math.nan
    return _tail_quantile(_normal_tail, (1.0 - level) / 2.0, 1.0)


@functools.lru_cache(maxsize=64)
def _chi2_quantile(level: float, df: int) -> float:
    if not 0.0 < level < 1.0:
        return math.nan
    return _tail_quantile(functools.partial(_chi2_tail, df=df), 1.0 - level, float(df))


def _inverse_sqrt(x: np.ndarray) -> np.ndarray:
    """x ** -0.5 of each positive (or +inf) x: libm's pow, as Python's ``**`` calls it."""
    return np.fromiter(map(math.pow, x.tolist(), itertools.repeat(-0.5, x.size)), float, x.size)


def _group_sum(terms):
    """The sum over the first (group) axis of ``terms``, left to right."""
    total = 0.0
    for term in terms:
        total = total + term
    return total


@dataclass(frozen=True)
class GroupBlock:
    """Group summaries of R datasets of k groups each.

    ``means`` and ``variances`` (n - 1 divisor) are (R, k) arrays.  ``ns``
    are the k group sizes that every dataset shares, or an (R, k) integer
    array of each dataset's own.  Every dataset is read under the
    lognormal-mean model.
    """

    ns: tuple[int, ...] | np.ndarray
    means: np.ndarray
    variances: np.ndarray

    @classmethod
    def of(cls, ds: Dataset) -> "GroupBlock":
        """``ds`` as a block of one; refused outside the lognormal-mean model."""
        if not ds.model.is_lognormal_mean:
            raise ValueError("defined for the lognormal-mean model (a=1, b=-0.5) only")
        return cls(tuple(ds.counts().tolist()), ds.means()[None], ds.variances()[None])

    @property
    def size(self) -> int:
        return len(self.means)

    @functools.cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per group (n_i, ybar_i, (n_i - 1) s_i^2), a row per group: the sizes
        as a (k, 1) float array where the datasets share them, else (k, R),
        the others as (k, R) arrays."""
        n = np.array(self.ns, dtype=float)
        n = n[:, None] if n.ndim == 1 else np.ascontiguousarray(n.T)
        with np.errstate(over="ignore"):  # an inf here is named where it is read
            scaled = (n - 1.0) * self.variances.T
        return n, np.ascontiguousarray(self.means.T), scaled


def _lane_field(name: str) -> property:
    """A field of a lane view: its lane of field ``name`` of its block, as Python numbers."""
    def read(view):
        value = getattr(view.block, name)[view.lane].tolist()
        return tuple(value) if isinstance(value, list) else value
    return property(read)


def _p_values(argument: np.ndarray, halved: bool) -> np.ndarray:
    """The p-values erfc(argument), halved where ``halved``, of a 1-d ``argument``."""
    p = _erfc(argument)
    return 0.5 * p if halved else p


@dataclass(frozen=True)
class TestBlock:
    """A test's (R,) statistics on a block and the erfc argument of each
    dataset's p-value: erfc(argument), or half of it where ``halved`` (a
    one-sided Wald test), NaN where it cannot answer.

    ``p_value`` reads every dataset's p-value, ``lane(i)`` dataset i's alone,
    and ``rejects(alpha)`` the decisions alone, against a critical value.
    ``check(i)`` raises the ValueError naming why dataset i has no answer, if
    it has none; no reason is built until then.
    """

    __test__ = False  # not a pytest class, despite the name

    argument: np.ndarray
    statistic: np.ndarray
    check: Callable[[int], None]
    halved: bool = False

    @functools.cached_property
    def p_value(self) -> np.ndarray:
        return _p_values(self.argument, self.halved)

    def lane(self, i: int) -> TestOutcome:
        """Dataset ``i``'s outcome, or the ValueError that it has none."""
        self.check(i)
        return TestOutcome(p_value=float(_p_values(self.argument[i:i + 1], self.halved)[0]),
                           mc_std_error=0.0, reps_used=0, statistic=float(self.statistic[i]))

    def rejects(self, alpha: float) -> tuple[np.ndarray, np.ndarray]:
        """(p-value < alpha, no p-value in [0, 1]) of each dataset.

        p < alpha where the argument lies past ``_erfc_cut`` of alpha (2 alpha
        where halved).  The lanes within ``_BAND`` of the cut (within
        ``_BAND`` of it absolutely where it is below 1, where erfc is near 1
        and flat against its ulps), and those of a negative unhalved
        argument, whose erfc may pass 1, are decided by their p-values, as is
        every lane of a target that has no cut.
        """
        x = self.argument
        target = 2.0 * alpha if self.halved else alpha
        if _CUT_FLOOR <= target <= 1.0:
            cut = _erfc_cut(target)
            rejected, failed = x > cut, np.isnan(x)
            exact = np.abs(x - cut) <= _BAND * max(cut, 1.0)
            if not self.halved:
                exact |= x < 0.0
            lanes = np.flatnonzero(exact)
        else:
            rejected, failed = np.empty(x.shape, bool), np.empty(x.shape, bool)
            lanes = np.arange(x.size)
        p = _p_values(x[lanes], self.halved)
        rejected[lanes], failed[lanes] = p < alpha, ~is_p_value(p)
        return rejected, failed


def _log_or_minus_inf(bound: np.ndarray) -> np.ndarray:
    """Python's ``math.log`` of each positive entry of ``bound``, -inf of every
    other (0, negative or NaN), lane for lane what ``interval_from_phi`` takes."""
    logs = np.full(bound.shape, -math.inf)
    positive = bound > 0.0
    logs[positive] = np.fromiter(map(math.log, bound[positive].tolist()), dtype=float)
    return logs


def _numpy_log_or_minus_inf(bound: np.ndarray) -> np.ndarray:
    """``_log_or_minus_inf`` by numpy's log, a few ulps from Python's."""
    logs = np.full(bound.shape, -math.inf)
    np.log(bound, out=logs, where=bound > 0.0)
    return logs


def _near(a: np.ndarray, b) -> np.ndarray:
    """Where ``a`` and ``b`` are finite and within a relative ``_BAND`` of each other."""
    with np.errstate(invalid="ignore"):  # inf - inf
        gap = np.abs(a - b)
    return (gap <= _BAND * np.maximum(np.abs(a), np.abs(b))) & (gap < math.inf)


@dataclass(frozen=True)
class IntervalBlock:
    """An interval's (R,) bounds and estimates at ``level`` on a block, on the
    method's native scale: the log scale of mu where ``log_scale``, else that
    of exp(mu), where a lower bound may be 0 or negative.  ``failed`` marks
    the datasets it cannot answer on, and ``check`` is as in ``TestBlock``.

    ``lane(i)`` is dataset i's outcome, ``log_bounds()`` the log-scale bounds
    that the outcomes have, and ``covers(mu)`` the decisions alone, read off
    numpy's log of original-scale bounds.
    """

    lower: np.ndarray
    upper: np.ndarray
    estimate: np.ndarray
    level: float
    log_scale: bool
    failed: np.ndarray
    check: Callable[[int], None]

    def log_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """Each dataset's log-scale bounds as its ``IntervalOutcome`` has them
        (-inf from a nonpositive bound), NaN where it has none."""
        if self.log_scale:
            bounds = self.lower, self.upper
        else:
            bounds = [_log_or_minus_inf(bound) for bound in (self.lower, self.upper)]
        return tuple(np.where(self.failed, np.nan, bound) for bound in bounds)

    def covers(self, mu) -> tuple[np.ndarray, np.ndarray]:
        """(lower <= mu <= upper, no interval) of each dataset against its
        ``mu``, a number or an (R,) array, on the bounds of ``log_bounds``:
        an interval is one where lower < upper.

        An original-scale bound's log is numpy's; a lane whose log lies
        within ``_BAND`` of mu or of its other bound takes Python's logs.
        """
        if self.log_scale:
            lower, upper = self.lower, self.upper
        else:
            lower, upper = (_numpy_log_or_minus_inf(bound) for bound in (self.lower, self.upper))
            lanes = np.flatnonzero(_near(lower, mu) | _near(upper, mu) | _near(lower, upper))
            lower[lanes] = _log_or_minus_inf(self.lower[lanes])
            upper[lanes] = _log_or_minus_inf(self.upper[lanes])
        failed = self.failed | ~is_ordered(lower, upper)
        return ~failed & (lower <= mu) & (mu <= upper), failed

    def lane(self, i: int) -> IntervalOutcome:
        """Dataset ``i``'s outcome, or the ValueError that it has none."""
        self.check(i)
        lower, upper, estimate = (float(a[i]) for a in (self.lower, self.upper, self.estimate))
        if self.log_scale:
            return interval_from_log(lower, upper, self.level, estimate=exp_or_inf(estimate))
        return interval_from_phi(lower, upper, self.level, estimate=estimate)


# ---------------------------------------------------------------------------
# pooled Wald estimator and acceptance-set interval


@dataclass(frozen=True)
class AhmedBlock:
    """Per-group lognormal-mean estimates of each dataset of a block and their
    pooled combination.

    ``theta_hats`` are the (R, k) per-group mean estimates exp(mean + sigma2/2)
    with the n-divisor group variances sigma2, ``weights`` the inverse
    variances n_i / v_hat_i of their delta-method variances v_hat_i, and
    ``theta_tilde`` the (R,) inverse-variance pooled estimates with standard
    errors ``std_error``.  ``failed`` marks the datasets whose delta-method
    variances, or pooled estimate, leave the float range; their other fields
    mean nothing.
    """

    theta_hats: np.ndarray
    weights: np.ndarray
    theta_tilde: np.ndarray
    std_error: np.ndarray
    failed: np.ndarray

    def lane(self, i: int) -> AhmedComponents:
        """Dataset ``i``'s components, or the ValueError that it has none."""
        if self.failed[i]:
            raise ValueError(_AHMED_RANGE)
        return AhmedComponents(self, i)


@dataclass(frozen=True, eq=False)
class AhmedComponents:
    """Dataset ``lane`` of an ``AhmedBlock`` (of one, from ``ahmed_components``),
    which the per-dataset readers read; its fields are Python numbers."""

    block: AhmedBlock
    lane: int
    theta_hats = _lane_field("theta_hats")
    weights = _lane_field("weights")
    theta_tilde = _lane_field("theta_tilde")
    std_error = _lane_field("std_error")


def _numpy_exp(x: np.ndarray) -> np.ndarray:
    """exp of ``x``, inf past the float range, where numpy would warn."""
    exps = np.exp(np.minimum(x, _LOG_FLOAT_MAX))
    exps[~(x <= _LOG_FLOAT_MAX)] = math.inf
    return exps


def ahmed_components_block(groups: GroupBlock) -> AhmedBlock:
    """Per-group estimates, delta-method weights and their pooled combination
    for every dataset of ``groups`` (see ``AhmedBlock``)."""
    n, means = groups.columns[:2]
    shrink = (n - 1.0) / n
    with np.errstate(**_QUIET):
        sigma2s = shrink * groups.variances.T  # the n-divisor variances
        thetas = _numpy_exp(means + 0.5 * sigma2s)
        v_hats = sigma2s * (1.0 + 0.5 * sigma2s) * _numpy_exp(2.0 * means + sigma2s)
        # an underflowed v weighs n / v = inf and an overflowed one 0, which would
        # leave its group out of the pooled estimate; an overflowed theta overflows v
        failed = ~((v_hats > 0.0) & (v_hats < math.inf)).all(axis=0)
        weights = n / v_hats
        total, pooled = _group_sum(weights), _group_sum(weights * thetas)
        failed |= ~(np.isfinite(total) & (total > 0.0))
        theta_tilde = pooled / total
        # a subnormal variance weighs its group ~1e307, whose product with
        # theta can overflow the pooled sum although every weight is finite
        failed |= ~np.isfinite(theta_tilde)
    return AhmedBlock(theta_hats=thetas.T, weights=weights.T, theta_tilde=theta_tilde,
                      std_error=_inverse_sqrt(np.where(failed, 1.0, total)), failed=failed)


def ahmed_components(ds: Dataset) -> AhmedComponents:
    """``ahmed_components_block`` of ``ds`` alone."""
    return ahmed_components_block(GroupBlock.of(ds)).lane(0)


def ahmed_ci_block(comp: AhmedBlock, level: float) -> IntervalBlock:
    """Wald interval theta_tilde +/- z * SE of each dataset on the original scale."""
    z = _normal_quantile(level)
    with np.errstate(**_QUIET):
        lower, upper = comp.theta_tilde - z * comp.std_error, comp.theta_tilde + z * comp.std_error
    return IntervalBlock(lower, upper, comp.theta_tilde, level, log_scale=False,
                         failed=comp.failed, check=comp.lane)


def ahmed_ci(comp: AhmedComponents, level: float = 0.95) -> IntervalOutcome:
    """``ahmed_ci_block`` of the dataset of ``comp``."""
    return ahmed_ci_block(comp.block, level).lane(comp.lane)


def ahmed_test_block(comp: AhmedBlock, phi0: float,
                     alternative: Alternative = Alternative.TWO_SIDED) -> TestBlock:
    """Wald test of each dataset's pooled estimate against phi0 on the original
    scale; a phi0 that is not positive and finite fails every dataset."""
    with np.errstate(**_QUIET):
        z = (comp.theta_tilde - phi0) / comp.std_error
    failed = comp.failed | (not 0.0 < phi0 < math.inf)

    def check(i):
        comp.lane(i)  # raises the reason of a dataset without components
        log_phi0(phi0)  # names a bad null

    argument, halved = _wald_argument(z, alternative)
    return TestBlock(np.where(failed, np.nan, argument), z, check, halved)


def ahmed_test(comp: AhmedComponents, phi0: float,
               alternative: Alternative = Alternative.TWO_SIDED) -> TestOutcome:
    """``ahmed_test_block`` of the dataset of ``comp``."""
    return ahmed_test_block(comp.block, phi0, alternative).lane(comp.lane)


def baklizi_ci_block(comp: AhmedBlock, level: float) -> IntervalBlock:
    """Interval of all theta accepted by the pooled quadratic criterion, per dataset.

    The acceptance set sum_i n_i (theta_hat_i - theta)^2 / v_hat_i <= q, with q
    the level quantile of chi-square(k), is Q + (theta - theta_tilde)^2 / se^2
    <= q about ahmed's pooled estimate theta_tilde and its standard error se,
    where Q is the same sum at theta_tilde: theta_tilde +/- se sqrt(q - Q).
    When Q > q (group estimates too far apart for any common value) the set
    is empty, a failure.
    """
    q = _chi2_quantile(level, comp.theta_hats.shape[-1])
    with np.errstate(**_QUIET):
        d = comp.theta_hats.T - comp.theta_tilde
        spread = _group_sum(comp.weights.T * (d * d))
        half = comp.std_error * np.sqrt(q - spread)
        lower, upper = comp.theta_tilde - half, comp.theta_tilde + half
        empty = spread > q

    def check(i):
        comp.lane(i)
        if empty[i]:
            raise ValueError("empty acceptance set: no common mean is accepted at level "
                             f"{level:g}")

    return IntervalBlock(lower, upper, comp.theta_tilde, level, log_scale=False,
                         failed=comp.failed | empty, check=check)


def baklizi_ci(comp: AhmedComponents, level: float = 0.95) -> IntervalOutcome:
    """``baklizi_ci_block`` of the dataset of ``comp``."""
    return baklizi_ci_block(comp.block, level).lane(comp.lane)


# ---------------------------------------------------------------------------
# maximum likelihood, Wald interval, likelihood-ratio test


@dataclass(frozen=True)
class MleBlock:
    """Maximum-likelihood fit of (mu, sigma^2_1..k) of each dataset of a
    block: (R,) arrays, (R, k) for ``sigma2_hats``.

    ``std_error`` is the asymptotic SD of mu_hat, the efficient information
    for mu to the power -1/2: group i is N(mu - v_i/2, v_i), and once v_i is
    profiled out it carries information 2 n_i / (v_i (2 + v_i)) about mu, and
    the groups add.  ``iterations`` counts evaluations of the profile score
    of mu, and ``converged`` is False only if a Brent search stopped short of
    its tolerance.  ``failed`` marks the datasets without a fit, whose other
    fields mean nothing; ``failed_at`` is the mu at which a profile variance
    overflowed, NaN where none did.  ``groups`` are the fitted datasets, which
    the likelihood-ratio test reads at its null.
    """

    mu_hat: np.ndarray
    sigma2_hats: np.ndarray
    log_likelihood: np.ndarray
    std_error: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    failed: np.ndarray
    failed_at: np.ndarray
    groups: GroupBlock

    def lane(self, i: int) -> MleResult:
        """Dataset ``i``'s fit, or the ValueError naming why it has none."""
        if not self.failed[i]:
            return MleResult(self, i)
        if not math.isnan(self.failed_at[i]):
            raise ValueError(_overflow_message(self.failed_at[i]))
        # a fit whose profile variances all pass ~1e154 would have no standard
        # error; the scan's own overflow check comes first, but no lane may raise
        raise ValueError(f"the information for mu at mu_hat = {self.mu_hat[i]:.6g} underflows "
                         "to 0: no standard error")


@dataclass(frozen=True, eq=False)
class MleResult:
    """Dataset ``lane`` of an ``MleBlock`` (of one, from ``gupta_li_mle``),
    which the per-dataset readers read; its fields are Python numbers."""

    block: MleBlock
    lane: int
    mu_hat = _lane_field("mu_hat")
    sigma2_hats = _lane_field("sigma2_hats")
    log_likelihood = _lane_field("log_likelihood")
    std_error = _lane_field("std_error")
    iterations = _lane_field("iterations")
    converged = _lane_field("converged")


def _overflow_message(mu: float) -> str:
    return f"the profile variance at mu = {mu:.6g} overflows the float range"


def _profile_variances(n, ybar, scaled, mu) -> np.ndarray:
    """Each group's variance maximizer at mu; inf or NaN where it overflows.

    The score equation in sigma_i^2 reduces to the quadratic
    v^2 + 4v - 4 Q_i / n_i = 0 with Q_i = (n_i-1) s_i^2 + n_i (ybar_i - mu)^2,
    whose unique positive root 2 (sqrt(1 + x) - 1), x = Q_i / n_i, is taken
    as 2x / (sqrt(1 + x) + 1): no cancellation at small x.  ``n``, ``ybar``
    and ``scaled`` have the groups on their first axis, ``ybar - mu`` has the
    shape of the result, and ``n`` and ``scaled`` broadcast against it.

    A finite variance gives a finite score term and a finite or -inf
    log-likelihood term, and an overflowed one a NaN in both, so the profile
    score and l_p are NaN exactly where a variance overflows.
    """
    # in place, to hold few arrays of the scan's size at once: x is
    # (scaled + n (d d)) / n and the root 2x / (sqrt(1 + x) + 1), bit for bit,
    # as + and * commute in IEEE arithmetic
    x = ybar - mu
    x *= x
    x *= n
    x += scaled
    x /= n
    v = np.sqrt(1.0 + x)
    v += 1.0
    np.divide(2.0 * x, v, out=v)
    return np.maximum(v, _SIGMA2_FLOOR, out=v)


def _profile_score(n, ybar, scaled, mu):
    # d/dmu of the profile log-likelihood: at the conditional maximizers only
    # the partial derivative in mu remains, sum_i n_i (ybar_i - mu + v_i/2) / v_i,
    # each term taken in place as in _profile_variances
    v = _profile_variances(n, ybar, scaled, mu)
    terms = ybar - mu
    terms += 0.5 * v
    terms *= n
    terms /= v
    return _group_sum(terms)


def _log_likelihood(n, ybar, scaled, mu, sigma2s):
    # group i is normal with mean mu - sigma_i^2 / 2, written in terms of (n_i, ybar_i, s_i^2)
    d = ybar - mu + sigma2s / 2.0
    return _group_sum(-0.5 * n * np.log(2.0 * math.pi * sigma2s)
                      - (scaled + n * (d * d)) / (2.0 * sigma2s))


def log_likelihood(ds: Dataset, mu: float, sigma2s) -> float:
    """Joint log-likelihood of the log-scale data at (mu, sigma^2), from summaries."""
    n, ybar, scaled = GroupBlock.of(ds).columns
    v = np.asarray(sigma2s, dtype=float)
    if v.shape != (ds.k,):
        raise ValueError(f"need exactly {ds.k} variances")
    if np.any(v <= 0.0):
        raise ValueError("variances must be strictly positive")
    with np.errstate(**_QUIET):
        return float(_log_likelihood(n, ybar, scaled, mu, v[:, None])[0])


def constrained_sigma2(ds: Dataset, mu: float) -> np.ndarray:
    """Per-group variance maximizers at fixed mu (see ``_profile_variances``)."""
    with np.errstate(**_QUIET):
        variances = _profile_variances(*GroupBlock.of(ds).columns, mu)[:, 0]
    if not (variances < math.inf).all():
        raise ValueError(_overflow_message(mu))
    return variances


def _scan_points(modes, lo, hi, offsets):
    """Each lane's sorted, distinct scan points, lane after lane in one flat
    array, with the lane of each point and the count of each lane.

    Group i's score changes sign at its mode m_i = ybar_i + c_i / 2, with
    c_i = (n_i - 1) s_i^2 / n_i, and varies on the scale of c_i next to it, so
    a group with a small c_i beside one with a large c_i gives the profile a
    narrow peak that an evenly spaced scan steps over.  Offsets c_i * 2^j,
    j >= -2, on both sides of every mode resolve each group at every scale up
    to the width hi - lo of the bracket [lo, hi] of modes: ``offsets`` holds
    a (k, R) array per j, NaN where the offset reaches that width.  A lane's
    points lie in [lo, hi], and its scan does not grow with other lanes'.
    """
    lanes, k, steps = modes.shape[1], len(modes), len(offsets)
    # a column per lane: lo, hi, then the points below and above the modes,
    # where one past lo or hi is moved onto it, a copy of that end
    points = np.empty((2 + 2 * steps * k, lanes))
    points[0], points[1] = lo, hi
    below, above = points[2:].reshape(2, steps, k, lanes)
    offsets = np.reshape(offsets, (steps, k, lanes))
    np.maximum(np.subtract(modes, offsets, out=below), lo, out=below)
    np.minimum(np.add(modes, offsets, out=above), hi, out=above)
    points.sort(axis=0)
    # each point unlike the one below it but NaN (no point is -0.0, so equal
    # points are equal floats), lane by lane
    keep = ~np.isnan(points)
    keep[1:] &= points[1:] != points[:-1]
    of, row = np.divmod(np.flatnonzero(keep.T), len(points))
    return points[row, of], of, np.bincount(of, minlength=lanes)


def _brent_orient(state):
    """The loop body of scipy's ``brentq`` (its Zeros/brentq.c) up to its stop
    check, on arrays of lanes.

    ``state`` is (xpre, xcur, xblk, fpre, fcur, fblk, spre, scur).  Where the
    last two iterates straddle the root they become the bracket, and xcur
    becomes the end with the smaller |f|.  Returns the state, the tolerance
    delta and the bisection step sbis; the search stops where fcur == 0 or
    |sbis| < delta.  fpre is never 0 here, so that the C loop's check of it
    is left out, and fpre < 0 is its signbit.
    """
    xpre, xcur, xblk, fpre, fcur, fblk, spre, scur = state
    flip = (fcur != 0.0) & ((fpre < 0.0) != (fcur < 0.0))
    step = xcur - xpre
    xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
    spre, scur = np.where(flip, step, spre), np.where(flip, step, scur)
    swap = abs(fblk) < abs(fcur)
    xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                        np.where(swap, xcur, xblk))
    fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                        np.where(swap, fcur, fblk))
    delta = (_MU_XTOL + _MU_RTOL * abs(xcur)) / 2.0
    return (xpre, xcur, xblk, fpre, fcur, fblk, spre, scur), delta, (xblk - xcur) / 2.0


def _brent_advance(state, delta, sbis):
    """The rest of the loop body: the step from xcur, interpolated (secant),
    extrapolated (inverse quadratic) or, where that step is long, bisecting.
    Returns the state with xpre, fpre = xcur, fcur and the next iterate in
    xcur, whose f is still to be read."""
    xpre, xcur, xblk, fpre, fcur, fblk, spre, scur = state
    secant = -fcur * (xcur - xpre) / (fcur - fpre)
    dpre = (fpre - fcur) / (xpre - xcur)
    dblk = (fblk - fcur) / (xblk - xcur)
    quadratic = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
    stry = np.where(xpre == xblk, secant, quadratic)
    size_pre, limit = abs(spre), 3.0 * abs(sbis) - delta
    short = ((size_pre > delta) & (abs(fcur) < abs(fpre))
             & (2.0 * abs(stry) < np.where(size_pre < limit, size_pre, limit)))
    spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)
    step = np.where(abs(scur) > delta, scur, np.where(sbis > 0.0, delta, -delta))
    return xcur, xcur + step, xblk, fcur, fcur, fblk, spre, scur


def _brentq(n, ybar, scaled, xa, xb, fa, fb):
    """scipy's ``brentq`` (its Zeros/brentq.c) on the profile score, one
    bracket [xa, xb] per lane, every lane at once.

    ``fa > 0 >= fb`` are the scores at the ends, and ``n``, ``ybar``,
    ``scaled`` the group terms of each lane, (k, lanes) arrays, or (k, 1) for
    the sizes that every lane shares.  Each lane takes the C loop's
    iterates, at xtol ``_MU_XTOL`` and scipy's default rtol and iteration
    cap.  Returns the roots, the score evaluations (scipy's
    ``function_calls``, which count both ends), whether each search
    converged, and the iterate at which a profile variance overflowed (NaN
    where none did; that lane's root is NaN).
    """
    root, calls = xb.copy(), np.full(xa.size, 2)
    converged, overflow_at = fb == 0.0, np.full(xa.size, np.nan)
    live = np.flatnonzero(~converged)
    zeros = np.zeros(live.size)
    state = (xa[live], xb[live], zeros, fa[live], fb[live], zeros, zeros, zeros)
    terms = np.array(np.broadcast_arrays(n, ybar, scaled)).take(live, axis=2)
    for evaluations in range(2, _BRENT_MAXITER + 2):
        if not live.size:
            break
        state, delta, sbis = _brent_orient(state)
        done = (state[4] == 0.0) | (np.abs(sbis) < delta)
        if done.any():
            stopped = live[done]
            root[stopped], calls[stopped], converged[stopped] = state[1][done], evaluations, True
            go = ~done
            live, terms, delta, sbis = live[go], terms.compress(go, axis=2), delta[go], sbis[go]
            state = tuple(a[go] for a in state)
            if not live.size:
                break
        state = _brent_advance(state, delta, sbis)
        fcur = _profile_score(*terms, state[1])
        state = (*state[:4], fcur, *state[5:])
        overflow = np.isnan(fcur)
        if overflow.any():
            overflow_at[live[overflow]], calls[live[overflow]] = state[1][overflow], evaluations + 1
            root[live[overflow]] = np.nan
            go = ~overflow
            live, terms = live[go], terms.compress(go, axis=2)
            state = tuple(a[go] for a in state)
    calls[live] = _BRENT_MAXITER + 2
    root[live] = state[1]  # past the iteration cap: the last iterate, not converged
    return root, calls, converged, overflow_at


def _fit(n, ybar, scaled):
    """mu_hat, the (k, R) variances there, l_p(mu_hat), score evaluations,
    convergence and the mu at which a profile variance overflowed (NaN where
    none did), per lane of the (k, R) group terms; ``n`` may be (k, 1), the
    sizes that every lane shares.  The score is read once at each point of
    the flat scan, and the brackets, overflows and ends of each lane are read
    off it, as a lane's points are consecutive and ascending."""
    lanes = ybar.shape[1]
    n = np.broadcast_to(n, ybar.shape)
    c = scaled / n
    modes = ybar + c / 2.0
    lo, hi = modes.min(axis=0), modes.max(axis=0)
    width = hi - lo
    # the offsets of _scan_points, by exact doublings of c_i / 4 (at least the floor / 4)
    offsets, step = [], np.maximum(c, _SIGMA2_FLOOR) / 4.0
    while (inside := step < width).any():
        offsets.append(np.where(inside, step, np.nan))
        step = step * 2.0
    if lanes > 1 and lanes * len(n) * (2 + 2 * len(n) * len(offsets)) > _SCAN_BUDGET:
        half = lanes // 2
        parts = [_fit(n[:, part], ybar[:, part], scaled[:, part])
                 for part in (slice(None, half), slice(half, None))]
        return tuple(np.concatenate(pieces, axis=-1) for pieces in zip(*parts))
    points, of, counts = _scan_points(modes, lo, hi, offsets)
    terms = np.array((n, ybar, scaled))
    scores = _profile_score(*terms.take(of, axis=2), points)
    # the scan stops at its first point whose profile variance overflows, where
    # the score is NaN: the least such point of the lane
    failed_at, bad = np.full(lanes, np.nan), np.isnan(scores)
    np.fmin.at(failed_at, of[bad], points[bad])
    # a bracket of each peak: the score falls from positive to non-positive within one lane
    at = np.flatnonzero((scores[:-1] > 0.0) & (scores[1:] <= 0.0) & (of[:-1] == of[1:]))
    at = at[np.isnan(failed_at[of[at]])]
    lane = of[at]
    roots, calls, converged, overflow_at = _brentq(
        *terms.take(lane, axis=2), points[at], points[at + 1], scores[at], scores[at + 1])
    np.fmin.at(failed_at, lane, overflow_at)  # the first bracket to overflow stops the fit
    iterations = counts + np.bincount(lane, weights=calls, minlength=lanes).astype(np.int64)
    all_converged = np.bincount(lane, weights=~converged, minlength=lanes) == 0
    # candidates: the ends of the scan where the score points outward, and every root
    ok, last = np.isnan(failed_at), np.cumsum(counts) - 1
    first = last + 1 - counts
    ends = np.concatenate([first[ok & (scores[first] <= 0.0)], last[ok & (scores[last] > 0.0)]])
    keep = ok[lane]
    cand_lane = np.concatenate([of[ends], lane[keep]])
    cand_mu = np.concatenate([points[ends], roots[keep]])
    mu_hat, ll = np.full(lanes, np.nan), np.full(lanes, np.nan)
    sigma2_hats = np.full((len(n), lanes), np.nan)
    if cand_lane.size:
        cand_n, cand_ybar, cand_scaled = terms.take(cand_lane, axis=2)
        variances = _profile_variances(cand_n, cand_ybar, cand_scaled, cand_mu)
        cand_ll = _log_likelihood(cand_n, cand_ybar, cand_scaled, cand_mu, variances)
        # the highest l_p in each lane, the larger mu on a tie: max((ll, mu), ...)
        order = np.lexsort((cand_mu, cand_ll, cand_lane))
        best = order[np.append(np.diff(cand_lane[order]) != 0, True)]
        fitted = cand_lane[best]
        mu_hat[fitted], ll[fitted] = cand_mu[best], cand_ll[best]
        sigma2_hats[:, fitted] = variances[:, best]
    return mu_hat, sigma2_hats, ll, iterations, all_converged, failed_at


def gupta_li_mle_block(groups: GroupBlock) -> MleBlock:
    """The global ML fit of every dataset of ``groups`` (see ``gupta_li_mle``)."""
    n, ybar, scaled = groups.columns
    with np.errstate(**_QUIET):
        mu_hat, sigma2_hats, ll, iterations, converged, failed_at = _fit(n, ybar, scaled)
        information = _group_sum(2.0 * n / (sigma2_hats * (2.0 + sigma2_hats)))
    failed = ~np.isnan(failed_at) | (information == 0.0)
    return MleBlock(mu_hat=mu_hat, sigma2_hats=sigma2_hats.T, log_likelihood=ll,
                    std_error=_inverse_sqrt(np.where(failed, 1.0, information)),
                    iterations=iterations, converged=converged, failed=failed,
                    failed_at=failed_at, groups=groups)


def gupta_li_mle(ds: Dataset) -> MleResult:
    """Global maximum of the joint likelihood in (mu, sigma^2_1..k).

    At fixed mu the variances maximize in closed form (``constrained_sigma2``),
    which leaves the profile log-likelihood l_p(mu).  Each group's profile is
    unimodal with its peak at ybar_i + (n_i - 1) s_i^2 / (2 n_i), so the score
    of l_p is positive below the smallest of these modes and negative above
    the largest, and every local maximum lies between them.  The score is
    read once at each of the points of ``_scan_points``; a Brent search finds
    the root in each interval between neighbouring points where it falls
    from positive to non-positive, and the root with the highest l_p is the
    estimate.  The sum of unimodal profiles can have several peaks, so no
    single local search is trusted.  This is ``gupta_li_mle_block`` of
    ``ds`` alone: a block reads each dataset at its own points only.
    """
    return gupta_li_mle_block(GroupBlock.of(ds)).lane(0)


def gupta_li_ci_block(fit: MleBlock, level: float) -> IntervalBlock:
    """Wald interval exp(mu_hat +/- z * SD(mu_hat)) of each dataset."""
    z = _normal_quantile(level)
    with np.errstate(**_QUIET):
        lower, upper = fit.mu_hat - z * fit.std_error, fit.mu_hat + z * fit.std_error
    return IntervalBlock(lower, upper, fit.mu_hat, level, log_scale=True, failed=fit.failed,
                         check=fit.lane)


def gupta_li_ci(fit: MleResult, level: float = 0.95) -> IntervalOutcome:
    """``gupta_li_ci_block`` of the dataset of ``fit``."""
    return gupta_li_ci_block(fit.block, level).lane(fit.lane)


def gupta_li_test_block(fit: MleBlock, *, mu0: float) -> TestBlock:
    """Two-sided Wald test of mu = mu0 on the log scale, for each dataset."""
    _require_mu0(mu0)
    with np.errstate(**_QUIET):
        z = (fit.mu_hat - mu0) / fit.std_error
    argument, _ = _wald_argument(z, Alternative.TWO_SIDED)
    return TestBlock(np.where(fit.failed, np.nan, argument), z, fit.lane)


def gupta_li_test(fit: MleResult, *, mu0: float) -> TestOutcome:
    """``gupta_li_test_block`` of the dataset of ``fit``."""
    return gupta_li_test_block(fit.block, mu0=mu0).lane(fit.lane)


def lr_test_block(fit: MleBlock, *, mu0: float) -> TestBlock:
    """Profile likelihood-ratio test of mu = mu0 (log scale), chi-square(1)
    calibrated, for each dataset.

    The statistic is 2 (l_p(mu_hat) - l_p(mu0)) with l_p the profile
    log-likelihood of the fitted groups, nonnegative because mu_hat is its
    global maximizer.  A dataset whose profile variance overflows at mu0
    fails.
    """
    _require_mu0(mu0)
    n, ybar, scaled = fit.groups.columns
    with np.errstate(**_QUIET):
        null = _log_likelihood(n, ybar, scaled, mu0, _profile_variances(n, ybar, scaled, mu0))
        # the clamp only removes rounding residue when mu0 is within ulps of mu_hat
        lam = np.maximum(2.0 * (fit.log_likelihood - null), 0.0)
    overflow = np.isnan(null)

    def check(i):
        fit.lane(i)
        if overflow[i]:
            raise ValueError(_overflow_message(mu0))

    return TestBlock(np.where(fit.failed | overflow, np.nan, _chi2_1_argument(lam)), lam, check)


def lr_test(fit: MleResult, *, mu0: float) -> TestOutcome:
    """``lr_test_block`` of the dataset of ``fit``."""
    return lr_test_block(fit.block, mu0=mu0).lane(fit.lane)


def _chi2_1_argument(lam: np.ndarray) -> np.ndarray:
    """The erfc argument sqrt(lam / 2) of the chi-square(1) tail at each lam >= 0 or NaN."""
    return np.sqrt(lam / 2.0)


def _chi2_1_tail(lam: np.ndarray) -> np.ndarray:
    """P(X > lam) for X ~ chi-square(1), each lam >= 0 or NaN."""
    return _erfc(_chi2_1_argument(lam))


def _wald_argument(z, alternative) -> tuple[np.ndarray, bool]:
    """The erfc argument of the Wald p-value of each z under ``alternative``,
    and whether the p-value is half of erfc (one-sided)."""
    alternative = Alternative.coerce(alternative)
    if alternative is Alternative.GREATER:
        return z / _SQRT2, True
    if alternative is Alternative.LESS:
        return -z / _SQRT2, True
    return np.abs(z) / _SQRT2, False


def _wald_pvalue(z, alternative):
    return _p_values(*_wald_argument(z, alternative))
