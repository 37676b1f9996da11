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
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import Dataset
from .outcomes import (Alternative, IntervalOutcome, TestOutcome, exp_or_inf,
                       interval_from_log, interval_from_phi, log_phi0)

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
    """x ** -0.5 of each (positive) x, by Python's float power."""
    return np.array([value ** -0.5 for value in x.tolist()])


def _group_sum(terms):
    """The sum over the first (group) axis of ``terms``, left to right."""
    total = 0.0
    for term in terms:
        total = total + term
    return total


@dataclass(frozen=True)
class GroupBlock:
    """Group summaries of R datasets that share their k group sizes.

    ``means`` and ``variances`` (n - 1 divisor) are (R, k) arrays and ``ns``
    the k group sizes.  Every dataset is read under the lognormal-mean model.
    """

    ns: tuple[int, ...]
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
        as a (k, 1) float array, the others as (k, R) arrays."""
        with np.errstate(over="ignore"):  # an inf here is named where it is read
            scaled = (np.array(self.ns)[:, None] - 1) * self.variances.T
        return (np.array(self.ns, dtype=float)[:, None], np.ascontiguousarray(self.means.T),
                scaled)


def _lane_field(name: str) -> property:
    """A field of a lane view: its lane of field ``name`` of its block, as Python numbers."""
    def read(view):
        value = getattr(view.block, name)[view.lane].tolist()
        return tuple(value) if isinstance(value, list) else value
    return property(read)


@dataclass(frozen=True)
class TestBlock:
    """A test's (R,) p-values, NaN where it cannot answer, and statistics on a
    block.  ``check(i)`` raises the ValueError naming why dataset i has no
    answer, if it has none; no reason is built until then."""

    __test__ = False  # not a pytest class, despite the name

    p_value: np.ndarray
    statistic: np.ndarray
    check: Callable[[int], None]

    def lane(self, i: int) -> TestOutcome:
        """Dataset ``i``'s outcome, or the ValueError that it has none."""
        self.check(i)
        return TestOutcome(p_value=float(self.p_value[i]), mc_std_error=0.0, reps_used=0,
                           statistic=float(self.statistic[i]))


@dataclass(frozen=True)
class IntervalBlock:
    """An interval's (R,) bounds and estimates at ``level`` on a block, on the
    method's native scale: the log scale of mu where ``log_scale``, else that
    of exp(mu), where a lower bound may be 0 or negative.  ``failed`` marks
    the datasets it cannot answer on, and ``check`` is as in ``TestBlock``."""

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
            bounds = [[math.log(x) if x > 0.0 else -math.inf for x in bound.tolist()]
                      for bound in (self.lower, self.upper)]
        return tuple(np.where(self.failed, np.nan, bound) for bound in bounds)

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
    variances leave the float range; their other fields mean nothing.
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
    shrink = np.array([(size - 1) / size for size in groups.ns])[:, None]
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

    return TestBlock(np.where(failed, np.nan, _wald_pvalue(z, alternative)), z, check)


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
    and ``scaled`` have the groups on their first axis and broadcast against
    ``mu``.

    A finite variance gives a finite score term and a finite or -inf
    log-likelihood term, and an overflowed one a NaN in both, so the profile
    score and l_p are NaN exactly where a variance overflows.
    """
    d = ybar - mu
    x = (scaled + n * (d * d)) / n
    return np.maximum(2.0 * x / (np.sqrt(1.0 + x) + 1.0), _SIGMA2_FLOOR)


def _profile_score(n, ybar, scaled, mu):
    # d/dmu of the profile log-likelihood: at the conditional maximizers only
    # the partial derivative in mu remains, sum_i n_i (ybar_i - mu + v_i/2) / v_i
    v = _profile_variances(n, ybar, scaled, mu)
    return _group_sum(n * (ybar - mu + 0.5 * v) / v)


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


def _scan_points(modes, lo, hi, base, steps):
    """Sorted, distinct scan points of each lane, NaN-padded to a common length.

    Group i's score changes sign at its mode m_i = ybar_i + c_i / 2, with
    c_i = (n_i - 1) s_i^2 / n_i, and varies on the scale of c_i next to it, so
    a group with a small c_i beside one with a large c_i gives the profile a
    narrow peak that an evenly spaced scan steps over.  Offsets c_i * 2^j,
    j >= -2, on both sides of every mode resolve each group at every scale up
    to the width hi - lo of the bracket [lo, hi] of modes; ``base`` is c_i / 4
    (at least the variance floor / 4) and the (k, R) ``modes`` have ``steps``
    offsets each.
    """
    lanes, lo, hi = modes.shape[1], lo[:, None], hi[:, None]
    offsets = np.ldexp(base[..., None], np.arange(steps))  # exact doublings
    offsets = np.where(offsets < hi - lo, offsets, np.nan).transpose(1, 0, 2).reshape(lanes, -1)
    centres = np.repeat(modes.T, steps, axis=1)
    points = np.concatenate([lo, hi, centres - offsets, centres + offsets], axis=1)
    points = np.where((lo <= points) & (points <= hi), points, np.nan)
    points.sort(axis=1)
    points[:, 1:][points[:, 1:] == points[:, :-1]] = np.nan
    points.sort(axis=1)
    return points[:, :max(1, int((~np.isnan(points)).sum(axis=1).max()))]


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

    ``fa > 0 >= fb`` are the scores at the ends, and ``ybar``, ``scaled`` the
    (k, lanes) group terms of each lane.  Each lane takes the C loop's
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
    ybar, scaled = ybar[:, live], scaled[:, live]
    for evaluations in range(2, _BRENT_MAXITER + 2):
        if not live.size:
            break
        state, delta, sbis = _brent_orient(state)
        done = (state[4] == 0.0) | (np.abs(sbis) < delta)
        if done.any():
            stopped = live[done]
            root[stopped], calls[stopped], converged[stopped] = state[1][done], evaluations, True
            go = ~done
            live, ybar, scaled = live[go], ybar[:, go], scaled[:, go]
            delta, sbis = delta[go], sbis[go]
            state = tuple(a[go] for a in state)
            if not live.size:
                break
        state = _brent_advance(state, delta, sbis)
        fcur = _profile_score(n, ybar, scaled, state[1])
        state = (*state[:4], fcur, *state[5:])
        overflow = np.isnan(fcur)
        if overflow.any():
            overflow_at[live[overflow]], calls[live[overflow]] = state[1][overflow], evaluations + 1
            root[live[overflow]] = np.nan
            go = ~overflow
            live, ybar, scaled = live[go], ybar[:, go], scaled[:, go]
            state = tuple(a[go] for a in state)
    calls[live] = _BRENT_MAXITER + 2
    root[live] = state[1]  # past the iteration cap: the last iterate, not converged
    return root, calls, converged, overflow_at


def _fit(n, ybar, scaled):
    """mu_hat, the (k, R) variances there, l_p(mu_hat), score evaluations,
    convergence and the mu at which a profile variance overflowed (NaN where
    none did), per lane of the (k, R) group terms."""
    lanes = ybar.shape[1]
    c = scaled / n
    modes = ybar + c / 2.0
    lo, hi = modes.min(axis=0), modes.max(axis=0)
    width = hi - lo
    base = np.maximum(c, _SIGMA2_FLOOR) / 4.0
    steps, step = 0, base
    while (step < width).any():
        steps, step = steps + 1, step * 2.0
    if lanes > 1 and lanes * len(n) * (2 + 2 * len(n) * steps) > _SCAN_BUDGET:
        half = lanes // 2
        parts = [_fit(n, ybar[:, part], scaled[:, part])
                 for part in (slice(None, half), slice(half, None))]
        return tuple(np.concatenate(pieces, axis=-1) for pieces in zip(*parts))
    points = _scan_points(modes, lo, hi, base, steps)
    scores = _profile_score(n[..., None], ybar[..., None], scaled[..., None], points)
    rows, counts = np.arange(lanes), (~np.isnan(points)).sum(axis=1)
    first, last = points[:, 0], points[rows, counts - 1]
    # the scan stops at its first point whose profile variance overflows; the
    # score is NaN there, and at the padding past the last point
    failed_at = np.full(lanes, np.nan)
    bad = np.isnan(scores)
    bad[:, 1:] &= ~np.isnan(points[:, 1:])
    broken = bad.any(axis=1)
    if broken.any():
        failed_at[broken] = points[broken, bad[broken].argmax(axis=1)]
    # the score falls from positive to non-positive once in each bracket of a peak
    lane, col = np.nonzero((scores[:, :-1] > 0.0) & (scores[:, 1:] <= 0.0) & ~broken[:, None])
    roots, calls, converged, overflow_at = _brentq(
        n, ybar[:, lane], scaled[:, lane], points[lane, col], points[lane, col + 1],
        scores[lane, col], scores[lane, col + 1])
    hit = ~np.isnan(overflow_at)
    if hit.any():  # the first bracket to overflow stops the fit
        reps, where = np.unique(lane[hit], return_index=True)
        failed_at[reps] = overflow_at[hit][where]
    iterations = counts + np.bincount(lane, weights=calls, minlength=lanes).astype(np.int64)
    all_converged = np.bincount(lane, weights=~converged, minlength=lanes) == 0
    # candidates: the ends of the scan where the score points outward, and every root
    ok = np.isnan(failed_at)
    first_end, last_end = ok & (scores[:, 0] <= 0.0), ok & (scores[rows, counts - 1] > 0.0)
    keep = ok[lane]
    cand_lane = np.concatenate([rows[first_end], rows[last_end], lane[keep]])
    cand_mu = np.concatenate([first[first_end], last[last_end], roots[keep]])
    mu_hat, ll = np.full(lanes, np.nan), np.full(lanes, np.nan)
    sigma2_hats = np.full((len(n), lanes), np.nan)
    if cand_lane.size:
        cand_ybar, cand_scaled = ybar[:, cand_lane], scaled[:, cand_lane]
        variances = _profile_variances(n, cand_ybar, cand_scaled, cand_mu)
        cand_ll = _log_likelihood(n, cand_ybar, cand_scaled, cand_mu, variances)
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
    read at the points of ``_scan_points``; a Brent search finds the root in
    each interval where it falls from positive to non-positive, and the root
    with the highest l_p is the estimate.  The sum of unimodal profiles can
    have several peaks, so no single local search is trusted.  This is
    ``gupta_li_mle_block`` of ``ds`` alone.
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
    return TestBlock(np.where(fit.failed, np.nan, _wald_pvalue(z, Alternative.TWO_SIDED)), z,
                     fit.lane)


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

    return TestBlock(np.where(fit.failed | overflow, np.nan, _chi2_1_tail(lam)), lam, check)


def lr_test(fit: MleResult, *, mu0: float) -> TestOutcome:
    """``lr_test_block`` of the dataset of ``fit``."""
    return lr_test_block(fit.block, mu0=mu0).lane(fit.lane)


def _chi2_1_tail(lam: np.ndarray) -> np.ndarray:
    """P(X > lam) for X ~ chi-square(1), each lam >= 0 or NaN."""
    return _erfc(np.sqrt(lam / 2.0))


def _wald_pvalue(z, alternative):
    alternative = Alternative.coerce(alternative)
    if alternative is Alternative.GREATER:
        return 0.5 * _erfc(z / _SQRT2)
    if alternative is Alternative.LESS:
        return 0.5 * _erfc(-z / _SQRT2)
    return _erfc(np.abs(z) / _SQRT2)
