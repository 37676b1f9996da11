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
readers turn what they built into one p-value, or one pair of log-scale
bounds, per dataset, NaN where the procedure cannot answer on it.
``ahmed_components(ds)`` and ``gupta_li_mle(ds)`` are the builders' views of
one dataset: its pieces as Python numbers, or a ValueError naming why it has
none.  The six readers (``ahmed_test``, ``ahmed_ci``, ``baklizi_ci``,
``gupta_li_test``, ``gupta_li_ci``, ``lr_test``) read those pieces with the
block readers' formulas.  The builders refuse a dataset outside the
lognormal-mean model, so the pieces exist only for that model.

Sums over the groups run column by column, left to right, as numpy sums
fewer than 8 elements, so for k < 8 the figures have the bits that the same
formulas give on numpy arrays.  exp and log are numpy's; x ** -0.5 and the log
of an original-scale bound are Python's, as when these formulas ran on Python
floats (where numpy has SIMD versions, the two differ in the last bit for some
arguments).
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import special

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


def _require_lognormal(ds: Dataset) -> None:
    if not ds.model.is_lognormal_mean:
        raise ValueError("defined for the lognormal-mean model (a=1, b=-0.5) only")


def _require_mu0(mu0: float) -> None:
    if not math.isfinite(mu0):
        raise ValueError("mu0 must be finite")


# The quantiles depend only on the level (and k), so they are computed once per
# distinct argument.  They are what scipy.stats' norm.ppf and chi2.ppf compute,
# from scipy.special, which imports in a fraction of the time.
@functools.lru_cache(maxsize=64)
def _normal_quantile(level: float) -> float:
    return float(special.ndtri((1.0 + level) / 2.0))


@functools.lru_cache(maxsize=64)
def _chi2_quantile(level: float, df: int) -> float:
    return float(2.0 * special.gammaincinv(df / 2.0, level))


def _inverse_sqrt(x: np.ndarray) -> np.ndarray:
    """x ** -0.5 of each (positive) x, by Python's float power."""
    return np.array([value ** -0.5 for value in x.tolist()])


def _log_bounds(lower, upper, failed):
    """Log-scale bounds of original-scale ones (-inf from a nonpositive bound,
    as ``interval_from_phi`` takes them), NaN where ``failed``."""
    logs = [[math.log(x) if x > 0.0 else -math.inf for x in bound.tolist()]
            for bound in (lower, upper)]
    return tuple(np.where(failed, np.nan, log) for log in logs)


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
        _require_lognormal(ds)
        return cls(tuple(g.n for g in ds.groups), np.array([[g.mean for g in ds.groups]]),
                   np.array([[g.variance for g in ds.groups]]))

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


# ---------------------------------------------------------------------------
# pooled Wald estimator and acceptance-set interval


@dataclass(frozen=True)
class AhmedComponents:
    """Per-group lognormal-mean estimates and their pooled combination.

    ``theta_hats`` are the per-group mean estimates exp(mean + sigma2/2) with
    the n-divisor group variances sigma2, ``weights`` the inverse variances
    n_i / v_hat_i of their delta-method variances v_hat_i, and ``theta_tilde``
    the inverse-variance pooled estimate with standard error ``std_error``.
    """

    theta_hats: tuple[float, ...]
    weights: tuple[float, ...]
    theta_tilde: float
    std_error: float


@dataclass(frozen=True)
class AhmedBlock:
    """The ``AhmedComponents`` of each dataset of a block: (R, k) and (R,)
    arrays.  ``failed`` marks the datasets whose delta-method variances leave
    the float range; their other fields mean nothing."""

    theta_hats: np.ndarray
    weights: np.ndarray
    theta_tilde: np.ndarray
    std_error: np.ndarray
    failed: np.ndarray

    def lane(self, i: int) -> AhmedComponents:
        """Dataset ``i``'s components, or the ValueError that it has none."""
        if self.failed[i]:
            raise ValueError(_AHMED_RANGE)
        return AhmedComponents(theta_hats=tuple(self.theta_hats[i].tolist()),
                               weights=tuple(self.weights[i].tolist()),
                               theta_tilde=float(self.theta_tilde[i]),
                               std_error=float(self.std_error[i]))


def _numpy_exp(x: np.ndarray) -> np.ndarray:
    """exp of ``x``, inf past the float range, where numpy would warn."""
    exps = np.exp(np.minimum(x, _LOG_FLOAT_MAX))
    exps[~(x <= _LOG_FLOAT_MAX)] = math.inf
    return exps


def ahmed_components_block(groups: GroupBlock) -> AhmedBlock:
    """Per-group estimates, delta-method weights and their pooled combination
    for every dataset of ``groups`` (see ``AhmedComponents``)."""
    n, means = groups.columns[:2]
    shrink = np.array([(size - 1) / size for size in groups.ns])[:, None]
    with np.errstate(**_QUIET):
        sigma2s = shrink * groups.variances.T  # the n-divisor variances
        thetas = _numpy_exp(means + 0.5 * sigma2s)
        v_hats = sigma2s * (1.0 + 0.5 * sigma2s) * _numpy_exp(2.0 * means + sigma2s)
        # an underflowed v weighs n / v = inf; an overflowed theta weighs 0, and 0 * inf is nan
        failed = (v_hats == 0.0).any(axis=0) | np.isinf(thetas).any(axis=0)
        weights = n / v_hats
        total, pooled = _group_sum(weights), _group_sum(weights * thetas)
        failed |= ~(np.isfinite(total) & (total > 0.0))
        theta_tilde = pooled / total
    return AhmedBlock(theta_hats=thetas.T, weights=weights.T, theta_tilde=theta_tilde,
                      std_error=_inverse_sqrt(np.where(failed, 1.0, total)), failed=failed)


def ahmed_components(ds: Dataset) -> AhmedComponents:
    """``ahmed_components_block`` of ``ds`` alone."""
    return ahmed_components_block(GroupBlock.of(ds)).lane(0)


def _ahmed_bounds(theta_tilde, std_error, level: float):
    z = _normal_quantile(level)
    return theta_tilde - z * std_error, theta_tilde + z * std_error


def ahmed_ci(comp: AhmedComponents, level: float = 0.95) -> IntervalOutcome:
    """Wald interval theta_tilde +/- z * SE on the original scale."""
    lower, upper = _ahmed_bounds(comp.theta_tilde, comp.std_error, level)
    return interval_from_phi(lower, upper, level, estimate=comp.theta_tilde)


def ahmed_ci_block(comp: AhmedBlock, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Log-scale bounds of each dataset's ``ahmed_ci``, NaN where it has none."""
    with np.errstate(**_QUIET):
        lower, upper = _ahmed_bounds(comp.theta_tilde, comp.std_error, level)
    return _log_bounds(lower, upper, comp.failed)


def _ahmed_statistic(theta_tilde, std_error, phi0: float):
    log_phi0(phi0)  # checks phi0
    return (theta_tilde - phi0) / std_error


def ahmed_test(comp: AhmedComponents, phi0: float,
               alternative: Alternative = Alternative.TWO_SIDED) -> TestOutcome:
    """Wald test of the pooled estimate against phi0 on the original scale."""
    z = _ahmed_statistic(comp.theta_tilde, comp.std_error, phi0)
    return TestOutcome(p_value=float(_wald_pvalue(z, alternative)), mc_std_error=0.0,
                       reps_used=0, statistic=z)


def ahmed_test_block(comp: AhmedBlock, phi0: float,
                     alternative: Alternative = Alternative.TWO_SIDED) -> np.ndarray:
    """Each dataset's ``ahmed_test`` p-value, NaN where it has none."""
    with np.errstate(**_QUIET):
        z = _ahmed_statistic(comp.theta_tilde, comp.std_error, phi0)
    return np.where(comp.failed, np.nan, _wald_pvalue(z, alternative))


def _baklizi_bounds(theta_hats, weights, theta_tilde, std_error, level: float):
    """The acceptance set's q, the spread Q of the group estimates about the
    pooled one, and the bounds theta_tilde -/+ se sqrt(q - Q) (NaN where Q > q);
    ``theta_hats`` and ``weights`` have the groups on their last axis."""
    q = _chi2_quantile(level, theta_hats.shape[-1])
    d = theta_hats.T - theta_tilde
    spread = _group_sum(weights.T * (d * d))
    half = std_error * np.sqrt(q - spread)
    return q, spread, theta_tilde - half, theta_tilde + half


def baklizi_ci(comp: AhmedComponents, level: float = 0.95) -> IntervalOutcome:
    """Interval of all theta accepted by the pooled quadratic criterion.

    The acceptance set sum_i n_i (theta_hat_i - theta)^2 / v_hat_i <= q, with q
    the level quantile of chi-square(k), is Q + (theta - theta_tilde)^2 / se^2
    <= q about ahmed's pooled estimate theta_tilde and its standard error se,
    where Q is the same sum at theta_tilde: theta_tilde +/- se sqrt(q - Q).
    When Q > q (group estimates too far apart for any common value) the set
    is empty, a ValueError.
    """
    with np.errstate(**_QUIET):
        q, spread, lower, upper = _baklizi_bounds(np.array(comp.theta_hats),
                                                  np.array(comp.weights),
                                                  comp.theta_tilde, comp.std_error, level)
    if math.isnan(spread):  # an overflowed v_hat's weight 0 times an overflowed d * d
        raise ValueError(_AHMED_RANGE)
    if spread > q:
        raise ValueError(f"empty acceptance set: no common mean is accepted at level {level:g}")
    return interval_from_phi(float(lower), float(upper), level, estimate=comp.theta_tilde)


def baklizi_ci_block(comp: AhmedBlock, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Log-scale bounds of each dataset's ``baklizi_ci``, NaN where it has none."""
    with np.errstate(**_QUIET):
        q, spread, lower, upper = _baklizi_bounds(comp.theta_hats, comp.weights,
                                                  comp.theta_tilde, comp.std_error, level)
        failed = comp.failed | np.isnan(spread) | (spread > q)
    return _log_bounds(lower, upper, failed)


# ---------------------------------------------------------------------------
# maximum likelihood, Wald interval, likelihood-ratio test


@dataclass(frozen=True)
class MleResult:
    """Maximum-likelihood fit of (mu, sigma^2_1..k).

    ``std_error`` is the asymptotic SD of mu_hat, the efficient information
    for mu to the power -1/2: group i is N(mu - v_i/2, v_i), and once v_i is
    profiled out it carries information 2 n_i / (v_i (2 + v_i)) about mu, and
    the groups add.  ``iterations`` counts evaluations of the profile score
    of mu, and ``converged`` is False only if a Brent search stopped short of
    its tolerance.  ``groups`` are the (n_i, ybar_i, (n_i - 1) s_i^2) of the
    fitted dataset, which the likelihood-ratio test reads at its null.
    """

    mu_hat: float
    sigma2_hats: tuple[float, ...]
    log_likelihood: float
    std_error: float
    iterations: int
    converged: bool
    groups: tuple[tuple[float, float, float], ...]


@dataclass(frozen=True)
class MleBlock:
    """The ``MleResult`` of each dataset of a block: (R,) arrays, (R, k) for
    ``sigma2_hats``.  ``failures`` maps each dataset without a fit to the
    reason, and ``failed`` marks them; their other fields mean nothing."""

    mu_hat: np.ndarray
    sigma2_hats: np.ndarray
    log_likelihood: np.ndarray
    std_error: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    failed: np.ndarray
    failures: dict[int, str]
    groups: GroupBlock

    def lane(self, i: int) -> MleResult:
        """Dataset ``i``'s fit, or the ValueError that it has none."""
        if self.failed[i]:
            raise ValueError(self.failures[i])
        _, ybar, scaled = self.groups.columns
        return MleResult(mu_hat=float(self.mu_hat[i]),
                         sigma2_hats=tuple(self.sigma2_hats[i].tolist()),
                         log_likelihood=float(self.log_likelihood[i]),
                         std_error=float(self.std_error[i]),
                         iterations=int(self.iterations[i]),
                         converged=bool(self.converged[i]),
                         groups=tuple(zip(map(float, self.groups.ns), ybar[:, i].tolist(),
                                          scaled[:, i].tolist())))


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


def _terms(ds: Dataset) -> np.ndarray:
    """(n_i, ybar_i, (n_i - 1) s_i^2) of ``ds`` as three (k,) arrays."""
    _require_lognormal(ds)
    return np.array(ds.group_terms()).T


def log_likelihood(ds: Dataset, mu: float, sigma2s) -> float:
    """Joint log-likelihood of the log-scale data at (mu, sigma^2), from summaries."""
    n, ybar, scaled = _terms(ds)
    v = np.asarray(sigma2s, dtype=float)
    if v.shape != (ds.k,):
        raise ValueError(f"need exactly {ds.k} variances")
    if np.any(v <= 0.0):
        raise ValueError("variances must be strictly positive")
    with np.errstate(**_QUIET):
        return float(_log_likelihood(n, ybar, scaled, mu, v))


def constrained_sigma2(ds: Dataset, mu: float) -> np.ndarray:
    """Per-group variance maximizers at fixed mu (see ``_profile_variances``)."""
    with np.errstate(**_QUIET):
        variances = _profile_variances(*_terms(ds), mu)
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
    failures = {int(i): _overflow_message(failed_at[i])
                for i in np.flatnonzero(~np.isnan(failed_at))}
    # a fit whose profile variances all pass ~1e154 would have no standard
    # error; the scan's own overflow check comes first, but no lane may raise
    for i in np.flatnonzero(information == 0.0):
        failures[int(i)] = (f"the information for mu at mu_hat = {mu_hat[i]:.6g} underflows "
                            "to 0: no standard error")
    failed = np.zeros(groups.size, dtype=bool)
    failed[list(failures)] = True
    return MleBlock(mu_hat=mu_hat, sigma2_hats=sigma2_hats.T, log_likelihood=ll,
                    std_error=_inverse_sqrt(np.where(failed, 1.0, information)),
                    iterations=iterations, converged=converged, failed=failed,
                    failures=failures, groups=groups)


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


def _gupta_li_bounds(mu_hat, std_error, level: float):
    z = _normal_quantile(level)
    return mu_hat - z * std_error, mu_hat + z * std_error


def gupta_li_ci(fit: MleResult, level: float = 0.95) -> IntervalOutcome:
    """Wald interval exp(mu_hat +/- z * SD(mu_hat))."""
    lower, upper = _gupta_li_bounds(fit.mu_hat, fit.std_error, level)
    return interval_from_log(lower, upper, level, estimate=exp_or_inf(fit.mu_hat))


def gupta_li_ci_block(fit: MleBlock, level: float) -> tuple[np.ndarray, np.ndarray]:
    """Log-scale bounds of each dataset's ``gupta_li_ci``, NaN where it has none."""
    with np.errstate(**_QUIET):
        bounds = _gupta_li_bounds(fit.mu_hat, fit.std_error, level)
    return tuple(np.where(fit.failed, np.nan, bound) for bound in bounds)


def _gupta_li_statistic(mu_hat, std_error, mu0: float):
    _require_mu0(mu0)
    return (mu_hat - mu0) / std_error


def gupta_li_test(fit: MleResult, *, mu0: float) -> TestOutcome:
    """Two-sided Wald test of mu = mu0 on the log scale."""
    z = _gupta_li_statistic(fit.mu_hat, fit.std_error, mu0)
    return TestOutcome(p_value=float(_wald_pvalue(z, Alternative.TWO_SIDED)), mc_std_error=0.0,
                       reps_used=0, statistic=z)


def gupta_li_test_block(fit: MleBlock, *, mu0: float) -> np.ndarray:
    """Each dataset's ``gupta_li_test`` p-value, NaN where it has none."""
    with np.errstate(**_QUIET):
        z = _gupta_li_statistic(fit.mu_hat, fit.std_error, mu0)
    return np.where(fit.failed, np.nan, _wald_pvalue(z, Alternative.TWO_SIDED))


def _lr_statistic(log_likelihood, n, ybar, scaled, mu0: float):
    """2 (l_p(mu_hat) - l_p(mu0)), and where the profile variance at mu0 overflows."""
    _require_mu0(mu0)
    with np.errstate(**_QUIET):
        null = _log_likelihood(n, ybar, scaled, mu0, _profile_variances(n, ybar, scaled, mu0))
        # the clamp only removes rounding residue when mu0 is within ulps of mu_hat
        return np.maximum(2.0 * (log_likelihood - null), 0.0), np.isnan(null)


def lr_test(fit: MleResult, *, mu0: float) -> TestOutcome:
    """Profile likelihood-ratio test of mu = mu0 (log scale), chi-square(1) calibrated.

    The statistic is 2 (l_p(mu_hat) - l_p(mu0)) with l_p the profile
    log-likelihood of the fitted groups, nonnegative because mu_hat is its
    global maximizer.
    """
    lam, overflow = _lr_statistic(fit.log_likelihood, *np.array(fit.groups).T, mu0)
    if overflow:
        raise ValueError(_overflow_message(mu0))
    return TestOutcome(p_value=float(special.chdtrc(1, lam)), mc_std_error=0.0,
                       reps_used=0, statistic=float(lam))


def lr_test_block(fit: MleBlock, *, mu0: float) -> np.ndarray:
    """Each dataset's ``lr_test`` p-value, NaN where it has none."""
    lam, overflow = _lr_statistic(fit.log_likelihood, *fit.groups.columns, mu0)
    return np.where(fit.failed | overflow, np.nan, special.chdtrc(1, lam))


def _wald_pvalue(z, alternative):
    alternative = Alternative.coerce(alternative)
    if alternative is Alternative.GREATER:
        return special.ndtr(-z)
    if alternative is Alternative.LESS:
        return special.ndtr(z)
    return np.minimum(2.0 * special.ndtr(-np.abs(z)), 1.0)
