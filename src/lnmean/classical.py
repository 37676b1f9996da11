"""Classical procedures for the common lognormal mean.

All of these assume the (a=1, b=-0.5) model on the log scale: a pooled Wald
estimator with per-group delta-method variances (ahmed), the chi-square
acceptance-set interval centred on its pooled estimate (baklizi), maximum
likelihood with a Wald interval from the efficient information for mu
(gupta-li), and a profile likelihood-ratio test (lrt).  Every procedure
takes any number of groups.

The variances maximize the likelihood in closed form at any fixed mu, so the
ML fit is a global search over the one-dimensional profile likelihood of mu.

Two builders take the dataset and do the shared work: ``ahmed_components``
(ahmed and baklizi) and ``gupta_li_mle`` (gupta-li and lrt).  The procedures
read what a builder made and recompute none of it; only the likelihood-ratio
test also needs the dataset, for the profile likelihood at its null.  The
builders refuse a dataset outside the lognormal-mean model, so the pieces
exist only for that model.

k is small, so formulas over the groups run in scalar arithmetic on Python
floats.  Their sums go left to right, as numpy sums fewer than 8 elements, and
exp and log come from numpy (``_numpy_exp``, ``_log_likelihood``), so for
k < 8 the ahmed, baklizi and likelihood figures have the bits that the same
formulas give on numpy arrays.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special, stats

from .model import Dataset
from .outcomes import (Alternative, IntervalOutcome, TestOutcome, exp_or_inf,
                       interval_from_log, interval_from_phi)

_SIGMA2_FLOOR = 1e-12
# the largest x whose exp is finite
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_AHMED_RANGE = "ahmed delta-method variances overflow or underflow the float range"
# absolute tolerance of the Brent search for the ML estimate of mu
_MU_XTOL = 1e-14


def _require_lognormal(ds: Dataset) -> None:
    if not ds.model.is_lognormal_mean:
        raise ValueError("defined for the lognormal-mean model (a=1, b=-0.5) only")


def _require_phi0(phi0: float) -> None:
    if not (math.isfinite(phi0) and phi0 > 0.0):
        raise ValueError("phi0 must be finite and positive")


def _require_mu0(mu0: float) -> None:
    if not math.isfinite(mu0):
        raise ValueError("mu0 must be finite")


# The quantiles depend only on the level (and k), and each scipy call costs
# tens of microseconds, so they are computed once per distinct argument.
@functools.lru_cache(maxsize=64)
def _normal_quantile(level: float) -> float:
    return float(stats.norm.ppf((1.0 + level) / 2.0))


@functools.lru_cache(maxsize=64)
def _chi2_quantile(level: float, df: int) -> float:
    return float(stats.chi2.ppf(level, df=df))


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


def _numpy_exp(xs: list[float]) -> list[float]:
    """exp of each of ``xs`` from one numpy call; inf past the float range.

    numpy's exp, not ``math.exp``: where numpy has a SIMD exp (AVX-512 builds)
    the two differ in the last bit for about 5% of arguments.  Arguments past
    the range never reach numpy, which would warn of the overflow.
    """
    exps = np.exp([min(x, _LOG_FLOAT_MAX) for x in xs]).tolist()
    return [e if x <= _LOG_FLOAT_MAX else math.inf for x, e in zip(xs, exps)]


def ahmed_components(ds: Dataset) -> AhmedComponents:
    _require_lognormal(ds)
    sigma2s = [(g.n - 1) / g.n * g.variance for g in ds.groups]
    exps = _numpy_exp([g.mean + 0.5 * s for g, s in zip(ds.groups, sigma2s)]
                      + [2.0 * g.mean + s for g, s in zip(ds.groups, sigma2s)])
    thetas = exps[:ds.k]
    v_hats = [s * (1.0 + 0.5 * s) * e for s, e in zip(sigma2s, exps[ds.k:])]
    # an underflowed v weighs n / v = inf; an overflowed theta weighs 0, and 0 * inf is nan
    if 0.0 in v_hats or math.inf in thetas:
        raise ValueError(_AHMED_RANGE)
    weights = [g.n / v for g, v in zip(ds.groups, v_hats)]
    total = pooled = 0.0
    for weight, theta in zip(weights, thetas):
        total += weight
        pooled += weight * theta
    if not (math.isfinite(total) and total > 0.0):
        raise ValueError(_AHMED_RANGE)
    return AhmedComponents(theta_hats=tuple(thetas), weights=tuple(weights),
                           theta_tilde=pooled / total, std_error=total ** -0.5)


def ahmed_ci(comp: AhmedComponents, level: float = 0.95) -> IntervalOutcome:
    """Wald interval theta_tilde +/- z * SE on the original scale."""
    z = _normal_quantile(level)
    return interval_from_phi(comp.theta_tilde - z * comp.std_error,
                             comp.theta_tilde + z * comp.std_error,
                             level, estimate=comp.theta_tilde)


def ahmed_test(comp: AhmedComponents, phi0: float,
               alternative: Alternative = Alternative.TWO_SIDED) -> TestOutcome:
    """Wald test of the pooled estimate against phi0 on the original scale."""
    _require_phi0(phi0)
    z = (comp.theta_tilde - phi0) / comp.std_error
    p = _wald_pvalue(z, alternative)
    return TestOutcome(p_value=p, mc_std_error=0.0, reps_used=0, statistic=z)


def baklizi_ci(comp: AhmedComponents, level: float = 0.95) -> IntervalOutcome:
    """Interval of all theta accepted by the pooled quadratic criterion.

    The acceptance set sum_i n_i (theta_hat_i - theta)^2 / v_hat_i <= q, with q
    the level quantile of chi-square(k), is Q + (theta - theta_tilde)^2 / se^2
    <= q about ahmed's pooled estimate theta_tilde and its standard error se,
    where Q is the same sum at theta_tilde: theta_tilde +/- se sqrt(q - Q).
    When Q > q (group estimates too far apart for any common value) the set
    is empty, a ValueError.
    """
    q = _chi2_quantile(level, len(comp.weights))
    spread = 0.0
    for weight, theta in zip(comp.weights, comp.theta_hats):
        d = theta - comp.theta_tilde
        spread += weight * (d * d)  # not d ** 2, which raises where this gives inf
    if math.isnan(spread):  # an overflowed v_hat's weight 0 times an overflowed d * d
        raise ValueError(_AHMED_RANGE)
    if spread > q:
        raise ValueError(f"empty acceptance set: no common mean is accepted at level {level:g}")
    centre, half = comp.theta_tilde, comp.std_error * math.sqrt(q - spread)
    return interval_from_phi(centre - half, centre + half, level, estimate=centre)


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
    its tolerance.
    """

    mu_hat: float
    sigma2_hats: tuple[float, ...]
    log_likelihood: float
    std_error: float
    iterations: int
    converged: bool


def log_likelihood(ds: Dataset, mu: float, sigma2s) -> float:
    """Joint log-likelihood of the log-scale data at (mu, sigma^2), from summaries.

    Group i contributes a normal likelihood with mean mu - sigma_i^2 / 2,
    rewritten in terms of (n_i, ybar_i, s_i^2).
    """
    _require_lognormal(ds)
    v = np.asarray(sigma2s, dtype=float)
    if v.shape != (ds.k,):
        raise ValueError(f"need exactly {ds.k} variances")
    if np.any(v <= 0.0):
        raise ValueError("variances must be strictly positive")
    return _log_likelihood(ds.group_terms(), mu, v.tolist())


def _log_likelihood(groups, mu: float, sigma2s: list[float]) -> float:
    # numpy's log, for the reason _numpy_exp gives
    logs = np.log([2.0 * math.pi * v for v in sigma2s]).tolist()
    total = 0.0
    for (n, ybar, scaled), v, log_v in zip(groups, sigma2s, logs):
        d = ybar - mu + v / 2.0
        total += -0.5 * n * log_v - (scaled + n * (d * d)) / (2.0 * v)
    return total


def _sigma2_at(n: float, ybar: float, scaled: float, mu: float) -> float:
    # 2 (sqrt(1 + x) - 1) written as 2x / (sqrt(1 + x) + 1): no cancellation at small x
    d = ybar - mu
    x = (scaled + n * (d * d)) / n
    v = 2.0 * x / (math.sqrt(1.0 + x) + 1.0)
    if not v < math.inf:  # also catches nan, from x = inf
        raise ValueError(f"the profile variance at mu = {mu:.6g} overflows the float range")
    return max(v, _SIGMA2_FLOOR)


def constrained_sigma2(ds: Dataset, mu: float) -> np.ndarray:
    """Per-group variance maximizers at fixed mu.

    The score equation in sigma_i^2 reduces to the quadratic
    v^2 + 4v - 4 Q_i / n_i = 0 with Q_i = (n_i-1) s_i^2 + n_i (ybar_i - mu)^2,
    whose unique positive root is the maximizer.
    """
    _require_lognormal(ds)
    return np.array([_sigma2_at(n, ybar, scaled, mu) for n, ybar, scaled in ds.group_terms()])


def _profile_score(mu: float, groups) -> float:
    # d/dmu of the profile log-likelihood: at the conditional maximizers only
    # the partial derivative in mu remains, sum_i n_i (ybar_i - mu + v_i/2) / v_i
    total = 0.0
    for n, ybar, scaled in groups:
        v = _sigma2_at(n, ybar, scaled, mu)
        total += n * (ybar - mu + 0.5 * v) / v
    return total


def _profile_log_likelihood(groups, mu: float) -> float:
    return _log_likelihood(groups, mu, [_sigma2_at(n, ybar, scaled, mu)
                                        for n, ybar, scaled in groups])


def _scan_points(groups) -> list[float]:
    """Sorted points of the bracket of group modes at which the score is read.

    Group i's score changes sign at its mode m_i = ybar_i + c_i / 2, with
    c_i = (n_i - 1) s_i^2 / n_i, and varies on the scale of c_i next to it, so
    a group with a small c_i beside one with a large c_i gives the profile a
    narrow peak that an evenly spaced scan steps over.  Offsets c_i * 2^j,
    j >= -2, on both sides of every mode resolve each group at every scale up
    to the width of the bracket.
    """
    scales = [scaled / n for n, _, scaled in groups]
    modes = [ybar + c / 2.0 for (_, ybar, _), c in zip(groups, scales)]
    lo, hi = min(modes), max(modes)
    points = {lo, hi}
    for mode, c in zip(modes, scales):
        step = max(c, _SIGMA2_FLOOR) / 4.0
        while step < hi - lo:
            points.update((mode - step, mode + step))
            step *= 2.0
    return sorted(p for p in points if lo <= p <= hi)


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
    have several peaks, so no single local search is trusted.
    """
    _require_lognormal(ds)
    groups = ds.group_terms()
    points = _scan_points(groups)
    scores = [_profile_score(mu, groups) for mu in points]
    evaluations = len(points)
    converged = True
    candidates = []
    if scores[0] <= 0.0:
        candidates.append(points[0])
    if scores[-1] > 0.0:
        candidates.append(points[-1])
    for a, b, score_a, score_b in zip(points, points[1:], scores, scores[1:]):
        if score_a > 0.0 >= score_b:
            root, info = optimize.brentq(_profile_score, a, b, args=(groups,),
                                         xtol=_MU_XTOL, full_output=True, disp=False)
            evaluations += info.function_calls
            converged = converged and info.converged
            candidates.append(root)
    ll, mu_hat = max((_profile_log_likelihood(groups, mu), mu) for mu in candidates)
    sigma2_hats = tuple(_sigma2_at(n, ybar, scaled, mu_hat) for n, ybar, scaled in groups)
    information = sum(2.0 * n / (v * (2.0 + v)) for (n, _, _), v in zip(groups, sigma2_hats))
    return MleResult(mu_hat=mu_hat, sigma2_hats=sigma2_hats, log_likelihood=ll,
                     std_error=information ** -0.5, iterations=evaluations,
                     converged=converged)


def gupta_li_ci(fit: MleResult, level: float = 0.95) -> IntervalOutcome:
    """Wald interval exp(mu_hat +/- z * SD(mu_hat))."""
    z = _normal_quantile(level)
    return interval_from_log(fit.mu_hat - z * fit.std_error, fit.mu_hat + z * fit.std_error,
                             level, estimate=exp_or_inf(fit.mu_hat))


def gupta_li_test(fit: MleResult, *, mu0: float) -> TestOutcome:
    """Two-sided Wald test of mu = mu0 on the log scale."""
    _require_mu0(mu0)
    z = (fit.mu_hat - mu0) / fit.std_error
    return TestOutcome(p_value=_wald_pvalue(z, Alternative.TWO_SIDED), mc_std_error=0.0,
                       reps_used=0, statistic=z)


def lr_test(ds: Dataset, fit: MleResult, *, mu0: float) -> TestOutcome:
    """Profile likelihood-ratio test of mu = mu0 (log scale), chi-square(1) calibrated.

    ``fit`` is ``gupta_li_mle(ds)``.  The statistic is 2 (l_p(mu_hat) -
    l_p(mu0)) with l_p the profile log-likelihood, nonnegative because mu_hat
    is its global maximizer.
    """
    _require_lognormal(ds)
    _require_mu0(mu0)
    # the clamp only removes rounding residue when mu0 is within ulps of mu_hat
    lam = max(2.0 * (fit.log_likelihood - _profile_log_likelihood(ds.group_terms(), mu0)), 0.0)
    return TestOutcome(p_value=float(special.chdtrc(1, lam)), mc_std_error=0.0,
                       reps_used=0, statistic=lam)


def _wald_pvalue(z: float, alternative) -> float:
    alternative = Alternative.coerce(alternative)
    if alternative is Alternative.GREATER:
        return float(special.ndtr(-z))
    if alternative is Alternative.LESS:
        return float(special.ndtr(z))
    return float(min(2.0 * special.ndtr(-abs(z)), 1.0))
