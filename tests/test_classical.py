import math

import numpy as np
import mpmath
import pytest
from scipy import optimize, stats

from lnmean import (COMMON_NORMAL_MEAN, LOGNORMAL_MEAN, Alternative, Dataset, SampleSummary,
                    ahmed_ci, classical, ahmed_components, ahmed_test, baklizi_ci,
                    constrained_sigma2, gupta_li_ci, gupta_li_mle, gupta_li_test,
                    log_likelihood, lr_test, rmrs_dataset)

RMRS = rmrs_dataset()
PHI0 = 20000.0
MU0 = math.log(PHI0)


def _dataset(rng, k, n_range=(4, 40)):
    groups = tuple(SampleSummary(int(rng.integers(*n_range)), float(rng.normal()),
                                 float(rng.uniform(0.2, 3.0))) for _ in range(k))
    return Dataset(groups=groups, model=LOGNORMAL_MEAN)


def _rel_close(value, target, rel):
    assert abs(value - target) <= rel * abs(target), f"{value} vs {target}"


LEVELS = np.linspace(0.5, 0.999, 60).tolist() + [0.8, 0.9, 0.95, 0.99]
DFS = (1, 2, 3, 5, 8, 13, 50, 120)


def _ulps_off(value, exact):
    """|value - exact| in units in the last place of exact rounded to a float."""
    return float(abs(mpmath.mpf(value) - exact)) / math.ulp(float(exact))


def _chi2_quantile_exact(level, df, start):
    """The root of P(df/2, x/2) = level (regularized lower gamma), by Newton from ``start``."""
    a, x = mpmath.mpf(df) / 2, mpmath.mpf(start)
    for _ in range(6):
        cdf = mpmath.gammainc(a, 0, x / 2, regularized=True)
        pdf = (x / 2) ** (a - 1) * mpmath.exp(-x / 2) / (2 * mpmath.gamma(a))
        x -= (cdf - level) / pdf
    return x


def test_quantiles_are_within_4_ulps_of_the_exact_value():
    # the normal quantile sqrt(2) erfinv(level) and the chi-square quantile at
    # the exact float level, against mpmath at 160 bits
    with mpmath.workprec(160):
        for level in LEVELS:
            exact = mpmath.sqrt(2) * mpmath.erfinv(mpmath.mpf(level))
            assert _ulps_off(classical._normal_quantile(level), exact) <= 4.0, level
            for df in DFS:
                q = classical._chi2_quantile(level, df)
                assert _ulps_off(q, _chi2_quantile_exact(level, df, q)) <= 4.0, (level, df)


def test_chi2_quantile_of_a_df_in_the_thousands():
    # the tail's sum passes the float range from df ~ 1200 on and is carried
    # in units of 2^-900 there
    for df in (1000, 3000, 10000):
        for level in (0.5, 0.95, 0.9999):
            assert classical._chi2_quantile(level, df) == pytest.approx(
                stats.chi2.ppf(level, df), rel=1e-12)


def test_quantiles_outside_the_unit_interval_are_nan():
    for level in (0.0, 1.0, 1.5, -0.1, math.nan):
        assert math.isnan(classical._normal_quantile(level))
        assert math.isnan(classical._chi2_quantile(level, 3))


def test_pvalues_are_within_1e_12_of_the_exact_tails():
    # Wald: Phi(-z) (greater), Phi(z) (less) and 2 Phi(-|z|); LRT: the
    # chi-square(1) tail erfc(sqrt(lam / 2)); mpmath at 160 bits on the floats
    z = np.concatenate([np.linspace(-37.0, 37.0, 1481),
                        np.random.default_rng(5).uniform(-37.0, 37.0, 500)])
    lam = np.concatenate([np.linspace(0.0, 1400.0, 1401), [1e-300, 1e-12, 1e-6, 0.1]])
    tails = {Alternative.GREATER: lambda x: mpmath.erfc(x / mpmath.sqrt(2)) / 2,
             Alternative.LESS: lambda x: mpmath.erfc(-x / mpmath.sqrt(2)) / 2,
             Alternative.TWO_SIDED: lambda x: mpmath.erfc(abs(x) / mpmath.sqrt(2))}
    with mpmath.workprec(160):
        for alternative, tail in tails.items():
            for x, p in zip(z.tolist(), classical._wald_pvalue(z, alternative).tolist()):
                exact = tail(mpmath.mpf(x))
                assert abs(p - exact) <= 1e-12 * exact, (alternative, x)
        for x, p in zip(lam.tolist(), classical._chi2_1_tail(lam).tolist()):
            exact = mpmath.erfc(mpmath.sqrt(mpmath.mpf(x) / 2))
            assert abs(p - exact) <= 1e-12 * exact, x


def test_pvalue_edge_values():
    z = np.array([math.inf, -math.inf, math.nan, 0.0])
    pvalues = {alternative: classical._wald_pvalue(z, alternative).tolist()
               for alternative in Alternative}
    assert pvalues[Alternative.GREATER][:2] == [0.0, 1.0]
    assert pvalues[Alternative.LESS][:2] == [1.0, 0.0]
    assert pvalues[Alternative.TWO_SIDED][:2] == [0.0, 0.0]
    assert pvalues[Alternative.TWO_SIDED][3] == 1.0
    assert all(math.isnan(values[2]) for values in pvalues.values())
    lrt = classical._chi2_1_tail(np.array([0.0, math.inf, math.nan])).tolist()
    assert lrt[:2] == [1.0, 0.0] and math.isnan(lrt[2])


# ---------------------------------------------------------------------------
# pooled Wald estimator


def test_ahmed_rmrs_interval():
    interval = ahmed_ci(ahmed_components(RMRS), 0.95)
    _rel_close(interval.phi_lower, 15831.21, 0.003)
    _rel_close(interval.phi_upper, 27720.26, 0.003)


def test_ahmed_rmrs_pvalue():
    outcome = ahmed_test(ahmed_components(RMRS), PHI0)
    assert outcome.p_value == pytest.approx(0.5582, abs=0.005)


def test_ahmed_single_group_reduction():
    ds = Dataset(groups=(SampleSummary(12, 0.8, 1.1),), model=LOGNORMAL_MEAN)
    comp = ahmed_components(ds)
    interval = ahmed_ci(comp, 0.95)
    z = stats.norm.ppf(0.975)
    sigma2 = 11 / 12 * 1.1
    v_hat = sigma2 * (1.0 + 0.5 * sigma2) * math.exp(2 * 0.8 + sigma2)  # delta method
    half = z * math.sqrt(v_hat / 12)
    assert interval.phi_lower == pytest.approx(comp.theta_hats[0] - half, rel=1e-12)
    assert interval.phi_upper == pytest.approx(comp.theta_hats[0] + half, rel=1e-12)


def test_ahmed_duplicated_group_shrinks_width():
    group = SampleSummary(15, 1.0, 0.9)
    single = ahmed_ci(ahmed_components(Dataset(groups=(group,), model=LOGNORMAL_MEAN)))
    double = ahmed_ci(ahmed_components(Dataset(groups=(group, group), model=LOGNORMAL_MEAN)))
    assert double.estimate == pytest.approx(single.estimate, rel=1e-12)
    assert double.width == pytest.approx(single.width / math.sqrt(2.0), rel=1e-12)


def test_ahmed_pooled_estimate_is_convex_combination():
    rng = np.random.default_rng(81)
    for _ in range(25):
        comp = ahmed_components(_dataset(rng, int(rng.integers(1, 5))))
        assert min(comp.theta_hats) - 1e-9 <= comp.theta_tilde <= max(comp.theta_hats) + 1e-9


def test_ahmed_test_at_pooled_estimate_and_endpoint():
    comp = ahmed_components(RMRS)
    assert ahmed_test(comp, comp.theta_tilde).p_value == pytest.approx(1.0, abs=1e-12)
    interval = ahmed_ci(comp, 0.95)
    assert ahmed_test(comp, interval.phi_upper).p_value == pytest.approx(0.05, abs=1e-10)


def test_ahmed_requires_lognormal_model():
    ds = Dataset(groups=(SampleSummary(5, 0.0, 1.0),), model=COMMON_NORMAL_MEAN)
    with pytest.raises(ValueError, match="lognormal"):
        ahmed_components(ds)


# ---------------------------------------------------------------------------
# acceptance-set interval


def test_baklizi_rmrs_interval():
    interval = baklizi_ci(ahmed_components(RMRS), 0.95)
    _rel_close(interval.phi_lower, 14372.59, 0.003)
    _rel_close(interval.phi_upper, 29178.79, 0.003)


def test_baklizi_single_group_equals_ahmed():
    # with one group the chi-square(1) quantile is the squared normal quantile
    ds = Dataset(groups=(SampleSummary(9, 1.4, 0.8),), model=LOGNORMAL_MEAN)
    comp = ahmed_components(ds)
    quad = baklizi_ci(comp, 0.95)
    wald = ahmed_ci(comp, 0.95)
    assert quad.phi_lower == pytest.approx(wald.phi_lower, rel=1e-9)
    assert quad.phi_upper == pytest.approx(wald.phi_upper, rel=1e-9)


def test_baklizi_identical_groups_center():
    group = SampleSummary(20, 0.5, 1.2)
    ds = Dataset(groups=(group, group, group), model=LOGNORMAL_MEAN)
    comp = ahmed_components(ds)
    interval = baklizi_ci(comp, 0.95)
    midpoint = 0.5 * (interval.phi_lower + interval.phi_upper)
    assert midpoint == pytest.approx(comp.theta_hats[0], rel=1e-9)


def test_baklizi_midpoint_level_free_and_width_monotone():
    ds = Dataset(groups=(SampleSummary(18, 0.9, 1.1), SampleSummary(25, 1.0, 0.8),
                         SampleSummary(12, 1.1, 1.4)), model=LOGNORMAL_MEAN)
    comp = ahmed_components(ds)
    narrow = baklizi_ci(comp, 0.80)
    wide = baklizi_ci(comp, 0.99)
    mid_narrow = 0.5 * (narrow.phi_lower + narrow.phi_upper)
    mid_wide = 0.5 * (wide.phi_lower + wide.phi_upper)
    assert mid_narrow == pytest.approx(mid_wide, rel=1e-12)
    assert wide.width > narrow.width


def test_baklizi_empty_acceptance_set_raises_by_name():
    # far-apart group estimates with tiny dispersion: no theta is accepted
    groups = (SampleSummary(50, 0.0, 0.01), SampleSummary(50, 3.0, 0.01))
    with pytest.raises(ValueError, match=r"^empty acceptance set: no common mean is "
                                         r"accepted at level 0\.95$"):
        baklizi_ci(ahmed_components(Dataset(groups=groups, model=LOGNORMAL_MEAN)), 0.95)


def test_baklizi_bounds_solve_the_acceptance_criterion():
    # the centred form against the definition: the criterion
    # C(t) = sum_i w_i (theta_hat_i - t)^2, w_i = n_i / v_hat_i, equals q at each bound, and
    # the set is refused exactly when its minimum Q = C(theta_tilde) exceeds q.
    # Rounding moves a bound by a few ulps, and C by that times
    # |C'(bound)| <= 2 sqrt(q) / se, well under 1e-12 q at theta / se < 40 here
    rng = np.random.default_rng(4242)
    answered = refused = 0
    for _ in range(400):
        k = int(rng.integers(1, 8))
        spread = 10 ** rng.uniform(-1, 1)
        groups = tuple(SampleSummary(int(rng.integers(4, 40)), float(rng.normal(0.0, spread)),
                                     float(rng.uniform(0.2, 3.0))) for _ in range(k))
        ds = Dataset(groups=groups, model=LOGNORMAL_MEAN)
        comp = ahmed_components(ds)
        w, theta = np.array(comp.weights), np.array(comp.theta_hats)

        def criterion(t):
            return float(np.sum(w * (theta - t) ** 2))

        q = stats.chi2.ppf(0.95, k)
        try:
            interval = baklizi_ci(comp, 0.95)
        except ValueError as exc:
            assert str(exc).startswith("empty acceptance set")
            assert criterion(comp.theta_tilde) > q
            refused += 1
            continue
        assert criterion(comp.theta_tilde) <= q
        for bound in (interval.phi_lower, interval.phi_upper):
            assert criterion(bound) == pytest.approx(q, rel=1e-12)
        answered += 1
    assert answered > 100 and refused > 100, (answered, refused)


def test_baklizi_nan_spread_is_the_named_range_error():
    # group a's v_hat overflows, a weight of 0, and its distance from the
    # pooled estimate squared overflows too (0 * inf, a NaN spread).  The
    # components fail with ahmed's range error, so neither ahmed nor baklizi
    # answers from group b alone
    groups = (SampleSummary(2, 377.0, 0.01), SampleSummary(20, -159.0, 0.0001))
    block = classical.ahmed_components_block(
        classical.GroupBlock.of(Dataset(groups=groups, model=LOGNORMAL_MEAN)))
    assert block.failed.tolist() == [True]
    for reader in (classical.ahmed_ci_block, classical.baklizi_ci_block):
        with pytest.raises(ValueError, match="^ahmed delta-method variances overflow or "
                                             "underflow the float range$"):
            reader(block, 0.95).lane(0)
    with pytest.raises(ValueError, match="overflow or underflow the float range"):
        classical.ahmed_test_block(block, 1.0).lane(0)


@pytest.mark.parametrize("means", [(-500.0,), (500.0,), (1e200,), (-500.0, -499.9, -499.8),
                                   (500.0, 500.1, 500.2), (1e200, 1e200), (0.0, -500.0),
                                   (0.0, 800.0)])
def test_ahmed_and_baklizi_out_of_range_fail_by_name(means):
    # at -500 the delta-method variances underflow to 0 (an infinite weight
    # n / v), at +500 and 1e200 they overflow to inf (a zero weight); both are
    # the named ValueError, never a ZeroDivisionError or OverflowError.  At
    # (0, 800) only group 2 overflows, and its theta_hat of inf would make the
    # pooled sum 0 * inf = nan beside group 1's finite weight.  Every ahmed and
    # baklizi procedure reads these components, so none of them answers here
    groups = tuple(SampleSummary(10 + i, mean, 1.0 + i) for i, mean in enumerate(means))
    with pytest.raises(ValueError, match="overflow or underflow the float range"):
        ahmed_components(Dataset(groups=groups, model=LOGNORMAL_MEAN))


# ---------------------------------------------------------------------------
# maximum likelihood and the Wald interval


def test_gupta_li_mle_single_group_matches_grid_search():
    ds = Dataset(groups=(SampleSummary(11, 0.7, 1.6),), model=LOGNORMAL_MEAN)
    fit = gupta_li_mle(ds)
    assert fit.converged

    # brute-force oracle: refine a 2-d grid around the best point
    mu_lo, mu_hi = -2.0, 3.0
    v_lo, v_hi = 0.05, 8.0
    best = None
    for _ in range(7):
        mus = np.linspace(mu_lo, mu_hi, 81)
        vs = np.linspace(v_lo, v_hi, 81)
        grid_mu, grid_v = np.meshgrid(mus, vs, indexing="ij")
        n, ybar, s2 = 11, 0.7, 1.6
        quad = (n - 1) * s2 + n * (ybar - grid_mu + grid_v / 2.0) ** 2
        ll = -0.5 * n * np.log(2 * np.pi * grid_v) - quad / (2.0 * grid_v)
        i, j = np.unravel_index(np.argmax(ll), ll.shape)
        best = (mus[i], vs[j])
        dm, dv = mus[1] - mus[0], vs[1] - vs[0]
        mu_lo, mu_hi = best[0] - 2 * dm, best[0] + 2 * dm
        v_lo, v_hi = max(best[1] - 2 * dv, 1e-6), best[1] + 2 * dv
    assert fit.mu_hat == pytest.approx(best[0], abs=1e-5)
    assert fit.sigma2_hats[0] == pytest.approx(best[1], abs=1e-5)


def _profile_on_grid(ds, mu):
    # profile log-likelihood at each mu, written out independently of the
    # library: variances at their conditional maximizers, 2 (sqrt(1 + x) - 1)
    # in a form that does not cancel at small x, then the joint
    # log-likelihood, summed over groups
    n = ds.counts()[:, None]
    ybar = ds.means()[:, None]
    scaled = (n - 1) * ds.variances()[:, None]
    x = (scaled + n * (ybar - mu) ** 2) / n
    v = 2.0 * x / (np.sqrt(1.0 + x) + 1.0)
    ll = -0.5 * n * np.log(2.0 * np.pi * v) - (scaled + n * (ybar - mu + v / 2.0) ** 2) / (2.0 * v)
    return ll.sum(axis=0)


def test_gupta_li_mle_reaches_dense_grid_maximum():
    rng = np.random.default_rng(2)
    multimodal = 0
    for _ in range(300):
        k = int(rng.integers(1, 5))
        ds = Dataset(groups=tuple(SampleSummary(int(rng.integers(2, 31)),
                                                float(rng.normal(0.0, 2.0)),
                                                float(rng.uniform(0.05, 4.0)))
                                  for _ in range(k)), model=LOGNORMAL_MEAN)
        tops = ds.means() + ds.variances()
        grid = np.linspace(ds.means().min() - 1.0, tops.max() + 1.0, 20_001)
        profile = _profile_on_grid(ds, grid)
        peaks = np.count_nonzero((profile[1:-1] > profile[:-2]) & (profile[1:-1] > profile[2:]))
        multimodal += peaks > 1
        fit = gupta_li_mle(ds)
        assert fit.converged
        assert fit.log_likelihood >= profile.max() - 1e-9
        assert fit.log_likelihood == pytest.approx(
            log_likelihood(ds, fit.mu_hat, fit.sigma2_hats), abs=1e-12)
    assert multimodal >= 3  # the search is exercised on several-peaked profiles


def test_gupta_li_mle_finds_narrow_peak():
    # a near-constant group beside a very dispersed one: the profile has a
    # narrow peak of width ~1e-8 next to the first group's mode that holds
    # the global maximum, far from the wide peak near the second group's mode
    ds = Dataset(groups=(SampleSummary(39, 0.0, 2e-8), SampleSummary(20, -0.04, 640.0)),
                 model=LOGNORMAL_MEAN)
    fit = gupta_li_mle(ds)
    mode = 38 / 39 * 2e-8 / 2.0  # ybar + (n - 1) s^2 / (2 n) of the first group
    local = mode + 1e-8 * np.linspace(-20.0, 20.0, 40_001)
    wide = np.linspace(-1.0, 400.0, 40_001)
    assert fit.log_likelihood >= _profile_on_grid(ds, local).max() - 1e-9
    assert _profile_on_grid(ds, local).max() > _profile_on_grid(ds, wide).max() + 100.0
    assert abs(fit.mu_hat - mode) < 1e-6


def test_ml_methods_on_large_log_variances():
    # var_log in the hundreds: the profile is flat over hundreds of units of mu
    ds = Dataset(groups=(SampleSummary(3, 0.0, 800.0), SampleSummary(3, 1.0, 900.0)),
                 model=LOGNORMAL_MEAN)
    fit = gupta_li_mle(ds)
    assert fit.converged
    grid = np.linspace(-1.0, 1000.0, 200_001)
    assert fit.log_likelihood >= _profile_on_grid(ds, grid).max() - 1e-9
    for outcome in (lr_test(fit, mu0=0.0), gupta_li_test(fit, mu0=0.0)):
        assert math.isfinite(outcome.statistic)
        assert 0.0 <= outcome.p_value <= 1.0


def test_constrained_sigma2_solves_score_equation():
    rng = np.random.default_rng(84)
    ds = _dataset(rng, 3)
    mu = 0.4
    v = constrained_sigma2(ds, mu)
    # the conditional maximizer beats nearby variances, group by group
    for bump in (0.97, 1.03):
        assert log_likelihood(ds, mu, v) >= log_likelihood(ds, mu, v * bump)


def test_gupta_li_rmrs_interval_and_pvalue():
    fit = gupta_li_mle(RMRS)
    interval = gupta_li_ci(fit, 0.95)
    _rel_close(interval.phi_lower, 16596.91, 0.003)
    _rel_close(interval.phi_upper, 28658.17, 0.003)
    assert gupta_li_test(fit, mu0=MU0).p_value == pytest.approx(0.5343, abs=0.01)


def test_gupta_li_variance_symmetry_halves_single_group_value():
    # equal fits and equal sizes: the two-group variance is half the
    # single-group expression g / (2 n^2 / v^2) with g = 2n/v + n
    group = SampleSummary(30, 0.2, 1.0)
    ds = Dataset(groups=(group, group), model=LOGNORMAL_MEAN)
    fit = gupta_li_mle(ds)
    assert fit.sigma2_hats[0] == pytest.approx(fit.sigma2_hats[1], rel=1e-12)
    n, v = 30, fit.sigma2_hats[0]
    single = (2 * n / v + n) / (2.0 * n ** 2 / v ** 2)
    interval = gupta_li_ci(fit, 0.95)
    z = stats.norm.ppf(0.975)
    width_log = interval.upper - interval.lower
    assert width_log == pytest.approx(2 * z * math.sqrt(single / 2.0), rel=1e-9)


def test_gupta_li_runs_at_any_group_count():
    rng = np.random.default_rng(85)
    for k in (1, 3):
        ds = _dataset(rng, k)
        fit = gupta_li_mle(ds)
        interval = gupta_li_ci(fit)
        assert interval.lower < fit.mu_hat < interval.upper
        assert 0.0 < gupta_li_test(fit, mu0=0.0).p_value <= 1.0


def _expected_information(ds, sigma2s):
    """Expected Fisher information of (mu, sigma^2_1..k), built entry by entry.

    Per observation of group i, y ~ N(mu - v/2, v) has information 1/v in mu,
    -1/(2v) between mu and v, and 1/(4v) + 1/(2v^2) in v.
    """
    k = ds.k
    info = np.zeros((k + 1, k + 1))
    for i, (n, v) in enumerate(zip(ds.counts(), sigma2s), start=1):
        info[0, 0] += n / v
        info[0, i] = info[i, 0] = -n / (2.0 * v)
        info[i, i] = n * (1.0 / (4.0 * v) + 1.0 / (2.0 * v * v))
    return info


def test_gupta_li_sd_inverts_the_full_fisher_information():
    rng = np.random.default_rng(91)
    z = stats.norm.ppf(0.975)
    for k in (1, 2, 3, 8):
        for _ in range(5):
            ds = _dataset(rng, k)
            fit = gupta_li_mle(ds)
            info = _expected_information(ds, fit.sigma2_hats)
            reference = math.sqrt(np.linalg.inv(info)[0, 0])
            assert fit.std_error == pytest.approx(reference, rel=1e-10)
            interval = gupta_li_ci(fit, 0.95)
            assert interval.upper - interval.lower == pytest.approx(2 * z * reference,
                                                                    rel=1e-10)


def _two_group_sd(ds, sigma2_hats):
    # the closed form for exactly two groups that the general form replaced
    n1, n2 = (int(x) for x in ds.counts())
    v1, v2 = sigma2_hats
    g1 = 2.0 * n1 / v1 + n1
    g2 = 2.0 * n2 / v2 + n2
    return math.sqrt(g1 * g2 / (2.0 * n1 ** 2 / v1 ** 2 * g2 + 2.0 * n2 ** 2 / v2 ** 2 * g1))


def test_gupta_li_sd_matches_the_two_group_formula():
    rng = np.random.default_rng(92)
    for _ in range(2000):
        ds = _dataset(rng, 2, n_range=(2, 60))
        fit = gupta_li_mle(ds)
        _rel_close(fit.std_error, _two_group_sd(ds, fit.sigma2_hats), 1e-15)
    fit = gupta_li_mle(RMRS)
    assert fit.std_error == _two_group_sd(RMRS, fit.sigma2_hats)


# ---------------------------------------------------------------------------
# likelihood-ratio test


def test_lr_rmrs_pvalue():
    assert lr_test(gupta_li_mle(RMRS), mu0=MU0).p_value == pytest.approx(0.5245, abs=0.01)


def test_lr_reads_the_groups_of_its_fit():
    # the fit carries its dataset as its block of one, so a test of one
    # dataset's null cannot be read off another dataset's fit
    a = Dataset(groups=(SampleSummary(10, 0.0, 1.0), SampleSummary(12, 0.2, 2.0)))
    b = Dataset(groups=(SampleSummary(10, 0.0, 5.0), SampleSummary(12, 0.2, 6.0)))
    for ds in (a, b):
        n, ybar, scaled = gupta_li_mle(ds).block.groups.columns
        assert list(zip(n[:, 0].tolist(), ybar[:, 0].tolist(), scaled[:, 0].tolist())) == \
            ds.group_terms()
    assert lr_test(gupta_li_mle(a), mu0=0.3).p_value == pytest.approx(0.104, abs=5e-4)


def test_lr_at_the_mle_is_one():
    fit = gupta_li_mle(RMRS)
    outcome = lr_test(fit, mu0=fit.mu_hat)
    assert outcome.statistic == pytest.approx(0.0, abs=1e-9)
    assert outcome.p_value > 0.999


def test_lr_statistic_nonnegative():
    rng = np.random.default_rng(86)
    for _ in range(1000):
        ds = _dataset(rng, int(rng.integers(1, 4)), n_range=(3, 25))
        mu0 = float(rng.normal(ds.means().mean(), 1.0))
        assert lr_test(gupta_li_mle(ds), mu0=mu0).statistic >= 0.0


def test_lr_agrees_with_direct_joint_maximization():
    rng = np.random.default_rng(87)
    for _ in range(5):
        ds = _dataset(rng, 2)
        mu0 = float(rng.normal(ds.means().mean(), 0.4))
        ours = lr_test(gupta_li_mle(ds), mu0=mu0).statistic

        def negative_ll(theta, ds=ds):
            return -log_likelihood(ds, theta[0], np.exp(theta[1:]))

        start = np.concatenate([[ds.means().mean()], np.log(ds.variances())])
        res = optimize.minimize(negative_ll, start, method="Nelder-Mead",
                                options={"xatol": 1e-12, "fatol": 1e-13,
                                         "maxiter": 40_000, "maxfev": 40_000})
        ll0 = log_likelihood(ds, mu0, constrained_sigma2(ds, mu0))
        direct = 2.0 * (-res.fun - ll0)
        assert ours == pytest.approx(direct, abs=1e-6)


def test_lr_names_an_overflowing_profile_variance():
    # (ybar - mu0)^2 at log means of 1e200 and mu0 = 0 is past the float range;
    # the fit itself stays near 1e200 and succeeds
    ds = Dataset(groups=(SampleSummary(10, 1e200, 1.0), SampleSummary(12, 1e200, 2.0)),
                 model=LOGNORMAL_MEAN)
    fit = gupta_li_mle(ds)
    assert fit.mu_hat == pytest.approx(1e200, rel=1e-12)
    with pytest.raises(ValueError, match="profile variance at mu = 0 overflows"):
        lr_test(fit, mu0=0.0)
    assert gupta_li_test(fit, mu0=0.0).p_value == 0.0


def test_ml_tests_take_a_finite_log_scale_null_by_keyword():
    fit = gupta_li_mle(RMRS)
    for test in (lr_test, gupta_li_test):
        with pytest.raises(ValueError, match="mu0 must be finite"):
            test(fit, mu0=math.inf)
        # an original-scale null passed by position, as these tests once took it,
        # is refused rather than read on the log scale
        with pytest.raises(TypeError):
            test(fit, PHI0)


# ---------------------------------------------------------------------------
# shared behavior


def test_all_methods_permutation_invariant():
    rng = np.random.default_rng(88)
    ds = _dataset(rng, 2)
    flipped = Dataset(groups=ds.groups[::-1], model=ds.model)
    comp, comp_flipped = ahmed_components(ds), ahmed_components(flipped)
    fit, fit_flipped = gupta_li_mle(ds), gupta_li_mle(flipped)
    assert ahmed_ci(comp).phi_lower == pytest.approx(ahmed_ci(comp_flipped).phi_lower, rel=1e-12)
    assert baklizi_ci(comp).phi_upper == pytest.approx(baklizi_ci(comp_flipped).phi_upper,
                                                       rel=1e-12)
    assert gupta_li_test(fit, mu0=0.7).p_value == pytest.approx(
        gupta_li_test(fit_flipped, mu0=0.7).p_value, rel=1e-9)
    assert lr_test(fit, mu0=0.7).p_value == pytest.approx(
        lr_test(fit_flipped, mu0=0.7).p_value, rel=1e-9)
