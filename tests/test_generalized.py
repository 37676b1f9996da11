import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from lnmean import (COMMON_NORMAL_MEAN, LOGNORMAL_MEAN, Alternative, Dataset,
                    KnownVarianceSpec, MCConfig, ModelSpec, PivotDraws, PivotMethod,
                    SampleSummary, StreamKey, TestSpec, chi_square, gci, gp_value,
                    interval_from_pivots, pivot_draw_umvue, pivot_draw_weighted,
                    pvalue_from_pivots, sample_pivots, std_normal,
                    umvue_known_variance)
from lnmean.generalized import PIVOT_BLOCK, _linear_quantile, _weight_columns
from lnmean.methods import METHODS, SharedWork
from lnmean.outcomes import exp_or_inf


def _weights(ds, v):
    """The weighted pivot's weights of the chi-square draws ``v``, groups on the last axis."""
    return np.stack(_weight_columns(ds, v), axis=-1)


def _dataset(rng, k, model=LOGNORMAL_MEAN, n_range=(5, 40)):
    groups = tuple(SampleSummary(int(rng.integers(*n_range)), float(rng.normal()),
                                 float(rng.uniform(0.2, 3.0))) for _ in range(k))
    return Dataset(groups=groups, model=model)


# ---------------------------------------------------------------------------
# pivot formulas


def test_weighted_single_group_weight_is_one():
    ds = Dataset(groups=(SampleSummary(8, 1.2, 0.7),))
    z, u = np.array([0.4]), np.array([5.0])
    for v in (np.array([1.0]), np.array([123.0])):
        assert pivot_draw_weighted(ds, z, u, v) == pivot_draw_weighted(ds, z, u, np.array([2.0]))
    assert _weights(ds, np.array([9.0])) == pytest.approx([1.0])


def test_weighted_zero_noise_is_convex_combination():
    rng = np.random.default_rng(5)
    ds = _dataset(rng, 3, model=COMMON_NORMAL_MEAN)
    means = ds.means()
    for _ in range(50):
        u = rng.chisquare(ds.counts() - 1)
        v = rng.chisquare(ds.counts() - 1)
        draw = pivot_draw_weighted(ds, np.zeros(3), u, v)
        assert means.min() - 1e-12 <= draw <= means.max() + 1e-12


def test_weighted_pivot_hand_value():
    # single group, n=5, ybar=0, s2=1, z=1, u=4 under the lognormal model:
    # t = 0 + 0.5 * 4 / 4 - 1 * sqrt(4 / 20)
    ds = Dataset(groups=(SampleSummary(5, 0.0, 1.0),), model=LOGNORMAL_MEAN)
    draw = pivot_draw_weighted(ds, np.array([1.0]), np.array([4.0]), np.array([2.0]))
    assert draw == pytest.approx(0.5 - math.sqrt(0.2), abs=1e-12)


def test_umvue_pivot_hand_value():
    # same numbers: B = 5*4/4 = 5, A = 0 + n/2 = 2.5, pivot = 0.5 - 1/sqrt(5)
    ds = Dataset(groups=(SampleSummary(5, 0.0, 1.0),), model=LOGNORMAL_MEAN)
    draw = pivot_draw_umvue(ds, np.array([4.0]), 1.0)
    # independent re-evaluation, spelled out term by term
    b_sum = 5 * 4.0 / ((5 - 1) * 1.0)
    a_sum = 5 * 0.0 * 4.0 / ((5 - 1) * 1.0) - 5 * (-0.5)
    expected = a_sum / b_sum - 1.0 / math.sqrt(b_sum)
    assert expected == pytest.approx(0.5 - 1.0 / math.sqrt(5.0), abs=1e-15)
    assert draw == pytest.approx(expected, abs=1e-12)


def test_umvue_pivot_plugin_reduction():
    # z=0 and u_i = n_i - 1 turn the pivot into the known-variance estimator
    # evaluated at the sample variances
    rng = np.random.default_rng(21)
    for _ in range(10):
        ds = _dataset(rng, int(rng.integers(1, 4)))
        u = ds.counts().astype(float) - 1.0
        draw = pivot_draw_umvue(ds, u, 0.0)
        mu_hat, _ = umvue_known_variance(ds, KnownVarianceSpec(tuple(ds.variances())))
        assert draw == pytest.approx(mu_hat, rel=1e-12)


def test_umvue_pivot_scale_invariant_when_b_zero():
    rng = np.random.default_rng(22)
    ds = _dataset(rng, 3, model=COMMON_NORMAL_MEAN)
    u = rng.chisquare(ds.counts() - 1)
    for c in (0.1, 7.0):
        assert pivot_draw_umvue(ds, c * u, 0.0) == pytest.approx(
            pivot_draw_umvue(ds, u, 0.0), rel=1e-12)


def test_umvue_pivot_is_nan_where_a_scaled_variance_overflows():
    # (n - 1) s^2 = 99e307 is inf: the group's rate is 0, but its n would stay
    # in n b, so no pivot is defined; the weighted pivot is NaN there too
    ds = Dataset(groups=(SampleSummary(100, 0.0, 1e307), SampleSummary(10, 0.1, 1.0)),
                 model=LOGNORMAL_MEAN)
    u = np.array([[99.0, 9.0], [80.0, 12.0]])
    assert np.isnan(pivot_draw_umvue(ds, u, np.array([0.5, -0.5]))).all()
    assert math.isnan(pivot_draw_umvue(ds, u[0], 0.5))
    pivots = sample_pivots(PivotDraws(ds, 1000, StreamKey(3)), ["umvue", "weighted"])
    assert np.isnan(pivots).all()


def test_pivot_input_validation():
    ds = Dataset(groups=(SampleSummary(5, 0.0, 1.0), SampleSummary(6, 1.0, 2.0)))
    with pytest.raises(ValueError, match="trailing axis"):
        pivot_draw_weighted(ds, np.zeros(3), np.ones(3), np.ones(3))
    with pytest.raises(ValueError, match="positive"):
        pivot_draw_weighted(ds, np.zeros(2), np.array([1.0, 0.0]), np.ones(2))
    with pytest.raises(ValueError, match="positive"):
        pivot_draw_umvue(ds, np.array([1.0, -2.0]), 0.0)
    with pytest.raises(ValueError, match="^weight chi-square draws must be strictly positive$"):
        pivot_draw_weighted(ds, np.zeros(2), np.ones(2), np.array([1.0, 0.0]))


def test_weights_normalize_and_lie_in_unit_interval():
    rng = np.random.default_rng(31)
    ds = _dataset(rng, 3)
    v = rng.chisquare(ds.counts() - 1, size=(10_000, 3))
    w = _weights(ds, v)
    assert np.allclose(w.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(w > 0.0) and np.all(w < 1.0)


# ---------------------------------------------------------------------------
# column-wise pivots against the (reps, k) formulas they replaced


def _reference_weights(ds, v):
    raw = ds.counts() * v / ((ds.counts() - 1) * ds.variances())
    return raw / np.sum(raw, axis=-1, keepdims=True)


def _reference_weighted(ds, z, u, v):
    a, b = ds.model.a, ds.model.b
    n = ds.counts()
    scaled = (n - 1) * ds.variances()
    t = (ds.means() - b * scaled / u - z * np.sqrt(scaled / (n * u))) / a
    return np.sum(_reference_weights(ds, v) * t, axis=-1)


def _reference_umvue_sums(ds, u):
    n = ds.counts()
    rate = n * u / ((n - 1) * ds.variances())
    b_sum = np.sum(rate, axis=-1)
    return np.sum(rate * ds.means(), axis=-1) - ds.total_n * ds.model.b, b_sum


def _reference_umvue(ds, u, z):
    a = ds.model.a
    a_sum, b_sum = _reference_umvue_sums(ds, u)
    return a_sum / (a * b_sum) - z / (abs(a) * np.sqrt(b_sum))


def _reference_rao_blackwell(ds, spec, cfg):
    """(p-value, its standard error) of the umvue pivot on the stream of
    ``cfg.seed`` with the normal draw integrated out analytically: given the
    chi-square draws the pivot is normal, so each draw contributes a Phi term
    instead of a 0/1 tail indicator."""
    a = ds.model.a
    u = _whole_rows(PivotDraws(ds, cfg.reps, StreamKey(cfg.seed)))[1].T
    a_sum, b_sum = _reference_umvue_sums(ds, u)
    root = np.sqrt(b_sum)
    terms = stats.norm.cdf(np.sign(a) * a_sum / root - abs(a) * root * spec.mu0)
    p_above = float(np.mean(terms))  # P(pivot > mu0)
    p = {Alternative.GREATER: 1.0 - p_above,
         Alternative.LESS: p_above,
         Alternative.TWO_SIDED: min(1.0, 2.0 * min(p_above, 1.0 - p_above))}[spec.alternative]
    return min(max(p, 0.0), 1.0), float(np.std(terms, ddof=1) / math.sqrt(cfg.reps))


@pytest.mark.parametrize("model", [LOGNORMAL_MEAN, ModelSpec(a=-2.0, b=0.3)])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 13, 50])
def test_column_pivots_match_reference_formulas(k, model):
    # below 8 groups numpy sums the short axis left to right, as the columns
    # do; from 8 on its pairwise reduction groups the terms differently.  The
    # absolute floor covers draws whose terms cancel to near zero: the pivots
    # here are of order one.
    if k < 8:
        same = np.array_equal
    else:
        def same(x, y):
            return np.allclose(x, y, rtol=1e-12, atol=1e-12)
    rng = np.random.default_rng(100 + k)
    ds = _dataset(rng, k, model=model)
    dfs = ds.counts() - 1
    for lead in ((2000,), (3, 4), ()):
        u = rng.chisquare(dfs, lead + (k,))
        v = rng.chisquare(dfs, lead + (k,))
        z = rng.standard_normal(lead + (k,))
        z1 = rng.standard_normal(lead)
        assert same(_weights(ds, v), _reference_weights(ds, v))
        assert same(pivot_draw_weighted(ds, z, u, v), _reference_weighted(ds, z, u, v))
        assert same(pivot_draw_umvue(ds, u, z1), _reference_umvue(ds, u, z1))
    assert isinstance(pivot_draw_weighted(ds, z, u, v), float)
    assert isinstance(pivot_draw_umvue(ds, u, z1), float)


def test_interval_and_median_match_separate_quantiles():
    rng = np.random.default_rng(74)
    ds = _dataset(rng, 3)
    cfg = MCConfig(reps=5001, seed=8, method=PivotMethod.WEIGHTED)
    pivots = sample_pivots(PivotDraws(ds, cfg.reps, StreamKey(cfg.seed)), [cfg.method])[0]
    for level in (0.9, 0.95, 0.99):
        alpha = 1.0 - level
        separate = (float(np.quantile(pivots, alpha / 2.0)),
                    float(np.quantile(pivots, 1.0 - alpha / 2.0)),
                    float(np.quantile(pivots, 0.5)))
        interval = interval_from_pivots(pivots, level)
        assert (interval.lower, interval.upper) == separate[:2]
        assert interval.estimate == math.exp(separate[2])
        assert gci(ds, level, cfg) == interval


@pytest.mark.parametrize("m", [1000, 5000, 5001, 7919, 100_000])
def test_sorted_quantiles_are_the_ones_np_quantile_reads(m):
    # interval_from_pivots reads numpy's linear quantile off one sort; if a
    # numpy release changes that formula, this fails
    rng = np.random.default_rng(m)
    samples = {
        "normal": rng.standard_normal(m),
        "ties": rng.integers(0, 7, m).astype(float),
        "near 1e300": rng.choice([-1.0, 1.0], m) * rng.uniform(0.5, 1.0, m) * 1e300,
    }
    probabilities = np.concatenate([rng.uniform(0.0, 1.0, 60), [0.0, 0.5]])
    for name, pivots in samples.items():
        ordered = np.sort(pivots)
        ours = [_linear_quantile(ordered, q) for q in probabilities.tolist()]
        assert np.array_equal(ours, np.quantile(pivots, probabilities)), name
        for level in (0.5, 0.9, 0.95, 0.99, 0.999):
            if m * (1.0 - level) / 2.0 < 10.0:  # too few pivots per tail to read
                continue
            alpha = 1.0 - level
            lower, median, upper = np.quantile(pivots, [alpha / 2.0, 0.5, 1.0 - alpha / 2.0])
            interval = interval_from_pivots(pivots, level)
            assert np.array_equal([interval.lower, interval.upper], [lower, upper]), (name, level)
            assert interval.estimate == exp_or_inf(median), (name, level)


def test_a_nan_pivot_empties_the_interval_as_np_quantile_does():
    pivots = np.random.default_rng(9).standard_normal(5000)
    pivots[1234] = np.nan
    assert np.isnan(np.quantile(pivots, [0.025, 0.5, 0.975])).all()
    with pytest.raises(ValueError, match=r"empty interval: \[nan, nan\]"):
        interval_from_pivots(pivots, 0.95)


def test_a_nan_pivot_has_no_p_value():
    pivots = np.random.default_rng(9).standard_normal(5000)
    pivots[1234] = np.nan
    for alternative in Alternative:
        with pytest.raises(ValueError, match="^NaN pivots: no tail frequency can be read"):
            pvalue_from_pivots(pivots, TestSpec(0.0, alternative))


# ---------------------------------------------------------------------------
# one draw per stream, read by both pivots


def _whole_rows(draws):
    """(z, u, v) of ``draws`` as (k, reps) arrays: row j of the 3k is one
    whole draw from its own substream, ``key.generator(*lanes, j)``."""
    k, reps = draws.ds.k, draws.reps

    def row(j):
        return draws.key.generator(*draws.lanes, j)

    dfs = (draws.ds.counts() - 1).tolist()
    u = np.array([chi_square(dfs[i], row(i), reps) for i in range(k)])
    z = np.array([std_normal(row(k + i), reps) for i in range(k)])
    v = np.array([chi_square(dfs[i], row(2 * k + i), reps) for i in range(k)])
    return z, u, v


@pytest.mark.parametrize("k", [1, 2, 5])
def test_draws_follow_the_fixed_order(k, monkeypatch):
    # the rows a kind reads, in row order: u_1..u_k, then z_1 (umvue), or
    # u, z and v (weighted), each from the starting words numpy's seed
    # sequence gives its address; no generator is made for a row nobody reads
    from lnmean import generalized

    made = []

    def recorded(words, original=generalized.stream_generator):
        made.append(words.tolist())
        return original(words)

    monkeypatch.setattr(generalized, "stream_generator", recorded)
    ds = _dataset(np.random.default_rng(80 + k), k)
    key = StreamKey(k, 3)
    for lanes in ((), (1,)):
        for kinds, rows in (([PivotMethod.UMVUE], [*range(k), k]),
                            ([PivotMethod.WEIGHTED], range(3 * k)),
                            (list(PivotMethod), range(3 * k))):
            made.clear()
            sample_pivots(PivotDraws(ds, 1000, key, *lanes), kinds)
            assert made == [key.seed_sequence(*lanes, row).generate_state(3, np.uint64).tolist()
                            for row in rows], (lanes, kinds)


@pytest.mark.parametrize("reps", [3 * PIVOT_BLOCK + 17, 1000])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_blocks_match_the_formulas_on_whole_arrays(k, reps):
    # each row of the block-by-block draw is one whole draw from its own substream
    ds = _dataset(np.random.default_rng(83 + k), k)
    for lanes in ((), (1,)):
        draws = PivotDraws(ds, reps, StreamKey(k, 3), *lanes)
        z, u, v = _whole_rows(draws)
        both = sample_pivots(draws, [PivotMethod.WEIGHTED, PivotMethod.UMVUE])
        assert both.shape == (2, reps)
        assert np.array_equal(both[0], pivot_draw_weighted(ds, z.T, u.T, v.T))
        assert np.array_equal(both[1], pivot_draw_umvue(ds, u.T, z[0]))


def test_the_first_m_pivots_are_the_pivots_of_m_draws():
    ds = _dataset(np.random.default_rng(84), 3)
    kinds = [PivotMethod.UMVUE, PivotMethod.WEIGHTED]
    full = sample_pivots(PivotDraws(ds, 2 * PIVOT_BLOCK + 5, StreamKey(6), 1), kinds)
    for m in (PIVOT_BLOCK - 1, PIVOT_BLOCK, PIVOT_BLOCK + 1):
        assert np.array_equal(sample_pivots(PivotDraws(ds, m, StreamKey(6), 1), kinds),
                              full[:, :m]), m


def test_the_block_length_changes_no_number(monkeypatch):
    from lnmean import generalized

    ds = _dataset(np.random.default_rng(85), 4)
    draws = PivotDraws(ds, 3 * PIVOT_BLOCK + 17, StreamKey(7))
    kinds = list(PivotMethod)
    reference = sample_pivots(draws, kinds)
    for block in (1000, 4096):
        monkeypatch.setattr(generalized, "PIVOT_BLOCK", block)
        assert np.array_equal(sample_pivots(draws, kinds), reference), block


def test_no_draw_array_is_reps_long():
    # at k = 20 and 200k draws, one (k, reps) draw array alone is 32 MB; the
    # blocks, the formulas' temporaries and the (2, reps) result stay far below
    ds = _dataset(np.random.default_rng(86), 20)
    draws = PivotDraws(ds, 200_000, StreamKey(8))
    tracemalloc.start()
    try:
        pivots = sample_pivots(draws, list(PivotMethod))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pivots.nbytes == 3_200_000
    assert peak < 16e6, peak


def test_pivots_do_not_depend_on_the_other_method():
    ds = _dataset(np.random.default_rng(81), 3)

    def pivots(order, kinds):
        work = SharedWork(ds, 3000, StreamKey(12), kinds=kinds)
        return {kind: work.pivots(kind) for kind in order}

    alone = {kind: pivots([kind], (kind,))[kind] for kind in PivotMethod}
    for order in (list(PivotMethod), list(PivotMethod)[::-1]):
        # evaluated in one pass, and each kind alone outside the kinds told
        for kinds in (tuple(PivotMethod), tuple(PivotMethod)[::-1], ()):
            together = pivots(order, kinds)
            for kind in PivotMethod:
                assert np.array_equal(together[kind], alone[kind]), (order, kinds, kind)


def test_draw_counts_per_request_set(monkeypatch):
    from lnmean import generalized

    drawn = dict.fromkeys(("chi_square", "std_normal", "generator", "hashed", "sample_pivots"), 0)
    for name in ("chi_square", "std_normal"):
        def counted(*args, original=getattr(generalized, name), name=name, **kwargs):
            out = original(*args, **kwargs)
            drawn[name] += out.size
            return out

        monkeypatch.setattr(generalized, name, counted)

    def counted_generator(words, original=generalized.stream_generator):
        drawn["generator"] += 1
        return original(words)

    def counted_hash(*address, original=generalized.stream_words):
        drawn["hashed"] += 1
        return original(*address)

    def counted_pivots(*args, original=generalized.sample_pivots):
        drawn["sample_pivots"] += 1
        return original(*args)

    monkeypatch.setattr(generalized, "stream_generator", counted_generator)
    monkeypatch.setattr(generalized, "stream_words", counted_hash)
    monkeypatch.setattr(generalized, "sample_pivots", counted_pivots)
    ds = _dataset(np.random.default_rng(82), 3)
    k, reps = ds.k, 2000
    umvue, weighted = PivotMethod.UMVUE, PivotMethod.WEIGHTED
    both = (umvue, weighted)
    # (kinds told, kinds asked for, chi-square draws, normal draws, row
    # generators, passes); umvue reads k + 1 rows, weighted all 3k, and the
    # 3k rows' starting words are hashed once, as one block
    for kinds, requests, chi2, normals, generators, passes in (
            ((umvue,), (umvue,), k * reps, reps, k + 1, 1),
            ((weighted,), (weighted,), 2 * k * reps, k * reps, 3 * k, 1),
            (both, (umvue, weighted), 2 * k * reps, k * reps, 3 * k, 1),
            (both, (weighted, umvue), 2 * k * reps, k * reps, 3 * k, 1),
            ((umvue,), (umvue, weighted), 3 * k * reps, (k + 1) * reps, 4 * k + 1, 2)):
        drawn.update(dict.fromkeys(drawn, 0))
        work = SharedWork(ds, reps, StreamKey(5), kinds=kinds)
        for kind in requests:
            work.pivots(kind)
        assert tuple(drawn.values()) == (chi2, normals, generators, 1, passes), (kinds, requests)


# ---------------------------------------------------------------------------
# reductions to the plain common-mean pivots (a=1, b=0)


def test_weighted_reduces_to_plain_common_mean_form():
    rng = np.random.default_rng(41)
    ds = _dataset(rng, 4, model=COMMON_NORMAL_MEAN)
    n, ybar, s2 = ds.counts(), ds.means(), ds.variances()
    z = rng.standard_normal((500, 4))
    u = rng.chisquare(n - 1, (500, 4))
    v = rng.chisquare(n - 1, (500, 4))
    rate = n * v / ((n - 1) * s2)
    reduced = np.sum(rate * (ybar - z * np.sqrt((n - 1) * s2 / (n * u))), axis=1) \
        / np.sum(rate, axis=1)
    assert np.max(np.abs(pivot_draw_weighted(ds, z, u, v) - reduced)) < 1e-12


def test_umvue_reduces_to_plain_common_mean_form():
    rng = np.random.default_rng(42)
    ds = _dataset(rng, 3, model=COMMON_NORMAL_MEAN)
    n, ybar, s2 = ds.counts(), ds.means(), ds.variances()
    z = rng.standard_normal(500)
    u = rng.chisquare(n - 1, (500, 3))
    rate = n * u / ((n - 1) * s2)
    reduced = np.sum(rate * ybar, axis=1) / np.sum(rate, axis=1) \
        - z / np.sqrt(np.sum(rate, axis=1))
    assert np.max(np.abs(pivot_draw_umvue(ds, u, z) - reduced)) < 1e-12


# ---------------------------------------------------------------------------
# Monte Carlo p-values


def test_gp_value_matches_t_test_single_group():
    rng = np.random.default_rng(51)
    for _ in range(5):
        n = int(rng.integers(5, 30))
        values = rng.normal(0.3, 1.4, size=n)
        ds = Dataset(groups=(SampleSummary(n, float(values.mean()),
                                           float(values.var(ddof=1))),),
                     model=COMMON_NORMAL_MEAN)
        mu0 = float(rng.normal(0.3, 0.5))
        t_stat = (ds.groups[0].mean - mu0) * math.sqrt(n) / math.sqrt(ds.groups[0].variance)
        p_t = 2.0 * stats.t.sf(abs(t_stat), df=n - 1)
        for method in PivotMethod:
            out = gp_value(ds, TestSpec(mu0), MCConfig(reps=40_000, seed=888, method=method))
            assert out.p_value == pytest.approx(p_t, abs=3.0 * 2.0 * max(out.mc_std_error, 1e-4))


def test_gp_value_handles_negative_scale_constant():
    # with a < 0 the parameter is E[Y]/a; the two-sided p at mu0 matches a
    # t-test of E[Y] = a * mu0
    rng = np.random.default_rng(69)
    n = 12
    values = rng.normal(-1.0, 0.8, size=n)
    model = ModelSpec(a=-2.0, b=0.0)
    ds = Dataset(groups=(SampleSummary(n, float(values.mean()),
                                       float(values.var(ddof=1))),), model=model)
    mu0 = float(values.mean()) / model.a + 0.1
    t_stat = (ds.groups[0].mean - model.a * mu0) * math.sqrt(n) \
        / math.sqrt(ds.groups[0].variance)
    p_t = 2.0 * stats.t.sf(abs(t_stat), df=n - 1)
    for method in PivotMethod:
        out = gp_value(ds, TestSpec(mu0), MCConfig(reps=40_000, seed=70, method=method))
        assert out.p_value == pytest.approx(p_t, abs=3.0 * 2.0 * max(out.mc_std_error, 1e-4))
    rb_p, _ = _reference_rao_blackwell(
        ds, TestSpec(mu0), MCConfig(reps=40_000, seed=70, method=PivotMethod.UMVUE))
    assert rb_p == pytest.approx(p_t, abs=0.02)


def test_gp_value_alternative_identity_and_ties():
    rng = np.random.default_rng(61)
    ds = _dataset(rng, 2)
    cfg = MCConfig(reps=5000, seed=3, method=PivotMethod.WEIGHTED)
    spec_kw = dict(mu0=float(ds.means().mean()))
    p_greater = gp_value(ds, TestSpec(alternative=Alternative.GREATER, **spec_kw), cfg)
    p_less = gp_value(ds, TestSpec(alternative=Alternative.LESS, **spec_kw), cfg)
    pivots = sample_pivots(PivotDraws(ds, cfg.reps, StreamKey(cfg.seed)), [cfg.method])[0]
    ties = np.count_nonzero(pivots == spec_kw["mu0"]) / cfg.reps
    assert p_greater.p_value + p_less.p_value == pytest.approx(1.0 + ties, abs=1e-12)


def test_gp_value_greater_is_monotone_in_mu0():
    rng = np.random.default_rng(62)
    ds = _dataset(rng, 2)
    cfg = MCConfig(reps=2000, seed=9, method=PivotMethod.UMVUE)
    grid = np.linspace(ds.means().min() - 2, ds.means().max() + 2, 25)
    values = [gp_value(ds, TestSpec(mu0, Alternative.GREATER), cfg).p_value for mu0 in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[0] <= 0.2 and values[-1] >= 0.8


def test_gp_value_agrees_with_rao_blackwell():
    rng = np.random.default_rng(64)
    for _ in range(20):
        ds = _dataset(rng, int(rng.integers(1, 4)), n_range=(4, 12))
        mu0 = float(rng.normal(ds.means().mean(), 0.5))
        spec = TestSpec(mu0, Alternative.GREATER)
        cfg = MCConfig(reps=4000, seed=int(rng.integers(1, 10_000)), method=PivotMethod.UMVUE)
        plain = gp_value(ds, spec, cfg)
        rb_p, rb_se = _reference_rao_blackwell(ds, spec, cfg)
        combined = math.sqrt(plain.mc_std_error ** 2 + rb_se ** 2)
        assert abs(plain.p_value - rb_p) < 4.0 * max(combined, 1e-4)


def test_outcome_standard_error_bound():
    rng = np.random.default_rng(66)
    for _ in range(10):
        ds = _dataset(rng, 2)
        cfg = MCConfig(reps=2000, seed=int(rng.integers(10_000)),
                       method=PivotMethod(rng.choice(["weighted", "umvue"])))
        out = gp_value(ds, TestSpec(float(rng.normal()),
                                    rng.choice(["greater", "less", "two-sided"])), cfg)
        assert 0.0 <= out.p_value <= 1.0
        assert out.mc_std_error <= 0.5 / math.sqrt(out.reps_used) + 1e-12


def test_gp_value_is_pure_function_of_inputs():
    rng = np.random.default_rng(67)
    ds = _dataset(rng, 3)
    cfg = MCConfig(reps=3000, seed=77, method=PivotMethod.WEIGHTED)
    spec = TestSpec(0.4)
    first = gp_value(ds, spec, cfg)
    second = gp_value(ds, spec, cfg)
    assert first == second
    assert gci(ds, 0.9, cfg) == gci(ds, 0.9, cfg)
    # the method table's entries, reading one shared draw, give the same
    # outcomes as drawing inside gp_value and gci
    work = SharedWork(ds, cfg.reps, StreamKey(cfg.seed), kinds=tuple(PivotMethod))
    for name, kind in (("gv-weighted", PivotMethod.WEIGHTED), ("gv-umvue", PivotMethod.UMVUE)):
        same_draw = MCConfig(reps=cfg.reps, seed=cfg.seed, method=kind)
        assert METHODS[name].test(work, spec, math.exp(spec.mu0)) == gp_value(ds, spec, same_draw)
        assert METHODS[name].interval(work, 0.9) == gci(ds, 0.9, same_draw)


# ---------------------------------------------------------------------------
# confidence intervals


def test_gci_matches_t_interval_single_group():
    rng = np.random.default_rng(71)
    reps = 40_000
    for _ in range(5):
        n = int(rng.integers(6, 25))
        ds = Dataset(groups=(SampleSummary(n, float(rng.normal()), float(rng.uniform(0.3, 2))),),
                     model=COMMON_NORMAL_MEAN)
        mean, s = ds.groups[0].mean, math.sqrt(ds.groups[0].variance)
        scale = s / math.sqrt(n)
        t975 = stats.t.ppf(0.975, df=n - 1)
        for method in PivotMethod:
            interval = gci(ds, 0.95, MCConfig(reps=reps, seed=500, method=method))
            for endpoint, target, prob in ((interval.lower, mean - t975 * scale, 0.025),
                                           (interval.upper, mean + t975 * scale, 0.975)):
                t_at_target = (mean - target) / scale
                density = stats.t.pdf(t_at_target, df=n - 1) / scale
                se_quantile = math.sqrt(prob * (1 - prob) / reps) / density
                assert abs(endpoint - target) < 3.0 * se_quantile


def test_gci_shift_equivariance():
    rng = np.random.default_rng(72)
    model = Dataset(groups=(SampleSummary(2, 0.0, 1.0),)).model
    ds = _dataset(rng, 2, model=model)
    delta = 1.25
    shifted = Dataset(groups=tuple(SampleSummary(g.n, g.mean + delta, g.variance)
                                   for g in ds.groups), model=model)
    cfg = MCConfig(reps=5000, seed=11, method=PivotMethod.WEIGHTED)
    base = gci(ds, 0.95, cfg)
    moved = gci(shifted, 0.95, cfg)
    assert moved.lower == pytest.approx(base.lower + delta / model.a, abs=1e-9)
    assert moved.upper == pytest.approx(base.upper + delta / model.a, abs=1e-9)


def test_gci_rejects_unresolvable_tail():
    ds = Dataset(groups=(SampleSummary(5, 0.0, 1.0),))
    with pytest.raises(ValueError, match="too small"):
        gci(ds, 0.9999, MCConfig(reps=1000, seed=0, method=PivotMethod.UMVUE))


def test_summarizers_check_the_draws_they_read():
    ds = Dataset(groups=(SampleSummary(5, 0.0, 1.0),))
    pivots = sample_pivots(PivotDraws(ds, 1000, StreamKey(0)), [PivotMethod.UMVUE])[0]
    # 1000 draws leave 0.5 in each tail of a 99.9% interval
    with pytest.raises(ValueError, match="too small"):
        interval_from_pivots(pivots, 0.999)
    with pytest.raises(ValueError, match="at least 1000"):
        pvalue_from_pivots(pivots[:999], TestSpec(0.0))
    with pytest.raises(ValueError, match="level"):
        interval_from_pivots(pivots, 1.0)
    assert pvalue_from_pivots(pivots, TestSpec(0.0)).reps_used == 1000
    assert interval_from_pivots(pivots, 0.95).level == 0.95


def test_gci_duality_with_two_sided_test():
    rng = np.random.default_rng(73)
    ds = _dataset(rng, 2)
    reps, level = 20_000, 0.95
    pivots = sample_pivots(PivotDraws(ds, reps, StreamKey(42)), [PivotMethod.WEIGHTED])[0]
    interval = interval_from_pivots(pivots, level)
    grid = np.linspace(pivots.min(), pivots.max(), 400)
    mismatches = []
    for mu0 in grid:
        p = pvalue_from_pivots(pivots, TestSpec(mu0)).p_value
        inside = interval.lower <= mu0 <= interval.upper
        if inside != (p > 1.0 - level):
            mismatches.append((mu0, p))
    # ties at the empirical quantile can flip the call, but only right at the
    # boundary where p is within a couple of Monte Carlo steps of alpha
    assert len(mismatches) <= 4
    for _, p in mismatches:
        assert abs(p - (1.0 - level)) <= 4.0 / reps


def test_mc_config_validation():
    with pytest.raises(ValueError, match="at least 1000"):
        MCConfig(reps=500, seed=0)
    with pytest.raises(ValueError, match="unknown pivot method"):
        MCConfig(reps=2000, seed=0, method="bogus")
    assert MCConfig(reps=2000, seed=0, method="umvue").method is PivotMethod.UMVUE


def test_test_spec_validation():
    with pytest.raises(ValueError):
        TestSpec(math.inf)
    with pytest.raises(ValueError, match="alternative"):
        TestSpec(0.0, "sideways")
    assert TestSpec(0.0, "two_sided").alternative is Alternative.TWO_SIDED


def test_readme_library_example_runs_and_its_two_readings_agree(capsys):
    # the README's one python block, run as written; its claim that the
    # weighted pivots read twice give what gp_value and gci print holds
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 6
    assert printed[3] == printed[0] and printed[4] == printed[1]
