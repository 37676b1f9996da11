"""The block kernels of the classical procedures against per-dataset references.

``_reference_mle`` is the scalar ML fit that the block fit replaced: the
score scan, scipy's ``brentq`` in each bracket and the max over candidates,
on Python floats.  The block fit must give every lane its bits, its score
evaluations and its convergence, and every failing lane its reason.  The
block readers must give each dataset the answer, or the failure, of the
per-dataset readers, and ``run_cell`` the counts of running them replicate
by replicate.
"""

import math

import numpy as np
import pytest
from scipy import optimize

from lnmean import (LOGNORMAL_MEAN, Dataset, SampleSummary, SimulationCell, classical,
                    run_cell, simulate)
from lnmean.generalized import TestSpec
from lnmean.methods import FAILURES, METHODS, SharedWork, pivot_kinds
from lnmean.samplers import StreamKey

_SIGMA2_FLOOR = 1e-12


def _sigma2_at(n, ybar, scaled, mu):
    d = ybar - mu
    x = (scaled + n * (d * d)) / n
    v = 2.0 * x / (math.sqrt(1.0 + x) + 1.0)
    if not v < math.inf:
        raise ValueError(f"the profile variance at mu = {mu:.6g} overflows the float range")
    return max(v, _SIGMA2_FLOOR)


def _profile_score(mu, groups):
    total = 0.0
    for n, ybar, scaled in groups:
        v = _sigma2_at(n, ybar, scaled, mu)
        total += n * (ybar - mu + 0.5 * v) / v
    return total


def _profile_log_likelihood(groups, mu):
    sigma2s = [_sigma2_at(n, ybar, scaled, mu) for n, ybar, scaled in groups]
    logs = np.log([2.0 * math.pi * v for v in sigma2s]).tolist()
    total = 0.0
    for (n, ybar, scaled), v, log_v in zip(groups, sigma2s, logs):
        d = ybar - mu + v / 2.0
        total += -0.5 * n * log_v - (scaled + n * (d * d)) / (2.0 * v)
    return total


def _scan_points(groups):
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


def _brackets(groups):
    points = _scan_points(groups)
    scores = [_profile_score(mu, groups) for mu in points]
    return points, scores, [(a, b, fa, fb) for a, b, fa, fb
                            in zip(points, points[1:], scores, scores[1:]) if fa > 0.0 >= fb]


def _reference_mle(ds):
    """The scalar fit: (mu_hat, sigma2_hats, log_likelihood, std_error, iterations, converged)."""
    groups = ds.group_terms()
    points, scores, brackets = _brackets(groups)
    evaluations, converged, candidates = len(points), True, []
    if scores[0] <= 0.0:
        candidates.append(points[0])
    if scores[-1] > 0.0:
        candidates.append(points[-1])
    for a, b, _, _ in brackets:
        root, info = optimize.brentq(_profile_score, a, b, args=(groups,), xtol=1e-14,
                                     full_output=True, disp=False)
        evaluations += info.function_calls
        converged = converged and info.converged
        candidates.append(root)
    ll, mu_hat = max((_profile_log_likelihood(groups, mu), mu) for mu in candidates)
    sigma2_hats = tuple(_sigma2_at(n, ybar, scaled, mu_hat) for n, ybar, scaled in groups)
    information = sum(2.0 * n / (v * (2.0 + v)) for (n, _, _), v in zip(groups, sigma2_hats))
    return mu_hat, sigma2_hats, ll, information ** -0.5, evaluations, converged


def _fields(fit):
    return (fit.mu_hat.hex(), [v.hex() for v in fit.sigma2_hats], fit.log_likelihood.hex(),
            fit.std_error.hex(), fit.iterations, fit.converged)


def _reference_fields(ds):
    mu_hat, sigma2_hats, ll, std_error, iterations, converged = _reference_mle(ds)
    return (mu_hat.hex(), [v.hex() for v in sigma2_hats], ll.hex(), std_error.hex(),
            iterations, converged)


def _datasets(ns, means, variances):
    return [Dataset(groups=tuple(SampleSummary(n, float(m), float(v))
                                 for n, m, v in zip(ns, row_means, row_variances)),
                    model=LOGNORMAL_MEAN)
            for row_means, row_variances in zip(means, variances)]


def _random_block(rng, k, lanes):
    """``lanes`` datasets of k groups with one set of sizes, at mixed scales:
    most near one common mu, some with a near-constant group beside a
    dispersed one (narrow peaks), some with log variances in the hundreds."""
    ns = tuple(int(n) for n in rng.integers(2, 60, size=k))
    spread = 10.0 ** rng.uniform(-2, 1, size=(lanes, 1))
    means = rng.normal(0.0, 1.0, size=(lanes, k)) * spread
    variances = 10.0 ** rng.uniform(-1.3, 0.6, size=(lanes, k))
    narrow, wide = rng.random(lanes) < 0.15, rng.random(lanes) < 0.1
    variances[narrow, 0] = 10.0 ** rng.uniform(-9, -6, size=narrow.sum())
    variances[wide] = 10.0 ** rng.uniform(2, 3, size=(wide.sum(), k))
    return classical.GroupBlock(ns, means, variances)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 20, 50])
def test_block_fit_matches_the_scalar_fit_lane_by_lane(k):
    rng = np.random.default_rng(700 + k)
    groups = _random_block(rng, k, 40 if k < 20 else 12)
    fit = classical.gupta_li_mle_block(groups)
    assert not fit.failed.any()
    for lane, ds in enumerate(_datasets(groups.ns, groups.means, groups.variances)):
        assert _fields(fit.lane(lane)) == _reference_fields(ds), lane
        assert fit.lane(lane).groups == tuple(ds.group_terms())


@pytest.mark.parametrize("groups", [
    # the narrow peak and the large log variances of test_classical
    (SampleSummary(39, 0.0, 2e-8), SampleSummary(20, -0.04, 640.0)),
    (SampleSummary(3, 0.0, 800.0), SampleSummary(3, 1.0, 900.0)),
    (SampleSummary(10, 1e200, 1.0), SampleSummary(12, 1e200, 2.0)),
    (SampleSummary(11, 0.7, 1.6),),
])
def test_single_dataset_fit_matches_the_scalar_fit(groups):
    ds = Dataset(groups=groups, model=LOGNORMAL_MEAN)
    assert _fields(classical.gupta_li_mle(ds)) == _reference_fields(ds)


def test_the_fit_of_a_block_does_not_depend_on_its_other_lanes():
    # lanes of very different widths pad to one scan length, and a block past
    # the scan budget is fitted in parts; neither moves a bit
    rng = np.random.default_rng(17)
    groups = _random_block(rng, 3, 64)
    whole = classical.gupta_li_mle_block(groups)
    for lane in (0, 17, 63):
        alone = classical.gupta_li_mle_block(classical.GroupBlock(
            groups.ns, groups.means[lane:lane + 1], groups.variances[lane:lane + 1]))
        assert _fields(alone.lane(0)) == _fields(whole.lane(lane))
    budget = pytest.MonkeyPatch()
    budget.setattr(classical, "_SCAN_BUDGET", 500)
    try:
        parts = classical.gupta_li_mle_block(groups)
    finally:
        budget.undo()
    assert [_fields(parts.lane(i)) for i in range(64)] == \
        [_fields(whole.lane(i)) for i in range(64)]


def test_block_brentq_is_scipys_brentq_bracket_by_bracket():
    # every bracket of 30 blocks of 40 datasets, k in 1..6; a block's
    # brackets are the lanes of one search
    rng = np.random.default_rng(2692)
    checked = 0
    for _ in range(30):
        groups = _random_block(rng, int(rng.integers(1, 7)), 40)
        rows = [(*bracket, ds.group_terms())
                for ds in _datasets(groups.ns, groups.means, groups.variances)
                for bracket in _brackets(ds.group_terms())[2]]
        if not rows:  # one group: its mode is the only scan point
            continue
        a, b, fa, fb = (np.array(column) for column in list(zip(*rows))[:4])
        n = np.array(groups.ns, dtype=float)[:, None]
        ybar = np.array([[t[1] for t in row[4]] for row in rows]).T
        scaled = np.array([[t[2] for t in row[4]] for row in rows]).T
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            roots, calls, converged, overflow = classical._brentq(n, ybar, scaled, a, b, fa, fb)
        assert np.isnan(overflow).all()
        for lane, row in enumerate(rows):
            root, info = optimize.brentq(_profile_score, row[0], row[1], args=(row[4],),
                                         xtol=1e-14, full_output=True, disp=False)
            expected = (root.hex(), info.function_calls, info.converged)
            assert (roots[lane].hex(), int(calls[lane]), bool(converged[lane])) == expected
            # a bracket searched alone takes the same iterates
            one = slice(lane, lane + 1)
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                alone = classical._brentq(n, ybar[:, one], scaled[:, one], a[one], b[one],
                                          fa[one], fb[one])
            assert (alone[0][0].hex(), int(alone[1][0]), bool(alone[2][0])) == expected
            checked += 1
    assert checked > 1000


def _failure(procedure, *args, **kwargs):
    try:
        return procedure(*args, **kwargs)
    except FAILURES as exc:
        return f"{type(exc).__name__}: {exc}"


def test_failing_lanes_carry_the_reasons_of_the_scalar_code():
    ns = (10, 12)
    means = np.array([[0.1, 0.3], [1e200, -1e200], [1e200, 1e200], [0.0, 3.0], [-500.0, 0.0],
                      [0.0, 0.1]])
    variances = np.array([[1.0, 2.0], [1.0, 2.0], [1.0, 2.0], [0.01, 0.01], [1.0, 2.0],
                          [1e308, 1e308]])
    groups = classical.GroupBlock(ns, means, variances)
    fit = classical.gupta_li_mle_block(groups)
    comp = classical.ahmed_components_block(groups)
    for lane, ds in enumerate(_datasets(ns, means, variances)):
        reference = _failure(_reference_mle, ds)
        block = _failure(fit.lane, lane)
        if isinstance(reference, str):
            assert block == reference
        else:
            assert _fields(block) == _reference_fields(ds)
        assert fit.failed[lane] == isinstance(block, str)
        assert _failure(comp.lane, lane) == _failure(classical.ahmed_components, ds)
    assert list(fit.failed) == [False, True, False, False, False, True]
    assert _failure(fit.lane, 1) == ("ValueError: the profile variance at mu = -1e+200 "
                                     "overflows the float range")
    assert list(comp.failed) == [False, True, True, False, True, True]


def _per_dataset(ds, mu0, level):
    """What the per-dataset readers give at mu0 (log scale) and level:
    p-values and log-scale bounds, or the message that stopped each."""
    comp, fit = (_failure(builder, ds) for builder in (classical.ahmed_components,
                                                      classical.gupta_li_mle))

    def read(procedure, piece, *args, **kwargs):
        if isinstance(piece, str):
            return piece
        outcome = _failure(procedure, piece, *args, **kwargs)
        if isinstance(outcome, str):
            return outcome
        return outcome.p_value if hasattr(outcome, "p_value") else (outcome.lower, outcome.upper)

    return dict(ahmed_test=read(classical.ahmed_test, comp, math.exp(mu0)),
                ahmed_ci=read(classical.ahmed_ci, comp, level),
                baklizi_ci=read(classical.baklizi_ci, comp, level),
                gupta_li_test=read(classical.gupta_li_test, fit, mu0=mu0),
                gupta_li_ci=read(classical.gupta_li_ci, fit, level),
                lr_test=read(classical.lr_test, fit, mu0=mu0))


def test_block_readers_answer_as_the_per_dataset_readers():
    rng = np.random.default_rng(4711)
    ns = (5, 9, 30)
    lanes = 300
    # near-common means answer; far-apart ones empty baklizi's set; extreme
    # ones leave ahmed's float range or overflow the profile variance at mu0
    means = rng.normal(0.0, 1.0, size=(lanes, 3)) * 10.0 ** rng.uniform(-1.5, 0.5, (lanes, 1))
    means[::25] *= 1e200
    means[1::25, 0] = 800.0
    variances = 10.0 ** rng.uniform(-2, 1, size=(lanes, 3))
    groups = classical.GroupBlock(ns, means, variances)
    fit = classical.gupta_li_mle_block(groups)
    comp = classical.ahmed_components_block(groups)
    seen = set()
    for mu0, level in ((0.0, 0.95), (0.4, 0.9)):
        block = dict(ahmed_test=classical.ahmed_test_block(comp, math.exp(mu0)),
                     ahmed_ci=classical.ahmed_ci_block(comp, level),
                     baklizi_ci=classical.baklizi_ci_block(comp, level),
                     gupta_li_test=classical.gupta_li_test_block(fit, mu0=mu0),
                     gupta_li_ci=classical.gupta_li_ci_block(fit, level),
                     lr_test=classical.lr_test_block(fit, mu0=mu0))
        for lane, ds in enumerate(_datasets(ns, means, variances)):
            for name, answer in _per_dataset(ds, mu0, level).items():
                got = block[name]
                if isinstance(answer, str):
                    # the block marks a failure with NaN, and an empty interval by its order
                    seen.add((name, answer.split(":")[1][:30]))
                    if isinstance(got, tuple):
                        assert not got[0][lane] < got[1][lane], (lane, name, answer)
                    else:
                        assert math.isnan(got[lane]), (lane, name, answer)
                elif isinstance(got, tuple):
                    assert (got[0][lane].hex(), got[1][lane].hex()) == \
                        (answer[0].hex(), answer[1].hex()), (lane, name)
                else:
                    assert got[lane].hex() == answer.hex(), (lane, name)
    assert {name for name, _ in seen} >= {"ahmed_ci", "baklizi_ci", "lr_test", "gupta_li_ci"}


def _reference_counts(cell):
    """Per-method (rejected, test failed, covered, interval failed) counts of
    the cell, one replicate at a time through the per-dataset procedures."""
    counts = {name: [0, 0, 0, 0] for name in cell.methods}
    spec = TestSpec(math.log(cell.phi0))
    groups, valid = simulate.draw_block(cell, 0, cell.outer_reps)
    for replicate, ok in enumerate(valid):
        if not ok:
            for slot in counts.values():
                slot[1] += 1
                slot[3] += 1
            continue
        ds = _datasets(cell.ns, groups.means[replicate:replicate + 1],
                       groups.variances[replicate:replicate + 1])[0]
        work = SharedWork(ds, cell.inner_reps, StreamKey(cell.seed, replicate), 1,
                          kinds=pivot_kinds(METHODS[name] for name in cell.methods))
        for name in cell.methods:
            entry, slot = METHODS[name], counts[name]
            if entry.test is not None:
                try:
                    slot[0] += entry.test(work, spec, cell.phi0).p_value < cell.alpha
                except FAILURES:
                    slot[1] += 1
            if entry.interval is not None:
                try:
                    interval = entry.interval(work, 1.0 - cell.alpha)
                    slot[2] += interval.lower <= cell.mu <= interval.upper
                except FAILURES:
                    slot[3] += 1
    return counts


@pytest.mark.parametrize("cell", [
    dict(mu=0.0, sigma2s=(1.0, 2.5), ns=(5, 10)),
    dict(mu=1.0, sigma2s=(1.0, 0.1), ns=(50, 50), phi0=2.0, alpha=0.1),
    # the empty acceptance sets of baklizi, and ahmed out of range
    dict(mu=0.0, sigma2s=(0.001, 0.002, 4.0), ns=(40, 40, 3)),
    dict(mu=-400.0, sigma2s=(1.0, 500.0), ns=(3, 4), phi0=math.exp(-399.0)),
    # data draws past the float range
    dict(mu=0.0, sigma2s=(1e308, 1.0), ns=(2, 3)),
])
def test_run_cell_counts_are_the_per_replicate_counts(cell):
    cell = SimulationCell(**cell, methods=("lrt", "ahmed", "gupta-li", "baklizi"),
                          outer_reps=200, seed=99)
    result = run_cell(cell)
    counts = _reference_counts(cell)
    for name in cell.methods:
        rejected, test_failed, covered, ci_failed = counts[name]
        if name in result.rejection:
            rate = result.rejection[name]
            assert (round(rate.estimate * cell.outer_reps), rate.failures) == \
                (rejected, test_failed), name
        if name in result.coverage:
            rate = result.coverage[name]
            assert (round(rate.estimate * cell.outer_reps), rate.failures) == \
                (covered, ci_failed), name
