"""Decisions read against critical values, and the pass that decides them.

``TestBlock.rejects`` and ``IntervalBlock.covers`` read each lane's
decision off numpy arrays against a critical value, and decide again from
Python's erfc or log only within a narrow band about it.  Lane for lane
they must give what the p-values and the log-scale bounds of the outcomes
give.  A pass decides the stacks of several cells, of several group sizes,
in one block; its counts must be those of each stack decided alone.
"""

import math

import numpy as np
import pytest

from lnmean import SimulationCell, classical, run_grid, simulate
from lnmean.generalized import TestSpec
from lnmean.methods import METHOD_ORDER, METHODS, BlockWork
from lnmean.outcomes import Alternative, is_p_value

ALPHAS = (1e-10, 0.01, 0.05, 0.5, 0.999)
CLASSICAL = ("lrt", "ahmed", "gupta-li", "baklizi")


def _neighbours(x: float, count: int = 64) -> list[float]:
    """``x`` and its ``count`` float neighbours on each side."""
    values, up, down = [x], x, x
    for _ in range(count):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        values += [up, down]
    return values


def _moved(values, ulps: int):
    """``values`` moved by ``ulps`` floats, up or down: what another faithful
    implementation may give."""
    for _ in range(abs(ulps)):
        values = np.nextafter(values, math.copysign(math.inf, ulps))
    return values


SPECIAL = [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, -1e-300, 5e-324, 1e-17, 1.0, 40.0]


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("halved", [False, True])
@pytest.mark.parametrize("ulps", [0, -4, 4])
def test_rejects_is_the_p_value_rule_lane_for_lane(alpha, halved, ulps, monkeypatch):
    # arguments at the float neighbours of the cut of alpha (of 2 alpha where
    # halved, where there is one), of the cut of the other alphas, specials
    # and random ones; the rule is (p < alpha, p outside [0, 1]).  A cut a
    # few ulps off decides every lane alike
    cut = classical._erfc_cut
    monkeypatch.setattr(classical, "_erfc_cut", lambda target: float(_moved(cut(target), ulps)))
    rng = np.random.default_rng(11)
    arguments = SPECIAL + rng.normal(0.0, 3.0, 2000).tolist()
    for level in ALPHAS:
        for target in (level, 2.0 * level):
            if target <= 1.0:
                arguments += _neighbours(cut(target))
    x = np.array(arguments)
    block = classical.TestBlock(x, x, check=None, halved=halved)
    p = np.array([(0.5 if halved else 1.0) * math.erfc(value) for value in arguments])
    assert block.p_value.tobytes() == p.tobytes()
    rejected, failed = block.rejects(alpha)
    assert np.array_equal(rejected, p < alpha)
    assert np.array_equal(failed, ~is_p_value(p))


@pytest.mark.parametrize("alternative", list(Alternative))
def test_ahmed_decisions_are_its_p_values(alternative):
    # ahmed's Wald test on random components, both one-sided alternatives
    # among them, and z at the neighbours of each alpha's critical value
    rng = np.random.default_rng(5)
    lanes = 400
    groups = classical.GroupBlock((5, 10), rng.normal(0.0, 1.0, (lanes, 2)),
                                  10.0 ** rng.uniform(-1.0, 0.5, (lanes, 2)))
    block = classical.ahmed_test_block(classical.ahmed_components_block(groups), 1.3, alternative)
    for alpha in ALPHAS:
        rejected, failed = block.rejects(alpha)
        assert np.array_equal(rejected, block.p_value < alpha), alpha
        assert np.array_equal(failed, ~is_p_value(block.p_value)), alpha
        halved = alternative is not Alternative.TWO_SIDED
        target = 2.0 * alpha if halved else alpha
        if target > 1.0:
            continue
        cut = classical._erfc_cut(target) * math.sqrt(2.0)
        z = np.array(_neighbours(cut) + _neighbours(-cut))
        argument, halved = classical._wald_argument(z, alternative)
        edge = classical.TestBlock(argument, z, check=None, halved=halved)
        p = classical._wald_pvalue(z, alternative)
        assert np.array_equal(edge.rejects(alpha)[0], p < alpha), alpha


def _rule(block, mu):
    """Coverage as the outcomes have it: the log-scale bounds of
    ``log_bounds``, an interval where lower < upper."""
    lower, upper = block.log_bounds()
    failed = ~(lower < upper)
    return ~failed & (lower <= mu) & (mu <= upper), failed


@pytest.mark.parametrize("mu", [0.0, 1.0, -3.5, 700.0, -700.0, 1e-12])
@pytest.mark.parametrize("ulps", [0, -4, 4])
def test_covers_is_the_log_bounds_rule_lane_for_lane(mu, ulps, monkeypatch):
    # every pair of bounds among the neighbours of exp(mu), NaN, +-inf, 0,
    # negatives and random ones; at mu = 0 the logs of the bounds next to 1
    # have magnitudes near 1e-16, the cut itself.  A numpy log a few ulps off
    # decides every lane alike (log 1 = 0 is exact in any faithful log)
    log = classical._numpy_log_or_minus_inf
    monkeypatch.setattr(classical, "_numpy_log_or_minus_inf", lambda bound: np.where(
        np.isfinite(log(bound)) & (log(bound) != 0.0), _moved(log(bound), ulps), log(bound)))
    rng = np.random.default_rng(19)
    values = np.array(_neighbours(math.exp(mu)) + [math.nan, math.inf, -math.inf, 0.0, -0.0,
                                                   -2.0, 5e-324]
                      + (math.exp(mu) * np.exp(rng.normal(0.0, 0.5, 20))).tolist())
    lower, upper = (a.ravel() for a in np.meshgrid(values, values))
    failed = np.zeros(lower.size, dtype=bool)
    failed[::7] = True
    for mus in (mu, np.full(lower.size, mu)):
        block = classical.IntervalBlock(lower, upper, lower, 0.95, log_scale=False,
                                        failed=failed, check=None)
        covered, refused = block.covers(mus)
        expected = _rule(block, mus)
        assert np.array_equal(covered, expected[0]) and np.array_equal(refused, expected[1])
    # log-scale bounds at the neighbours of mu are compared as they are
    values = np.array(_neighbours(mu) + [math.nan, math.inf, -math.inf])
    lower, upper = (a.ravel() for a in np.meshgrid(values, values))
    logs = classical.IntervalBlock(lower, upper, lower, 0.95, log_scale=True,
                                   failed=failed[:lower.size], check=None)
    covered, refused = logs.covers(mu)
    expected = _rule(logs, mu)
    assert np.array_equal(covered, expected[0]) and np.array_equal(refused, expected[1])


def test_a_pass_counts_what_each_stack_decided_alone_counts(monkeypatch):
    # cells of three group-size keys at k = 2 and two at k = 3 (with the
    # generalized methods), out of order: a pass spans stacks of different
    # sizes, and its counts are each stack's own, at workers 1 and 2
    settings = [(0.0, (1.0, 0.1), (5, 10), CLASSICAL),
                (1.0, (1.0, 2.5), (50, 50), CLASSICAL),
                (0.2, (1.0, 0.5), (5, 10), CLASSICAL),
                (0.0, (1.0, 2.5, 0.5), (5, 10, 7), METHOD_ORDER),
                (0.5, (1.0, 1.0), (6, 8), CLASSICAL),
                (0.0, (0.5, 1.0, 0.1), (4, 9, 12), METHOD_ORDER)]
    cells = [SimulationCell(mu=mu, sigma2s=sigma2s, ns=ns, methods=methods, cell_index=index,
                            outer_reps=100, inner_reps=1000, seed=41)
             for index, (mu, sigma2s, ns, methods) in enumerate(settings)]
    with monkeypatch.context() as alone:
        alone.setattr(simulate, "_pass_key", simulate._stack_key)
        expected = run_grid(cells)
    blocks = []

    def recorded(groups, original=classical.gupta_li_mle_block):
        blocks.append(np.unique(np.atleast_2d(groups.ns), axis=0).shape[0])
        return original(groups)

    monkeypatch.setattr(classical, "gupta_li_mle_block", recorded)
    assert run_grid(cells) == expected
    assert blocks == [3, 2]  # one pass per group count, spanning its sizes
    assert run_grid(cells, workers=2) == expected


def test_a_mixed_block_answers_as_each_lane_alone():
    # a block whose lanes have their own group sizes: each lane's fit, tests
    # and intervals have the bits of that lane in a block of its own sizes
    rng = np.random.default_rng(23)
    ns = np.array([(5, 10), (50, 50), (2, 7), (30, 4)] * 25)
    means = rng.normal(0.0, 1.0, (100, 2))
    variances = 10.0 ** rng.uniform(-1.0, 0.7, (100, 2))
    mixed = BlockWork(classical.GroupBlock(ns, means, variances))
    spec, mu = TestSpec(0.1), rng.normal(0.0, 0.5, 100)
    decided = [METHODS[name].decide_block(mixed, spec, math.exp(0.1), 0.05, mu)
               for name in CLASSICAL]
    for lane in range(100):
        one = BlockWork(classical.GroupBlock(tuple(ns[lane].tolist()), means[lane:lane + 1],
                                             variances[lane:lane + 1]))
        for field in ("mu_hat", "log_likelihood", "std_error", "iterations"):
            assert getattr(mixed.fit, field)[lane].tobytes() == \
                getattr(one.fit, field)[0].tobytes(), (lane, field)
        assert mixed.components.theta_tilde[lane].tobytes() == \
            one.components.theta_tilde[0].tobytes()
        for name, flags in zip(CLASSICAL, decided):
            alone = METHODS[name].decide_block(one, spec, math.exp(0.1), 0.05, mu[lane:lane + 1])
            assert np.array_equal(flags[:, lane], alone[:, 0]), (lane, name)


def test_a_pass_reads_pythons_erfc_and_log_on_band_lanes_only(monkeypatch):
    # a regression guard by counts, not times: deciding a 1000-lane pass of
    # two group sizes hands Python's scalar erfc and log only the lanes
    # within the band of a critical value, of which random data have ~none
    passed = {"_erfc": 0, "_log_or_minus_inf": 0, "lanes": []}
    for name in ("_erfc", "_log_or_minus_inf"):
        def counted(x, original=getattr(classical, name), name=name):
            passed[name] += x.size
            return original(x)

        monkeypatch.setattr(classical, name, counted)

    def fitted(groups, original=classical.gupta_li_mle_block):
        passed["lanes"].append(groups.size)
        return original(groups)

    monkeypatch.setattr(classical, "gupta_li_mle_block", fitted)
    cells = [SimulationCell(mu=mu, sigma2s=(1.0, 2.5), ns=ns, methods=CLASSICAL, outer_reps=500,
                            seed=3, cell_index=index)
             for index, (mu, ns) in enumerate([(0.0, (5, 10)), (0.3, (50, 50))])]
    simulate._run_pieces(cells, [(0, 0, 500), (1, 0, 500)])
    assert passed["lanes"] == [1000]
    assert passed["_erfc"] + passed["_log_or_minus_inf"] <= 4
    # the counter sees a read of every p-value
    block = classical.TestBlock(np.zeros(1000), np.zeros(1000), check=None)
    assert block.p_value.size == 1000 and passed["_erfc"] >= 1000
