import hashlib
import importlib.resources
import io
import itertools
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from lnmean import (Dataset, SampleSummary, SimulationCell, classical, generalized, rmrs_dataset,
                    run_cell, run_grid, simulate, write_csv)
from lnmean.methods import METHOD_ORDER, normalize_method
from lnmean.simulate import (ConfigError, cells_from_config, load_grid_config,
                             parse_grid_config, result_rows)

FAST = dict(outer_reps=100, inner_reps=1000, seed=7)
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_method_normalization():
    assert normalize_method("GV_Weighted") == "gv-weighted"
    assert normalize_method(" lrt ") == "lrt"
    with pytest.raises(ValueError, match="unknown method"):
        normalize_method("bogus")


def test_cell_validation():
    ok = dict(mu=0.0, sigma2s=(1.0, 0.5), ns=(5, 10))
    SimulationCell(**ok)
    with pytest.raises(ValueError, match="same length"):
        SimulationCell(mu=0.0, sigma2s=(1.0,), ns=(5, 10))
    with pytest.raises(ValueError, match="positive"):
        SimulationCell(mu=0.0, sigma2s=(1.0, -1.0), ns=(5, 10))
    with pytest.raises(ValueError, match="at least 100"):
        SimulationCell(**ok, outer_reps=50)
    with pytest.raises(ValueError, match="at least 1000"):
        SimulationCell(**ok, inner_reps=10)
    with pytest.raises(ValueError, match="alpha"):
        SimulationCell(**ok, alpha=1.5)
    with pytest.raises(ValueError, match="unknown method"):
        SimulationCell(**ok, methods=("nope",))
    # any number of groups, with every method
    assert SimulationCell(mu=0.0, sigma2s=(1.0,), ns=(5,)).methods == METHOD_ORDER
    assert SimulationCell(mu=0.0, sigma2s=(0.1, 0.5, 1.0, 2.5, 1.0),
                          ns=(5, 10, 25, 30, 50)).methods == METHOD_ORDER
    with pytest.raises(ValueError, match="at least one group"):
        SimulationCell(mu=0.0, sigma2s=(), ns=())
    # integer fields are refused, not truncated or failed later, when not integers
    for field, bad in (("ns", (5.5, 10)), ("ns", (True, 10)), ("outer_reps", 150.9),
                       ("outer_reps", True), ("inner_reps", 5000.0), ("seed", 1.5),
                       ("seed", False), ("cell_index", 2.0)):
        with pytest.raises(ValueError, match=f"{field}.* must be an integer"):
            SimulationCell(**dict(ok, **{field: bad}))
    # so are real fields that are not real numbers, rather than a TypeError
    # later or a bool read as 1.0
    for field, bad in (("mu", "0"), ("mu", True), ("phi0", "1"), ("phi0", False),
                       ("alpha", "0.05"), ("alpha", True), ("sigma2s", (True, 0.5)),
                       ("sigma2s", ("1", 0.5)), ("sigma2s", (None, 0.5))):
        with pytest.raises(ValueError, match=f"{field}.* must be a number"):
            SimulationCell(**dict(ok, **{field: bad}))
    cell = SimulationCell(**dict(ok, mu=1, sigma2s=(1, 0.5), phi0=2, alpha=0.1))
    assert (cell.mu, cell.sigma2s, cell.phi0, cell.alpha) == (1.0, (1.0, 0.5), 2.0, 0.1)
    # non-finite parameters would fail every replicate, so they are refused
    for mu in (math.nan, math.inf):
        with pytest.raises(ValueError, match="mu must be finite"):
            SimulationCell(**dict(ok, mu=mu))
    for bad in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite and positive"):
            SimulationCell(mu=0.0, sigma2s=(bad, 0.5), ns=(5, 10))
    # 1000 draws leave 5 in each tail of a 99% interval: refused up front
    # when a Monte Carlo method is requested, not failed replicate by replicate
    with pytest.raises(ValueError, match="too small"):
        SimulationCell(**ok, alpha=0.01, inner_reps=1000)
    SimulationCell(**ok, alpha=0.01, inner_reps=1000, methods=("lrt", "baklizi"))
    # the seed fits in 64 bits and every replicate's stream index in 32, or
    # the cell is refused before it runs: stream index 2**32 + j would read
    # the lane-1 stream of replicate j (see samplers)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError, match="seed must fit"):
            SimulationCell(**ok, seed=seed)
    for cell_index, outer_reps in ((-1, 100), (2, 2 ** 63), (1, 2 ** 63),
                                   (2 ** 32 // 100, 100)):
        with pytest.raises(ValueError, match="stream indices .* must fit"):
            SimulationCell(**ok, cell_index=cell_index, outer_reps=outer_reps)
    SimulationCell(**ok, seed=2 ** 64 - 1, cell_index=2 ** 32 // 100 - 1, outer_reps=100)


def test_run_cell_is_deterministic():
    cell = SimulationCell(mu=0.0, sigma2s=(1.0, 0.5), ns=(5, 8),
                          methods=("ahmed", "gv-weighted"), **FAST)
    first = run_cell(cell)
    second = run_cell(cell)
    assert first == second


def test_run_cell_worker_count_does_not_change_results():
    cell = SimulationCell(mu=0.1, sigma2s=(1.0, 1.5), ns=(6, 7),
                          methods=("ahmed", "baklizi", "gv-umvue"), **FAST)
    serial = run_cell(cell, workers=1)
    parallel = run_cell(cell, workers=2)
    assert serial == parallel


def test_run_cell_caps_workers_at_cpu_count(monkeypatch):
    pools = []

    class SerialPool:
        """Stands in for a process pool: records its worker count, starts no process."""

        def __init__(self, workers):
            pools.append(workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    # one pool for the whole grid, not one per cell
    cells = [SimulationCell(mu=mu, sigma2s=(1.0, 0.5), ns=ns, methods=("ahmed",),
                            cell_index=index, **FAST)
             for index, (mu, ns) in enumerate(((0.0, (5, 8)), (0.2, (5, 8)), (0.0, (6, 6))))]
    expected = [run_cell(cell) for cell in cells]
    monkeypatch.setattr(simulate, "_process_pool", SerialPool)
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: 3)
    assert run_grid(cells, workers=10_000) == expected
    assert pools == [3]
    # an unknown CPU count means one worker: no pool at all
    monkeypatch.setattr(simulate.os, "cpu_count", lambda: None)
    assert run_grid(cells, workers=10_000) == expected
    assert pools == [3]


def test_run_cell_rates_and_se_formula():
    cell = SimulationCell(mu=0.0, sigma2s=(1.0, 1.0), ns=(25, 25),
                          methods=("lrt", "ahmed", "gupta-li", "baklizi",
                                   "gv-weighted", "gv-umvue"),
                          outer_reps=200, inner_reps=1000, seed=1)
    result = run_cell(cell)
    assert set(result.rejection) == {"lrt", "ahmed", "gupta-li", "gv-weighted", "gv-umvue"}
    assert set(result.coverage) == {"ahmed", "gupta-li", "baklizi", "gv-weighted", "gv-umvue"}
    for table in (result.rejection, result.coverage):
        for rate in table.values():
            assert 0.0 <= rate.estimate <= 1.0
            expected_se = math.sqrt(rate.estimate * (1 - rate.estimate) / cell.outer_reps)
            assert rate.std_error == pytest.approx(expected_se, rel=1e-12)
    # baklizi's acceptance set is empty exactly when the spread Q of the group
    # estimates about the pooled one exceeds the chi-square(k) quantile, which
    # happens in a few replicates of this cell; nothing else may fail here
    q = stats.chi2.ppf(0.95, len(cell.ns))
    empty = 0
    groups, valid = simulate.draw_block(cell, 0, cell.outer_reps)
    assert valid.all()
    for means, variances in zip(groups.means.tolist(), groups.variances.tolist()):
        ds = Dataset(groups=tuple(SampleSummary(n, mean, variance)
                                  for n, mean, variance in zip(cell.ns, means, variances)))
        comp = classical.ahmed_components(ds)
        spread = sum(w * (theta - comp.theta_tilde) ** 2
                     for w, theta in zip(comp.weights, comp.theta_hats))
        empty += spread > q
    assert result.coverage["baklizi"].failures == empty
    others = [rate for name, rate in (*result.rejection.items(), *result.coverage.items())
              if name != "baklizi"]
    assert [rate.failures for rate in others] == [0] * len(others)
    # a nominal-size cell should reject rarely and cover usually
    assert result.rejection["gv-weighted"].estimate < 0.15
    assert result.coverage["gv-weighted"].estimate > 0.85


def test_one_phi0_check_gives_one_message():
    # ahmed's test and a simulation cell share the command line's check
    comp = classical.ahmed_components(rmrs_dataset())
    cell = dict(mu=0.0, sigma2s=(1.0, 0.5), ns=(5, 10))
    for bad in (0.0, -1.0, math.inf, math.nan):
        for refuse in (lambda: classical.ahmed_test(comp, bad),
                       lambda: SimulationCell(**cell, phi0=bad)):
            with pytest.raises(ValueError, match="^phi0 must be positive and finite$"):
                refuse()


def test_generalized_rejection_and_coverage_are_dual():
    # phi0 equals the true mean, so "reject" and "fail to cover" should agree
    # replicate by replicate, up to quantile ties
    cell = SimulationCell(mu=0.3, sigma2s=(1.0, 0.5), ns=(10, 15), phi0=math.exp(0.3),
                          methods=("gv-weighted", "gv-umvue"),
                          outer_reps=400, inner_reps=2000, seed=11)
    result = run_cell(cell)
    for name in cell.methods:
        # counts, not rates: rates 2/400 short of summing to one add up to
        # 0.995 plus a rounding error, past a bound of 0.005
        rejected = round(result.rejection[name].estimate * cell.outer_reps)
        covered = round(result.coverage[name].estimate * cell.outer_reps)
        assert abs(rejected + covered - cell.outer_reps) <= 2


def test_lrt_size_is_calibrated_at_large_samples():
    # balanced 50/50 groups at the null: rejection rate should sit near the
    # nominal 5% level
    cell = SimulationCell(mu=0.0, sigma2s=(1.0, 1.0), ns=(50, 50), phi0=1.0,
                          methods=("lrt",), outer_reps=10_000, inner_reps=1000,
                          seed=29)
    rate = run_cell(cell).rejection["lrt"].estimate
    assert abs(rate - 0.055) <= 0.012


def test_power_saturates_for_distant_alternative():
    # mu=1 against phi0=1 with a tight second group: every method should
    # essentially always reject
    cell = SimulationCell(mu=1.0, sigma2s=(1.0, 0.1), ns=(5, 10), phi0=1.0,
                          methods=("lrt", "ahmed", "gupta-li", "gv-weighted",
                                   "gv-umvue"),
                          outer_reps=500, inner_reps=2000, seed=31)
    result = run_cell(cell)
    for name, rate in result.rejection.items():
        assert rate.estimate >= 0.99, name


def _nans(fit):
    return np.full(fit.groups.size, np.nan)


def _no_answer(fit, *args, **kwargs):
    """A block test that answers on no dataset: a NaN p-value for every one."""
    return classical.TestBlock(_nans(fit), _nans(fit), check=None)


def test_method_failures_are_counted_not_fatal(monkeypatch):
    # the simulation reads the block procedures, where a NaN p-value is a failure
    monkeypatch.setattr(classical, "lr_test_block", _no_answer)
    cell = SimulationCell(mu=0.0, sigma2s=(1.0, 1.0), ns=(5, 5),
                          methods=("lrt", "ahmed"), **FAST)
    result = run_cell(cell)
    assert result.rejection["lrt"].estimate == 0.0
    assert result.rejection["lrt"].failures == cell.outer_reps
    assert result.rejection["ahmed"].failures == 0


def test_a_block_answer_that_an_outcome_refuses_is_a_failure(monkeypatch):
    # a block answer is judged by the rules of TestOutcome and IntervalOutcome:
    # a NaN erfc argument (the refused test) and a negative two-sided one,
    # whose p-value erfc(-1) lies outside [0, 1], fail, as does an empty
    # interval, and the interval [0, 0] does not cover mu = 0
    def size(comp):
        return comp.theta_tilde.size

    def zeros(comp):
        return np.zeros(size(comp))

    def refused(comp):
        argument = zeros(comp) - 1.0
        argument[::2] = np.nan
        return argument

    monkeypatch.setattr(classical, "ahmed_test_block", lambda comp, phi0, alternative:
                        classical.TestBlock(refused(comp), zeros(comp), check=None))
    monkeypatch.setattr(classical, "ahmed_ci_block", lambda comp, level: classical.IntervalBlock(
        zeros(comp), zeros(comp), zeros(comp), level, log_scale=True,
        failed=zeros(comp) != 0.0, check=None))
    cell = SimulationCell(mu=0.0, sigma2s=(1.0, 1.0), ns=(5, 5), methods=("ahmed",), **FAST)
    result = run_cell(cell)
    assert (result.rejection["ahmed"].estimate, result.rejection["ahmed"].failures) == (0.0, 100)
    assert (result.coverage["ahmed"].estimate, result.coverage["ahmed"].failures) == (0.0, 100)


def test_a_failure_counts_against_the_procedure_that_raised_it(monkeypatch):
    def broken(fit, level):
        return classical.IntervalBlock(_nans(fit), _nans(fit), _nans(fit), level, log_scale=True,
                                       failed=fit.failed, check=None)

    # every gupta-li interval fails; its test at phi0 = e^700 still answers,
    # and rejects as lrt does
    monkeypatch.setattr(classical, "gupta_li_ci_block", broken)
    names = ("lrt", "gupta-li", "gv-weighted")
    cell = SimulationCell(mu=720.0, sigma2s=(1.0, 0.5), ns=(5, 10), phi0=math.exp(700),
                          methods=names, outer_reps=100, inner_reps=1000, seed=3)
    result = run_cell(cell)
    for name in names:
        assert (result.rejection[name].estimate, result.rejection[name].failures) == (1.0, 0)
    gupta_li = result.coverage["gupta-li"]
    assert (gupta_li.estimate, gupta_li.failures) == (0.0, 100)
    assert result.coverage["gv-weighted"].failures == 0


def test_intervals_past_the_float_range_cover_as_at_mu_zero():
    # at mu = 720 exp of every bound overflows to inf; coverage is read on the
    # log scale, so the intervals answer and cover as the same draws at mu = 0
    names = ("gupta-li", "gv-weighted", "gv-umvue")
    far, near = (run_cell(SimulationCell(mu=mu, sigma2s=(1.0, 0.5), ns=(5, 10), methods=names,
                                         outer_reps=100, inner_reps=1000, seed=3))
                 for mu in (720.0, 0.0))
    for name in names:
        assert far.coverage[name].failures == near.coverage[name].failures == 0, name
        assert far.coverage[name].estimate == near.coverage[name].estimate, name


def test_a_failed_data_draw_counts_against_every_procedure():
    # a variance of 1e308 overflows the data draw's sums, so draw_block
    # refuses the replicate's data; every test and interval fails, and the
    # cell runs on.  The refusal is counted, not warned about
    names = ("lrt", "ahmed", "baklizi", "gv-umvue")
    cell = SimulationCell(mu=0.0, sigma2s=(1e308, 1.0), ns=(5, 10), methods=names,
                          outer_reps=100, inner_reps=1000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        groups, valid = simulate.draw_block(cell, 0, 3)
        result = run_cell(cell)
    assert not valid.any()
    assert not np.isfinite(groups.means[:, 0]).any()
    assert set(result.rejection) == {"lrt", "ahmed", "gv-umvue"}
    assert set(result.coverage) == {"ahmed", "baklizi", "gv-umvue"}
    for rate in (*result.rejection.values(), *result.coverage.values()):
        assert (rate.estimate, rate.failures) == (0.0, 100)


def _raising(error):
    def procedure(*args, **kwargs):
        raise error("forced")
    return procedure


@pytest.mark.parametrize("error", [ValueError, ZeroDivisionError])
@pytest.mark.parametrize("broken, failed, answered", [
    ("pvalue_from_pivots", "rejection", "coverage"),
    ("interval_from_pivots", "coverage", "rejection")])
def test_a_generalized_failure_counts_against_the_procedure_that_raised_it(
        monkeypatch, error, broken, failed, answered):
    # the generalized methods run replicate by replicate: a procedure that
    # raises one of the method failures counts as failed, and the method's
    # other procedure, read off the same pivots, answers as before
    cell = SimulationCell(mu=0.0, sigma2s=(1.0, 0.5), ns=(5, 10),
                          methods=("lrt", "gv-weighted", "gv-umvue"), **FAST)
    intact = run_cell(cell)
    monkeypatch.setattr(generalized, broken, _raising(error))
    result = run_cell(cell)
    for name in ("gv-weighted", "gv-umvue"):
        rate = getattr(result, failed)[name]
        assert (rate.estimate, rate.failures) == (0.0, cell.outer_reps)
        assert getattr(result, answered)[name] == getattr(intact, answered)[name]
        assert getattr(intact, failed)[name].failures == 0
    assert result.rejection["lrt"] == intact.rejection["lrt"]


def test_method_bugs_propagate(monkeypatch):
    # a block procedure marks its failures in its answer; whatever it raises stops the run
    monkeypatch.setattr(classical, "ahmed_test_block", _raising(TypeError))
    cell = SimulationCell(mu=0.0, sigma2s=(1.0, 1.0), ns=(5, 5),
                          methods=("lrt", "ahmed"), **FAST)
    with pytest.raises(TypeError, match="forced"):
        run_cell(cell)


@pytest.mark.parametrize("name", ["pvalue_from_pivots", "interval_from_pivots"])
def test_generalized_method_bugs_propagate(monkeypatch, name):
    # a generalized procedure that raises anything but a method failure stops the run
    monkeypatch.setattr(generalized, name, _raising(TypeError))
    cell = SimulationCell(mu=0.0, sigma2s=(1.0, 1.0), ns=(5, 5),
                          methods=("lrt", "gv-weighted"), **FAST)
    with pytest.raises(TypeError, match="forced"):
        run_cell(cell)


def test_classical_shared_work_runs_once_per_replicate(monkeypatch):
    # one fit and one set of components per block, for both methods that read
    # each; every replicate is in one block, and no dataset is fitted alone
    calls = {"gupta_li_mle_block": [], "ahmed_components_block": [],
             "gupta_li_mle": [], "ahmed_components": []}
    for name in calls:
        original = getattr(classical, name)

        def counted(data, original=original, name=name):
            calls[name].append(getattr(data, "size", 1))
            return original(data)

        monkeypatch.setattr(classical, name, counted)
    monkeypatch.setattr(simulate, "REPLICATE_BLOCK", 30)
    classical_methods = ("lrt", "ahmed", "gupta-li", "baklizi")
    cell = SimulationCell(mu=0.0, sigma2s=(1.0, 0.5), ns=(6, 8), methods=classical_methods,
                          **FAST)
    run_cell(cell)
    assert calls == {"gupta_li_mle_block": [30, 30, 30, 10],
                     "ahmed_components_block": [30, 30, 30, 10],
                     "gupta_li_mle": [], "ahmed_components": []}
    # cells of one grid that share their group sizes are decided in one stack
    for made in calls.values():
        made.clear()
    monkeypatch.setattr(simulate, "REPLICATE_BLOCK", 250)
    run_grid([cell, SimulationCell(mu=0.0, sigma2s=(1.0, 0.5), ns=(5, 10),
                                   methods=classical_methods, cell_index=1, **FAST),
              SimulationCell(mu=1.0, sigma2s=(1.0, 2.5), ns=(6, 8),
                             methods=classical_methods, cell_index=2, **FAST)])
    assert calls == {"gupta_li_mle_block": [200, 100], "ahmed_components_block": [200, 100],
                     "gupta_li_mle": [], "ahmed_components": []}


@pytest.mark.parametrize("block, draws", [(1, 2 ** 21), (7, 2 ** 21), (1024, 40), (1024, 2 ** 21)])
def test_the_block_length_changes_no_number(monkeypatch, block, draws):
    # a grid run is each cell run alone, however its pieces stack and at any
    # worker count.  The grid mixes k = 2 and k = 3, two sizes at k = 2,
    # several mu, classical and generalized method sets, and at mu = 1e16,
    # where the draws are whole multiples of 2, a cell in which two
    # replicates in three draw a constant group, a data failure, between
    # replicates that answer, stacked with a cell of the same sizes
    classical_methods = ("lrt", "ahmed", "gupta-li", "baklizi")
    failing = ("ahmed", "lrt", "gv-umvue")
    settings = [(0.3, (1.0, 0.1, 2.5), (5, 10, 7), METHOD_ORDER),
                (0.0, (1.0, 0.5), (5, 10), classical_methods),
                (1e16, (1.0, 1.0), (2, 3), failing),
                (0.2, (1.0, 0.5), (25, 25), classical_methods),
                (1.0, (1.0, 2.5), (5, 10), classical_methods),
                (0.0, (1.0, 1.0), (2, 3), failing),
                (0.5, (0.5, 1.0, 0.1), (5, 10, 7), METHOD_ORDER)]
    cells = [SimulationCell(mu=mu, sigma2s=sigma2s, ns=ns, methods=methods, cell_index=index,
                            **FAST)
             for index, (mu, sigma2s, ns, methods) in enumerate(settings)]
    expected = [run_cell(cell) for cell in cells]
    assert 0 < expected[2].rejection["lrt"].failures < FAST["outer_reps"]
    monkeypatch.setattr(simulate, "REPLICATE_BLOCK", block)
    monkeypatch.setattr(simulate, "BLOCK_DRAWS", draws)
    for workers in (1, 2):
        assert run_grid(cells, workers=workers) == expected, workers


def test_a_stack_draws_what_each_piece_draws_alone():
    # four cells of one seed and sizes, each with its own mu and variances,
    # drawn as one stack: lane for lane the draw of its piece alone
    settings = [(0.0, (1.0, 0.1)), (1.0, (1.0, 2.5)), (-3.5, (0.5, 7.0)), (1e16, (1.0, 1.0))]
    cells = [SimulationCell(mu=mu, sigma2s=sigma2s, ns=(2, 3), methods=("ahmed",),
                            cell_index=index, **FAST)
             for index, (mu, sigma2s) in enumerate(settings)]
    stack = [(0, 90, 10), (1, 0, 7), (2, 41, 1), (3, 5, 30)]
    groups, valid = simulate.draw_stack(cells, stack)
    alone = [simulate.draw_block(cells[position], first, count)
             for position, first, count in stack]
    for name in ("means", "variances"):
        assert getattr(groups, name).tobytes() == np.concatenate(
            [getattr(piece, name) for piece, _ in alone]).tobytes()
    assert np.array_equal(valid, np.concatenate([piece_valid for _, piece_valid in alone]))
    assert valid[:18].all() and not valid[18:].all()  # mu = 1e16 draws constant groups
    with pytest.raises(ValueError, match="seed and group sizes"):
        simulate.draw_stack([cells[0], SimulationCell(mu=0.0, sigma2s=(1.0, 0.1), ns=(2, 3),
                                                      methods=("ahmed",), outer_reps=100,
                                                      seed=8)], [(0, 0, 2), (1, 0, 2)])


def test_stacks_keep_to_one_seed_and_to_the_draw_bound(monkeypatch):
    # cells of two seeds in one grid are drawn in stacks of their own seed,
    # and no stack's draw array passes BLOCK_DRAWS values
    stacks = []

    def recorded(cells, stack, original=simulate.draw_stack):
        stacks.append([(cells[position].seed, cells[position].ns, count)
                       for position, _, count in stack])
        return original(cells, stack)

    methods = ("lrt", "ahmed", "gupta-li", "baklizi")
    cells = [SimulationCell(mu=mu, sigma2s=(1.0, 0.5), ns=(5, 10), methods=methods,
                            outer_reps=100, inner_reps=1000, seed=seed, cell_index=index)
             for index, (mu, seed) in enumerate([(0.0, 7), (0.5, 8), (1.0, 7), (0.0, 8)])]
    expected = [run_cell(cell) for cell in cells]
    monkeypatch.setattr(simulate, "draw_stack", recorded)
    monkeypatch.setattr(simulate, "BLOCK_DRAWS", 15 * 60)
    assert run_grid(cells) == expected
    assert all(len({(seed, ns) for seed, ns, _ in stack}) == 1 for stack in stacks)
    assert {stack[0][0] for stack in stacks} == {7, 8}
    lanes = [sum(count for _, _, count in stack) for stack in stacks]
    assert max(lanes) * 15 <= 15 * 60 and sum(lanes) == 400


def test_only_a_runs_first_piece_starts_inside_a_data_block():
    # ns = (5000, 5000) draws its data in blocks of 209 replicates; runs cut
    # where a block does not end, and still every later piece of a run
    # starts at a block head, no piece crosses one, and the pieces of a cell
    # cover its replicates once, in order
    cells = [SimulationCell(mu=0.0, sigma2s=(1.0, 0.5), ns=(5000, 5000), methods=("ahmed",),
                            outer_reps=500, cell_index=index) for index in range(2)]
    block = simulate._stream_rows((5000, 5000))
    assert block == 209
    for count in (1, 3, 7):
        runs = simulate._runs(cells, count)
        assert len(runs) == count
        for run in runs:
            assert all(first % block == 0 for _, first, _ in run[1:])
        pieces = [piece for run in runs for piece in run]
        assert all(first // block == (first + size - 1) // block for _, first, size in pieces)
        for position in range(2):
            spans = [(first, size) for p, first, size in pieces if p == position]
            assert [first for first, _ in spans] == list(
                itertools.accumulate([size for _, size in spans[:-1]], initial=0))
            assert sum(size for _, size in spans) == 500


@pytest.mark.parametrize("reps, width", [(100, 1), (255, 1), (256, 2), (65536, 4), (2 ** 32, 8)])
def test_a_result_keeps_each_count_in_the_narrowest_type_that_holds_the_replicates(
        reps, width):
    cell = SimulationCell(mu=0.0, sigma2s=(1.0, 0.5), ns=(5, 10), methods=("lrt", "baklizi"),
                          outer_reps=reps, inner_reps=1000)
    counts = (reps - 3, 3, 0, 0, 0, 0, reps - 1, 1)
    result = simulate.SimulationResult(cell, np.array(counts, f"u{width}").tobytes())
    assert len(result.packed) == 8 * width
    assert result.counts == counts and all(type(count) is int for count in result.counts)
    assert result.rejection["lrt"].estimate == (reps - 3) / reps
    assert result.rejection["lrt"].failures == 3
    assert result.coverage["baklizi"].estimate == (reps - 1) / reps
    assert result.coverage["baklizi"].failures == 1
    if reps == 100:
        # a run's result: one byte a count, none in a slot without its procedure
        run = run_cell(cell).counts
        assert len(run_cell(cell).packed) == 8 and run[2:6] == (0, 0, 0, 0)
        assert 0 < run[0] < 100 and 0 < run[6] < 100
def test_the_classical_reference_grid_is_unchanged():
    # the benchmark's grid-classical reference pass: 8 cells x 100 replicates
    # of the four classical methods, pinned by the digest of its CSV
    cells = cells_from_config(dict(
        mu=[0.0, 1.0], sigma2_1=1.0, sigma2_2=[0.1, 2.5], n_pairs=[[5, 10], [50, 50]],
        phi0=1.0, alpha=0.05, outer_reps=100, inner_reps=5000, seed=20240501,
        methods=["lrt", "ahmed", "gupta-li", "baklizi"]))
    buffer = io.StringIO()
    write_csv(run_grid(cells), buffer)
    assert hashlib.sha256(buffer.getvalue().encode()).hexdigest() == (
        "83743afcba085acf1e461fc4795207a290a3de90e058e6635fe2e585e71de967")


TOML_CONFIG = """
# two-cell grid
mu = [0.0, 0.2]
sigma2_1 = 1.0
sigma2_2 = [0.5]
n_pairs = [[5, 10]]
phi0 = 1.0
alpha = 0.05
outer_reps = 100
inner_reps = 1000
seed = 3
methods = ["ahmed", "gv-weighted"]
"""


def _json_equivalent():
    return json.dumps({
        "mu": [0.0, 0.2], "sigma2_1": 1.0, "sigma2_2": [0.5],
        "n_pairs": [[5, 10]], "phi0": 1.0, "alpha": 0.05,
        "outer_reps": 100, "inner_reps": 1000, "seed": 3,
        "methods": ["ahmed", "gv-weighted"],
    })


def test_toml_and_json_configs_agree(tmp_path):
    toml_path = tmp_path / "grid.toml"
    toml_path.write_text(TOML_CONFIG)
    json_path = tmp_path / "grid.json"
    json_path.write_text(_json_equivalent())
    cells_toml = cells_from_config(load_grid_config(toml_path))
    cells_json = cells_from_config(load_grid_config(json_path))
    assert cells_toml == cells_json
    assert len(cells_toml) == 2
    assert [cell.cell_index for cell in cells_toml] == [0, 1]
    assert cells_toml[0].sigma2s == (1.0, 0.5)


def test_config_validation_errors():
    good = json.loads(_json_equivalent())
    for key in ("mu", "methods", "seed"):
        broken = dict(good)
        del broken[key]
        with pytest.raises(ConfigError, match="missing"):
            cells_from_config(broken)
    with pytest.raises(ConfigError, match="unknown config keys"):
        cells_from_config(dict(good, typo=1))
    with pytest.raises(ConfigError, match="sigma2_2 entry .* n_pairs entry"):
        cells_from_config(dict(good, n_pairs=[[5, 10, 15]]))
    with pytest.raises(ConfigError, match="sigma2_2 entry .* n_pairs entry"):
        cells_from_config(dict(good, sigma2_2=[[0.5, 1.0]]))
    # wrong types name their key instead of being iterated or truncated
    for key, value in (("outer_reps", "many"), ("outer_reps", 150.9), ("seed", 1.7),
                       ("seed", True), ("inner_reps", False), ("n_pairs", [[5, 5.5]]),
                       ("methods", "ahmed"), ("mu", 0.0), ("mu", ["0.5"]),
                       ("sigma2_1", True), ("sigma2_2", 0.5), ("n_pairs", [5, 10])):
        with pytest.raises(ConfigError, match=key):
            cells_from_config(dict(good, **{key: value}))
    with pytest.raises(ConfigError, match="finite"):
        cells_from_config(dict(good, mu=[math.nan]))
    for seed in (-1, 2 ** 64):
        with pytest.raises(ConfigError, match="seed"):
            cells_from_config(dict(good, seed=seed))


def test_config_entries_set_the_group_count():
    good = json.loads(_json_equivalent())
    one = cells_from_config(dict(good, mu=[0.0], sigma2_2=[[]], n_pairs=[[7]]))
    assert [(cell.sigma2s, cell.ns) for cell in one] == [((1.0,), (7,))]
    mixed = cells_from_config(dict(good, mu=[0.0], sigma2_2=[0.5, [0.5]], n_pairs=[[5, 10]]))
    assert [cell.sigma2s for cell in mixed] == [(1.0, 0.5), (1.0, 0.5)]
    five = cells_from_config(dict(good, mu=[0.0], sigma2_1=0.1,
                                  sigma2_2=[[0.5, 1.0, 2.5, 1.0]],
                                  n_pairs=[[5, 10, 25, 30, 50]]))
    assert [(cell.sigma2s, cell.ns) for cell in five] == [
        ((0.1, 0.5, 1.0, 2.5, 1.0), (5, 10, 25, 30, 50))]


def test_empty_grid_is_allowed():
    config = json.loads(_json_equivalent())
    config["mu"] = []
    assert cells_from_config(config) == []
    buffer = io.StringIO()
    write_csv([], buffer)
    assert buffer.getvalue().strip() == ",".join(
        ("mu", "phi0", "alpha", "sigma2s", "ns", "method", "metric",
         "estimate", "std_error", "failures"))


def test_csv_output_is_deterministic():
    config = json.loads(_json_equivalent())
    config["mu"] = [0.0]
    cells = cells_from_config(config)
    out = []
    for _ in range(2):
        results = run_grid(cells)
        buffer = io.StringIO()
        write_csv(results, buffer)
        out.append(buffer.getvalue())
    assert out[0] == out[1]
    lines = out[0].strip().splitlines()
    # one header plus rejection and coverage rows for each of the two methods
    assert len(lines) == 1 + 4
    assert lines[1].startswith("0,1,0.05,1;0.5,5;10,ahmed,rejection,")


def test_bare_name_loads_bundled_config(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bundled = importlib.resources.files("lnmean").joinpath("tables.toml").read_text()
    assert load_grid_config("tables.toml") == parse_grid_config(bundled, "toml")
    # a file of that name here wins over the bundled one
    (tmp_path / "tables.toml").write_text(TOML_CONFIG)
    assert load_grid_config("tables.toml") == parse_grid_config(TOML_CONFIG, "toml")
    # a name with a directory part is a path only
    with pytest.raises(FileNotFoundError, match="not found"):
        load_grid_config(str(tmp_path / "sub" / "tables.toml"))


def test_bundled_grid_config_loads():
    text = importlib.resources.files("lnmean").joinpath("tables.toml").read_text()
    config = parse_grid_config(text, "toml")
    cells = cells_from_config(config)
    assert len(cells) == 48  # 3 mu x 4 sigma2_2 x 4 size pairs
    assert all(cell.outer_reps == 2000 and cell.inner_reps == 5000 for cell in cells)
    assert cells[0].methods == ("lrt", "ahmed", "gupta-li", "baklizi",
                                "gv-weighted", "gv-umvue")
    mus = sorted({cell.mu for cell in cells})
    assert mus == [0.0, 0.2, 1.0]
    sigmas = sorted({cell.sigma2s[1] for cell in cells})
    assert sigmas == [0.1, 0.5, 1.0, 2.5]
    sizes = sorted({cell.ns for cell in cells})
    assert sizes == [(5, 10), (25, 25), (30, 35), (50, 50)]


def test_result_rows_layout():
    cell = SimulationCell(mu=0.0, sigma2s=(1.0, 0.5), ns=(5, 10),
                          methods=("baklizi",), **FAST)
    rows = result_rows([run_cell(cell)])
    assert len(rows) == 1
    row = rows[0]
    assert row["method"] == "baklizi" and row["metric"] == "coverage"
    assert set(row) == {"mu", "phi0", "alpha", "sigma2s", "ns", "method",
                        "metric", "estimate", "std_error", "failures"}
    assert (row["sigma2s"], row["ns"]) == ("1;0.5", "5;10")


def test_five_group_generalized_coverage():
    # 400 x 5000 keeps this in the tier-1 time; the band is 4 binomial SEs
    cell = SimulationCell(mu=0.0, sigma2s=(0.1, 0.5, 1.0, 2.5, 1.0), ns=(5, 10, 25, 30, 50),
                          methods=("gv-weighted", "gv-umvue"),
                          outer_reps=400, inner_reps=5000, seed=20240501)
    result = run_cell(cell)
    band = 4.0 * math.sqrt(0.95 * 0.05 / cell.outer_reps)
    for name in cell.methods:
        rate = result.coverage[name]
        assert rate.failures == 0, name
        assert abs(rate.estimate - 0.95) <= band, (name, rate.estimate)


def test_csv_passes_the_benchmark_shape_check(monkeypatch):
    # the benchmark reads estimate, std_error and failures by position; a
    # layout change that breaks it should fail here first
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import benchlib

    methods = ("ahmed", "baklizi")
    cells = [SimulationCell(mu=0.0, sigma2s=(1.0, 0.5), ns=(5, 10), methods=methods, **FAST),
             SimulationCell(mu=0.0, sigma2s=(0.1, 0.5, 1.0, 2.5, 1.0),
                            ns=(5, 10, 25, 30, 50), methods=methods, **FAST)]
    buffer = io.StringIO()
    write_csv(run_grid(cells), buffer)
    assert benchlib.check_grid_csv(buffer.getvalue(), cells=2, rows_per_cell=3) == []
