"""The method table: the one place that knows the methods.

The command line and the simulation harness both choose methods with
``select``.  The command line runs each entry on a ``SharedWork``, the work
of one dataset, where a classical entry reads lane 0 of its block procedures.
The simulation decides the classical entries for a whole block of replicates
at once, on a ``BlockWork``, and runs the generalized ones replicate by
replicate on a ``SharedWork`` each.  Entries reach ``classical`` and
``generalized`` through the module when they run, so a function replaced on
its module is the one called.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import classical, generalized
from .generalized import PivotMethod, TestSpec
from .model import Dataset, ModelSpec
from .outcomes import Alternative, IntervalOutcome, TestOutcome, is_ordered, is_p_value
from .samplers import StreamKey

# what a procedure raises when it cannot answer on the data; any other exception is a bug
FAILURES = (ValueError, ArithmeticError)


class BlockWork:
    """Work the classical methods share over a block of datasets: one ML fit
    and one set of pooled components for the whole block, each built on
    first use.  A dataset without one is a failure of the procedures that
    read it, marked in the block, not raised."""

    def __init__(self, groups: classical.GroupBlock):
        self.groups = groups

    @functools.cached_property
    def fit(self) -> classical.MleBlock:
        return classical.gupta_li_mle_block(self.groups)

    @functools.cached_property
    def components(self) -> classical.AhmedBlock:
        return classical.ahmed_components_block(self.groups)


class SharedWork(BlockWork):
    """The work of one dataset: a ``BlockWork`` of one, built on first use (the
    generalized methods also run outside the lognormal-mean model, where
    ``GroupBlock.of`` refuses the dataset), and the pivots, which read the
    draw rows of ``PivotDraws(ds, reps, key, *lanes, words=words)``.
    ``kinds`` are the pivot kinds the caller's methods read: the first of
    them asked for evaluates them all in one pass.  A kind outside them is
    evaluated alone, from the same rows, to the same numbers.
    """

    def __init__(self, ds: Dataset, reps: int, key: StreamKey, *lanes: int,
                 kinds: tuple[PivotMethod, ...], words: np.ndarray | None = None):
        self.ds = ds
        self._draws = generalized.PivotDraws(ds, reps, key, *lanes, words=words)
        self._kinds = kinds
        self._pivots: dict = {}

    @functools.cached_property
    def groups(self) -> classical.GroupBlock:
        return classical.GroupBlock.of(self.ds)

    def pivots(self, kind: PivotMethod) -> np.ndarray:
        """``reps`` pivots of ``kind`` from the shared draw rows."""
        if kind not in self._pivots:
            batch = self._kinds if kind in self._kinds else (kind,)
            self._pivots.update(zip(batch, generalized.sample_pivots(self._draws, batch)))
        return self._pivots[kind]


@dataclass(frozen=True)
class Method:
    """One method's procedures and what they support.

    ``test(work, spec, phi0)`` also takes the null on the original scale, as
    the caller has it, for ahmed, which tests there; every other test reads
    the log-scale ``spec.mu0``.  ``interval(work, level)`` takes the level.
    Either is None where the method has no such procedure.  A procedure that
    cannot answer on the data raises one of ``FAILURES``.  ``pivot`` is the
    Monte Carlo pivot kind that a generalized method reads.

    A classical method's procedures are ``test_block``, a
    ``classical.TestBlock`` of every dataset of a ``BlockWork``, and
    ``interval_block``, a ``classical.IntervalBlock``; ``decide_block``
    reads them, and ``test`` and ``interval`` are their lane 0.
    """

    name: str
    test: Callable[[SharedWork, TestSpec, float | None], TestOutcome] | None
    interval: Callable[[SharedWork, float], IntervalOutcome] | None
    lognormal_only: bool = True
    two_sided_only: bool = False
    pivot: PivotMethod | None = None
    test_block: Callable[[BlockWork, TestSpec, float], classical.TestBlock] | None = None
    interval_block: Callable[[BlockWork, float], classical.IntervalBlock] | None = None

    def decide(self, work: SharedWork, spec: TestSpec, phi0: float, alpha: float,
               mu: float) -> list[int]:
        """(rejected, test failed, covered, interval failed) of this method on
        one dataset: the test at ``alpha`` and the level 1 - ``alpha``
        interval against the true ``mu``.  A procedure that raises one of
        ``FAILURES`` counts as failed, and the other procedure still runs;
        any other exception is a bug and propagates."""
        flags = [0, 0, 0, 0]
        if self.test is not None:
            try:
                flags[0] = int(self.test(work, spec, phi0).p_value < alpha)
            except FAILURES:
                flags[1] = 1
        if self.interval is not None:
            try:
                interval = self.interval(work, 1.0 - alpha)
                flags[2] = int(interval.lower <= mu <= interval.upper)
            except FAILURES:
                flags[3] = 1
        return flags

    def decide_block(self, work: BlockWork, spec: TestSpec, phi0: float, alpha: float,
                     mu: float) -> np.ndarray:
        """``decide`` of each dataset of the block, a (4, R) bool array read off
        the block procedures, which mark a dataset they cannot answer on with
        what its ``TestOutcome`` or ``IntervalOutcome`` would refuse."""
        flags = np.zeros((4, work.groups.size), dtype=bool)
        if self.test_block is not None:
            p = self.test_block(work, spec, phi0).p_value
            flags[0] = p < alpha
            flags[1] = ~is_p_value(p)
        if self.interval_block is not None:
            lower, upper = self.interval_block(work, 1.0 - alpha).log_bounds()
            flags[3] = ~is_ordered(lower, upper)
            flags[2] = ~flags[3] & (lower <= mu) & (mu <= upper)
        return flags

    def unsupported(self, model: ModelSpec, kind: str | None,
                    alternative: Alternative) -> str | None:
        """Why this method cannot run as asked, or None if it can."""
        if kind == "test" and self.test is None:
            return f"method {self.name!r} has no test"
        if kind == "interval" and self.interval is None:
            return f"method {self.name!r} has no confidence interval"
        if self.lognormal_only and not model.is_lognormal_mean:
            return f"method {self.name!r} requires the lognormal-mean model"
        if self.two_sided_only and alternative is not Alternative.TWO_SIDED:
            return f"method {self.name!r} supports the two-sided alternative only"
        return None


def _generalized(name: str, kind: PivotMethod) -> Method:
    def test(work, spec, phi0):
        return generalized.pvalue_from_pivots(work.pivots(kind), spec)

    def interval(work, level):
        return generalized.interval_from_pivots(work.pivots(kind), level)

    return Method(name, test, interval, lognormal_only=False, pivot=kind)


def _classical(name: str, test_block=None, interval_block=None, **support) -> Method:
    def test(work, spec, phi0):
        return test_block(work, spec, phi0).lane(0)

    def interval(work, level):
        return interval_block(work, level).lane(0)

    return Method(name, test if test_block else None, interval if interval_block else None,
                  test_block=test_block, interval_block=interval_block, **support)


METHODS = {entry.name: entry for entry in (
    _classical("lrt", two_sided_only=True,
               test_block=lambda work, spec, phi0: classical.lr_test_block(
                   work.fit, mu0=spec.mu0)),
    _classical("ahmed",
               test_block=lambda work, spec, phi0: classical.ahmed_test_block(
                   work.components, phi0, spec.alternative),
               interval_block=lambda work, level: classical.ahmed_ci_block(
                   work.components, level)),
    _classical("gupta-li", two_sided_only=True,
               test_block=lambda work, spec, phi0: classical.gupta_li_test_block(
                   work.fit, mu0=spec.mu0),
               interval_block=lambda work, level: classical.gupta_li_ci_block(work.fit, level)),
    _classical("baklizi",
               interval_block=lambda work, level: classical.baklizi_ci_block(
                   work.components, level)),
    _generalized("gv-weighted", PivotMethod.WEIGHTED),
    _generalized("gv-umvue", PivotMethod.UMVUE),
)}

METHOD_ORDER = tuple(METHODS)


def pivot_kinds(entries) -> tuple[PivotMethod, ...]:
    """The pivot kinds that the method table ``entries`` read, each once."""
    return tuple(dict.fromkeys(entry.pivot for entry in entries if entry.pivot is not None))


def normalize_method(name: str) -> str:
    canonical = str(name).strip().lower().replace("_", "-")
    if canonical not in METHODS:
        raise ValueError(f"unknown method {name!r}; choose from {', '.join(METHOD_ORDER)}")
    return canonical


def select(requested, model: ModelSpec, kind: str | None = None,
           alternative: Alternative = Alternative.TWO_SIDED) -> tuple[Method, ...]:
    """Entries of the methods named in ``requested`` ("all" alone: every one that
    can run) under ``model``, with a "test" or "interval" if ``kind`` says so;
    a named method that cannot run is a ValueError."""
    names = [item for item in (str(piece).strip() for piece in requested) if item]
    if not names:
        raise ValueError("no methods requested")
    if len(names) == 1 and names[0].lower() == "all":
        return tuple(entry for entry in METHODS.values()
                     if entry.unsupported(model, kind, alternative) is None)
    names = [normalize_method(name) for name in names]
    if len(set(names)) != len(names):
        raise ValueError("duplicate method names")
    for name in names:
        reason = METHODS[name].unsupported(model, kind, alternative)
        if reason is not None:
            raise ValueError(reason)
    return tuple(METHODS[name] for name in names)
