"""The method table: the one place that knows the methods.

The command line and the simulation harness both choose methods with
``select``.  The command line runs each entry on a ``SharedWork``, the work
of one dataset.  The simulation decides the classical entries for a whole
block of replicates at once, on a ``BlockWork``, and runs the generalized
ones replicate by replicate on a ``SharedWork`` each.  Entries reach
``classical`` and ``generalized`` through the module when they run, so a
function replaced on its module is the one called.
"""

from __future__ import annotations

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


class _FirstUse:
    """Pieces of work, each done on first use; a call that raises is not
    kept, so the next method to need the piece tries again."""

    def __init__(self):
        self._done: dict = {}  # cheaper to make than cache wrappers, once per replicate

    def _once(self, key, compute):
        if key not in self._done:
            self._done[key] = compute()
        return self._done[key]


class SharedWork(_FirstUse):
    """Work several methods need on one dataset (see ``_FirstUse``).

    The pivots read the draw rows of ``PivotDraws(ds, reps, key, *lanes,
    words=words)``.
    ``kinds`` are the pivot kinds the caller's methods read: the first of
    them asked for evaluates them all in one pass.  A kind outside them is
    evaluated alone, from the same rows, to the same numbers.
    """

    def __init__(self, ds: Dataset, reps: int, key: StreamKey, *lanes: int,
                 kinds: tuple[PivotMethod, ...], words: np.ndarray | None = None):
        super().__init__()
        self.ds = ds
        self._draws = generalized.PivotDraws(ds, reps, key, *lanes, words=words)
        self._kinds = kinds

    def fit(self) -> classical.MleResult:
        return self._once("fit", lambda: classical.gupta_li_mle(self.ds))

    def components(self) -> classical.AhmedComponents:
        return self._once("components", lambda: classical.ahmed_components(self.ds))

    def pivots(self, kind: PivotMethod) -> np.ndarray:
        """``reps`` pivots of ``kind`` from the shared draw rows."""
        if kind not in self._done:
            batch = self._kinds if kind in self._kinds else (kind,)
            self._done.update(zip(batch, generalized.sample_pivots(self._draws, batch)))
        return self._done[kind]


class BlockWork(_FirstUse):
    """Work the classical methods share over a block of datasets: one ML fit
    and one set of pooled components for the whole block (see
    ``_FirstUse``).  A dataset without one is a failure of the procedures
    that read it, marked in the block, not raised."""

    def __init__(self, groups: classical.GroupBlock):
        super().__init__()
        self.groups = groups

    def fit(self) -> classical.MleBlock:
        return self._once("fit", lambda: classical.gupta_li_mle_block(self.groups))

    def components(self) -> classical.AhmedBlock:
        return self._once("components", lambda: classical.ahmed_components_block(self.groups))


@dataclass(frozen=True)
class Method:
    """One method's procedures and what they support.

    ``test(work, spec, phi0)`` also takes the null on the original scale, as
    the caller has it, for ahmed, which tests there; every other test reads
    the log-scale ``spec.mu0``.  ``interval(work, level)`` takes the level.
    Either is None where the method has no such procedure.  A procedure that
    cannot answer on the data raises one of ``FAILURES``.  ``pivot`` is the
    Monte Carlo pivot kind that a generalized method reads.

    A classical method also has the same procedures over a ``BlockWork``:
    ``test_block`` gives each dataset's p-value and ``interval_block`` its
    log-scale bounds, NaN where the procedure cannot answer, and
    ``decide_block`` reads them.
    """

    name: str
    test: Callable[[SharedWork, TestSpec, float | None], TestOutcome] | None
    interval: Callable[[SharedWork, float], IntervalOutcome] | None
    lognormal_only: bool = True
    two_sided_only: bool = False
    pivot: PivotMethod | None = None
    test_block: Callable[[BlockWork, TestSpec, float], np.ndarray] | None = None
    interval_block: Callable[[BlockWork, float], tuple[np.ndarray, np.ndarray]] | None = None

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
            p = self.test_block(work, spec, phi0)
            flags[0] = p < alpha
            flags[1] = ~is_p_value(p)
        if self.interval_block is not None:
            lower, upper = self.interval_block(work, 1.0 - alpha)
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


METHODS = {entry.name: entry for entry in (
    Method("lrt",
           test=lambda work, spec, phi0: classical.lr_test(work.fit(), mu0=spec.mu0),
           interval=None, two_sided_only=True,
           test_block=lambda work, spec, phi0: classical.lr_test_block(
               work.fit(), mu0=spec.mu0)),
    Method("ahmed",
           test=lambda work, spec, phi0: classical.ahmed_test(
               work.components(), phi0, spec.alternative),
           interval=lambda work, level: classical.ahmed_ci(work.components(), level),
           test_block=lambda work, spec, phi0: classical.ahmed_test_block(
               work.components(), phi0, spec.alternative),
           interval_block=lambda work, level: classical.ahmed_ci_block(
               work.components(), level)),
    Method("gupta-li",
           test=lambda work, spec, phi0: classical.gupta_li_test(work.fit(), mu0=spec.mu0),
           interval=lambda work, level: classical.gupta_li_ci(work.fit(), level),
           two_sided_only=True,
           test_block=lambda work, spec, phi0: classical.gupta_li_test_block(
               work.fit(), mu0=spec.mu0),
           interval_block=lambda work, level: classical.gupta_li_ci_block(work.fit(), level)),
    Method("baklizi",
           test=None,
           interval=lambda work, level: classical.baklizi_ci(work.components(), level),
           interval_block=lambda work, level: classical.baklizi_ci_block(
               work.components(), level)),
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
