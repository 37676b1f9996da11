"""The method table: the one place that knows the methods.

The command line and the simulation harness both choose methods with
``select`` and run each entry on a ``SharedWork``.  Entries reach
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
from .outcomes import Alternative, IntervalOutcome, TestOutcome

# what a procedure raises when it cannot answer on the data; any other exception is a bug
FAILURES = (ValueError, ArithmeticError)


class SharedWork:
    """Work several methods need on one dataset, each piece done on first use;
    a call that raises is not kept, so the next method to need it tries again.

    Both pivots read one ``PivotDraws`` of ``reps`` draws from the generator
    that ``generator()`` makes when a pivot is first asked for.
    """

    def __init__(self, ds: Dataset, reps: int, generator: Callable[[], np.random.Generator]):
        self.ds = ds
        self.reps = reps
        self._generator = generator
        self._done: dict = {}  # cheaper to make than cache wrappers, once per replicate

    def _once(self, key, compute):
        if key not in self._done:
            self._done[key] = compute()
        return self._done[key]

    def fit(self) -> classical.MleResult:
        return self._once("fit", lambda: classical.gupta_li_mle(self.ds))

    def components(self) -> classical.AhmedComponents:
        return self._once("components", lambda: classical.ahmed_components(self.ds))

    def pivots(self, kind: PivotMethod) -> np.ndarray:
        """``reps`` pivots of ``kind`` from the shared draws."""
        draws = self._once("draws", lambda: generalized.PivotDraws(
            self.ds, self.reps, self._generator()))
        return self._once(kind, lambda: generalized.sample_pivots(draws, kind))


@dataclass(frozen=True)
class Method:
    """One method's procedures and what they support.

    ``test(work, spec, phi0)`` also takes the null on the original scale, as
    the caller has it, for ahmed, which tests there; every other test reads
    the log-scale ``spec.mu0``.  ``interval(work, level)`` takes the level.
    Either is None where the method has no such procedure.  A procedure that
    cannot answer on the data raises one of ``FAILURES``.
    """

    name: str
    test: Callable[[SharedWork, TestSpec, float | None], TestOutcome] | None
    interval: Callable[[SharedWork, float], IntervalOutcome] | None
    lognormal_only: bool = True
    two_sided_only: bool = False
    monte_carlo: bool = False

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

    return Method(name, test, interval, lognormal_only=False, monte_carlo=True)


METHODS = {entry.name: entry for entry in (
    Method("lrt",
           test=lambda work, spec, phi0: classical.lr_test(work.ds, work.fit(), mu0=spec.mu0),
           interval=None, two_sided_only=True),
    Method("ahmed",
           test=lambda work, spec, phi0: classical.ahmed_test(
               work.components(), phi0, spec.alternative),
           interval=lambda work, level: classical.ahmed_ci(work.components(), level)),
    Method("gupta-li",
           test=lambda work, spec, phi0: classical.gupta_li_test(work.fit(), mu0=spec.mu0),
           interval=lambda work, level: classical.gupta_li_ci(work.fit(), level),
           two_sided_only=True),
    Method("baklizi",
           test=None,
           interval=lambda work, level: classical.baklizi_ci(work.components(), level)),
    _generalized("gv-weighted", PivotMethod.WEIGHTED),
    _generalized("gv-umvue", PivotMethod.UMVUE),
)}

METHOD_ORDER = tuple(METHODS)


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
