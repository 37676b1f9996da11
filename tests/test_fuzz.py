"""Every method on random data at extreme scales: it answers or fails by name.

The datasets span k in 1..50 (log-uniform), n in 2..10^6, |log means| up to
500 and log variances in 1e-8..1e3 (``_random_dataset``), with a null mu0 in
+/-500.  Each procedure runs through the method table on one ``SharedWork``,
a block of one, as the command line runs it.
"""

import math

import numpy as np

from lnmean.generalized import TestSpec
from lnmean.methods import FAILURES, METHODS, SharedWork, pivot_kinds
from lnmean.outcomes import IntervalOutcome, TestOutcome
from lnmean.samplers import StreamKey

from test_classical import _profile_on_grid
from test_numpy_references import _random_dataset

# messages of an interval that was refused for a reason other than its own statistic
FALSE_EMPTY = ("empty interval: [-inf, -inf]", "empty interval on the original scale")


def test_every_method_answers_or_fails_by_name_on_random_data():
    rng = np.random.default_rng(5150)
    problems = []
    answered = dict.fromkeys(METHODS, 0)
    for index in range(400):
        ds = _random_dataset(rng, int(math.exp(rng.uniform(0.0, math.log(51.0)))))
        mu0 = float(rng.uniform(-500.0, 500.0))
        work = SharedWork(ds, 1000, StreamKey(index), kinds=pivot_kinds(METHODS.values()))
        null = (TestSpec(mu0), math.exp(mu0))
        for name, entry in METHODS.items():
            for kind, procedure, args in ((TestOutcome, entry.test, null),
                                          (IntervalOutcome, entry.interval, (0.95,))):
                if procedure is None:
                    continue
                try:
                    outcome = procedure(work, *args)
                except FAILURES as exc:
                    if str(exc) in FALSE_EMPTY:
                        problems.append(f"dataset {index}: {name}: {exc}")
                    continue
                answered[name] += 1
                if not isinstance(outcome, kind):
                    problems.append(f"dataset {index}: {name} returned {outcome!r}")
                if name == "lrt" and not outcome.statistic >= 0.0:
                    problems.append(f"dataset {index}: LRT statistic {outcome.statistic}")
        try:
            fit = work.fit.lane(0)
        except FAILURES:
            continue
        modes = [ybar + scaled / n / 2.0 for n, ybar, scaled in ds.group_terms()]
        grid = np.linspace(min(modes), max(modes), 4001)
        best = float(np.max(_profile_on_grid(ds, grid)))
        # the two evaluations of l_p differ by rounding only, well under 1e-12 relative
        if fit.log_likelihood < best - 1e-12 * max(1.0, abs(best)):
            problems.append(f"dataset {index}: l_p at the fit {fit.log_likelihood!r} "
                            f"is below {best!r} on the grid")
    assert not problems, problems
    assert min(answered.values()) > 50, answered
