import math

import pytest

from lnmean import (Alternative, IntervalOutcome, TestOutcome, interval_from_log,
                    interval_from_phi)


def test_alternative_coercion():
    assert Alternative.coerce("two_sided") is Alternative.TWO_SIDED
    assert Alternative.coerce("GREATER") is Alternative.GREATER
    assert Alternative.coerce(Alternative.LESS) is Alternative.LESS
    with pytest.raises(ValueError, match="alternative"):
        Alternative.coerce("both")


def test_test_outcome_validation():
    TestOutcome(p_value=0.5, mc_std_error=0.01, reps_used=1000)
    with pytest.raises(ValueError, match="p_value"):
        TestOutcome(p_value=1.5, mc_std_error=0.0, reps_used=0)
    with pytest.raises(ValueError):
        TestOutcome(p_value=0.5, mc_std_error=-0.1, reps_used=0)


def test_interval_outcome_validation():
    with pytest.raises(ValueError, match="empty"):
        IntervalOutcome(lower=1.0, upper=1.0, level=0.95, phi_lower=2.0, phi_upper=3.0)
    with pytest.raises(ValueError, match="level"):
        interval_from_log(0.0, 1.0, level=1.2)
    # order is checked on the log scale only: the derived bounds may saturate
    far = interval_from_log(800.0, 801.0, level=0.95)
    assert (far.phi_lower, far.phi_upper) == (math.inf, math.inf)
    near = interval_from_log(-801.0, -800.0, level=0.95)
    assert (near.phi_lower, near.phi_upper) == (0.0, 0.0)


def test_interval_from_log_exponentiates_exactly():
    interval = interval_from_log(0.5, 1.5, level=0.9, estimate=2.0)
    assert interval.phi_lower == math.exp(0.5)
    assert interval.phi_upper == math.exp(1.5)
    assert interval.width == interval.phi_upper - interval.phi_lower
    assert interval.estimate == 2.0


def test_interval_from_phi_handles_nonpositive_lower():
    interval = interval_from_phi(-5.0, 10.0, level=0.95)
    assert interval.lower == -math.inf
    assert interval.phi_lower == -5.0
    assert interval.upper == pytest.approx(math.log(10.0))
