import math

import numpy as np
import pytest

from lnmean import StreamKey, chi_square, std_normal


def test_stream_key_validation():
    with pytest.raises(ValueError):
        StreamKey(seed=-1)
    with pytest.raises(ValueError):
        StreamKey(seed=2 ** 64)
    with pytest.raises(ValueError):
        StreamKey(seed=0, stream_index=-5)
    with pytest.raises(ValueError):
        StreamKey(seed=1.5)  # type: ignore[arg-type]


def test_same_key_reproduces_sequence():
    a = StreamKey(seed=42, stream_index=7).generator()
    b = StreamKey(seed=42, stream_index=7).generator()
    assert np.array_equal(std_normal(a, 100), std_normal(b, 100))


def test_distinct_streams_differ():
    a = std_normal(StreamKey(seed=42, stream_index=0).generator(), 50)
    b = std_normal(StreamKey(seed=42, stream_index=1).generator(), 50)
    c = std_normal(StreamKey(seed=43, stream_index=0).generator(), 50)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_lanes_give_distinct_reproducible_streams():
    key = StreamKey(seed=5, stream_index=9)
    lane0 = std_normal(key.generator(0), 20)
    lane1 = std_normal(key.generator(1), 20)
    assert not np.array_equal(lane0, lane1)
    assert np.array_equal(lane0, std_normal(key.generator(0), 20))


def test_trailing_zero_lanes_alias_the_shorter_address():
    # the seed sequence zero-pads its entropy, as the module docstring says
    key = StreamKey(seed=1, stream_index=0)
    assert std_normal(key.generator(), 1) == std_normal(key.generator(0), 1)
    key = StreamKey(seed=20240501, stream_index=7)
    assert std_normal(key.generator(1), 1) == std_normal(key.generator(1, 0), 1)


def test_simulation_lanes_are_pairwise_distinct():
    # the data lane 0 and the Monte Carlo lane 1 of every replicate of two
    # adjacent cells; the command line's StreamKey(seed) is not one of them
    # (it is lane 0 of replicate 0), as no run reads both
    from lnmean.simulate import SimulationCell

    seed = 20240501
    keys = []
    for cell_index in (0, 1):
        cell = SimulationCell(mu=0.0, sigma2s=(1.0, 2.5), ns=(5, 10), outer_reps=100,
                              seed=seed, cell_index=cell_index)
        for replicate in range(cell.outer_reps):
            base = StreamKey(seed, cell.cell_index * cell.outer_reps + replicate)
            keys += [base.generator(0), base.generator(1)]
    first = [float(rng.random()) for rng in keys]
    assert len(set(first)) == len(first) == 400


def test_std_normal_moments():
    draws = std_normal(StreamKey(seed=2024).generator(), 1_000_000)
    assert abs(draws.mean()) < 0.004
    assert abs(draws.var(ddof=1) - 1.0) < 0.006


def test_chi_square_moments_df9():
    draws = chi_square(9, StreamKey(seed=99).generator(), 1_000_000)
    assert abs(draws.mean() - 9.0) < 0.02
    assert abs(draws.var(ddof=1) - 18.0) < 0.3


def test_chi_square_strictly_positive():
    draws = chi_square(1, StreamKey(seed=17).generator(), 1_000_000)
    assert np.all(draws > 0.0)


def test_chi_square_df_validation():
    rng = StreamKey(seed=0).generator()
    with pytest.raises(ValueError):
        chi_square(0, rng)
    with pytest.raises(ValueError):
        chi_square(-3, rng)
    with pytest.raises(ValueError):
        chi_square(2.5, rng)
    for df in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            chi_square(df, rng, 3)
    with pytest.raises(ValueError):
        chi_square(np.array([4, 0]), rng, (10, 2))


def test_chi_square_broadcasts_per_column_df():
    draws = chi_square(np.array([4, 120]), StreamKey(seed=3).generator(), (200_000, 2))
    assert draws.shape == (200_000, 2)
    assert draws[:, 0].mean() == pytest.approx(4.0, abs=0.05)
    assert draws[:, 1].mean() == pytest.approx(120.0, abs=0.5)


def test_chi_square_df1_matches_quadrature_cdf():
    # oracle: the chi-square(1) CDF equals 2 * integral_0^sqrt(x) of the
    # standard normal density, computed here by cumulative trapezoid on the
    # sqrt scale (the integrand is smooth there)
    draws = np.sort(chi_square(1, StreamKey(seed=314).generator(), 1_000_000))
    u = np.concatenate([[0.0], np.sqrt(draws)])
    density = np.exp(-0.5 * u ** 2) / math.sqrt(2.0 * math.pi)
    panels = 0.5 * (density[1:] + density[:-1]) * np.diff(u)
    cdf = 2.0 * np.cumsum(panels)
    m = draws.size
    ranks = np.arange(1, m + 1)
    ks = max(np.max(ranks / m - cdf), np.max(cdf - (ranks - 1) / m))
    assert ks < 0.002


def test_squared_normals_match_chi_square_df1_distribution():
    z = std_normal(StreamKey(seed=123).generator(), 200_000) ** 2
    c = chi_square(1, StreamKey(seed=124).generator(), 200_000)
    quantiles = np.linspace(0.05, 0.95, 19)
    assert np.allclose(np.quantile(z, quantiles), np.quantile(c, quantiles),
                       rtol=0.0, atol=0.03)
