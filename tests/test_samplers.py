import math

import numpy as np
import pytest

from lnmean import StreamKey, chi_square, std_normal
from lnmean.samplers import stream_generator, stream_words


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


@pytest.mark.parametrize("seed, index", [(0, 0), (5, 7), (2 ** 32, 3), (1, 2 ** 32),
                                         (2 ** 64 - 1, 2 ** 63 + 12345), (2 ** 32 - 1, 2 ** 40)])
@pytest.mark.parametrize("lanes", [(), (0,), (1,), (1, 5), (2 ** 32 + 1, 0)])
def test_the_address_words_are_the_tuple_the_seed_sequence_splits(seed, index, lanes):
    # the generator hashes the address as a uint32 array of its words, the
    # words SeedSequence splits a tuple of ints into, low word first
    key = StreamKey(seed, index)
    by_tuple = np.random.SeedSequence((seed, index, *lanes))
    assert np.array_equal(key.seed_sequence(*lanes).generate_state(8),
                          by_tuple.generate_state(8))
    assert np.array_equal(key.generator(*lanes).random(5),
                          np.random.Generator(np.random.SFC64(by_tuple)).random(5))


def test_chi_square_takes_any_integer_df_alike():
    # a Python int df skips the array check; numpy integers and arrays take it
    for df in (1, 4, 49):
        draws = [chi_square(form, StreamKey(seed=df).generator(), 100)
                 for form in (df, np.int64(df), np.array(df), float(df))]
        for other in draws[1:]:
            assert np.array_equal(draws[0], other)
    with pytest.raises(ValueError, match="finite integer >= 1"):
        chi_square(0, StreamKey(seed=0).generator(), 3)


def test_simulation_lanes_are_pairwise_distinct():
    # lane 0, which a data block reads at its first replicate, and the Monte
    # Carlo lane 1 of every replicate of two adjacent cells; the command
    # line's StreamKey(seed) is not one of them (it is lane 0 of replicate 0),
    # as no run reads both
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


@pytest.mark.parametrize("df", [1, 4, 9, 49, 120])
def test_draws_into_out_are_numpys_own_draws_in_order(df):
    # chi_square is twice a standard gamma of shape df / 2, numpy's own
    # chisquare arithmetic; if a numpy release changes that, this fails.  Draws
    # into consecutive pieces of out are the draws of one whole call.
    m = 10_007
    whole_chi2 = StreamKey(seed=df).generator(2).chisquare(df, m)
    whole_normal = StreamKey(seed=df).generator(3).standard_normal(m)
    chi2_rng, normal_rng = StreamKey(seed=df).generator(2), StreamKey(seed=df).generator(3)
    chi2, normal = np.empty(m), np.empty(m)
    for start in range(0, m, 4096):
        piece = chi2[start:start + 4096]
        assert chi_square(df, chi2_rng, out=piece) is piece
        std_normal(normal_rng, out=normal[start:start + 4096])
    assert np.array_equal(chi2, whole_chi2)
    assert np.array_equal(normal, whole_normal)
    assert np.array_equal(chi_square(df, StreamKey(seed=df).generator(2), m), whole_chi2)


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


# ---------------------------------------------------------------------------
# block hashing: numpy's seed sequence over arrays


def _numpy_words(*address):
    """Starting words of ``address`` by numpy's own seed sequence and SFC64 path."""
    return np.random.SeedSequence(list(address)).generate_state(3, np.uint64)


def _numpy_generator(*address):
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(list(address))))


@pytest.mark.parametrize("length", range(1, 8))
def test_stream_words_are_the_seed_sequence_words(length):
    # 1-3 words pad the 4-word pool, 4 fill it, 5-7 are mixed in past it
    rng = np.random.default_rng(length)
    special = [0, 1, 2 ** 32 - 1]
    addresses = [[0] * length, [2 ** 32 - 1] * length]
    addresses += [[special[i] if i < len(special) else int(w) for i, w in enumerate(row)]
                  for row in rng.integers(0, 2 ** 32, size=(20, length))]
    addresses += [rng.permutation(row).tolist() for row in addresses[2:8]]
    for address in addresses:
        words = stream_words(*address)
        assert words.shape == (3,) and words.dtype == np.uint64
        assert np.array_equal(words, _numpy_words(*address)), address
        assert np.array_equal(stream_generator(words).random(4),
                              _numpy_generator(*address).random(4)), address
    # the same addresses as one block, one array entry per word
    block = np.array(addresses)
    assert np.array_equal(stream_words(*block.T),
                          np.array([_numpy_words(*a) for a in addresses]))


@pytest.mark.parametrize("seed, index", [(0, 0), (2 ** 32 - 1, 2 ** 32 - 1), (2 ** 40 + 3, 7),
                                         (5, 2 ** 40 + 9), (2 ** 64 - 1, 2 ** 63 + 1)])
def test_a_block_hashes_each_address_as_the_seed_sequence_does(seed, index):
    # two-word seeds and indices are scalar entries; the array entries are
    # one word each, and broadcast into a (4, 6) block
    replicates = np.array([0, 1, 2 ** 31, 2 ** 32 - 1])[:, None]
    rows = np.arange(6)
    words = stream_words(seed, index, replicates, 1, rows)
    assert words.shape == (4, 6, 3)
    for r, replicate in enumerate(replicates[:, 0].tolist()):
        for j in rows.tolist():
            assert np.array_equal(words[r, j], _numpy_words(seed, index, replicate, 1, j))
    assert np.array_equal(stream_words(seed, np.arange(3), 0),
                          np.array([_numpy_words(seed, i, 0) for i in range(3)]))
    assert stream_words(seed, np.arange(0), 0).shape == (0, 3)


def test_stream_key_generator_is_numpys_stream():
    for seed, index, lanes in ((0, 0, ()), (1, 2, (0,)), (2 ** 40, 2 ** 33, (1, 5)),
                               (7, 8, (2 ** 32 + 1, 0, 3, 4))):
        key = StreamKey(seed, index)
        assert np.array_equal(key.generator(*lanes).random(6),
                              np.random.Generator(np.random.SFC64(key.seed_sequence(*lanes)))
                              .random(6))


@pytest.mark.parametrize("lane", [1.5, True, False, -1, 2 ** 64, "1", None, np.float64(1.0)])
def test_a_lane_that_is_no_64_bit_integer_is_refused(lane):
    # 1.5 and True used to give lane 1, and -1 an OverflowError, which the
    # method table would have counted as a method failure
    for key in (StreamKey(1, 2), StreamKey(2 ** 40, 0)):
        for make in (key.generator, key.seed_sequence,
                     lambda lane: stream_words(key.seed, key.stream_index, lane)):
            with pytest.raises(ValueError, match="address entry must .*integer"):
                make(lane)


@pytest.mark.parametrize("column", [np.array([0, 2 ** 32]), np.array([-1, 3]),
                                    np.array([2 ** 63], dtype=np.uint64),
                                    np.array([0.0, 1.0]), np.array([True, False]),
                                    np.array([2 ** 70, 1], dtype=object)])
def test_an_array_entry_is_one_32_bit_word_or_refused(column):
    # an index of 2**32 needs a second word: cast into uint32 it would wrap
    # onto index 0, another replicate's stream
    with pytest.raises(ValueError, match="address column"):
        stream_words(1, column, 0)


def _address(seed, index):
    """The 32-bit words of (seed, index, 0), as ``StreamKey`` splits them."""
    return [*(seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)),
            index, 0]


def _numpy_rows(seed, index, rows, width):
    """``rows`` rows of ``width`` standard normals, row-major, from the stream
    (seed, index, 0) by numpy's own seed sequence and SFC64 path."""
    return _numpy_generator(*_address(seed, index)).standard_normal((rows, width))


def _assert_means_are_of(groups, row, cell, z):
    """Row ``row`` of ``groups`` holds the group means of the draws ``z``."""
    start = 0
    for i, (sigma2, n) in enumerate(zip(cell.sigma2s, cell.ns)):
        values = cell.mu - 0.5 * sigma2 + math.sqrt(sigma2) * z[start:start + n]
        start += n
        assert groups.means[row, i] == np.add.reduce(values) / n


def test_draw_block_rows_are_the_replicates_own_streams():
    # ns = (5000, 5000) gives data blocks of B = 2**21 // 10000 = 209 rows:
    # replicates 0-208 and 209-299 of the cell.  Replicates 17-21 start and
    # end inside block 0, and 200-219 span blocks 0 and 1; each is its row
    # of its block, drawn from lane 0 of the block's first replicate
    from lnmean.simulate import SimulationCell, draw_block

    for seed, cell_index in ((3, 2), (2 ** 40 + 11, 1), (2 ** 64 - 1, 0)):
        cell = SimulationCell(mu=0.5, sigma2s=(1.0, 2.5), ns=(5000, 5000), outer_reps=300,
                              seed=seed, cell_index=cell_index, methods=("ahmed",))
        base = cell_index * cell.outer_reps
        data = np.concatenate([_numpy_rows(seed, base, 209, 10000),
                               _numpy_rows(seed, base + 209, 91, 10000)])
        for first, count in ((17, 5), (200, 20)):
            groups, valid = draw_block(cell, first, count)
            assert valid.all()
            for row in range(count):
                _assert_means_are_of(groups, row, cell, data[first + row])


def test_a_cell_past_the_draw_bound_draws_each_replicates_own_stream():
    # sum(ns) > 2**21 leaves one replicate per data block, so every
    # replicate's data are lane 0 of its own stream index
    from lnmean.simulate import SimulationCell, draw_block

    seed, cell_index = 2 ** 40 + 11, 3
    cell = SimulationCell(mu=-1.0, sigma2s=(0.5, 4.0), ns=(2 ** 20, 2 ** 20 + 1),
                          outer_reps=100, seed=seed, cell_index=cell_index, methods=("ahmed",))
    groups, valid = draw_block(cell, 41, 2)
    assert valid.all()
    for row in range(2):
        index = cell_index * cell.outer_reps + 41 + row
        _assert_means_are_of(groups, row, cell, _numpy_rows(seed, index, 1, sum(cell.ns))[0])


def test_simulation_pivot_rows_are_lane_1_of_each_replicate(monkeypatch):
    # a piece of replicates hashes every replicate's 3k pivot rows at once
    # and hands each replicate's SharedWork its (3k, 3) rows
    from lnmean import simulate

    seen = []

    class Recorded(simulate.SharedWork):
        def __init__(self, ds, reps, key, *lanes, kinds, words):
            seen.append((key, lanes, words))
            super().__init__(ds, reps, key, *lanes, kinds=kinds, words=words)

    monkeypatch.setattr(simulate, "SharedWork", Recorded)
    seed = 2 ** 33 + 5
    cell = simulate.SimulationCell(mu=0.0, sigma2s=(1.0, 2.5, 0.5), ns=(5, 10, 4),
                                   outer_reps=100, inner_reps=1000, seed=seed, cell_index=3,
                                   methods=("gv-umvue",))
    simulate._run_pieces((cell,), [(0, 40, 6)])
    assert [key for key, _, _ in seen] == [StreamKey(seed, 340 + r) for r in range(6)]
    for key, lanes, words in seen:
        assert lanes == (1,) and words.shape == (9, 3)
        assert np.array_equal(words, [_numpy_words(seed, key.stream_index, 1, j)
                                      for j in range(9)])


@pytest.mark.parametrize("words", [np.zeros(2, dtype=np.uint64), np.zeros((2, 3), dtype=np.uint64),
                                   np.zeros(4, dtype=np.uint64)])
def test_a_generator_takes_exactly_three_starting_words(words):
    with pytest.raises(ValueError, match="starting words"):
        stream_generator(words)
    # a row that is not contiguous is copied, not read past
    rows = stream_words(1, np.arange(4), 0)
    assert np.array_equal(stream_generator(rows.T.copy().T[2]).random(3),
                          stream_generator(rows[2]).random(3))
