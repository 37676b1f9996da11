"""Reproducible, substreamed random variate generation.

Each stream is an SFC64 generator keyed through numpy's ``SeedSequence``,
which hashes the stream's address (seed, stream_index, lanes...) into the
generator's three starting words.  The same address always reproduces the
identical sequence, and distinct addresses give statistically independent
streams, except where the seed sequence reads two addresses as one.  It
hashes the 32-bit words of the address after zero-padding them to its
4-word pool, so:

* trailing zero lanes alias the shorter address: ``StreamKey(s, i).generator()``
  and ``StreamKey(s, i).generator(0)`` are the same stream;
* an integer of 2**32 or more spans several words: ``StreamKey(s, 2**32)``
  is ``StreamKey(s, 0).generator(1)``.

``stream_words`` is that hash written over uint32 arrays: it turns a whole
block of addresses into their starting words in one numpy pass, the words
``SeedSequence(address).generate_state(3, np.uint64)`` gives address by
address, and ``stream_generator`` builds the generator of one address from
them, numpy's own SFC64 doing the warm-up.  Every generator of the package
is built this way, and none has its state written after.

The hash costs ~40-90 us per block plus ~0.05-0.1 us per address in blocks
of 400-1024, and a generator ~1.7-2 us from its words, where
``SFC64(SeedSequence(address))`` costs ~11.5 us (2 shared vCPUs, numpy
2.4.6).  ``StreamKey.generator`` is a block of one (~40-55 us), and
``StreamKey.seed_sequence`` is numpy's own seed sequence of the address,
the reference the tests compare the hash with.

The addresses of one run do not meet.  A Monte Carlo draw set gives each
of its draw rows a substream of its own, one lane past the set's address
(see ``generalized.PivotDraws``): row j is ``key.generator(*lanes, j)``.

* The command line's rows are ``StreamKey(seed).generator(j)``, hashed as
  one block.  Row 0 is the same stream as ``StreamKey(seed).generator()``,
  which nothing reads.
* Simulation replicate r of cell c has stream index i = c * outer_reps + r.
  Its pivot rows are ``generator(1, j)``; row 0 can be the same stream as
  lane 1 alone, which nothing reads.  Its data are a row of the data block
  of up to B replicates it falls in (see ``simulate.draw_stack``), drawn
  from lane 0 of the block's first replicate, so a replicate that heads no
  block reads nothing of its own lane 0.  A stack of replicates hashes its
  block heads at once, and a piece of them hashes its pivot rows at once.
  ``SimulationCell`` refuses a cell whose last index is 2**32 or more.
* A row number j < 3k is one 32-bit word, so no row address spans into
  another's.

Each row is one sequential stream, so the pivots do not depend on how many
draws are taken at a time.  Parallel work is split by stream index instead
of sharing one mutable generator, which makes results independent of worker
count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

_U64_MAX = 2 ** 64
_WORD = 2 ** 32
_MASK = _WORD - 1

# SeedSequence's hash constants.  They are Python ints masked to 32 bits
# here, and uint32 arrays below, so that only array arithmetic wraps modulo
# 2**32, silently (numpy scalar arithmetic would warn).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L = np.array(0xCA01F9DD, dtype=np.uint32)
_MIX_MULT_R = np.array(0x4973F715, dtype=np.uint32)
_XSHIFT = np.array(16, dtype=np.uint32)
_POOL = 4


def _check_word_source(value, name: str = "address entry") -> int:
    """``value`` as an int if it is an integer in [0, 2**64), bool excluded; else ValueError."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if not 0 <= value < _U64_MAX:
        raise ValueError(f"{name} must fit in an unsigned 64-bit integer, not {value!r}")
    return int(value)


def _split_words(value: int) -> list[int]:
    """The 32-bit words a seed sequence splits a non-negative int into, low word first."""
    words = [value & _MASK]
    while value >= _WORD:
        value >>= 32
        words.append(value & _MASK)
    return words


def _address_words(address) -> np.ndarray:
    """The 32-bit words a seed sequence reads from the integers of ``address``.

    Each integer is one word, or several, low word first, from 2**32 on:
    the words that ``SeedSequence`` splits a tuple of Python ints into, as
    one uint32 array, which it hashes without converting word by word.
    """
    return np.array([word for value in address
                     for word in _split_words(_check_word_source(value))], dtype=np.uint32)


def _column_words(value) -> list:
    """The word columns of one address entry: a scalar's words (Python ints),
    or an integer array as one column of 32-bit words."""
    if isinstance(value, (int, np.integer)) or np.ndim(value) == 0:
        return _split_words(_check_word_source(value))
    column = np.asarray(value)
    if column.dtype.kind not in "iu":
        raise ValueError(f"an address column must hold integers, not {column.dtype}")
    if column.size and not (column.min() >= 0 and column.max() < _WORD):
        raise ValueError("an address column is one 32-bit word per address: its entries "
                         f"must be in [0, 2**32), not {column.min()}..{column.max()}")
    return [column.astype(np.uint32)]


def _key_columns(init: int, mult: int, first: int, count: int, rows=None):
    """The constants of hash steps t = ``first`` .. ``first + count - 1``, which xor
    with init * mult**t and multiply by init * mult**(t + 1) (mod 2**32).

    They are read-only (count, 1) uint32 columns, or (4, 1) with the steps in
    pool ``rows`` and zeros elsewhere.
    """
    powers = [init * pow(mult, t, _WORD) & _MASK for t in range(first, first + count + 1)]
    height, rows = (count, list(range(count))) if rows is None else (_POOL, rows)
    xor, times = (np.zeros((height, 1), dtype=np.uint32) for _ in range(2))
    xor[rows, 0], times[rows, 0] = powers[:-1], powers[1:]
    xor.flags.writeable = times.flags.writeable = False
    return xor, times


# the seed sequence's steps: it hashes the first 4 entropy words into the
# pool (hashmix steps 0-3), then each pool word s into the other three
# (steps 4 + 3s ..), then each later entropy word w into all four (steps
# 4w ..); its output hashes pool words 0, 1, 2, 3, 0, 1 with constants of
# their own.  The constant of a step is the same whatever the data.
_FILL_KEYS = _key_columns(_INIT_A, _MULT_A, 0, _POOL)
_MIX_KEYS = [_key_columns(_INIT_A, _MULT_A, _POOL + 3 * s, 3,
                          rows=[d for d in range(_POOL) if d != s]) for s in range(_POOL)]
_OUT_KEYS = _key_columns(_INIT_B, _MULT_B, 0, 6)
_OUT_CYCLE = np.arange(6) % _POOL


@functools.cache
def _extra_keys(word: int) -> tuple[np.ndarray, np.ndarray]:
    """The constants that mix entropy word ``word`` >= 4 into the pool."""
    return _key_columns(_INIT_A, _MULT_A, 4 * word, _POOL)


def _hashmix(values: np.ndarray, xor: np.ndarray, times: np.ndarray) -> np.ndarray:
    """One hash step of ``values`` per row of ``xor`` and ``times``."""
    hashed = values ^ xor
    hashed *= times
    hashed ^= hashed >> _XSHIFT
    return hashed


def _mix_into(pool: np.ndarray, hashed: np.ndarray) -> None:
    """pool = mix(pool, hashed), in place, row by row."""
    hashed *= _MIX_MULT_R
    pool *= _MIX_MULT_L
    pool -= hashed
    pool ^= pool >> _XSHIFT


def stream_words(*address) -> np.ndarray:
    """SFC64 starting words of a block of stream addresses, shape (*block, 3), uint64.

    Each entry of ``address`` is an integer, the same for every address of
    the block, or an integer array, whose entries, broadcast together, index
    the block.  The words of address b are those of
    ``SeedSequence(words).generate_state(3, np.uint64)``, where ``words`` are
    the address's 32-bit words: a scalar entry's, low word first (several
    from 2**32 on), and one word of each array entry.  Every address of the
    block thus has the same word layout, and an array entry that would need
    a second word, or is negative, is refused, as is a scalar that is not
    an integer in [0, 2**64).

    It is the seed sequence's own algorithm over uint32 arrays, with the
    block on the last axis, so each step is one array operation: the
    entropy is hashed into a 4-word pool (zero words past the address), each
    pool word is mixed into the other three (its three hashes at once),
    words past the fourth are mixed into all four, and the pool is hashed
    into six 32-bit output words, read in pairs, low word first.
    """
    columns = [word for entry in address for word in _column_words(entry)]
    block = np.broadcast_shapes(*(np.shape(word) for word in columns))
    entropy = np.zeros((max(len(columns), _POOL), *block), dtype=np.uint32)
    for i, word in enumerate(columns):
        entropy[i] = word
    entropy = entropy.reshape(len(entropy), -1)
    pool = _hashmix(entropy[:_POOL], *_FILL_KEYS)
    for source, keys in enumerate(_MIX_KEYS):
        kept = pool[source].copy()
        _mix_into(pool, _hashmix(kept, *keys))
        pool[source] = kept
    for word in range(_POOL, len(entropy)):
        _mix_into(pool, _hashmix(entropy[word], *_extra_keys(word)))
    state = _hashmix(pool.take(_OUT_CYCLE, axis=0), *_OUT_KEYS)
    words = np.empty((state.shape[1], 3), dtype=np.uint64)
    words[...] = state[1::2].T
    words <<= 32
    words |= state[0::2].T
    return words.reshape(*block, 3)


class _StartWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence already hashed: SFC64 asks it for its three uint64
    starting words and gets one address's row of ``stream_words``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        # SFC64 reads the words through a raw pointer: hand it exactly what it asked for
        words = np.ascontiguousarray(self.words, dtype=np.uint64)
        if np.dtype(dtype) != np.uint64 or words.shape != (n_words,):
            raise ValueError(f"a stream's starting words are {n_words} of {np.dtype(dtype)}, "
                             f"not {words.shape}")
        return words


def stream_generator(words: np.ndarray) -> np.random.Generator:
    """The generator of the stream whose ``stream_words`` are ``words``, one (3,) row."""
    return np.random.Generator(np.random.SFC64(_StartWords(words)))


@dataclass(frozen=True)
class StreamKey:
    """Address of one random substream."""

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_index"):
            _check_word_source(getattr(self, name), name)

    def seed_sequence(self, *lanes: int) -> np.random.SeedSequence:
        """numpy's seed sequence of this stream's address: what ``generator`` hashes."""
        return np.random.SeedSequence(_address_words((self.seed, self.stream_index, *lanes)))

    def generator(self, *lanes: int) -> np.random.Generator:
        """Fresh generator for this stream, optionally on a numbered sub-lane."""
        return stream_generator(stream_words(self.seed, self.stream_index, *lanes))


def std_normal(rng: np.random.Generator, size=None, out=None):
    """Standard normal draws from ``rng``, written into ``out`` when it is given."""
    return rng.standard_normal(size, out=out)


def chi_square(df, rng: np.random.Generator, size=None, out=None):
    """Chi-square draws with finite integer degrees of freedom >= 1.

    ``df`` may be a scalar or an array that broadcasts against ``size`` (one
    degrees-of-freedom per column, say).  Given ``out``, the draws fill it in
    place and it is returned.  Draws are strictly positive, which downstream
    code relies on since they appear in denominators.

    A draw is twice a standard gamma of shape df / 2: numpy's own chisquare
    arithmetic, so the numbers are those of ``rng.chisquare(df, size)``, in
    the order it draws them.
    """
    if type(df) is int:  # what sample_pivots passes: one comparison, not an array check
        if df < 1:
            raise ValueError("df must be a finite integer >= 1")
    else:
        df = np.asarray(df)
        if df.size == 0:
            raise ValueError("df must be nonempty")
        # one combined check: each np.any costs more than a small draw
        if not ((df >= 1) & (df == np.floor(df)) & np.isfinite(df)).all():
            raise ValueError("df must be a finite integer >= 1")
    gamma = rng.standard_gamma(df / 2.0, size, out=out)
    if out is None:
        return 2.0 * gamma
    out *= 2.0
    return out
