"""Reproducible, substreamed random variate generation.

Each stream is an SFC64 generator keyed through a seed sequence, which
hashes the stream's address (seed, stream_index, lanes...) into the
generator's starting state.  The same address always reproduces the
identical sequence, and distinct addresses give statistically independent
streams, except where the seed sequence reads two addresses as one.  It
hashes the 32-bit words of the address after zero-padding them to its
4-word pool, so:

* trailing zero lanes alias the shorter address: ``StreamKey(s, i).generator()``
  and ``StreamKey(s, i).generator(0)`` are the same stream;
* an integer of 2**32 or more spans several words: ``StreamKey(s, 2**32)``
  is ``StreamKey(s, 0).generator(1)``.

The addresses of one run do not meet.  A Monte Carlo draw set gives each
of its draw rows a substream of its own, one lane past the set's address
(see ``generalized.PivotDraws``): row j is ``key.generator(*lanes, j)``.

* The command line's rows are ``StreamKey(seed).generator(j)``.  Row 0 is
  the same stream as ``StreamKey(seed).generator()``, which nothing reads.
* Simulation replicate r of cell c has stream index i = c * outer_reps + r.
  Lane 0 draws the data, and the pivot rows are ``generator(1, j)``; row 0
  can be the same stream as lane 1 alone, which nothing reads.  ``SimulationCell`` refuses a
  cell whose last index is 2**32 or more.
* A row number j < 3k is one 32-bit word, so no row address spans into
  another's.

Each row is one sequential stream, so the pivots do not depend on how many
draws are taken at a time.  Parallel work is split by stream index instead
of sharing one mutable generator, which makes results independent of worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_U64_MAX = 2 ** 64


@dataclass(frozen=True)
class StreamKey:
    """Address of one random substream."""

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_index"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer")
            if not 0 <= value < _U64_MAX:
                raise ValueError(f"{name} must fit in an unsigned 64-bit integer")

    def seed_sequence(self, *lanes: int) -> np.random.SeedSequence:
        return np.random.SeedSequence((self.seed, self.stream_index, *lanes))

    def generator(self, *lanes: int) -> np.random.Generator:
        """Fresh generator for this stream, optionally on a numbered sub-lane."""
        return np.random.Generator(np.random.SFC64(self.seed_sequence(*lanes)))


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
    df_arr = np.asarray(df)
    if df_arr.size == 0:
        raise ValueError("df must be nonempty")
    # one combined check: each np.any costs more than a small draw
    if not ((df_arr >= 1) & (df_arr == np.floor(df_arr)) & np.isfinite(df_arr)).all():
        raise ValueError("df must be a finite integer >= 1")
    gamma = rng.standard_gamma(df_arr / 2.0, size, out=out)
    if out is None:
        return 2.0 * gamma
    out *= 2.0
    return out
