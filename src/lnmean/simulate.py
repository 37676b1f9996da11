"""Replicated study harness: rejection rates and coverage over a grid.

Each replicate draws log-scale data from N(mu - sigma_i^2 / 2, sigma_i^2) for
each of the cell's groups, then every requested method tests phi = phi0
(two-sided, at ``alpha``) and/or builds a level 1 - alpha interval, which
covers when its log-scale bounds hold the true mu.  A cell's replicates
draw their data in blocks of up to ``STREAM_ROWS`` (fewer where a block
would pass ``STREAM_DRAWS`` values), each block one substream, lane 0 of
its first replicate's index (seed, c * outer_reps + r), one row per
replicate; replicate r's pivot rows are lane 1 of its own index.  Results
are thus reproducible and independent of how replicates are scheduled
across workers.

A grid runs in pieces, stacks and passes.  A piece is a run of replicates
of one cell.  A stack is a run of pieces of cells that share their seed,
group sizes, methods, phi0 and alpha, so it may span cells.  A stack draws
the data of all of its replicates at once: one hash of the addresses of
the data blocks it touches and one generator per block.
A pass is a run of stacks that share their group count, methods, phi0 and
alpha, so it may span group sizes and seeds, and it keeps only their group
summaries.  The classical methods decide all of a pass's replicates in one
pass over arrays, one ML fit for them all, each replicate with its own group
sizes and against its own cell's mu.  They read decisions, not p-values or
log bounds: each test against the critical value of alpha and each interval
against mu, with an exact band about both (see ``classical``).  The
generalized methods run replicate by replicate, piece by piece.  Above one
worker, one process pool serves the whole grid.

Grid configs are flat TOML or JSON files with arrays ``mu``, ``sigma2_2`` and
``n_pairs``, scalars ``sigma2_1``, ``alpha``, ``outer_reps``, ``inner_reps``,
``seed`` and optionally ``phi0``, plus the ``methods`` list; cells are the
cross product mu x sigma2_2 x n_pairs.  A ``sigma2_2`` entry is the variance
of group 2, or a list of the variances of groups 2..k; an ``n_pairs`` entry
lists the k group sizes.
"""

from __future__ import annotations

import csv
import functools
import importlib.resources
import itertools
import json
import math
import numbers
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classical import GroupBlock
from .generalized import TestSpec, require_draws
from .methods import METHOD_ORDER, METHODS, BlockWork, SharedWork, pivot_kinds, select
from .model import LOGNORMAL_MEAN, Dataset, SampleSummary
from .outcomes import log_phi0
from .samplers import StreamKey, std_normal, stream_generator, stream_words

CSV_COLUMNS = ("mu", "phi0", "alpha", "sigma2s", "ns", "method", "metric",
               "estimate", "std_error", "failures")
# replicates in a piece, a stack and a pass, fewer in a piece or a stack where
# their draws would pass BLOCK_DRAWS values; none changes a number, they bound
# the arrays
REPLICATE_BLOCK = 1024
BLOCK_DRAWS = 2 ** 21
# replicates per data stream, fewer where a stream's draws would pass
# STREAM_DRAWS values: constants of the stream layout, which every number
# depends on, so they are not REPLICATE_BLOCK or BLOCK_DRAWS
STREAM_ROWS = 1024
STREAM_DRAWS = 2 ** 21
# contiguous runs of pieces that a pool of workers splits a grid into, per worker
RANGES_PER_WORKER = 4


class ConfigError(ValueError):
    """Malformed simulation grid configuration."""


@dataclass(frozen=True, slots=True)
class SimulationCell:
    """One (mu, variances, sizes, methods) configuration of the study."""

    mu: float
    sigma2s: tuple[float, ...]
    ns: tuple[int, ...]
    phi0: float = 1.0
    alpha: float = 0.05
    outer_reps: int = 2000
    inner_reps: int = 5000
    methods: tuple[str, ...] = METHOD_ORDER
    seed: int = 0
    cell_index: int = 0

    def __post_init__(self):
        sigma2s = tuple(_real("sigma2s entry", v) for v in self.sigma2s)
        ns = tuple(_whole("ns entry", n) for n in self.ns)
        for name in ("mu", "phi0", "alpha"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        for name in ("outer_reps", "inner_reps", "seed", "cell_index"):
            _whole(name, getattr(self, name))
        if len(sigma2s) != len(ns):
            raise ValueError("sigma2s and ns must be the same length")
        if not ns:
            raise ValueError("a simulation cell needs at least one group")
        entries = select(self.methods, LOGNORMAL_MEAN)
        # the tuples given are kept where they are already these, so that the
        # cells of one grid share them
        for name, canonical in (("sigma2s", sigma2s), ("ns", ns),
                                ("methods", tuple(entry.name for entry in entries))):
            if not _same(getattr(self, name), canonical):
                object.__setattr__(self, name, canonical)
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not all(math.isfinite(v) and v > 0 for v in sigma2s):
            raise ValueError("group variances must be finite and positive")
        if any(n < 2 for n in ns):
            raise ValueError("group sizes must be at least 2")
        log_phi0(self.phi0)
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.outer_reps < 100:
            raise ValueError("outer_reps must be at least 100")
        if self.inner_reps < 1000:
            raise ValueError("inner_reps must be at least 1000")
        # the seed and the replicates' stream indices are refused here, not in run_cell;
        # an index of 2**32 or more would alias another replicate's lane (see samplers)
        StreamKey(self.seed)
        first = self.cell_index * self.outer_reps
        last = first + self.outer_reps - 1
        if not (0 <= first and last < 2 ** 32):
            raise ValueError(f"replicate stream indices {first}..{last} (cell_index * "
                             "outer_reps onward) must fit in an unsigned 32-bit integer")
        if pivot_kinds(entries):
            require_draws(self.inner_reps, 1.0 - self.alpha)


def _same(given, canonical: tuple) -> bool:
    """Whether ``given`` is a tuple of the items of ``canonical``, type for type."""
    return (type(given) is tuple and len(given) == len(canonical)
            and all(type(a) is type(b) and a == b for a, b in zip(given, canonical)))


def _whole(name: str, value, error=ValueError) -> int:
    """``value`` as an int; any other type, bool included, is an ``error`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, not {value!r}")
    return int(value)


def _real(name: str, value, error=ValueError) -> float:
    """``value`` as a float; any other type, bool included, is an ``error`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a number, not {value!r}")
    return float(value)


@dataclass(frozen=True)
class RateEstimate:
    """A binomial rate over the outer replicates, with failures broken out."""

    estimate: float
    std_error: float
    failures: int
    reps: int


@dataclass(frozen=True, slots=True)
class SimulationResult:
    """The counts of one cell: per method of ``cell.methods``, (rejected, test
    failed, covered, interval failed) over its ``outer_reps`` replicates, 4
    counts per method, method by method.

    ``packed`` holds them as bytes, each count in the narrowest unsigned
    integer type that holds ``outer_reps`` (one byte up to 255 replicates),
    so a grid run keeps about a hundred bytes a cell.  ``counts`` reads them
    as a flat tuple of ints, and ``rejection`` and ``coverage`` as rates,
    each time they are asked for.
    """

    cell: SimulationCell
    packed: bytes

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(np.frombuffer(self.packed, np.min_scalar_type(self.cell.outer_reps))
                     .tolist())

    def _rates(self, procedure: str, slot: int) -> dict[str, RateEstimate]:
        counts = self.counts
        return {name: _rate(counts[4 * m + slot], counts[4 * m + slot + 1],
                            self.cell.outer_reps)
                for m, name in enumerate(self.cell.methods)
                if getattr(METHODS[name], procedure) is not None}

    @property
    def rejection(self) -> dict[str, RateEstimate]:
        return self._rates("test", 0)

    @property
    def coverage(self) -> dict[str, RateEstimate]:
        return self._rates("interval", 2)


def _rate(successes: int, failures: int, reps: int) -> RateEstimate:
    p = successes / reps
    return RateEstimate(estimate=p, std_error=math.sqrt(p * (1.0 - p) / reps),
                        failures=failures, reps=reps)


def draw_block(cell: SimulationCell, first: int, count: int) -> tuple[GroupBlock, np.ndarray]:
    """The data of replicates ``first`` .. ``first + count - 1`` of ``cell``, their
    rows of the cell's data blocks: a stack of that one piece (see
    ``draw_stack``)."""
    return draw_stack((cell,), [(0, first, count)])


def draw_stack(cells, stack) -> tuple[GroupBlock, np.ndarray]:
    """The data of the replicates of ``stack``, pieces (cell position, first
    replicate, replicates) of ``cells`` that share their seed and group sizes,
    one lane per replicate in stack order: their group summaries, and which of
    them ``SampleSummary`` takes.

    Replicate r of a cell is row r - b * B of its cell's data block
    b = r // B, B = ``_stream_rows(ns)``: block b is filled row-major, sum(ns)
    standard normals a row, from lane 0 of the substream of its first
    replicate, and a row is split by group in order.  The stack's block
    heads are hashed in one ``stream_words`` call, and each block it touches
    takes one generator; a piece that starts inside a block draws the
    block's rows before it and drops them, fewer than B rows, so at most
    ``STREAM_DRAWS`` values.  A group's data are
    (mu - sigma2 / 2) + sqrt(sigma2) * z, with the two terms taken per lane
    from the lane's cell, and its mean and variance are numpy's sums along
    the row, the same pairwise sums as of the row alone.  A draw past the
    float range gives a non-finite summary, and its replicate is refused
    here, not warned about.
    """
    drawn = [cells[position] for position, _, _ in stack]
    seed, ns = drawn[0].seed, drawn[0].ns
    if any(cell.seed != seed or cell.ns != ns for cell in drawn):
        raise ValueError("a stack's cells must share their seed and group sizes")
    sizes = [count for _, _, count in stack]
    width, block = sum(ns), _stream_rows(ns)
    # (first stream index of the block, rows dropped before the piece, rows kept)
    spans = [(cell.cell_index * cell.outer_reps + head, max(first - head, 0),
              min(head + block, first + count) - max(head, first))
             for cell, (_, first, count) in zip(drawn, stack)
             for head in range(first - first % block, first + count, block)]
    words = stream_words(seed, np.array([index for index, _, _ in spans]), 0)
    z = np.empty((sum(sizes), width))
    lane = 0
    for row_words, (_, dropped, kept) in zip(words, spans):
        rng = stream_generator(row_words)
        if dropped:
            std_normal(rng, (dropped, width))
        std_normal(rng, out=z[lane:lane + kept])
        lane += kept
    sigma2 = np.repeat([cell.sigma2s for cell in drawn], sizes, axis=0)
    shift = np.repeat([cell.mu for cell in drawn], sizes)[:, None] - 0.5 * sigma2
    scale = np.sqrt(sigma2)
    means, variances = np.empty((len(z), len(ns))), np.empty((len(z), len(ns)))
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for i, n in enumerate(ns):
            # in place: the draws become the data, then the squared deviations
            values = z[:, start:start + n]
            start += n
            values *= scale[:, i, None]
            values += shift[:, i, None]
            means[:, i] = np.add.reduce(values, axis=1) / n
            values -= means[:, i, None]
            values *= values
            variances[:, i] = np.add.reduce(values, axis=1) / (n - 1)
    valid = (np.isfinite(means) & np.isfinite(variances) & (variances > 0.0)).all(axis=1)
    return GroupBlock(ns, means, variances), valid


def _pass_key(cell: SimulationCell) -> tuple:
    """What the classical methods read of a cell besides its replicates' group
    summaries and sizes and its mu: the stacks of cells that agree on it are
    decided in one pass."""
    return len(cell.ns), cell.methods, cell.phi0, cell.alpha


def _stack_key(cell: SimulationCell) -> tuple:
    """What a stack's draw and classical methods read of a cell besides its
    replicates' stream indices, its mu and its variances: cells that agree on
    it are drawn in one stack."""
    return cell.seed, cell.ns, cell.methods, cell.phi0, cell.alpha


def _stream_rows(ns) -> int:
    """Replicates per data stream of a cell of group sizes ``ns``: ``STREAM_ROWS``,
    fewer where their draws would pass ``STREAM_DRAWS`` values, and at least one."""
    return max(1, min(STREAM_ROWS, STREAM_DRAWS // sum(ns)))


def _stack_lanes(ns) -> int:
    """Replicates in a piece or a stack of group sizes ``ns``: ``REPLICATE_BLOCK``,
    fewer where their draws would pass ``BLOCK_DRAWS`` values, and at least one."""
    return max(1, min(REPLICATE_BLOCK, BLOCK_DRAWS // sum(ns)))


def _runs(cells, count: int) -> list[list[tuple[int, int, int]]]:
    """The replicates of ``cells`` as up to ``count`` contiguous runs of pieces
    (cell position, first replicate, replicates).

    The cells that share a ``_stack_key`` are taken together, in grid order,
    and so are the stacks that share a ``_pass_key``, so their pieces are
    neighbours.  A piece holds at most ``_stack_lanes`` replicates of one cell
    and ends where its run or its cell's data block does, so only the first
    piece of a run can start inside a data block; the runs are of near-equal
    replicate counts.
    """
    grouped: dict[tuple, dict[tuple, list[int]]] = {}
    for position, cell in enumerate(cells):
        grouped.setdefault(_pass_key(cell), {}).setdefault(_stack_key(cell), []).append(position)
    total = sum(cell.outer_reps for cell in cells)
    ends = iter(sorted({total * i // count for i in range(1, count + 1)} - {0}))
    runs, run, done, end = [], [], 0, next(ends, total)
    for position in (position for stacks in grouped.values() for group in stacks.values()
                     for position in group):
        cell = cells[position]
        rows, block = _stack_lanes(cell.ns), _stream_rows(cell.ns)
        first = 0
        while first < cell.outer_reps:
            size = min(rows, block - first % block, cell.outer_reps - first, end - done)
            run.append((position, first, size))
            first, done = first + size, done + size
            if done == end:
                runs.append(run)
                run, end = [], next(ends, total)
    return runs


def _stacks(cells, pieces):
    """Consecutive ``pieces`` of cells that share a ``_stack_key``, in stacks
    of at most ``_stack_lanes`` replicates."""
    for key, group in itertools.groupby(pieces, key=lambda piece: _stack_key(cells[piece[0]])):
        limit = _stack_lanes(key[1])  # the key's group sizes
        stack, lanes = [], 0
        for piece in group:
            if stack and lanes + piece[2] > limit:
                yield stack
                stack, lanes = [], 0
            stack.append(piece)
            lanes += piece[2]
        yield stack


def _run_pieces(cells, pieces) -> list[np.ndarray]:
    """Per-method (rejected, test failed, covered, interval failed) counts of
    each of ``pieces``, a (methods, 4) int array each.

    The pieces form stacks (see ``_stacks``), and consecutive stacks of cells
    that share a ``_pass_key`` form passes of at most ``REPLICATE_BLOCK``
    replicates; no number depends on how they stack or pass.
    """
    counts = []
    for _, group in itertools.groupby(pieces, key=lambda piece: _pass_key(cells[piece[0]])):
        stacks, lanes = [], 0
        for stack in _stacks(cells, group):
            size = sum(count for _, _, count in stack)
            if stacks and lanes + size > REPLICATE_BLOCK:
                counts += _run_pass(cells, stacks)
                stacks, lanes = [], 0
            stacks.append(stack)
            lanes += size
        counts += _run_pass(cells, stacks)
    return counts


def _run_pass(cells, stacks) -> list[np.ndarray]:
    """``_run_pieces`` of the pieces of ``stacks``, one pass.

    Each stack draws its data in one ``draw_stack``, and the pass keeps only
    their group summaries.  A refused data draw fails every procedure of its
    replicate.  The classical methods decide every other replicate of the
    pass at once, each with its own group sizes and against its own cell's
    mu; the generalized ones run piece by piece (see ``_run_generalized``).
    """
    pieces = [piece for stack in stacks for piece in stack]
    cell = cells[pieces[0][0]]
    entries = [METHODS[name] for name in cell.methods]
    spec = TestSpec(log_phi0(cell.phi0))
    drawn = [draw_stack(cells, stack) for stack in stacks]
    means, variances, valid = (np.concatenate(parts) for parts in zip(
        *((groups.means, groups.variances, stack_valid) for groups, stack_valid in drawn)))
    sizes = np.array([count for _, _, count in pieces])
    starts = np.cumsum(sizes) - sizes
    counts = np.zeros((len(pieces), len(entries), 4), dtype=np.int64)
    counts[:, :, 1] = counts[:, :, 3] = (sizes - np.add.reduceat(valid, starts))[:, None]
    kept = np.flatnonzero(valid)
    if kept.size:
        ns = cell.ns
        if any(cells[position].ns != ns for position, _, _ in pieces):  # each replicate's own
            ns = np.repeat([cells[position].ns for position, _, _ in pieces], sizes, axis=0)[kept]
        work = BlockWork(GroupBlock(ns, means[kept], variances[kept]))
        mu = np.repeat([cells[position].mu for position, _, _ in pieces], sizes)[kept]
        # the kept lanes before each piece and in all, where the running flag
        # counts of the pass are read off
        edges = np.searchsorted(kept, np.append(starts, len(valid)))
        running = np.zeros((4, kept.size + 1), dtype=np.int64)
        for m, entry in enumerate(entries):
            if entry.pivot is None:
                np.cumsum(entry.decide_block(work, spec, cell.phi0, cell.alpha, mu), axis=1,
                          out=running[:, 1:])
                counts[:, m] += (running[:, edges[1:]] - running[:, edges[:-1]]).T
    kinds = pivot_kinds(entries)
    if kinds:
        for (position, first, count), start, counted in zip(pieces, starts.tolist(), counts):
            lanes = slice(start, start + count)
            _run_generalized(cells[position], first, means[lanes], variances[lanes],
                             np.flatnonzero(valid[lanes]), entries, kinds, spec, counted)
    return list(counts)


def _run_generalized(cell: SimulationCell, first: int, means: np.ndarray,
                     variances: np.ndarray, rows: np.ndarray, entries, kinds, spec: TestSpec,
                     counts: np.ndarray) -> None:
    """Add the generalized methods' counts over the replicates ``first + rows``
    of ``cell``, whose group summaries are rows ``rows`` of ``means`` and
    ``variances``, to ``counts``, replicate by replicate, on one ``SharedWork``
    that both share, whose draw rows are hashed with the whole piece's."""
    # lane 0 of the data blocks' first replicates drew the data; the draw rows
    # both generalized methods read are the substreams of lane 1 of each
    # replicate, (seed, index, 1, j) for the 3k rows j
    indices = cell.cell_index * cell.outer_reps + first + rows
    words = stream_words(cell.seed, indices[:, None], 1, np.arange(3 * len(cell.ns)))
    for index, row_words, row_means, row_variances in zip(
            indices.tolist(), words, means[rows].tolist(), variances[rows].tolist()):
        ds = Dataset(groups=tuple(SampleSummary(n=n, mean=mean, variance=variance)
                                  for n, mean, variance in zip(cell.ns, row_means,
                                                               row_variances)),
                     model=LOGNORMAL_MEAN)
        shared = SharedWork(ds, cell.inner_reps, StreamKey(cell.seed, index), 1, kinds=kinds,
                            words=row_words)
        for counted, entry in zip(counts, entries):
            if entry.pivot is not None:
                counted += entry.decide(shared, spec, cell.phi0, cell.alpha, cell.mu)


def _process_pool(workers: int):
    """A pool of ``workers`` processes; the modules it needs load on first use."""
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor(max_workers=workers)


def run_grid(cells, workers: int = 1) -> list[SimulationResult]:
    """Run every replicate of every cell and count each method's outcomes, per cell.

    ``workers`` is capped at the CPU count: a process pool starts all of its
    workers at once.  Above one worker, one pool serves the whole grid: it
    runs ``RANGES_PER_WORKER`` contiguous runs of pieces per worker, and the
    counts of a cell's pieces add, so the results do not depend on how many
    workers there are.
    """
    cells = tuple(cells)
    workers = min(workers, os.cpu_count() or 1)
    runs = _runs(cells, workers * RANGES_PER_WORKER if workers > 1 else 1)
    run = functools.partial(_run_pieces, cells)
    if workers <= 1 or not runs:
        counted = map(run, runs)
    else:
        with _process_pool(workers) as pool:
            counted = list(pool.map(run, runs))
    totals = [np.zeros((len(cell.methods), 4), dtype=np.int64) for cell in cells]
    for pieces, counts in zip(runs, counted):
        for (position, _, _), piece_counts in zip(pieces, counts):
            totals[position] += piece_counts
    return [SimulationResult(cell, total.astype(np.min_scalar_type(cell.outer_reps)).tobytes())
            for cell, total in zip(cells, totals)]


def run_cell(cell: SimulationCell, workers: int = 1) -> SimulationResult:
    """``run_grid`` of ``cell`` alone."""
    return run_grid([cell], workers=workers)[0]


def result_rows(results) -> list[dict]:
    """Flatten results to one row per (cell, method, metric)."""
    rows = []
    for result in results:
        cell = result.cell
        base = {
            "mu": f"{cell.mu:g}",
            "phi0": f"{cell.phi0:g}",
            "alpha": f"{cell.alpha:g}",
            "sigma2s": ";".join(f"{v:g}" for v in cell.sigma2s),
            "ns": ";".join(str(n) for n in cell.ns),
        }
        tables = (("rejection", result.rejection), ("coverage", result.coverage))
        for name in cell.methods:
            for metric, table in tables:
                if name not in table:
                    continue
                rate = table[name]
                rows.append(dict(base, method=name, metric=metric,
                                 estimate=f"{rate.estimate:.6f}",
                                 std_error=f"{rate.std_error:.6f}",
                                 failures=rate.failures))
    return rows


def write_csv(results, fh) -> None:
    writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(result_rows(results))


# ---------------------------------------------------------------------------
# grid configuration files

_REQUIRED_KEYS = ("mu", "sigma2_1", "sigma2_2", "n_pairs", "alpha",
                  "outer_reps", "inner_reps", "seed", "methods")
_OPTIONAL_KEYS = ("phi0",)


def parse_grid_config(text: str, kind: str, source: str = "<config>") -> dict:
    """Parse grid configuration text; ``kind`` is "toml" or "json"."""
    if kind == "json":
        try:
            config = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source}: invalid JSON ({exc})") from exc
        if not isinstance(config, dict):
            raise ConfigError(f"{source}: a grid config must be a JSON object of settings")
        return config
    if kind != "toml":
        raise ConfigError(f"{source}: unsupported config format {kind!r}")
    import tomllib  # loaded only where a TOML config is read

    try:
        return tomllib.loads(text)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{source}: invalid TOML ({exc})") from exc


def load_grid_config(path) -> dict:
    """Read a TOML or JSON grid configuration (dispatch on extension).

    A bare file name that does not exist here names a config bundled with
    the package, such as ``tables.toml``.
    """
    given = os.fspath(path)
    path = Path(given)
    kind = "json" if path.suffix.lower() == ".json" else "toml"
    if path.exists():
        return parse_grid_config(path.read_text(encoding="utf-8"), kind, source=str(path))
    resource = importlib.resources.files(__package__).joinpath(path.name)
    if path.name == given and resource.is_file():
        return parse_grid_config(resource.read_text(encoding="utf-8"), kind,
                                 source=f"bundled {path.name}")
    raise FileNotFoundError(f"config file not found: {given}")


def _list(key: str, value) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list, not {value!r}")
    return value


def cells_from_config(config: dict) -> list[SimulationCell]:
    """Expand a grid config into cells, cross product of mu x sigma2_2 x n_pairs.

    A ``sigma2_2`` entry (a number, or a list for groups 2..k) and an
    ``n_pairs`` entry (the k sizes) must agree on k wherever they pair up.
    """
    unknown = set(config) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    missing = [key for key in _REQUIRED_KEYS if key not in config]
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")
    mus = [_real("mu", v, ConfigError) for v in _list("mu", config["mu"])]
    sigma2_1 = _real("sigma2_1", config["sigma2_1"], ConfigError)
    variances = [(sigma2_1, *(_real("sigma2_2", v, ConfigError)
                              for v in (entry if isinstance(entry, list) else [entry])))
                 for entry in _list("sigma2_2", config["sigma2_2"])]
    sizes = [tuple(_whole("n_pairs size", n, ConfigError) for n in _list("n_pairs entry", entry))
             for entry in _list("n_pairs", config["n_pairs"])]
    common = dict(
        phi0=_real("phi0", config.get("phi0", 1.0), ConfigError),
        alpha=_real("alpha", config["alpha"], ConfigError),
        outer_reps=_whole("outer_reps", config["outer_reps"], ConfigError),
        inner_reps=_whole("inner_reps", config["inner_reps"], ConfigError),
        seed=_whole("seed", config["seed"], ConfigError),
        methods=tuple(_list("methods", config["methods"])),
    )
    cells = []
    for mu in mus:
        for sigma2s in variances:
            for ns in sizes:
                if len(sigma2s) != len(ns):
                    raise ConfigError(f"sigma2_2 entry {list(sigma2s[1:])} gives {len(sigma2s)} "
                                      f"groups but n_pairs entry {list(ns)} has {len(ns)}")
                try:
                    cells.append(SimulationCell(mu=mu, sigma2s=sigma2s, ns=ns,
                                                cell_index=len(cells), **common))
                except ValueError as exc:
                    raise ConfigError(str(exc)) from exc
    return cells
