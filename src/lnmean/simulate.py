"""Replicated study harness: rejection rates and coverage over a grid.

Each replicate draws log-scale data from N(mu - sigma_i^2 / 2, sigma_i^2) for
each of the cell's groups, then every requested method tests phi = phi0
(two-sided, at ``alpha``) and/or builds a level 1 - alpha interval, which
covers when its log-scale bounds hold the true mu.  Replicate r of cell c
uses the substream (seed, c * outer_reps + r), so results are reproducible
and independent of how replicates are scheduled across workers.  Replicates
run in blocks: a block's data are drawn into one array, and the classical
methods decide all of its replicates in one pass over arrays.

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
import json
import math
import numbers
import os
import tomllib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .classical import GroupBlock
from .generalized import TestSpec, require_draws
from .methods import METHOD_ORDER, METHODS, BlockWork, SharedWork, pivot_kinds, select
from .model import LOGNORMAL_MEAN, Dataset, SampleSummary
from .outcomes import log_phi0
from .samplers import StreamKey, std_normal

CSV_COLUMNS = ("mu", "phi0", "alpha", "sigma2s", "ns", "method", "metric",
               "estimate", "std_error", "failures")
# replicates drawn and decided at a time, fewer where their draws would pass
# BLOCK_DRAWS values; neither changes a number, they bound the block's arrays
REPLICATE_BLOCK = 1024
BLOCK_DRAWS = 2 ** 21
# contiguous replicate ranges that a pool of workers splits a cell into, per worker
RANGES_PER_WORKER = 4


class ConfigError(ValueError):
    """Malformed simulation grid configuration."""


@dataclass(frozen=True)
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
        object.__setattr__(self, "sigma2s", sigma2s)
        object.__setattr__(self, "ns", ns)
        object.__setattr__(self, "methods", tuple(entry.name for entry in entries))
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


@dataclass(frozen=True)
class SimulationResult:
    cell: SimulationCell
    rejection: dict[str, RateEstimate]
    coverage: dict[str, RateEstimate]


def _rate(successes: int, failures: int, reps: int) -> RateEstimate:
    p = successes / reps
    return RateEstimate(estimate=p, std_error=math.sqrt(p * (1.0 - p) / reps),
                        failures=failures, reps=reps)


def draw_block(cell: SimulationCell, first: int, count: int) -> tuple[GroupBlock, np.ndarray]:
    """The data of replicates ``first`` .. ``first + count - 1`` of ``cell``: their
    group summaries, and which of them ``SampleSummary`` takes.

    Replicate r draws its sum(ns) standard normals from lane 0 of its
    substream, one row of the block, split by group in order.  Each group's
    mean and variance are numpy's sums along that row, the same pairwise sums
    as of the row alone.  A draw past the float range gives a non-finite
    summary, and its replicate is refused here, not warned about.
    """
    z = np.empty((count, sum(cell.ns)))
    index = cell.cell_index * cell.outer_reps + first
    for r in range(count):
        std_normal(StreamKey(cell.seed, index + r).generator(0), out=z[r])
    means, variances = np.empty((count, len(cell.ns))), np.empty((count, len(cell.ns)))
    start = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (sigma2, n) in enumerate(zip(cell.sigma2s, cell.ns)):
            values = cell.mu - 0.5 * sigma2 + math.sqrt(sigma2) * z[:, start:start + n]
            start += n
            means[:, i] = np.add.reduce(values, axis=1) / n
            d = values - means[:, i, None]
            variances[:, i] = np.add.reduce(d * d, axis=1) / (n - 1)
    valid = (np.isfinite(means) & np.isfinite(variances) & (variances > 0.0)).all(axis=1)
    return GroupBlock(cell.ns, means, variances), valid


def _run_block(cell: SimulationCell, first: int, count: int) -> np.ndarray:
    """Per-method (rejected, test failed, covered, interval failed) counts over
    replicates ``first`` .. ``first + count - 1``, a (methods, 4) int array.

    A refused data draw fails every procedure of its replicate.  The
    classical methods decide every other replicate of the block at once; the
    generalized ones run replicate by replicate, on one ``SharedWork`` that
    both share.
    """
    groups, valid = draw_block(cell, first, count)
    entries = [METHODS[name] for name in cell.methods]
    spec = TestSpec(log_phi0(cell.phi0))
    counts = np.zeros((len(entries), 4), dtype=np.int64)
    counts[:, 1] = counts[:, 3] = count - np.count_nonzero(valid)
    rows = np.flatnonzero(valid)
    work = BlockWork(GroupBlock(cell.ns, groups.means[rows], groups.variances[rows]))
    for counted, entry in zip(counts, entries):
        if entry.pivot is None and rows.size:
            counted += entry.decide_block(work, spec, cell.phi0, cell.alpha,
                                          cell.mu).sum(axis=1)
    kinds = pivot_kinds(entries)
    if not kinds:
        return counts
    index = cell.cell_index * cell.outer_reps + first
    for r, means, variances in zip(rows.tolist(), work.groups.means.tolist(),
                                   work.groups.variances.tolist()):
        ds = Dataset(groups=tuple(SampleSummary(n=n, mean=mean, variance=variance)
                                  for n, mean, variance in zip(cell.ns, means, variances)),
                     model=LOGNORMAL_MEAN)
        # lane 0 drew the data; the draw rows both generalized methods read
        # are the substreams of lane 1
        shared = SharedWork(ds, cell.inner_reps, StreamKey(cell.seed, index + r), 1, kinds=kinds)
        for counted, entry in zip(counts, entries):
            if entry.pivot is not None:
                counted += entry.decide(shared, spec, cell.phi0, cell.alpha, cell.mu)
    return counts


def _run_range(cell: SimulationCell, bounds: tuple[int, int]) -> np.ndarray:
    """``_run_block`` counts summed over replicates ``bounds[0]`` .. ``bounds[1] - 1``.

    The blocks hold ``REPLICATE_BLOCK`` replicates, fewer where their draws
    would pass ``BLOCK_DRAWS``; no number depends on the block length.
    """
    start, stop = bounds
    rows = max(1, min(REPLICATE_BLOCK, BLOCK_DRAWS // sum(cell.ns)))
    totals = np.zeros((len(cell.methods), 4), dtype=np.int64)
    for first in range(start, stop, rows):
        totals += _run_block(cell, first, min(rows, stop - first))
    return totals


def run_cell(cell: SimulationCell, workers: int = 1) -> SimulationResult:
    """Run every replicate of one cell and aggregate per-method rates.

    ``workers`` is capped at the CPU count: a process pool starts all of its
    workers at once.  The pool runs ``RANGES_PER_WORKER`` contiguous ranges of
    replicates per worker, and their counts add, so the results do not
    depend on how many workers there are.
    """
    workers = min(workers, os.cpu_count() or 1)
    run = functools.partial(_run_range, cell)
    if workers <= 1:
        totals = run((0, cell.outer_reps))
    else:
        cuts = np.linspace(0, cell.outer_reps, workers * RANGES_PER_WORKER + 1).astype(int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            totals = sum(pool.map(run, zip(cuts[:-1].tolist(), cuts[1:].tolist())))
    rejection = {}
    coverage = {}
    for name, (rej, rej_fail, cov, cov_fail) in zip(cell.methods, totals.tolist()):
        if METHODS[name].test is not None:
            rejection[name] = _rate(rej, rej_fail, cell.outer_reps)
        if METHODS[name].interval is not None:
            coverage[name] = _rate(cov, cov_fail, cell.outer_reps)
    return SimulationResult(cell=cell, rejection=rejection, coverage=coverage)


def run_grid(cells, workers: int = 1) -> list[SimulationResult]:
    return [run_cell(cell, workers=workers) for cell in cells]


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
        for name in cell.methods:
            for metric, table in (("rejection", result.rejection), ("coverage", result.coverage)):
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
    tails = [tuple(_real("sigma2_2", v, ConfigError)
                   for v in (entry if isinstance(entry, list) else [entry]))
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
        for tail in tails:
            for ns in sizes:
                if 1 + len(tail) != len(ns):
                    raise ConfigError(f"sigma2_2 entry {list(tail)} gives {1 + len(tail)} "
                                      f"groups but n_pairs entry {list(ns)} has {len(ns)}")
                try:
                    cells.append(SimulationCell(mu=mu, sigma2s=(sigma2_1, *tail), ns=ns,
                                                cell_index=len(cells), **common))
                except ValueError as exc:
                    raise ConfigError(str(exc)) from exc
    return cells
