"""Replicated study harness: rejection rates and coverage over a grid.

Each replicate draws log-scale data from N(mu - sigma_i^2 / 2, sigma_i^2) for
each of the cell's groups, then every requested method tests phi = phi0
(two-sided, at ``alpha``) and/or builds a level 1 - alpha interval, which
covers when its log-scale bounds hold the true mu.  Replicate r of cell c
uses the substream (seed, c * outer_reps + r), so results are reproducible
and independent of how replicates are scheduled across workers.

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

from .generalized import TestSpec, require_draws
from .methods import METHOD_ORDER, METHODS, SharedWork, select
from .model import LOGNORMAL_MEAN, Dataset, SampleSummary
from .samplers import StreamKey, std_normal

CSV_COLUMNS = ("mu", "phi0", "alpha", "sigma2s", "ns", "method", "metric",
               "estimate", "std_error", "failures")


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
        sigma2s = tuple(float(v) for v in self.sigma2s)
        ns = tuple(_whole("ns entry", n) for n in self.ns)
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
        if not (math.isfinite(self.phi0) and self.phi0 > 0):
            raise ValueError("phi0 must be positive")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.outer_reps < 100:
            raise ValueError("outer_reps must be at least 100")
        if self.inner_reps < 1000:
            raise ValueError("inner_reps must be at least 1000")
        # the seed and the replicates' stream indices are refused here, not in run_cell
        StreamKey(self.seed)
        first = self.cell_index * self.outer_reps
        last = first + self.outer_reps - 1
        if not (0 <= first and last < 2 ** 64):
            raise ValueError(f"replicate stream indices {first}..{last} (cell_index * "
                             "outer_reps onward) must fit in an unsigned 64-bit integer")
        if any(entry.monte_carlo for entry in entries):
            require_draws(self.inner_reps, 1.0 - self.alpha)


def _whole(name: str, value) -> int:
    """``value`` as an int; any other type, bool included, is a ValueError naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    return int(value)


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


def _simulate_dataset(cell: SimulationCell, rng: np.random.Generator) -> Dataset:
    # one draw split by group is the same stream as one draw per group in turn;
    # the mean and variance are numpy's, in numpy's order of operations
    z = std_normal(rng, sum(cell.ns))
    groups = []
    start = 0
    for sigma2, n in zip(cell.sigma2s, cell.ns):
        values = cell.mu - 0.5 * sigma2 + math.sqrt(sigma2) * z[start:start + n]
        start += n
        mean = np.add.reduce(values) / n
        d = values - mean
        groups.append(SampleSummary(n=n, mean=float(mean),
                                    variance=float(np.add.reduce(d * d) / (n - 1))))
    return Dataset(groups=tuple(groups), model=LOGNORMAL_MEAN)


def _run_replicate(cell: SimulationCell, replicate: int) -> dict[str, tuple[int, int, int, int]]:
    """Per-method (rejected, test_failed, covered, ci_failed) flags for one replicate.

    A method that raises ValueError or ArithmeticError on this replicate's
    data counts as failed; any other exception is a bug and propagates.
    """
    base = StreamKey(cell.seed, cell.cell_index * cell.outer_reps + replicate)
    counts: dict[str, tuple[int, int, int, int]] = {}
    try:
        ds = _simulate_dataset(cell, base.generator(0))
    except ValueError:
        return {name: (0, 1, 0, 1) for name in cell.methods}
    spec = TestSpec(math.log(cell.phi0))
    level = 1.0 - cell.alpha
    # lane 0 drew the data; lane 1 holds the Monte Carlo draws both
    # generalized methods read
    work = SharedWork(ds, cell.inner_reps, functools.partial(base.generator, 1))
    for name in cell.methods:
        entry = METHODS[name]
        rejected = covered = test_failed = ci_failed = 0
        try:
            if entry.test is not None:
                outcome = entry.test(work, spec, cell.phi0)
                rejected = int(outcome.p_value < cell.alpha)
            if entry.interval is not None:
                interval = entry.interval(work, level)
                if interval is None:
                    ci_failed = 1
                else:
                    covered = int(interval.lower <= cell.mu <= interval.upper)
        except (ValueError, ArithmeticError):
            rejected = covered = 0
            test_failed = ci_failed = 1
        counts[name] = (rejected, test_failed, covered, ci_failed)
    return counts


def run_cell(cell: SimulationCell, workers: int = 1) -> SimulationResult:
    """Run every replicate of one cell and aggregate per-method rates.

    ``workers`` is capped at the CPU count: a process pool starts all of its
    workers at once, and the results do not depend on how many there are.
    """
    workers = min(workers, os.cpu_count() or 1)
    replicate = functools.partial(_run_replicate, cell)
    if workers <= 1:
        totals = _tally(cell, map(replicate, range(cell.outer_reps)))
    else:
        chunk = max(1, cell.outer_reps // (workers * 16))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            totals = _tally(cell, pool.map(replicate, range(cell.outer_reps), chunksize=chunk))
    rejection = {}
    coverage = {}
    for name in cell.methods:
        rej, rej_fail, cov, cov_fail = totals[name]
        if METHODS[name].test is not None:
            rejection[name] = _rate(rej, rej_fail, cell.outer_reps)
        if METHODS[name].interval is not None:
            coverage[name] = _rate(cov, cov_fail, cell.outer_reps)
    return SimulationResult(cell=cell, rejection=rejection, coverage=coverage)


def _tally(cell, per_rep) -> dict[str, list[int]]:
    totals = {name: [0, 0, 0, 0] for name in cell.methods}
    for counts in per_rep:
        for name, flags in counts.items():
            slot = totals[name]
            for i in range(4):
                slot[i] += flags[i]
    return totals


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


def _real(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, not {value!r}")
    return float(value)


def _integer(key: str, value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, not {value!r}")
    return value


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
    mus = [_real("mu", v) for v in _list("mu", config["mu"])]
    sigma2_1 = _real("sigma2_1", config["sigma2_1"])
    tails = [tuple(_real("sigma2_2", v) for v in (entry if isinstance(entry, list) else [entry]))
             for entry in _list("sigma2_2", config["sigma2_2"])]
    sizes = [tuple(_integer("n_pairs size", n) for n in _list("n_pairs entry", entry))
             for entry in _list("n_pairs", config["n_pairs"])]
    common = dict(
        phi0=_real("phi0", config.get("phi0", 1.0)),
        alpha=_real("alpha", config["alpha"]),
        outer_reps=_integer("outer_reps", config["outer_reps"]),
        inner_reps=_integer("inner_reps", config["inner_reps"]),
        seed=_integer("seed", config["seed"]),
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
