"""Replicated two-group study harness: rejection rates and coverage over a grid.

Each replicate draws log-scale data from N(mu - sigma_i^2 / 2, sigma_i^2) per
group, then every requested method tests phi = phi0 (two-sided, at ``alpha``)
and/or builds a level 1 - alpha interval checked against the true mean
exp(mu).  Replicate r of cell c uses the substream (seed, c * outer_reps + r),
so results are reproducible and independent of how replicates are scheduled
across workers.

Grid configs are flat TOML or JSON files with arrays ``mu``, ``sigma2_2`` and
``n_pairs``, scalars ``sigma2_1``, ``alpha``, ``outer_reps``, ``inner_reps``,
``seed`` and optionally ``phi0``, plus the ``methods`` list; cells are the
cross product mu x sigma2_2 x n_pairs.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import classical
from .generalized import (PivotMethod, interval_from_pivots, pvalue_from_pivots,
                          sample_pivots)
from .model import LOGNORMAL_MEAN, Dataset, SampleSummary
from .outcomes import Alternative
from .samplers import StreamKey, std_normal

try:
    import tomllib  # python >= 3.11
except ModuleNotFoundError:  # pragma: no cover - depends on interpreter
    tomllib = None

METHOD_ORDER = ("lrt", "ahmed", "gupta-li", "baklizi", "gv-weighted", "gv-umvue")
TEST_METHODS = frozenset(("lrt", "ahmed", "gupta-li", "gv-weighted", "gv-umvue"))
CI_METHODS = frozenset(("ahmed", "gupta-li", "baklizi", "gv-weighted", "gv-umvue"))

# lane 0 of a replicate substream draws the data; each method's Monte Carlo
# draws get their own lane so a method's result does not depend on which
# other methods were requested
_METHOD_LANES = {name: index + 1 for index, name in enumerate(METHOD_ORDER)}

_PIVOT_KINDS = {"gv-weighted": PivotMethod.WEIGHTED, "gv-umvue": PivotMethod.UMVUE}

CSV_COLUMNS = ("mu", "sigma2_1", "sigma2_2", "n1", "n2", "method", "metric",
               "estimate", "std_error", "failures")


class ConfigError(ValueError):
    """Malformed simulation grid configuration."""


def normalize_method(name: str) -> str:
    canonical = str(name).strip().lower().replace("_", "-")
    if canonical not in METHOD_ORDER:
        raise ValueError(f"unknown method {name!r}; choose from {', '.join(METHOD_ORDER)}")
    return canonical


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
        ns = tuple(int(n) for n in self.ns)
        methods = tuple(normalize_method(m) for m in self.methods)
        object.__setattr__(self, "sigma2s", sigma2s)
        object.__setattr__(self, "ns", ns)
        object.__setattr__(self, "methods", methods)
        if len(sigma2s) != len(ns) or not sigma2s:
            raise ValueError("sigma2s and ns must be nonempty and the same length")
        if any(v <= 0 for v in sigma2s):
            raise ValueError("group variances must be positive")
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
        if len(set(methods)) != len(methods):
            raise ValueError("duplicate method names")
        if "gupta-li" in methods and len(ns) != 2:
            raise ValueError("gupta-li requires exactly two groups")


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
    groups = []
    for sigma2, n in zip(cell.sigma2s, cell.ns):
        values = cell.mu - 0.5 * sigma2 + math.sqrt(sigma2) * std_normal(rng, n)
        groups.append(SampleSummary(n=n, mean=float(values.mean()),
                                    variance=float(values.var(ddof=1))))
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
    mu0 = math.log(cell.phi0)
    level = 1.0 - cell.alpha
    # work shared by several classical methods, done at most once; a call
    # that raises is retried by (and charged to) the next method that needs it
    fit = functools.cache(lambda: classical.gupta_li_mle(ds))
    components = functools.cache(lambda: classical.ahmed_components(ds))
    for name in cell.methods:
        rejected = covered = 0
        test_failed = ci_failed = 0
        try:
            if name in _PIVOT_KINDS:
                rng = base.generator(_METHOD_LANES[name])
                pivots = sample_pivots(ds, _PIVOT_KINDS[name], cell.inner_reps, rng)
                p, _ = pvalue_from_pivots(pivots, mu0, Alternative.TWO_SIDED)
                lower, upper = interval_from_pivots(pivots, level)
                rejected = int(p < cell.alpha)
                covered = int(lower <= cell.mu <= upper)
            elif name == "lrt":
                outcome = classical.lr_test(ds, cell.phi0, fit=fit())
                rejected = int(outcome.p_value < cell.alpha)
            elif name == "ahmed":
                outcome = classical.ahmed_test(ds, cell.phi0, components=components())
                rejected = int(outcome.p_value < cell.alpha)
                ci = classical.ahmed_ci(ds, level, components=components())
                covered = int(ci.phi_lower <= math.exp(cell.mu) <= ci.phi_upper)
            elif name == "gupta-li":
                outcome = classical.gupta_li_test(ds, cell.phi0, fit=fit())
                rejected = int(outcome.p_value < cell.alpha)
                ci = classical.gupta_li_ci(ds, level, fit=fit())
                covered = int(ci.lower <= cell.mu <= ci.upper)
            else:  # baklizi, interval only
                ci = classical.baklizi_ci(ds, level, components=components())
                if ci is None:
                    ci_failed = 1
                else:
                    covered = int(ci.phi_lower <= math.exp(cell.mu) <= ci.phi_upper)
        except (ValueError, ArithmeticError):
            rejected = covered = 0
            test_failed = ci_failed = 1
        counts[name] = (rejected, test_failed, covered, ci_failed)
    return counts


def _run_replicate_star(args) -> dict[str, tuple[int, int, int, int]]:
    return _run_replicate(*args)


def run_cell(cell: SimulationCell, workers: int = 1) -> SimulationResult:
    """Run every replicate of one cell and aggregate per-method rates."""
    if workers <= 1:
        per_rep = (_run_replicate(cell, r) for r in range(cell.outer_reps))
        totals = _tally(cell, per_rep)
    else:
        jobs = [(cell, r) for r in range(cell.outer_reps)]
        chunk = max(1, cell.outer_reps // (workers * 16))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            totals = _tally(cell, pool.map(_run_replicate_star, jobs, chunksize=chunk))
    rejection = {}
    coverage = {}
    for name in cell.methods:
        rej, rej_fail, cov, cov_fail = totals[name]
        if name in TEST_METHODS:
            rejection[name] = _rate(rej, rej_fail, cell.outer_reps)
        if name in CI_METHODS:
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
            "sigma2_1": f"{cell.sigma2s[0]:g}",
            "sigma2_2": f"{cell.sigma2s[1]:g}" if len(cell.sigma2s) > 1 else "",
            "n1": cell.ns[0],
            "n2": cell.ns[1] if len(cell.ns) > 1 else "",
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
            return json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{source}: invalid JSON ({exc})") from exc
    if kind != "toml":
        raise ConfigError(f"{source}: unsupported config format {kind!r}")
    try:
        if tomllib is not None:
            return tomllib.loads(text)
        return _parse_flat_toml(text)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{source}: invalid TOML ({exc})") from exc


def load_grid_config(path) -> dict:
    """Read a TOML or JSON grid configuration file (dispatch on extension)."""
    path = Path(path)
    kind = "json" if path.suffix.lower() == ".json" else "toml"
    return parse_grid_config(path.read_text(encoding="utf-8"), kind, source=str(path))


def cells_from_config(config: dict) -> list[SimulationCell]:
    """Expand a grid config into cells, cross product of mu x sigma2_2 x n_pairs."""
    unknown = set(config) - set(_REQUIRED_KEYS) - set(_OPTIONAL_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(unknown))}")
    missing = [key for key in _REQUIRED_KEYS if key not in config]
    if missing:
        raise ConfigError(f"missing config keys: {', '.join(missing)}")
    try:
        mus = [float(v) for v in config["mu"]]
        sigma2_1 = float(config["sigma2_1"])
        sigma2_2s = [float(v) for v in config["sigma2_2"]]
        if any(len(pair) != 2 for pair in config["n_pairs"]):
            raise ConfigError("n_pairs entries must have exactly two sizes")
        n_pairs = [(int(pair[0]), int(pair[1])) for pair in config["n_pairs"]]
        methods = tuple(normalize_method(m) for m in config["methods"])
        common = dict(
            phi0=float(config.get("phi0", 1.0)),
            alpha=float(config["alpha"]),
            outer_reps=int(config["outer_reps"]),
            inner_reps=int(config["inner_reps"]),
            seed=int(config["seed"]),
            methods=methods,
        )
    except ConfigError:
        raise
    except (TypeError, ValueError, KeyError, IndexError) as exc:
        raise ConfigError(f"malformed config value: {exc}") from exc
    cells = []
    for mu in mus:
        for sigma2_2 in sigma2_2s:
            for n1, n2 in n_pairs:
                try:
                    cells.append(SimulationCell(mu=mu, sigma2s=(sigma2_1, sigma2_2),
                                                ns=(n1, n2), cell_index=len(cells),
                                                **common))
                except ValueError as exc:
                    raise ConfigError(str(exc)) from exc
    return cells


def _parse_flat_toml(text: str) -> dict:
    """Minimal TOML subset reader: flat ``key = value`` lines.

    Supports comments, strings, booleans, ints, floats and (nested) arrays,
    which covers grid configs on interpreters without ``tomllib``.
    """
    result: dict = {}
    pending = ""
    for raw_line in text.splitlines():
        line = (pending + " " + raw_line).strip() if pending else raw_line.strip()
        pending = ""
        line = _strip_toml_comment(line)
        if not line:
            continue
        if line.startswith("["):
            raise ValueError("tables are not supported in grid configs")
        if "=" not in line:
            raise ValueError(f"expected 'key = value', got {line!r}")
        key, _, value_text = line.partition("=")
        value_text = value_text.strip()
        if value_text.count("[") > value_text.count("]"):
            pending = line  # multi-line array, keep accumulating
            continue
        result[key.strip()] = _parse_toml_value(value_text)
    if pending:
        raise ValueError("unterminated array")
    return result


def _strip_toml_comment(line: str) -> str:
    out = []
    in_string = False
    for ch in line:
        if ch == '"':
            in_string = not in_string
        if ch == "#" and not in_string:
            break
        out.append(ch)
    return "".join(out).strip()


def _parse_toml_value(text: str):
    text = text.strip()
    if not text:
        raise ValueError("empty value")
    if text.startswith("["):
        if not text.endswith("]"):
            raise ValueError(f"unterminated array: {text!r}")
        return [_parse_toml_value(item) for item in _split_toml_array(text[1:-1])]
    if text.startswith('"'):
        if not (text.endswith('"') and len(text) >= 2):
            raise ValueError(f"unterminated string: {text!r}")
        return text[1:-1]
    if text in ("true", "false"):
        return text == "true"
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"cannot parse value {text!r}") from None


def _split_toml_array(body: str) -> list[str]:
    items = []
    depth = 0
    in_string = False
    current = []
    for ch in body:
        if ch == '"':
            in_string = not in_string
        if not in_string:
            if ch == "[":
                depth += 1
            elif ch == "]":
                depth -= 1
            elif ch == "," and depth == 0:
                items.append("".join(current))
                current = []
                continue
        current.append(ch)
    tail = "".join(current).strip()
    if tail:
        items.append(tail)
    return [item for item in (piece.strip() for piece in items) if item]
