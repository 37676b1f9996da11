"""Command-line interface: hypothesis tests, intervals, the bundled example,
and simulation grids, with table or JSON output."""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from . import methods
from .generalized import TestSpec, require_draws
from .model import LOGNORMAL_MEAN, Dataset, ModelSpec, SampleSummary, summarize
from .outcomes import Alternative, exp_or_inf, log_phi0
from .rmrs import RMRS_GROUP_LABELS, RMRS_SUMMARY_ROWS, rmrs_dataset
from .samplers import StreamKey
from .simulate import cells_from_config, load_grid_config, run_grid, write_csv

SEED_ENV_VAR = "LNMEAN_SEED"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lnmean",
        description="Inference for the common mean of several lognormal populations "
                    "(and the general shared-mean normal family).")
    sub = parser.add_subparsers(dest="command", required=True)

    test = sub.add_parser("test", help="hypothesis test for the common mean")
    _add_input_args(test)
    null = test.add_mutually_exclusive_group(required=True)
    null.add_argument("--phi0", type=float, help="null value on the original scale")
    null.add_argument("--mu0", type=float, help="null value on the log scale")
    test.add_argument("--alt", default="two-sided", choices=["less", "greater", "two-sided"])
    _add_mc_args(test)
    _add_format_arg(test)

    ci = sub.add_parser("ci", help="confidence interval for the common mean")
    _add_input_args(ci)
    ci.add_argument("--level", type=float, default=0.95)
    _add_mc_args(ci)
    _add_format_arg(ci)

    example = sub.add_parser("example", help="run the bundled RMRS example end to end")
    example.add_argument("--phi0", type=float, default=20000.0)
    example.add_argument("--level", type=float, default=0.95)
    example.add_argument("--reps", type=int, default=100_000)
    example.add_argument("--seed", type=int, default=None)
    _add_format_arg(example)

    simulate = sub.add_parser("simulate", help="run a simulation grid from a config file")
    simulate.add_argument("--config", required=True,
                          help="TOML or JSON grid config (bundled name or path)")
    simulate.add_argument("--output", help="write CSV here instead of stdout")
    simulate.add_argument("--dry-run", action="store_true",
                          help="print the cell and replicate counts, run nothing")
    simulate.add_argument("--workers", type=int, default=1,
                          help="worker processes, at most the CPU count")
    return parser


def _add_input_args(parser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", metavar="CSV",
                        help="raw observations, header 'group,value'")
    source.add_argument("--summary", metavar="CSV",
                        help="group summaries, header 'group,n,mean_log,var_log' "
                             "(var_log uses the n-1 divisor)")
    source.add_argument("--example", choices=["rmrs"], help="bundled dataset")
    parser.add_argument("--model-a", type=float, default=None,
                        help="mean-structure constant a (default: lognormal mean, a=1)")
    parser.add_argument("--model-b", type=float, default=None,
                        help="mean-structure constant b (default: lognormal mean, b=-0.5)")


def _add_mc_args(parser) -> None:
    parser.add_argument("--method", default="all",
                        help="comma-separated methods, or 'all' "
                             f"(known: {', '.join(methods.METHOD_ORDER)})")
    parser.add_argument("--reps", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=None,
                        help=f"Monte Carlo seed (default: ${SEED_ENV_VAR} or 0)")


def _add_format_arg(parser) -> None:
    parser.add_argument("--format", default="table", choices=["table", "json"])


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"test": _cmd_test, "ci": _cmd_ci,
               "example": _cmd_example, "simulate": _cmd_simulate}[args.command]
    try:
        return handler(args)
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# dataset loading


def _resolve_seed(seed) -> int:
    """The flag's seed, else the environment's, else 0; checked once, here."""
    if seed is None:
        text = os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed = int(text)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR} must be an integer, not {text!r}") from None
    return StreamKey(seed).seed


def _resolve_model(args) -> ModelSpec:
    if args.model_a is None and args.model_b is None:
        return LOGNORMAL_MEAN
    if args.model_a is None or args.model_b is None:
        raise ValueError("--model-a and --model-b must be given together")
    return ModelSpec(a=args.model_a, b=args.model_b)


def _load_dataset(args) -> tuple[list[str], Dataset]:
    model = _resolve_model(args)
    if args.example is not None:
        if (args.model_a, args.model_b) != (None, None):
            raise ValueError("the bundled example fixes the lognormal-mean model")
        return list(RMRS_GROUP_LABELS), rmrs_dataset()
    if args.summary is not None:
        labels, groups = _read_summary_csv(args.summary)
        return labels, Dataset(groups=tuple(groups), model=model)
    labels, raw_groups = _read_raw_csv(args.input)
    ds = summarize(raw_groups, model=model, log_transform=model.is_lognormal_mean)
    return labels, ds


def _read_raw_csv(path) -> tuple[list[str], list[list[float]]]:
    groups: dict[str, list[float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader, path, ("group", "value"))
        for line, row in enumerate(reader, start=2):
            label = (row["group"] or "").strip()
            if not label:
                raise ValueError(f"{path}:{line}: empty group label")
            text = _field(row, "value", path, line)
            try:
                value = float(text)
            except ValueError:
                raise ValueError(f"{path}:{line}: bad value {text!r}") from None
            groups.setdefault(label, []).append(value)
    if not groups:
        raise ValueError(f"{path}: no data rows")
    return list(groups), list(groups.values())


def _read_summary_csv(path) -> tuple[list[str], list[SampleSummary]]:
    labels: list[str] = []
    groups: list[SampleSummary] = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        _require_columns(reader, path, ("group", "n", "mean_log", "var_log"))
        for line, row in enumerate(reader, start=2):
            n, mean, variance = (_field(row, name, path, line)
                                 for name in ("n", "mean_log", "var_log"))
            try:
                labels.append((row["group"] or "").strip())
                groups.append(SampleSummary(n=int(n), mean=float(mean),
                                            variance=float(variance)))
            except ValueError as exc:
                raise ValueError(f"{path}:{line}: {exc}") from None
    if not groups:
        raise ValueError(f"{path}: no data rows")
    return labels, groups


def _field(row: dict, name: str, path, line: int) -> str:
    """The text of column ``name``; a row too short to have it is a ValueError."""
    if row[name] is None:
        raise ValueError(f"{path}:{line}: missing value for {name}")
    return row[name]


def _require_columns(reader, path, names) -> None:
    have = reader.fieldnames or ()
    missing = [name for name in names if name not in have]
    if missing:
        raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")


# ---------------------------------------------------------------------------
# test / ci / example


def _null_values(args, model: ModelSpec) -> tuple[float, float | None]:
    if args.phi0 is not None:
        if not model.is_lognormal_mean:
            raise ValueError("--phi0 applies to the lognormal-mean model; use --mu0")
        return log_phi0(args.phi0), args.phi0
    phi0 = exp_or_inf(args.mu0) if model.is_lognormal_mean else None
    return args.mu0, phi0


def _shared_work(ds: Dataset, entries, reps: int, seed: int,
                 level: float | None = None) -> methods.SharedWork:
    # the Monte Carlo methods read the draw rows of the seed's stream, each
    # row its own substream, so no number depends on which were requested
    kinds = methods.pivot_kinds(entries)
    if kinds:
        require_draws(reps, level)
    return methods.SharedWork(ds, reps, StreamKey(seed), kinds=kinds)


def _results(entries, run) -> list[dict]:
    """One report row per method; a method that fails on the data gets an
    ``error`` row and the others still report."""
    rows = []
    for entry in entries:
        try:
            rows.append({"method": entry.name, **run(entry)})
        except methods.FAILURES as exc:
            rows.append({"method": entry.name, "error": str(exc)})
    return rows


def _test_row(entry, work, spec: TestSpec, phi0: float | None) -> dict:
    outcome = entry.test(work, spec, phi0)
    return {
        "p_value": outcome.p_value,
        "mc_std_error": outcome.mc_std_error if entry.pivot is not None else None,
        "statistic": outcome.statistic,
    }


def _ci_row(entry, work, level: float) -> dict:
    interval = entry.interval(work, level)
    return {
        "mu_lower": interval.lower,
        "mu_upper": interval.upper,
        "phi_lower": interval.phi_lower,
        "phi_upper": interval.phi_upper,
        "estimate": interval.estimate,
    }


def _group_entries(labels, ds: Dataset) -> list[dict]:
    return [
        {"label": label, "n": group.n, "mean": group.mean, "variance": group.variance}
        for label, group in zip(labels, ds.groups)
    ]


def _cmd_test(args) -> int:
    labels, ds = _load_dataset(args)
    alternative = Alternative.coerce(args.alt)
    mu0, phi0 = _null_values(args, ds.model)
    spec = TestSpec(mu0, alternative)
    seed = _resolve_seed(args.seed)
    entries = methods.select(args.method.split(","), ds.model, "test", alternative)
    work = _shared_work(ds, entries, args.reps, seed)
    report = {
        "command": "test",
        "model": {"a": ds.model.a, "b": ds.model.b},
        "groups": _group_entries(labels, ds),
        "mu0": mu0,
        "phi0": phi0,
        "alternative": alternative.value,
        "seed": seed,
        "reps": args.reps,
        "results": _results(entries, lambda entry: _test_row(entry, work, spec, phi0)),
    }
    _emit(report, args.format, _render_test_table)
    return 0


def _cmd_ci(args) -> int:
    labels, ds = _load_dataset(args)
    if not 0.0 < args.level < 1.0:
        raise ValueError("level must be in (0, 1)")
    seed = _resolve_seed(args.seed)
    entries = methods.select(args.method.split(","), ds.model, "interval")
    work = _shared_work(ds, entries, args.reps, seed, args.level)
    report = {
        "command": "ci",
        "model": {"a": ds.model.a, "b": ds.model.b},
        "groups": _group_entries(labels, ds),
        "level": args.level,
        "seed": seed,
        "reps": args.reps,
        "results": _results(entries, lambda entry: _ci_row(entry, work, args.level)),
    }
    _emit(report, args.format, _render_ci_table)
    return 0


def _cmd_example(args) -> int:
    ds = rmrs_dataset()
    mu0 = log_phi0(args.phi0)
    if not 0.0 < args.level < 1.0:
        raise ValueError("level must be in (0, 1)")
    seed = _resolve_seed(args.seed)
    spec = TestSpec(mu0, Alternative.TWO_SIDED)
    tests = methods.select(["all"], ds.model, "test")
    intervals = methods.select(["all"], ds.model, "interval")
    work = _shared_work(ds, tests + intervals, args.reps, seed, args.level)
    report = {
        "command": "example",
        "dataset": "rmrs",
        "model": {"a": ds.model.a, "b": ds.model.b},
        "groups": [
            {"label": label, "n": n, "mean": mean, "variance_published": var,
             "variance": group.variance}
            for (label, n, mean, var), group in zip(RMRS_SUMMARY_ROWS, ds.groups)
        ],
        "phi0": args.phi0,
        "mu0": mu0,
        "level": args.level,
        "seed": seed,
        "reps": args.reps,
        "test_results": _results(tests, lambda entry: _test_row(entry, work, spec, args.phi0)),
        "ci_results": _results(intervals, lambda entry: _ci_row(entry, work, args.level)),
    }
    if args.format == "json":
        print(_json_text(report))
        return 0
    lines = ["RMRS example (summary data, log scale)"]
    lines.append(f"  {'group':<18} {'n':>4} {'mean':>9} {'variance':>10} {'published':>10}")
    for entry in report["groups"]:
        lines.append(f"  {entry['label']:<18} {entry['n']:>4} {entry['mean']:>9.5f} "
                     f"{entry['variance']:>10.6f} {entry['variance_published']:>10.3f}")
    lines.append("")
    lines.append(_render_test_table(report | {"results": report["test_results"]}))
    lines.append("")
    lines.append(_render_ci_table(report | {"results": report["ci_results"]}))
    print("\n".join(lines))
    return 0


def _emit(report: dict, fmt: str, renderer) -> None:
    if fmt == "json":
        print(_json_text(report))
    else:
        print(renderer(report))


def _json_text(report: dict) -> str:
    """The report as RFC 8259 JSON, which has no number for inf or nan."""
    return json.dumps(_json_safe(report), indent=2, allow_nan=False)


def _json_safe(value):
    """``value`` with every non-finite float replaced by "inf", "-inf" or "nan"."""
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_json_safe(item) for item in value]
    return value


def _render_test_table(report: dict) -> str:
    mu0 = report["mu0"]
    phi0 = report.get("phi0")
    null = f"mu0 = {mu0:g}" if phi0 is None else f"phi0 = {phi0:g} (mu0 = {mu0:.6f})"
    alt = report.get("alternative", "two-sided")
    lines = [
        f"Hypothesis test: {null}, alternative = {alt}",
        f"model: a = {report['model']['a']:g}, b = {report['model']['b']:g}; "
        f"seed = {report['seed']}, reps = {report['reps']}",
        "",
        f"  {'method':<14} {'p-value':>9} {'mc-se':>9} {'statistic':>11}",
    ]
    for row in report["results"]:
        if "error" in row:
            lines.append(f"  {row['method']:<14} (failed: {row['error']})")
            continue
        se = f"{row['mc_std_error']:.5f}" if row.get("mc_std_error") is not None else "-"
        stat = row.get("statistic")
        stat = "-" if stat is None else f"{stat:.4e}" if abs(stat) >= 1e6 else f"{stat:.4f}"
        lines.append(f"  {row['method']:<14} {row['p_value']:>9.4f} {se:>9} {stat:>11}")
    return "\n".join(lines)


def _render_ci_table(report: dict) -> str:
    lines = [
        f"Confidence intervals: level = {report['level']:g}; "
        f"seed = {report['seed']}, reps = {report['reps']}",
        "",
        f"  {'method':<14} {'mu scale':>22} {'original scale':>26} {'estimate':>11}",
    ]
    for row in report["results"]:
        if "error" in row:
            lines.append(f"  {row['method']:<14} (failed: {row['error']})")
            continue
        mu_part = f"({row['mu_lower']:.4f}, {row['mu_upper']:.4f})"
        phi_part = f"({row['phi_lower']:#.7g}, {row['phi_upper']:#.7g})"
        est = f"{row['estimate']:#.7g}" if row.get("estimate") is not None else "-"
        lines.append(f"  {row['method']:<14} {mu_part:>22} {phi_part:>26} {est:>11}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args) -> int:
    cells = cells_from_config(load_grid_config(args.config))
    if args.dry_run:
        total = sum(cell.outer_reps for cell in cells)
        print(f"{len(cells)} cells, {total} outer replicates "
              f"({cells[0].inner_reps if cells else 0} inner Monte Carlo reps each)")
        return 0
    results = run_grid(cells, workers=max(1, args.workers))
    if args.output:
        with open(args.output, "w", newline="", encoding="utf-8") as fh:
            write_csv(results, fh)
    else:
        write_csv(results, sys.stdout)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
