"""Helpers of the lnmean benchmark that do not depend on lnmean itself.

Percentiles with the sample-count rule, span tracing with self times, and the
correctness gates on example reports and grid CSVs.  ``run.py`` drives the
workloads; ``test_perfbench.py`` tests what is here.
"""

from __future__ import annotations

import gzip
import json
import math
import time
from collections import Counter

# A tail percentile is reported only where at least this many samples lie
# beyond it, so that it does not rest on one or two slow calls.
TAIL_BEYOND = 10
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default), q in [0, 100]."""
    data = sorted(values)
    if not data:
        raise ValueError("no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def highest_tail_percentile(n: int) -> float | None:
    """Highest ladder percentile with at least ``TAIL_BEYOND`` of n samples beyond it."""
    for q in TAIL_LADDER:
        # in tenths of a percent, so that 100 samples put exactly 10 beyond p90
        if n * (1000 - round(q * 10)) >= TAIL_BEYOND * 1000:
            return q
    return None


def median(values) -> float:
    return percentile(values, 50.0)


# ---------------------------------------------------------------------------
# tracing


class Tracer:
    """In-memory spans (name, start, end, parent, op) and named counts.

    ``wrap`` returns a function that records one span per call; ``parent`` is
    the index of the enclosing span or -1, and ``op`` the workload operation
    the span belongs to (set by the workload loop).  Counters attached to a
    wrapper read the call's result, so counts are taken where the work is done.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[name + ".raised"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if count is not None:
                count(counts, name, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        """Write spans as JSON lines, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def span_totals(spans) -> tuple[Counter, Counter, Counter]:
    """Per span name: call count, total seconds and total self seconds.

    A span's self time is its duration minus the part of it that its direct
    child spans cover (children clipped to the parent, overlaps merged).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    calls, total, self_total = Counter(), Counter(), Counter()
    for index, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_total[name] += (end - start) - covered(start, end, children.get(index, ()))
    return calls, total, self_total


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    length = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            length += hi - lo
            cursor = hi
    return length


# ---------------------------------------------------------------------------
# correctness gates

# RMRS references and tolerances of acceptance criteria 1-3
# (tests/test_acceptance.py): relative tolerance on original-scale interval
# bounds, absolute tolerance on p-values.
RMRS_INTERVALS = {
    "ahmed": ((15831.21, 27720.26), 0.003),
    "gupta-li": ((16596.91, 28658.17), 0.003),
    "baklizi": ((14372.59, 29178.79), 0.003),
    "gv-weighted": ((17286.30, 30701.92), 0.02),
    "gv-umvue": ((17090.54, 29998.23), 0.02),
}
RMRS_PVALUES = {
    "lrt": (0.5245, 0.01),
    "ahmed": (0.5582, 0.005),
    "gupta-li": (0.5343, 0.01),
    "gv-weighted": (0.4348, 0.02),
    "gv-umvue": (0.4732, 0.02),
}


def check_example_report(report: dict) -> list[str]:
    """Problems with one ``lnmean example --format json`` report (empty if none)."""
    problems = []
    tests = {row["method"]: row for row in report.get("test_results", [])}
    for method, (target, tol) in RMRS_PVALUES.items():
        if method not in tests:
            problems.append(f"example: no {method} test result")
            continue
        problems += _check_pvalue(f"example {method}", tests[method]["p_value"], target, tol)
    intervals = {row["method"]: row for row in report.get("ci_results", [])}
    for method, ((lower, upper), tol) in RMRS_INTERVALS.items():
        row = intervals.get(method)
        if row is None or row.get("empty"):
            problems.append(f"example: no {method} interval")
            continue
        for side, value, target in (("lower", row["phi_lower"], lower),
                                    ("upper", row["phi_upper"], upper)):
            err = abs(value - target) / target
            if not err <= tol:
                problems.append(f"example {method} {side} bound {value:.2f} is "
                                f"{err:.2%} from {target} (tolerance {tol:.1%})")
    return problems


def check_test_report(report: dict, method: str) -> list[str]:
    """Problems with one ``lnmean test --example rmrs --method <gv method>`` report."""
    rows = [row for row in report.get("results", []) if row["method"] == method]
    if len(rows) != 1:
        return [f"test {method}: expected one result, got {len(rows)}"]
    row = rows[0]
    target, tol = RMRS_PVALUES[method]
    problems = _check_pvalue(f"test {method}", row["p_value"], target, tol)
    se = row.get("mc_std_error")
    if not (isinstance(se, float) and 0.0 < se < 0.01):
        problems.append(f"test {method}: Monte Carlo standard error {se!r} out of range")
    return problems


def _check_pvalue(label: str, value, target: float, tol: float) -> list[str]:
    if not (isinstance(value, float) and abs(value - target) <= tol):
        return [f"{label} p-value {value!r} is not within {tol} of {target}"]
    return []


def check_grid_csv(text: str, cells: int, rows_per_cell: int) -> list[str]:
    """Shape and range checks on a ``write_csv`` output."""
    lines = text.splitlines()
    expected = 1 + cells * rows_per_cell
    if len(lines) != expected:
        return [f"grid CSV has {len(lines)} lines, expected {expected}"]
    problems = []
    for line in lines[1:]:
        fields = line.split(",")
        estimate, std_error, failures = float(fields[7]), float(fields[8]), int(fields[9])
        if not (0.0 <= estimate <= 1.0 and 0.0 <= std_error <= 0.5 and failures >= 0):
            problems.append(f"grid CSV row out of range: {line}")
    return problems


def check_identical(label: str, first: bytes, second: bytes) -> list[str]:
    if first != second:
        return [f"{label}: outputs differ"]
    return []
