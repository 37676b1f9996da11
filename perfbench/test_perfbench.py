"""Tests of the benchmark's own helpers: percentiles, self times, gates."""

import contextlib
import copy
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import benchlib

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0), (100, 90.0),
    (199, 90.0), (200, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert benchlib.highest_tail_percentile(n) == expected
    if expected is not None:
        assert round(n * (100 - expected) / 100, 9) >= benchlib.TAIL_BEYOND


def test_percentile_matches_numpy_linear_interpolation():
    values = list(np.random.default_rng(5).exponential(size=37))
    for q in (0.0, 10.0, 50.0, 75.0, 90.0, 100.0):
        assert benchlib.percentile(values, q) == pytest.approx(np.percentile(values, q))
    with pytest.raises(ValueError):
        benchlib.percentile([], 50.0)


def test_self_time_subtracts_covered_part_of_children():
    spans = [
        ("parent", 0.0, 10.0, -1, 0),
        ("child", 1.0, 3.0, 0, 0),
        ("child", 2.0, 4.0, 0, 0),     # overlaps the first child
        ("grandchild", 2.5, 3.5, 2, 0),
        ("child", 9.0, 12.0, 0, 0),    # sticks out past the parent's end
    ]
    calls, total, self_s = benchlib.span_totals(spans)
    assert calls["child"] == 3
    assert total["parent"] == pytest.approx(10.0)
    assert self_s["parent"] == pytest.approx(10.0 - 3.0 - 1.0)
    assert self_s["child"] == pytest.approx(2.0 + 1.0 + 3.0)
    assert self_s["grandchild"] == pytest.approx(1.0)


def test_tracer_records_nesting_counts_and_errors():
    tracer = benchlib.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return np.zeros(x)

    inner_traced = tracer.wrap("inner", inner,
                               lambda counts, name, r: counts.update({name + ".draws": r.size}))
    outer = tracer.wrap("outer", lambda: [inner_traced(3), inner_traced(4)])
    tracer.op = 7
    outer()
    with pytest.raises(ValueError):
        inner_traced(-1)
    names = [span[0] for span in tracer.spans]
    assert names == ["outer", "inner", "inner", "inner"]
    assert [span[3] for span in tracer.spans] == [-1, 0, 0, -1]
    assert all(span[4] == 7 and span[2] >= span[1] for span in tracer.spans)
    assert tracer.counts["inner.draws"] == 7
    assert tracer.counts["inner.raised"] == 1


def _rmrs_example_report() -> dict:
    sys.path.insert(0, str(SRC))
    from lnmean import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["example", "--reps", "100000", "--seed", "1", "--format", "json"]) == 0
    return json.loads(out.getvalue())


def test_example_gate_passes_and_rejects_perturbed_outputs():
    report = _rmrs_example_report()
    assert benchlib.check_example_report(report) == []

    widened = copy.deepcopy(report)
    row = next(r for r in widened["ci_results"] if r["method"] == "ahmed")
    row["phi_lower"] *= 1.01  # beyond the 0.3% tolerance of criterion 1
    assert any("ahmed lower" in p for p in benchlib.check_example_report(widened))

    shifted = copy.deepcopy(report)
    row = next(r for r in shifted["test_results"] if r["method"] == "gv-umvue")
    row["p_value"] += 0.05  # beyond the 0.02 band of criterion 3
    assert any("gv-umvue" in p for p in benchlib.check_example_report(shifted))

    missing = copy.deepcopy(report)
    missing["ci_results"] = [r for r in missing["ci_results"] if r["method"] != "baklizi"]
    assert benchlib.check_example_report(missing) == ["example: no baklizi interval"]


def test_test_gate_checks_pvalue_and_standard_error():
    good = {"results": [{"method": "gv-weighted", "p_value": 0.435, "mc_std_error": 0.0016}]}
    assert benchlib.check_test_report(good, "gv-weighted") == []
    bad_p = copy.deepcopy(good)
    bad_p["results"][0]["p_value"] = 0.5
    assert benchlib.check_test_report(bad_p, "gv-weighted")
    bad_se = copy.deepcopy(good)
    bad_se["results"][0]["mc_std_error"] = 0.0
    assert benchlib.check_test_report(bad_se, "gv-weighted")


def test_grid_gates_reject_changed_or_malformed_csv():
    header = "mu,sigma2_1,sigma2_2,n1,n2,method,metric,estimate,std_error,failures"
    row = "0,1,0.1,5,10,ahmed,rejection,0.050000,0.021794,0"
    text = "\n".join([header, row, row.replace("rejection", "coverage")]) + "\n"
    assert benchlib.check_grid_csv(text, cells=1, rows_per_cell=2) == []
    assert benchlib.check_grid_csv(text, cells=2, rows_per_cell=2)
    assert benchlib.check_grid_csv(text.replace("0.050000", "1.050000"), 1, 2)
    assert benchlib.check_identical("csv", text.encode(), text.encode()) == []
    assert benchlib.check_identical("csv", text.encode(), text.replace("0.05", "0.06").encode())
