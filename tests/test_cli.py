import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from lnmean.cli import main
from lnmean.rmrs import RMRS_SUMMARY_ROWS


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv):
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------------------
# example command


def test_example_is_deterministic(capsys):
    args = ("example", "--reps", "5000", "--seed", "21")
    code_a, out_a, _ = _run(capsys, *args)
    code_b, out_b, _ = _run(capsys, *args)
    assert code_a == code_b == 0
    assert out_a == out_b
    assert "seed = 21" in out_a


def test_example_embeds_published_summaries(capsys):
    report = _run_json(capsys, "example", "--reps", "5000", "--seed", "1",
                       "--format", "json")
    published = [(g["label"], g["n"], g["mean"], g["variance_published"])
                 for g in report["groups"]]
    assert published == list(RMRS_SUMMARY_ROWS)
    for entry, (_, n, _, var) in zip(report["groups"], RMRS_SUMMARY_ROWS):
        assert entry["variance"] == pytest.approx(n / (n - 1) * var, rel=1e-15)
    assert {r["method"] for r in report["test_results"]} == \
        {"lrt", "ahmed", "gupta-li", "gv-weighted", "gv-umvue"}
    assert {r["method"] for r in report["ci_results"]} == \
        {"ahmed", "gupta-li", "baklizi", "gv-weighted", "gv-umvue"}


# ---------------------------------------------------------------------------
# test command


def test_rmrs_pvalues_match_published_table(capsys):
    report = _run_json(capsys, "test", "--example", "rmrs", "--phi0", "20000",
                       "--method", "all", "--reps", "100000", "--seed", "1",
                       "--format", "json")
    values = {r["method"]: r["p_value"] for r in report["results"]}
    assert values["lrt"] == pytest.approx(0.5245, abs=0.01)
    assert values["ahmed"] == pytest.approx(0.5582, abs=0.005)
    assert values["gupta-li"] == pytest.approx(0.5343, abs=0.01)
    assert values["gv-weighted"] == pytest.approx(0.4348, abs=0.02)
    assert values["gv-umvue"] == pytest.approx(0.4732, abs=0.02)
    assert report["mu0"] == pytest.approx(math.log(20000.0))


def test_rmrs_intervals_match_published_table(capsys):
    report = _run_json(capsys, "ci", "--example", "rmrs", "--level", "0.95",
                       "--method", "all", "--reps", "100000", "--seed", "1",
                       "--format", "json")
    table = {r["method"]: r for r in report["results"]}
    expected = {
        "ahmed": (15831.21, 27720.26, 0.003),
        "gupta-li": (16596.91, 28658.17, 0.003),
        "baklizi": (14372.59, 29178.79, 0.003),
        "gv-weighted": (17286.30, 30701.92, 0.02),
        "gv-umvue": (17090.54, 29998.23, 0.02),
    }
    for method, (lo, hi, rel) in expected.items():
        row = table[method]
        assert row["phi_lower"] == pytest.approx(lo, rel=rel)
        assert row["phi_upper"] == pytest.approx(hi, rel=rel)


def test_interval_scales_are_exponentially_linked(capsys):
    report = _run_json(capsys, "ci", "--example", "rmrs", "--reps", "5000",
                       "--seed", "5", "--format", "json")
    for row in report["results"]:
        assert row["phi_lower"] == pytest.approx(math.exp(row["mu_lower"]), rel=1e-14)
        assert row["phi_upper"] == pytest.approx(math.exp(row["mu_upper"]), rel=1e-14)


def test_single_group_summary_matches_t_test(capsys, tmp_path):
    n, mean, var = 14, 0.42, 1.37
    path = tmp_path / "one.csv"
    path.write_text(f"group,n,mean_log,var_log\na,{n},{mean!r},{var!r}\n")
    mu0 = 0.1
    report = _run_json(capsys, "test", "--summary", str(path), "--mu0", str(mu0),
                       "--alt", "two-sided", "--model-a", "1", "--model-b", "0",
                       "--method", "gv-weighted", "--reps", "50000", "--seed", "2",
                       "--format", "json")
    row = report["results"][0]
    t_stat = (mean - mu0) * math.sqrt(n) / math.sqrt(var)
    p_t = 2.0 * stats.t.sf(abs(t_stat), df=n - 1)
    assert row["p_value"] == pytest.approx(p_t, abs=3 * 2 * max(row["mc_std_error"], 1e-4))


def test_raw_and_summary_inputs_agree_exactly(capsys, tmp_path):
    rng = np.random.default_rng(6)
    groups = {"g1": rng.normal(0.2, 1.0, 9), "g2": rng.normal(0.5, 1.3, 12)}
    raw = tmp_path / "raw.csv"
    raw.write_text("group,value\n" + "".join(
        f"{label},{float(value)!r}\n" for label, values in groups.items() for value in values))
    summary = tmp_path / "summary.csv"
    summary.write_text("group,n,mean_log,var_log\n" + "".join(
        f"{label},{len(values)},{float(np.mean(values))!r},{float(np.var(values, ddof=1))!r}\n"
        for label, values in groups.items()))
    args = ("--mu0", "0.3", "--model-a", "1", "--model-b", "0",
            "--method", "gv-umvue", "--reps", "5000", "--seed", "9",
            "--format", "json")
    from_raw = _run_json(capsys, "test", "--input", str(raw), *args)
    from_summary = _run_json(capsys, "test", "--summary", str(summary), *args)
    assert from_raw["results"] == from_summary["results"]
    assert from_raw["groups"] == from_summary["groups"]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_json_report_round_trips(capsys, tmp_path):
    # infinite bounds and estimates are written as strings, not bare Infinity
    wide = tmp_path / "wide.csv"
    wide.write_text("group,n,mean_log,var_log\na,3,0,800\nb,3,1,900\n")
    for argv in (("test", "--example", "rmrs", "--phi0", "20000", "--method", "lrt"),
                 ("ci", "--summary", str(wide), "--method", "all", "--reps", "10000")):
        code, out, err = _run(capsys, *argv, "--format", "json")
        assert code == 0, err
        parsed = json.loads(out, parse_constant=_reject_constant)
        assert json.loads(json.dumps(parsed)) == parsed


def test_env_var_seed_with_flag_override(capsys, monkeypatch):
    monkeypatch.setenv("LNMEAN_SEED", "123")
    by_env = _run_json(capsys, "ci", "--example", "rmrs", "--method", "gv-weighted",
                       "--reps", "5000", "--format", "json")
    assert by_env["seed"] == 123
    by_flag = _run_json(capsys, "ci", "--example", "rmrs", "--method", "gv-weighted",
                        "--reps", "5000", "--seed", "7", "--format", "json")
    assert by_flag["seed"] == 7


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for command in ("test", "ci", "example", "simulate"):
        assert command in out


# ---------------------------------------------------------------------------
# error handling


def test_unknown_method_is_a_usage_error(capsys):
    code, _, err = _run(capsys, "test", "--example", "rmrs", "--phi0", "1",
                        "--method", "sorcery")
    assert code == 2
    assert "unknown method" in err


def test_gupta_li_runs_on_one_and_three_groups(capsys, tmp_path):
    rows = ["a,10,0.0,1.0", "b,12,0.3,0.5", "c,20,-0.1,2.0"]
    for k in (1, 3):
        path = tmp_path / f"groups{k}.csv"
        path.write_text("\n".join(["group,n,mean_log,var_log", *rows[:k]]) + "\n")
        report = _run_json(capsys, "ci", "--summary", str(path), "--method", "gupta-li",
                           "--format", "json")
        (row,) = report["results"]
        assert row["method"] == "gupta-li" and row["mu_lower"] < row["mu_upper"]
        report = _run_json(capsys, "test", "--summary", str(path), "--phi0", "1",
                           "--method", "gupta-li", "--format", "json")
        assert 0.0 < report["results"][0]["p_value"] <= 1.0
        # "all" includes gupta-li at any number of groups
        report = _run_json(capsys, "ci", "--summary", str(path), "--method", "all",
                           "--reps", "5000", "--format", "json")
        assert "gupta-li" in {r["method"] for r in report["results"]}


def test_bad_seed_is_a_usage_error(capsys, monkeypatch):
    for seed in ("-1", str(2 ** 64)):
        code, out, err = _run(capsys, "test", "--example", "rmrs", "--phi0", "1",
                              "--seed", seed, "--method", "all")
        assert code == 2 and out == "", seed
        assert err.startswith("error: ") and "seed" in err, seed
    monkeypatch.setenv("LNMEAN_SEED", "-1")
    code, out, err = _run(capsys, "ci", "--example", "rmrs", "--method", "all")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "seed" in err
    monkeypatch.setenv("LNMEAN_SEED", "abc")
    code, out, err = _run(capsys, "ci", "--example", "rmrs", "--method", "all")
    assert code == 2 and out == ""
    assert err == "error: LNMEAN_SEED must be an integer, not 'abc'\n"


def test_nonpositive_raw_data_under_lognormal_model(capsys, tmp_path):
    path = tmp_path / "raw.csv"
    path.write_text("group,value\na,1.0\na,-2.0\na,3.0\n")
    code, _, err = _run(capsys, "test", "--input", str(path), "--phi0", "1")
    assert code == 2
    assert "positive" in err


def test_import_loads_neither_scipy_stats_nor_optimize():
    # the quantiles come from scipy.special and the ML fit searches on its
    # own, so neither slow import is paid at startup
    import lnmean

    env = dict(os.environ, PYTHONPATH=str(Path(lnmean.__file__).parent.parent))
    code = ("import sys, lnmean, lnmean.cli; "
            "print([m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_large_log_variances_report_without_traceback(tmp_path):
    # exp of the log-scale bounds overflows a float; the original-scale
    # bounds are reported as inf instead of raising
    import lnmean

    path = tmp_path / "wide.csv"
    path.write_text("group,n,mean_log,var_log\na,3,0,800\nb,3,1,900\n")
    env = dict(os.environ, PYTHONPATH=str(Path(lnmean.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "lnmean", "ci", "--summary", str(path),
                           "--method", "all", "--reps", "10000", "--format", "json"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    results = {r["method"]: r for r in json.loads(proc.stdout)["results"]}
    assert set(results) == {"ahmed", "gupta-li", "baklizi", "gv-weighted", "gv-umvue"}
    assert results["gv-weighted"]["phi_upper"] == "inf"
    # exp(mu0) overflows too: phi0 is inf, so ahmed, which tests phi0, fails by
    # name, and the methods that test mu0 on the log scale report
    proc = subprocess.run([sys.executable, "-m", "lnmean", "test", "--example", "rmrs",
                           "--mu0", "1000", "--reps", "10000", "--format", "json"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["phi0"] == "inf"
    results = {r["method"]: r for r in report["results"]}
    assert "phi0" in results["ahmed"]["error"]
    for method in ("lrt", "gupta-li"):
        assert 0.0 <= results[method]["p_value"] < 1e-100, method
    for method in ("gv-weighted", "gv-umvue"):
        # no pivot reaches mu0, but the Monte Carlo error of that zero is
        # not zero: it is resolved only to 1/reps
        assert results[method]["p_value"] == 0.0
        assert results[method]["mc_std_error"] > 0.0


def _lnmean(*argv):
    """``python -m lnmean`` in a child process, run on this checkout."""
    import lnmean

    env = dict(os.environ, PYTHONPATH=str(Path(lnmean.__file__).parent.parent))
    return subprocess.run([sys.executable, "-m", "lnmean", *map(str, argv)],
                          capture_output=True, text=True, env=env, timeout=120)


def test_short_csv_rows_name_the_missing_value(tmp_path):
    summary = tmp_path / "f.csv"
    summary.write_text("group,n,mean_log,var_log\na,10,1.0,0.5\nb,12,1.2\n")
    raw = tmp_path / "raw.csv"
    raw.write_text("group,value\na,1.0\nb\n")
    for source, path, column in (("--summary", summary, "var_log"), ("--input", raw, "value")):
        proc = _lnmean("ci", source, path, "--method", "ahmed")
        assert "Traceback" not in proc.stderr
        assert proc.returncode == 2
        assert proc.stderr.strip() == f"error: {path}:3: missing value for {column}"


def test_unallocatable_reps_is_a_usage_error():
    # 10^15 draws per group: numpy refuses the allocation before touching memory
    proc = _lnmean("test", "--example", "rmrs", "--phi0", "20000", "--method", "gv-umvue",
                   "--reps", 10 ** 15)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: Unable to allocate")


def test_ahmed_overflow_fails_by_name_and_others_report(tmp_path):
    # at log means near 400 the ahmed weights overflow; ahmed and baklizi
    # report the failure and every other method still reports its interval
    import lnmean

    path = tmp_path / "far.csv"
    path.write_text("group,n,mean_log,var_log\na,10,400,1\nb,12,401,2\n")
    env = dict(os.environ, PYTHONPATH=str(Path(lnmean.__file__).parent.parent))
    base = [sys.executable, "-m", "lnmean", "ci", "--summary", str(path), "--reps", "10000"]
    proc = subprocess.run(base + ["--method", "all", "--format", "json"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    results = {r["method"]: r for r in json.loads(proc.stdout)["results"]}
    for method in ("gv-weighted", "gv-umvue", "gupta-li"):
        assert "error" not in results[method]
        assert math.isfinite(results[method]["phi_lower"])
    for method in ("ahmed", "baklizi"):
        assert "overflow" in results[method]["error"]
    proc = subprocess.run(base + ["--method", "ahmed"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0, proc.stderr
    assert "ahmed          (failed: " in proc.stdout


def test_intervals_past_the_float_range_answer_on_the_log_scale(capsys, tmp_path):
    # at log means near 800 exp of every bound overflows: the intervals answer
    # on the log scale, where coverage is read, and report inf on the original
    # scale; ahmed's weights overflow, so ahmed and baklizi fail by name
    path = tmp_path / "far.csv"
    path.write_text("group,n,mean_log,var_log\na,10,800,1\nb,12,800.2,2\n")
    report = _run_json(capsys, "ci", "--summary", str(path), "--reps", "10000",
                       "--format", "json")
    results = {r["method"]: r for r in report["results"]}
    for method in ("gupta-li", "gv-weighted", "gv-umvue"):
        row = results[method]
        assert 800.0 < row["mu_lower"] < row["mu_upper"] < 803.0, method
        assert row["phi_lower"] == row["phi_upper"] == row["estimate"] == "inf", method
    gupta_li = results["gupta-li"]
    assert (round(gupta_li["mu_lower"], 4), round(gupta_li["mu_upper"], 4)) == (800.1403, 801.3883)
    for method in ("ahmed", "baklizi"):
        assert "overflow" in results[method]["error"]


def test_log_scale_tests_answer_at_a_null_past_the_float_range(capsys, tmp_path):
    # phi0 = exp(800.1) is inf, but lrt and gupta-li test mu0 on the log scale,
    # as the generalized methods do; ahmed tests on the original scale, where
    # its weights overflow, and fails by name
    path = tmp_path / "far.csv"
    path.write_text("group,n,mean_log,var_log\na,10,800,1\nb,12,800.2,2\n")
    report = _run_json(capsys, "test", "--summary", str(path), "--mu0", "800.1",
                       "--reps", "5000", "--format", "json")
    assert report["phi0"] == "inf"
    results = {r["method"]: r for r in report["results"]}
    for method in ("lrt", "gupta-li", "gv-weighted", "gv-umvue"):
        assert "error" not in results[method], results[method]
        assert 0.0 < results[method]["p_value"] < 1.0, method
    assert math.isfinite(results["lrt"]["statistic"]) and results["lrt"]["statistic"] > 0.0
    assert results["ahmed"]["error"] == (
        "ahmed delta-method variances overflow or underflow the float range")


def test_lrt_overflow_fails_by_name_and_gupta_li_reports(capsys, tmp_path):
    # at log means of 1e200, (ybar - mu0)^2 overflows in the profile at mu0 = 0
    path = tmp_path / "f.csv"
    path.write_text("group,n,mean_log,var_log\na,10,1e200,1\nb,12,1e200,2\n")
    code, out, err = _run(capsys, "test", "--summary", str(path),
                          "--method", "lrt,gupta-li,ahmed", "--phi0", "1")
    assert code == 0, err
    rows = {line.split()[0]: line for line in out.splitlines()[4:]}
    assert "(failed: the profile variance at mu = 0 overflows the float range)" in rows["lrt"]
    assert rows["gupta-li"].split()[1] == "0.0000"
    assert "(failed: ahmed delta-method variances overflow" in rows["ahmed"]


def test_ci_table_rows_stay_narrow_for_huge_bounds(capsys, tmp_path):
    path = tmp_path / "wide.csv"
    path.write_text("group,n,mean_log,var_log\na,3,0,800\nb,3,1,900\n")
    code, out, err = _run(capsys, "ci", "--summary", str(path), "--method", "all",
                          "--reps", "10000")
    assert code == 0, err
    rows = out.splitlines()
    assert len(rows) == 3 + 5
    assert max(len(row) for row in rows) <= 100


def test_test_table_rows_stay_narrow_for_huge_statistics(capsys, tmp_path):
    # gupta-li's statistic here is 3.8e200, printed in exponent form
    path = tmp_path / "far.csv"
    path.write_text("group,n,mean_log,var_log\na,10,1e200,1\nb,12,1e200,2\n")
    code, out, err = _run(capsys, "test", "--summary", str(path), "--method", "gupta-li,lrt",
                          "--phi0", "1")
    assert code == 0, err
    rows = out.splitlines()
    assert len(rows) == 4 + 2
    assert max(len(row) for row in rows) <= 100
    assert rows[4].split()[1:] == ["0.0000", "-", "3.8475e+200"]


def test_empty_acceptance_set_is_an_error_row(capsys, tmp_path):
    path = tmp_path / "apart.csv"
    path.write_text("group,n,mean_log,var_log\na,50,0,0.01\nb,50,3,0.01\n")
    base = ("ci", "--summary", str(path), "--method", "ahmed,baklizi")
    code, out, err = _run(capsys, *base)
    assert code == 0, err
    rows = {line.split()[0]: line for line in out.splitlines()[3:]}
    assert "(failed: " not in rows["ahmed"]
    assert "baklizi        (failed: empty acceptance set: no common mean is accepted " \
           "at level 0.95)" in rows["baklizi"]
    ahmed, baklizi = _run_json(capsys, *base, "--format", "json")["results"]
    assert math.isfinite(ahmed["phi_lower"]) and "error" not in ahmed
    assert baklizi == {"method": "baklizi", "error": "empty acceptance set: no common mean "
                                                     "is accepted at level 0.95"}


def test_example_shares_fit_components_and_pivots(capsys, monkeypatch):
    from lnmean import classical, generalized

    calls = {"gupta_li_mle": 0, "ahmed_components": 0, "sample_pivots": 0}
    for module, name in ((classical, "gupta_li_mle"), (classical, "ahmed_components"),
                         (generalized, "sample_pivots")):
        original = getattr(module, name)

        def counted(*args, original=original, name=name):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    code, _, err = _run(capsys, "example", "--reps", "5000", "--seed", "3")
    assert code == 0, err
    # both pivot kinds in one pass
    assert calls == {"gupta_li_mle": 1, "ahmed_components": 1, "sample_pivots": 1}


def test_phi0_and_mu0_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["test", "--example", "rmrs", "--phi0", "1", "--mu0", "0"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_classical_method_requires_lognormal_model(capsys, tmp_path):
    path = tmp_path / "two.csv"
    path.write_text("group,n,mean_log,var_log\na,10,0.0,1.0\nb,12,0.1,0.9\n")
    code, _, err = _run(capsys, "test", "--summary", str(path), "--mu0", "0",
                        "--model-a", "1", "--model-b", "0", "--method", "ahmed")
    assert code == 2
    assert "lognormal" in err


def test_one_sided_alt_excludes_two_sided_only_methods(capsys):
    report = _run_json(capsys, "test", "--example", "rmrs", "--phi0", "20000",
                       "--alt", "greater", "--method", "all", "--reps", "5000",
                       "--seed", "1", "--format", "json")
    methods = {r["method"] for r in report["results"]}
    assert methods == {"ahmed", "gv-weighted", "gv-umvue"}
    code, _, err = _run(capsys, "test", "--example", "rmrs", "--phi0", "20000",
                        "--alt", "greater", "--method", "lrt")
    assert code == 2 and "two-sided" in err


SUMMARY = "group,n,mean_log,var_log\n"
RAW = "group,value\n"
TWO_GROUPS = SUMMARY + "a,10,0.5,1.0\nb,5,0.1,1.0\n"


@pytest.mark.parametrize("text, argv, message", [
    pytest.param(TWO_GROUPS, "test --summary {path} --mu0 0 --model-a 1",
                 "--model-a and --model-b must be given together", id="model-a-alone"),
    pytest.param(None, "test --example rmrs --mu0 0 --model-a 1 --model-b 0",
                 "the bundled example fixes the lognormal-mean model", id="example-with-model"),
    pytest.param(RAW + "a,1.0\n ,2.0\n", "ci --input {path}",
                 "{path}:3: empty group label", id="empty-label"),
    pytest.param(RAW + "a,1.0\na,abc\n", "ci --input {path}",
                 "{path}:3: bad value 'abc'", id="bad-value"),
    pytest.param(RAW, "ci --input {path}", "{path}: no data rows", id="raw-header-only"),
    pytest.param(SUMMARY, "ci --summary {path}", "{path}: no data rows",
                 id="summary-header-only"),
    pytest.param(SUMMARY + "a,1,0.5,1.0\nb,5,0.1,1.0\n", "ci --summary {path}",
                 "{path}:2: each group needs at least two observations", id="n-of-1"),
    pytest.param("group,n,mean_log\na,10,0.5\n", "ci --summary {path}",
                 "{path}: missing column(s) var_log", id="missing-column"),
    pytest.param(TWO_GROUPS, "test --summary {path} --phi0 2 --model-a 1 --model-b 0",
                 "--phi0 applies to the lognormal-mean model; use --mu0",
                 id="phi0-outside-lognormal"),
    pytest.param(None, "test --example rmrs --phi0 0", "phi0 must be positive and finite",
                 id="test-phi0-0"),
    pytest.param(None, "test --example rmrs --phi0 inf", "phi0 must be positive and finite",
                 id="test-phi0-inf"),
    pytest.param(None, "test --example rmrs --phi0 nan", "phi0 must be positive and finite",
                 id="test-phi0-nan"),
    pytest.param(None, "example --phi0 0", "phi0 must be positive and finite",
                 id="example-phi0-0"),
    pytest.param(None, "example --phi0 inf", "phi0 must be positive and finite",
                 id="example-phi0-inf"),
    pytest.param(None, "example --phi0 nan", "phi0 must be positive and finite",
                 id="example-phi0-nan"),
    pytest.param(None, "ci --example rmrs --level 1.5", "level must be in (0, 1)",
                 id="ci-level"),
    pytest.param(None, "example --level 1.5", "level must be in (0, 1)", id="example-level"),
])
def test_usage_errors_exit_2_with_their_message(capsys, tmp_path, text, argv, message):
    path = tmp_path / "data.csv"
    if text is not None:
        path.write_text(text)
    code, out, err = _run(capsys, *(arg.format(path=path) for arg in argv.split()))
    assert (code, out, err) == (2, "", f"error: {message.format(path=path)}\n")


# ---------------------------------------------------------------------------
# simulate command


def test_simulate_dry_run_with_bundled_config(capsys):
    code, out, _ = _run(capsys, "simulate", "--config", "tables.toml", "--dry-run")
    assert code == 0
    assert out.startswith("48 cells, 96000 outer replicates")


def test_simulate_missing_config(capsys):
    code, _, err = _run(capsys, "simulate", "--config", "/no/such/file.toml")
    assert code == 2
    assert "not found" in err


def test_simulate_bad_config_is_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"mu": [0.0]}))
    code, _, err = _run(capsys, "simulate", "--config", str(path))
    assert code == 2
    assert "missing" in err
    # a top level that is not an object of settings
    for text in ("5", "null", "[1, 2]", '"abc"'):
        path.write_text(text)
        code, _, err = _run(capsys, "simulate", "--config", str(path))
        assert code == 2, text
        assert "JSON object" in err and "Traceback" not in err, text


def test_simulate_workers_flag_does_not_change_output(capsys, tmp_path):
    config = {
        "mu": [0.0], "sigma2_1": 1.0, "sigma2_2": [1.5], "n_pairs": [[5, 6]],
        "alpha": 0.05, "outer_reps": 100, "inner_reps": 1000, "seed": 13,
        "methods": ["gv-umvue"],
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(config))
    code_serial, out_serial, _ = _run(capsys, "simulate", "--config", str(path))
    code_parallel, out_parallel, _ = _run(capsys, "simulate", "--config", str(path),
                                          "--workers", "2")
    assert code_serial == code_parallel == 0
    assert out_serial == out_parallel


def test_simulate_writes_deterministic_csv(capsys, tmp_path):
    config = {
        "mu": [0.0], "sigma2_1": 1.0, "sigma2_2": [0.5], "n_pairs": [[5, 8]],
        "alpha": 0.05, "outer_reps": 100, "inner_reps": 1000, "seed": 4,
        "methods": ["ahmed", "gv-weighted"],
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(config))
    code_a, out_a, _ = _run(capsys, "simulate", "--config", str(path))
    code_b, out_b, _ = _run(capsys, "simulate", "--config", str(path))
    assert code_a == code_b == 0
    assert out_a == out_b
    assert out_a.splitlines()[0] == ("mu,phi0,alpha,sigma2s,ns,method,metric,"
                                     "estimate,std_error,failures")
    target = tmp_path / "out.csv"
    code, _, _ = _run(capsys, "simulate", "--config", str(path),
                      "--output", str(target))
    assert code == 0
    assert target.read_text() == out_a


def test_simulate_five_group_cell_runs_every_method(capsys, tmp_path):
    config = {
        "mu": [0.0], "sigma2_1": 0.1, "sigma2_2": [[0.5, 1.0, 2.5, 1.0]],
        "n_pairs": [[5, 10, 25, 30, 50]], "alpha": 0.05, "outer_reps": 100,
        "inner_reps": 1000, "seed": 6, "methods": ["all"],
    }
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(config))
    code, out, err = _run(capsys, "simulate", "--config", str(path))
    assert code == 0, err
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert {row[5] for row in rows} == {"lrt", "ahmed", "gupta-li", "baklizi",
                                        "gv-weighted", "gv-umvue"}
    assert all(row[:5] == ["0", "1", "0.05", "0.1;0.5;1;2.5;1", "5;10;25;30;50"]
               for row in rows)


# ---------------------------------------------------------------------------
# README


def test_readme_command_examples_run(capsys):
    # every README command that reads no file of the user's, run as written,
    # as the README's library example is (test_generalized), so that drift
    # in the documentation fails the suite
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.MULTILINE | re.DOTALL)
    commands = [shlex.split(line.split("#")[0])[1:] for block in blocks
                for line in block.splitlines() if line.startswith("lnmean ")]
    runnable = [argv for argv in commands
                if not {"--input", "--summary", "--output"} & set(argv)]
    assert [argv[0] for argv in runnable] == ["example", "test", "ci", "simulate"]
    for argv in runnable:
        code, out, err = _run(capsys, *argv)
        assert code == 0, (argv, err)
        if "json" in argv:
            json.loads(out)
