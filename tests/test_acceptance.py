"""Acceptance suite: published-value reproduction and core behavioral contracts.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion.  The simulation criteria run at desk scale (2000 outer
replicates, 5000 inner Monte Carlo reps) and take a few minutes in total.
"""

import math
import time

import numpy as np
from scipy import stats

from lnmean import (COMMON_NORMAL_MEAN, Alternative, Dataset, MCConfig,
                    PivotMethod, SampleSummary, SimulationCell, StreamKey,
                    TestSpec, ahmed_ci, ahmed_components, ahmed_test, baklizi_ci,
                    chi_square, gci, gp_value, gupta_li_ci, gupta_li_mle, gupta_li_test,
                    lr_test,
                    pivot_draw_umvue, pivot_draw_weighted, pivot_weights,
                    rmrs_dataset, run_cell, write_csv)

RMRS = rmrs_dataset()
PHI0 = 20000.0
SIM_SEED = 20240501
DESK = dict(outer_reps=2000, inner_reps=5000, seed=SIM_SEED)


def _report(number: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} - {detail}")


def _rel_err(value: float, target: float) -> float:
    return abs(value - target) / abs(target)


def _reduced_pvalue_greater(ds, mu0, cfg):
    """(p-value, its standard error) for "greater" from the umvue pivot with
    its normal draw integrated out: given the chi-square draws of the stream
    of ``cfg.seed`` the pivot is normal, so each draw gives a Phi term."""
    n = ds.counts()
    u = chi_square((n - 1)[:, None], StreamKey(cfg.seed).generator(), (ds.k, cfg.reps)).T
    rate = n * u / ((n - 1) * ds.variances())
    b_sum = np.sum(rate, axis=-1)
    a_sum = np.sum(rate * ds.means(), axis=-1) - ds.total_n * ds.model.b
    root = np.sqrt(b_sum)
    terms = stats.norm.cdf(np.sign(ds.model.a) * a_sum / root - abs(ds.model.a) * root * mu0)
    p = min(max(1.0 - float(np.mean(terms)), 0.0), 1.0)
    return p, float(np.std(terms, ddof=1) / math.sqrt(cfg.reps))


def test_criterion_1_rmrs_deterministic_intervals():
    start = time.perf_counter()
    comp = ahmed_components(RMRS)
    ahmed = ahmed_ci(comp, 0.95)
    gupta = gupta_li_ci(gupta_li_mle(RMRS), 0.95)
    baklizi = baklizi_ci(comp, 0.95)
    elapsed = time.perf_counter() - start
    checks = {
        "ahmed lower": (_rel_err(ahmed.phi_lower, 15831.21), 0.003),
        "ahmed upper": (_rel_err(ahmed.phi_upper, 27720.26), 0.003),
        "gupta-li lower": (_rel_err(gupta.phi_lower, 16596.91), 0.003),
        "gupta-li upper": (_rel_err(gupta.phi_upper, 28658.17), 0.003),
        "baklizi lower": (_rel_err(baklizi.phi_lower, 14372.59), 0.003),
        "baklizi upper": (_rel_err(baklizi.phi_upper, 29178.79), 0.003),
    }
    passed = all(err <= tol for err, tol in checks.values()) and elapsed < 1.0
    worst = max(checks, key=lambda k: checks[k][0] / checks[k][1])
    _report(1, passed, f"three deterministic intervals within 0.3% "
                       f"(worst: {worst} at {checks[worst][0]:.2%}), {elapsed:.2f}s")
    for name, (err, tol) in checks.items():
        assert err <= tol, f"{name}: relative error {err:.4%}"
    assert elapsed < 1.0


def test_criterion_2_rmrs_deterministic_pvalues():
    start = time.perf_counter()
    fit = gupta_li_mle(RMRS)
    lrt_p = lr_test(RMRS, fit, mu0=math.log(PHI0)).p_value
    ahmed_p = ahmed_test(ahmed_components(RMRS), PHI0).p_value
    gupta_p = gupta_li_test(fit, mu0=math.log(PHI0)).p_value
    elapsed = time.perf_counter() - start
    checks = {
        "lrt": (abs(lrt_p - 0.5245), 0.01),
        "ahmed": (abs(ahmed_p - 0.5582), 0.005),
        "gupta-li": (abs(gupta_p - 0.5343), 0.01),
    }
    passed = all(err <= tol for err, tol in checks.values()) and elapsed < 1.0
    _report(2, passed, f"lrt={lrt_p:.4f} ahmed={ahmed_p:.4f} gupta-li={gupta_p:.4f}, "
                       f"{elapsed:.2f}s")
    for name, (err, tol) in checks.items():
        assert err <= tol, f"{name}: off by {err:.4f}"
    assert elapsed < 1.0


def test_criterion_3_rmrs_generalized_seed_averaged():
    start = time.perf_counter()
    mu0 = math.log(PHI0)
    seeds = range(1, 11)
    averages = {}
    for method, tag in ((PivotMethod.WEIGHTED, "first"), (PivotMethod.UMVUE, "second")):
        p_values, lowers, uppers = [], [], []
        for seed in seeds:
            cfg = MCConfig(reps=100_000, seed=seed, method=method)
            p_values.append(gp_value(RMRS, TestSpec(mu0), cfg).p_value)
            interval = gci(RMRS, 0.95, cfg)
            lowers.append(interval.phi_lower)
            uppers.append(interval.phi_upper)
        averages[tag] = (float(np.mean(p_values)), float(np.mean(lowers)),
                         float(np.mean(uppers)))
    elapsed = time.perf_counter() - start
    (p1, lo1, hi1), (p2, lo2, hi2) = averages["first"], averages["second"]
    checks = {
        "first p": abs(p1 - 0.4348) <= 0.02,
        "second p": abs(p2 - 0.4732) <= 0.02,
        "first gci lower": _rel_err(lo1, 17286.30) <= 0.02,
        "first gci upper": _rel_err(hi1, 30701.92) <= 0.02,
        "second gci lower": _rel_err(lo2, 17090.54) <= 0.02,
        "second gci upper": _rel_err(hi2, 29998.23) <= 0.02,
    }
    passed = all(checks.values()) and elapsed < 30.0
    _report(3, passed, f"p=({p1:.4f}, {p2:.4f}), "
                       f"gci=({lo1:.0f}-{hi1:.0f}, {lo2:.0f}-{hi2:.0f}), {elapsed:.1f}s")
    for name, ok in checks.items():
        assert ok, name
    assert elapsed < 30.0


def test_criterion_4_simulated_sizes():
    start = time.perf_counter()
    balanced = run_cell(SimulationCell(mu=0.0, sigma2s=(1.0, 1.0), ns=(50, 50),
                                       methods=("gv-weighted", "gv-umvue"), **DESK))
    first_elapsed = time.perf_counter() - start
    start2 = time.perf_counter()
    skewed = run_cell(SimulationCell(mu=0.0, sigma2s=(1.0, 2.5), ns=(5, 10),
                                     methods=("ahmed", "gv-weighted"), **DESK))
    second_elapsed = time.perf_counter() - start2
    size_w_bal = balanced.rejection["gv-weighted"].estimate
    size_u_bal = balanced.rejection["gv-umvue"].estimate
    size_w_skew = skewed.rejection["gv-weighted"].estimate
    size_ahmed = skewed.rejection["ahmed"].estimate
    checks = {
        "balanced weighted size": abs(size_w_bal - 0.044) <= 0.015,
        "balanced umvue size": abs(size_u_bal - 0.045) <= 0.015,
        "skewed weighted size": abs(size_w_skew - 0.034) <= 0.015,
        "skewed ahmed size": abs(size_ahmed - 0.397) <= 0.03,
    }
    passed = all(checks.values()) and max(first_elapsed, second_elapsed) < 600.0
    _report(4, passed, f"sizes: weighted={size_w_bal:.4f}/{size_w_skew:.4f}, "
                       f"umvue={size_u_bal:.4f}, ahmed={size_ahmed:.4f} "
                       f"({first_elapsed:.0f}s + {second_elapsed:.0f}s)")
    for name, ok in checks.items():
        assert ok, name
    assert first_elapsed < 600.0 and second_elapsed < 600.0


def test_criterion_5_simulated_power():
    start = time.perf_counter()
    quantitative = run_cell(SimulationCell(mu=0.2, sigma2s=(1.0, 0.5), ns=(50, 50),
                                           methods=("ahmed", "gv-weighted", "gv-umvue"),
                                           **DESK))
    power_w = quantitative.rejection["gv-weighted"].estimate
    power_u = quantitative.rejection["gv-umvue"].estimate
    ordering = {0.5: (power_w, quantitative.rejection["ahmed"].estimate)}
    for sigma2_2 in (0.1, 1.0, 2.5):
        cell = run_cell(SimulationCell(mu=0.2, sigma2s=(1.0, sigma2_2), ns=(50, 50),
                                       methods=("ahmed", "gv-weighted"), **DESK))
        ordering[sigma2_2] = (cell.rejection["gv-weighted"].estimate,
                              cell.rejection["ahmed"].estimate)
    elapsed = time.perf_counter() - start
    checks = {
        "weighted power": abs(power_w - 0.633) <= 0.03,
        "umvue power": abs(power_u - 0.608) <= 0.03,
    }
    for sigma2_2, (gv, ahmed) in ordering.items():
        checks[f"ordering at sigma2_2={sigma2_2}"] = gv >= ahmed
    passed = all(checks.values())
    pairs = ", ".join(f"{s}:{gv:.3f}>={ah:.3f}" for s, (gv, ah) in sorted(ordering.items()))
    _report(5, passed, f"power weighted={power_w:.4f} umvue={power_u:.4f}; "
                       f"ordering {pairs} ({elapsed:.0f}s)")
    for name, ok in checks.items():
        assert ok, name


def test_criterion_6_simulated_coverage():
    start = time.perf_counter()
    in_band = {}
    ahmed_small_n = {}
    for index, sigma2_2 in enumerate((0.1, 0.5, 1.0, 2.5)):
        for jndex, ns in enumerate(((5, 10), (25, 25), (30, 35), (50, 50))):
            cell = run_cell(SimulationCell(
                mu=0.0, sigma2s=(1.0, sigma2_2), ns=ns,
                methods=("ahmed", "gv-weighted", "gv-umvue"),
                cell_index=4 * index + jndex, **DESK))
            for name in ("gv-weighted", "gv-umvue"):
                in_band[(sigma2_2, ns, name)] = cell.coverage[name].estimate
            if ns[0] == 5:
                ahmed_small_n[sigma2_2] = cell.coverage["ahmed"].estimate
    elapsed = time.perf_counter() - start
    band_ok = {key: 0.925 <= value <= 0.975 for key, value in in_band.items()}
    ahmed_ok = {key: value < 0.90 for key, value in ahmed_small_n.items()}
    passed = all(band_ok.values()) and all(ahmed_ok.values())
    low = min(in_band.values())
    high = max(in_band.values())
    _report(6, passed, f"generalized coverage in [{low:.3f}, {high:.3f}] over 16 cells; "
                       f"ahmed n1=5 coverage "
                       f"{', '.join(f'{v:.3f}' for v in ahmed_small_n.values())} "
                       f"({elapsed:.0f}s)")
    for key, ok in band_ok.items():
        assert ok, f"coverage outside [0.925, 0.975] at {key}: {in_band[key]:.4f}"
    for key, ok in ahmed_ok.items():
        assert ok, f"ahmed coverage not below 0.90 at sigma2_2={key}"


def test_criterion_7_property_suite():
    failures = []

    # weight normalization over 10^4 random draws
    rng = np.random.default_rng(1001)
    groups = tuple(SampleSummary(int(rng.integers(3, 30)), float(rng.normal()),
                                 float(rng.uniform(0.2, 3.0))) for _ in range(3))
    ds3 = Dataset(groups=groups)
    w = pivot_weights(ds3, rng.chisquare(ds3.counts() - 1, size=(10_000, 3)))
    if not (np.allclose(w.sum(axis=1), 1.0, atol=1e-12) and np.all((w > 0) & (w < 1))):
        failures.append("weight normalization")

    # reductions to the plain common-mean pivots at a=1, b=0, shared draws
    ds_plain = Dataset(groups=groups, model=COMMON_NORMAL_MEAN)
    n, ybar, s2 = ds_plain.counts(), ds_plain.means(), ds_plain.variances()
    z = rng.standard_normal((2000, 3))
    u = rng.chisquare(n - 1, (2000, 3))
    v = rng.chisquare(n - 1, (2000, 3))
    rate_v = n * v / ((n - 1) * s2)
    reduced_w = np.sum(rate_v * (ybar - z * np.sqrt((n - 1) * s2 / (n * u))), axis=1) \
        / np.sum(rate_v, axis=1)
    if np.max(np.abs(pivot_draw_weighted(ds_plain, z, u, v) - reduced_w)) >= 1e-12:
        failures.append("weighted reduction")
    rate_u = n * u / ((n - 1) * s2)
    reduced_u = np.sum(rate_u * ybar, axis=1) / np.sum(rate_u, axis=1) \
        - z[:, 0] / np.sqrt(np.sum(rate_u, axis=1))
    if np.max(np.abs(pivot_draw_umvue(ds_plain, u, z[:, 0]) - reduced_u)) >= 1e-12:
        failures.append("umvue reduction")

    # single-group generalized interval vs the exact t interval, 50 datasets
    reps = 20_000
    for index in range(50):
        n1 = int(rng.integers(5, 30))
        ds1 = Dataset(groups=(SampleSummary(n1, float(rng.normal()),
                                            float(rng.uniform(0.2, 2.0))),),
                      model=COMMON_NORMAL_MEAN)
        interval = gci(ds1, 0.95, MCConfig(reps=reps, seed=2000 + index,
                                           method=PivotMethod.WEIGHTED))
        mean, scale = ds1.groups[0].mean, math.sqrt(ds1.groups[0].variance / n1)
        t975 = stats.t.ppf(0.975, df=n1 - 1)
        for endpoint, target, prob in ((interval.lower, mean - t975 * scale, 0.025),
                                       (interval.upper, mean + t975 * scale, 0.975)):
            density = stats.t.pdf((mean - target) / scale, df=n1 - 1) / scale
            se_quantile = math.sqrt(prob * (1 - prob) / reps) / density
            if abs(endpoint - target) >= 3.0 * se_quantile:
                failures.append(f"t-interval endpoint (dataset {index})")

    # likelihood-ratio statistic nonnegative on 10^3 random datasets
    for _ in range(1000):
        k = int(rng.integers(1, 4))
        ds = Dataset(groups=tuple(
            SampleSummary(int(rng.integers(3, 25)), float(rng.normal()),
                          float(rng.uniform(0.2, 3.0))) for _ in range(k)))
        if lr_test(ds, gupta_li_mle(ds), mu0=float(rng.normal(0, 1))).statistic < 0:
            failures.append("negative likelihood-ratio statistic")
            break

    # plain and analytically reduced p-values agree within joint error
    for index in range(20):
        ds = Dataset(groups=tuple(
            SampleSummary(int(rng.integers(4, 12)), float(rng.normal()),
                          float(rng.uniform(0.2, 3.0))) for _ in range(2)))
        spec = TestSpec(float(rng.normal(ds.means().mean(), 0.5)), Alternative.GREATER)
        cfg = MCConfig(reps=4000, seed=3000 + index, method=PivotMethod.UMVUE)
        plain = gp_value(ds, spec, cfg)
        reduced_p, reduced_se = _reduced_pvalue_greater(ds, spec.mu0, cfg)
        combined = math.sqrt(plain.mc_std_error ** 2 + reduced_se ** 2)
        if abs(plain.p_value - reduced_p) >= 4.0 * max(combined, 1e-4):
            failures.append(f"plain vs reduced p-value (dataset {index})")

    # bit-identical reruns, and worker count does not change simulation output
    cfg = MCConfig(reps=5000, seed=99, method=PivotMethod.WEIGHTED)
    spec = TestSpec(0.1)
    if gp_value(RMRS, spec, cfg) != gp_value(RMRS, spec, cfg):
        failures.append("rerun determinism")
    cell = SimulationCell(mu=0.0, sigma2s=(1.0, 0.5), ns=(5, 8),
                          methods=("ahmed", "gv-weighted"),
                          outer_reps=200, inner_reps=1000, seed=17)
    serial, parallel = run_cell(cell, workers=1), run_cell(cell, workers=2)
    if serial != parallel:
        failures.append("worker independence")
    else:
        import io
        buffers = []
        for result in (serial, parallel):
            buffer = io.StringIO()
            write_csv([result], buffer)
            buffers.append(buffer.getvalue())
        if buffers[0] != buffers[1]:
            failures.append("csv byte identity")

    passed = not failures
    _report(7, passed, "all property checks hold" if passed
            else "failed: " + "; ".join(sorted(set(failures))))
    assert not failures, failures
