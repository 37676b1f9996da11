"""lnmean benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload example-rmrs --seed 3 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``example-rmrs``: closed loop, one caller, in process.  One operation is
  ``lnmean example --reps 100000 --format json`` followed by ``lnmean test
  --example rmrs --phi0 20000 --method m --reps 100000`` for m in gv-weighted
  and gv-umvue, all at the operation's seed.
* ``grid-classical``: one operation is ``run_grid(cells, workers=1)`` over 8
  cells of the bundled grid (mu in {0, 1}, sigma2_2 in {0.1, 2.5}, n in
  {(5, 10), (50, 50)}) with lrt, ahmed, gupta-li and baklizi at 100 outer
  replicates per cell.
* ``grid-full-2w``: the same cells with all six methods, 5000 inner draws and
  ``workers=2``, so each cell starts its own process pool.  BENCHMARK.json
  does not list it: on a host of two shared vCPUs its two workers make its
  timings drift by 15-30% between runs.  Run it by hand for its layer figures
  and the full-grid estimate.

Operation 0 of every run uses a fixed reference seed (1 for the example,
20240501 for the grid); later operations draw their seeds from ``--seed``.

``--trace 0`` reports the end-to-end metrics of an untraced run.  ``--trace 1``
runs the same loop for a third of the time, then replays each of those operations
twice, once untraced and once with every public function of samplers,
generalized, classical, model, simulate and cli wrapped in spans, alternating
which goes first.  It reports per-layer figures per operation and the tracing
overhead (traced over untraced wall time of the replays).  Spans cannot come
back from worker processes, so ``grid-full-2w`` takes its run_cell spans from
a ``workers=2`` replay traced on the parent side only, and its layer spans
from pass 0 replayed in process.

Every run checks the outputs (acceptance criteria 1-3 tolerances on the
RMRS reports; byte-identical grid CSVs across a repeat at the other worker
count, workers=1 against workers=2) and exits 1 if a check fails.
It also reports whether the reference outputs still hash to the digests in
``digests.json``.  The last line of standard output is the JSON result;
a fuller report and the spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.resources
import io
import json
import os
import platform
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

import benchlib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

REFERENCE_EXAMPLE_SEED = 1
REFERENCE_GRID_SEED = 20240501
EXAMPLE_REPS = 100_000
GV_METHODS = ("gv-weighted", "gv-umvue")
# Monte Carlo replications per example iteration: gp_value and gci for both
# generalized methods inside ``example``, plus the two ``test`` calls.
EXAMPLE_ITERATION_REPS = 6 * EXAMPLE_REPS
GRID_BASE = dict(mu=[0.0, 1.0], sigma2_1=1.0, sigma2_2=[0.1, 2.5],
                 n_pairs=[[5, 10], [50, 50]], phi0=1.0, alpha=0.05,
                 outer_reps=100, inner_reps=5000)
CLASSICAL_METHODS = ("lrt", "ahmed", "gupta-li", "baklizi")
ALL_METHODS = ("lrt", "ahmed", "gupta-li", "baklizi", "gv-weighted", "gv-umvue")

# The gated tail is p75 on every workload, fixed so runs of two commits
# compare the same quantile.  On a host of two shared vCPUs p90 of an
# example run (150-230 calls) moved by 0.10 of its median between runs and
# p75 by 0.02; a grid run has only ~10 passes.  The highest percentile with at
# least 10 samples beyond it is reported beside it where one exists.
TAIL_PERCENTILE = 75.0
WORKLOADS = {
    "example-rmrs": dict(kind="example"),
    "grid-classical": dict(kind="grid", methods=CLASSICAL_METHODS, workers=1),
    "grid-full-2w": dict(kind="grid", methods=ALL_METHODS, workers=2),
}
SETUP_REPEATS = 5

END_TO_END_UNITS = {"setup_s": "s", "latency_ms_p50": "ms", "latency_ms_tail": "ms",
                    "replicates_per_s": "1/s", "peak_rss_mb": "MB"}

# span name -> (module, attribute); StreamKey.generator is patched on the class
TRACED = {
    "samplers.generator": ("samplers", "StreamKey.generator"),
    "samplers.chi_square": ("samplers", "chi_square"),
    "samplers.std_normal": ("samplers", "std_normal"),
    "generalized.sample_pivots": ("generalized", "sample_pivots"),
    "generalized.pvalue_from_pivots": ("generalized", "pvalue_from_pivots"),
    "generalized.interval_from_pivots": ("generalized", "interval_from_pivots"),
    "generalized.gp_value": ("generalized", "gp_value"),
    "generalized.gci": ("generalized", "gci"),
    "classical.gupta_li_mle": ("classical", "gupta_li_mle"),
    "classical.lr_test": ("classical", "lr_test"),
    "classical.gupta_li_test": ("classical", "gupta_li_test"),
    "classical.gupta_li_ci": ("classical", "gupta_li_ci"),
    "classical.ahmed_components": ("classical", "ahmed_components"),
    "classical.ahmed_test": ("classical", "ahmed_test"),
    "classical.ahmed_ci": ("classical", "ahmed_ci"),
    "classical.baklizi_ci": ("classical", "baklizi_ci"),
    "model.umvue_known_variance": ("model", "umvue_known_variance"),
    "simulate.run_grid": ("simulate", "run_grid"),
    "simulate.run_cell": ("simulate", "run_cell"),
    "cli.main": ("cli", "main"),
}
PARENT_SIDE = ("simulate.run_grid", "simulate.run_cell")


def _count_size(counts, name, result):
    counts[name + ".draws"] += getattr(result, "size", 1)


def _count_fit(counts, name, result):
    counts[name + ".iterations"] += result.iterations
    counts[name + ".nonconverged"] += not result.converged


def _count_empty(counts, name, result):
    counts[name + ".empty"] += result is None


def _count_replicates(counts, name, result):
    counts["simulate.replicates"] += result.cell.outer_reps


COUNTERS = {"samplers.chi_square": _count_size, "samplers.std_normal": _count_size,
            "generalized.sample_pivots": _count_size,
            "classical.gupta_li_mle": _count_fit, "classical.baklizi_ci": _count_empty,
            "simulate.run_cell": _count_replicates}

FAILURE_SLOTS = tuple(f"{method}.{metric}" for method in ALL_METHODS
                      for metric in ("test", "interval")
                      if (method, metric) not in {("lrt", "interval"), ("baklizi", "test")})

# name -> unit of every per-layer figure; times and counts are per operation
PER_LAYER_UNITS = {
    **{f"samplers.{n}.{k}": u for n in ("generator", "chi_square", "std_normal")
       for k, u in (("calls", "count/op"), ("s", "s/op"))},
    "samplers.chi_square.draws": "count/op",
    "samplers.std_normal.draws": "count/op",
    "generalized.sample_pivots.calls": "count/op",
    "generalized.sample_pivots.draws": "count/op",
    "generalized.sample_pivots.self_s": "s/op",
    **{f"generalized.{n}.s": "s/op"
       for n in ("pvalue_from_pivots", "interval_from_pivots", "gp_value", "gci")},
    "classical.gupta_li_mle.calls": "count/op",
    "classical.gupta_li_mle.iterations": "count/op",
    "classical.gupta_li_mle.nonconverged": "count/op",
    "classical.gupta_li_mle.s": "s/op",
    **{f"classical.{n}.self_s": "s/op" for n in ("lr_test", "gupta_li_test", "gupta_li_ci")},
    "classical.ahmed_components.calls": "count/op",
    "classical.ahmed.s": "s/op",
    "classical.baklizi_ci.s": "s/op",
    "classical.baklizi_ci.empty": "count/op",
    "model.umvue_known_variance.calls": "count/op",
    "simulate.replicates": "count/op",
    "simulate.run_cell.s": "s/op",
    "simulate.self_s": "s/op",
    "cli.main.s": "s/op",
    "cli.self_s": "s/op",
    "gv-weighted.pvalue_var_x_s": "s",
    "gv-umvue.pvalue_var_x_s": "s",
    "failure_rate": "fraction",
    **{f"failures.{slot}": "fraction" for slot in FAILURE_SLOTS},
    "trace.overhead": "ratio",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time import plus the first call in this interpreter")
    args = parser.parse_args(argv)
    if args.setup_probe:
        start = time.perf_counter()
        bench = Bench(args.workload, args.seed, import_lnmean())
        bench.warm_up()
        print(json.dumps({"setup_s": time.perf_counter() - start}))
        return 0
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    bench = Bench(args.workload, args.seed, import_lnmean())
    bench.warm_up()
    if args.trace:
        report = bench.traced_run(args.seconds / 3.0)
    else:
        report = bench.timed_run(args.seconds, setup)
    return finish(bench, report, args)


def import_lnmean():
    """Import lnmean from this checkout's ``src``, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import lnmean
        from lnmean import classical, cli, generalized, model, samplers, simulate
    except ImportError as exc:
        raise SystemExit(f"cannot import lnmean from {src}: {exc}")
    if src.resolve() not in Path(lnmean.__file__).resolve().parents:
        raise SystemExit(f"lnmean imported from {lnmean.__file__}, not from {src}")
    return dict(classical=classical, cli=cli, generalized=generalized, model=model,
                samplers=samplers, simulate=simulate)


def measure_setup(workload: str, seed: int) -> list[float]:
    """Import plus first call, each in a fresh interpreter; one value per repeat."""
    values = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", "0", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise SystemExit(f"setup probe failed: {proc.stderr.strip()}")
        values.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return values


class Bench:
    """One workload's operations, timed loop, traced replay and gates."""

    def __init__(self, workload: str, seed: int, modules: dict):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.mods = modules
        self.seeds = random.Random(f"{workload}:{seed}")
        self.problems: list[str] = []

    # -- operations ----------------------------------------------------------

    def op_inputs(self, index: int):
        """Inputs of operation ``index``: a seed (example) or the cells of a pass."""
        seed = None if index == 0 else self.seeds.getrandbits(32)
        if self.spec["kind"] == "example":
            return seed or REFERENCE_EXAMPLE_SEED
        config = dict(GRID_BASE, seed=seed or REFERENCE_GRID_SEED,
                      methods=list(self.spec["methods"]))
        return self.mods["simulate"].cells_from_config(config)

    def run_op(self, inputs, workers=None) -> dict:
        if self.spec["kind"] == "example":
            return self._example_op(inputs)
        start = time.perf_counter()
        results = self.mods["simulate"].run_grid(inputs, workers=workers or self.spec["workers"])
        latency = time.perf_counter() - start
        return dict(latency=latency, elapsed=latency, results=results,
                    reps=sum(cell.outer_reps for cell in inputs))

    def _example_op(self, seed: int) -> dict:
        base = ["--reps", str(EXAMPLE_REPS), "--seed", str(seed), "--format", "json"]
        start = time.perf_counter()
        example = self._cli(["example", *base])
        latency = time.perf_counter() - start
        tests = {}
        for method in GV_METHODS:
            t0 = time.perf_counter()
            tests[method] = self._cli(["test", "--example", "rmrs", "--phi0", "20000",
                                       "--method", method, *base])
            tests[method]["seconds"] = time.perf_counter() - t0
        return dict(latency=latency, reps=EXAMPLE_ITERATION_REPS, example=example,
                    tests=tests, elapsed=time.perf_counter() - start)

    def _cli(self, argv) -> dict:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.mods["cli"].main(argv)
        return dict(code=code, stdout=out.getvalue(), stderr=err.getvalue())

    def warm_up(self) -> None:
        """The first call: one example iteration, or the first cell of pass 0."""
        inputs = self.op_inputs(0)
        self.run_op(inputs if self.spec["kind"] == "example" else inputs[:1])

    def loop(self, seconds: float):
        """Closed loop of whole operations until ``seconds`` have passed."""
        ops = []
        start = time.perf_counter()
        while not ops or time.perf_counter() - start < seconds:
            inputs = self.op_inputs(len(ops))
            ops.append((inputs, self.run_op(inputs)))
        return ops, time.perf_counter() - start

    # -- runs ----------------------------------------------------------------

    def timed_run(self, seconds: float, setup: list[float]) -> dict:
        ops, elapsed = self.loop(seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        latencies = [record["latency"] * 1000.0 for _, record in ops]
        tail = benchlib.highest_tail_percentile(len(latencies))
        report = dict(
            ops=len(ops), elapsed_s=elapsed, setup_samples_s=setup,
            latency_samples=len(latencies), latency_samples_ms=latencies,
            latency_rule_percentile=tail,
            latency_ms_at_rule_percentile=(benchlib.percentile(latencies, tail)
                                           if tail is not None else None),
            latency_tail_percentile=TAIL_PERCENTILE,
            metrics=dict(
                setup_s=benchlib.median(setup),
                latency_ms_p50=benchlib.median(latencies),
                latency_ms_tail=benchlib.percentile(latencies, TAIL_PERCENTILE),
                replicates_per_s=sum(record["reps"] for _, record in ops) / elapsed,
                peak_rss_mb=peak_rss_mb,
            ),
        )
        report.update(self.failures(ops))
        if self.name == "grid-full-2w":
            simulate = self.mods["simulate"]
            text = importlib.resources.files("lnmean").joinpath("tables.toml").read_text()
            full_grid = simulate.cells_from_config(simulate.parse_grid_config(text, "toml"))
            report["full_grid_estimate_s"] = (sum(cell.outer_reps for cell in full_grid)
                                              / report["metrics"]["replicates_per_s"])
        self.check(ops)
        return report

    def traced_run(self, seconds: float) -> dict:
        ops, _ = self.loop(seconds)
        report = dict(ops=len(ops))
        report.update(self.failures(ops))
        tracer = benchlib.Tracer()
        if self.name == "grid-full-2w":
            parent = benchlib.Tracer()
            untraced, traced, _, _ = self.paired_replay(parent, PARENT_SIDE, ops)
            report["parent_side_overhead"] = traced / untraced
            run_cell = benchlib.span_totals(parent.spans)[1]["simulate.run_cell"] / len(ops)
            # pass 0 in process, cell by cell so the traced/untraced pairs alternate
            cells = [([cell], None) for cell in ops[0][0]]
            untraced, traced, single, traced_records = self.paired_replay(
                tracer, TRACED, cells, workers=1)
            self.check(ops, single, traced_records)
            layer_ops = 1
        else:
            untraced, traced, _, _ = self.paired_replay(tracer, TRACED, ops)
            self.check(ops)
            layer_ops = len(ops)
        report["overhead"] = traced / untraced
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{self.name}-spans.jsonl.gz")
        if self.name == "grid-full-2w":
            parent.write(OUT / f"{self.name}-parent-spans.jsonl.gz")
        metrics = layer_metrics(tracer, layer_ops)
        if self.name == "grid-full-2w":
            metrics["simulate.run_cell.s"] = run_cell
        metrics["trace.overhead"] = report["overhead"]
        metrics.update(self.pvalue_var_x_s(ops))
        metrics["failure_rate"] = report["failure_rate"]
        for key, rate in report["failure_breakdown"].items():
            metrics[f"failures.{key}"] = rate
        report["metrics"] = metrics
        return report

    def paired_replay(self, tracer, names, ops, workers=None):
        """Run each of ``ops`` once untraced and once traced, alternating which
        goes first, so drift in machine speed falls on both sides alike.

        Returns the untraced and traced wall totals and both record lists.
        """
        untraced, traced = [], []
        for index, (inputs, _) in enumerate(ops):
            tracer.op = index
            for traced_turn in ((False, True) if index % 2 == 0 else (True, False)):
                if traced_turn:
                    with install(tracer, self.mods, names):
                        traced.append(self.run_op(inputs, workers))
                else:
                    untraced.append(self.run_op(inputs, workers))
        return (sum(r["elapsed"] for r in untraced), sum(r["elapsed"] for r in traced),
                untraced, traced)

    # -- figures -------------------------------------------------------------

    def failures(self, ops) -> dict:
        """Failed method operations over attempted ones, overall and per slot."""
        attempted: dict[str, int] = {}
        failed: dict[str, int] = {}
        if self.spec["kind"] == "example":
            for _, record in ops:
                for key, call in [("cli.example", record["example"])] + [
                        (f"cli.test-{m}", record["tests"][m]) for m in GV_METHODS]:
                    attempted[key] = attempted.get(key, 0) + 1
                    failed[key] = failed.get(key, 0) + (call["code"] != 0)
        else:
            for _, record in ops:
                for result in record["results"]:
                    for metric, table in (("test", result.rejection),
                                          ("interval", result.coverage)):
                        for method, rate in table.items():
                            key = f"{method}.{metric}"
                            attempted[key] = attempted.get(key, 0) + rate.reps
                            failed[key] = failed.get(key, 0) + rate.failures
        breakdown = {key: failed[key] / attempted[key] if key in attempted else 0.0
                     for key in FAILURE_SLOTS}
        calls = len(ops) * (1 + len(GV_METHODS) if self.spec["kind"] == "example" else 1)
        return dict(failure_rate=sum(failed.values()) / sum(attempted.values()),
                    failure_counts=failed, attempted_counts=attempted,
                    failure_breakdown=breakdown, attempted=calls,
                    failed=sum(failed.values()) if self.spec["kind"] == "example" else 0)

    def pvalue_var_x_s(self, ops) -> dict:
        """Median over test calls of mc_std_error^2 x wall seconds, per gv method."""
        out = {f"{m}.pvalue_var_x_s": 0.0 for m in GV_METHODS}
        if self.spec["kind"] != "example":
            return out
        for method in GV_METHODS:
            values = []
            for _, record in ops:
                call = record["tests"][method]
                se = json.loads(call["stdout"])["results"][0]["mc_std_error"]
                values.append(se * se * call["seconds"])
            out[f"{method}.pvalue_var_x_s"] = benchlib.median(values)
        return out

    # -- correctness ---------------------------------------------------------

    def check(self, ops, single=None, traced=None) -> None:
        """Gate the outputs of ``ops``.

        ``single`` and ``traced`` are grid-full-2w pass-0 records already run
        in process (untraced and traced); ``single`` is run here if missing.
        """
        if self.spec["kind"] == "example":
            self._check_example(ops)
            return
        cells, record = ops[0]
        first = self.grid_csv([record])
        rows_per_cell = sum((m != "baklizi") + (m != "lrt") for m in self.spec["methods"])
        self.problems += benchlib.check_grid_csv(first.decode(), len(cells), rows_per_cell)
        self.digest = hashlib.sha256(first).hexdigest()
        if self.spec["workers"] == 1:
            # a workers=2 rerun is both a repeat and the worker-count check
            repeat = self.grid_csv([self.run_op(cells, workers=2)])
            self.problems += benchlib.check_identical(
                "grid CSV workers=1 vs workers=2", first, repeat)
            return
        # a workers=1 rerun is both a repeat and the worker-count check
        single = single or [self.run_op(cells, workers=1)]
        self.problems += benchlib.check_identical(
            "grid CSV workers=1 vs workers=2", first, self.grid_csv(single))
        if traced is not None:
            self.problems += benchlib.check_identical(
                "grid CSV traced vs untraced", first, self.grid_csv(traced))

    def _check_example(self, ops) -> None:
        for index, (seed, record) in enumerate(ops):
            calls = [("example", record["example"])] + list(record["tests"].items())
            for label, call in calls:
                if call["code"] != 0:
                    self.problems.append(f"op {index} (seed {seed}) {label} exited "
                                         f"{call['code']}: {call['stderr'].strip()}")
            if any(call["code"] != 0 for _, call in calls):
                continue
            self.problems += benchlib.check_example_report(json.loads(record["example"]["stdout"]))
            for method, call in record["tests"].items():
                self.problems += benchlib.check_test_report(json.loads(call["stdout"]), method)
        first = ops[0][1]["example"]["stdout"].encode()
        repeat = self._example_op(REFERENCE_EXAMPLE_SEED)["example"]["stdout"].encode()
        self.problems += benchlib.check_identical("example JSON repeat", first, repeat)
        self.digest = hashlib.sha256(first).hexdigest()

    def grid_csv(self, records) -> bytes:
        buf = io.StringIO()
        self.mods["simulate"].write_csv([r for rec in records for r in rec["results"]], buf)
        return buf.getvalue().encode()

    def settings(self) -> dict:
        settings = dict(workload=self.name, seed=self.seed,
                        tail_percentile=TAIL_PERCENTILE, setup_repeats=SETUP_REPEATS)
        if self.spec["kind"] == "example":
            settings.update(reps=EXAMPLE_REPS, gv_methods=list(GV_METHODS),
                            reference_seed=REFERENCE_EXAMPLE_SEED, phi0=20000.0)
        else:
            settings.update(GRID_BASE, methods=list(self.spec["methods"]),
                            workers=self.spec["workers"],
                            reference_grid_seed=REFERENCE_GRID_SEED,
                            cells=[dict(mu=c.mu, sigma2s=c.sigma2s, ns=c.ns)
                                   for c in self.op_inputs(0)])
        return settings


@contextlib.contextmanager
def install(tracer, mods: dict, names):
    """Wrap the named functions wherever an lnmean module refers to them."""
    undo = []
    lnmean_modules = [m for key, m in sys.modules.items()
                      if key == "lnmean" or key.startswith("lnmean.")]
    try:
        for name in names:
            module_key, attr = TRACED[name]
            module = mods[module_key]
            if "." in attr:  # a method: patch it on its class
                owner_name, method = attr.split(".")
                owner = getattr(module, owner_name)
                original = getattr(owner, method)
                undo.append((owner, method, original))
                setattr(owner, method, tracer.wrap(name, original, COUNTERS.get(name)))
                continue
            original = getattr(module, attr)
            wrapped = tracer.wrap(name, original, COUNTERS.get(name))
            for other in lnmean_modules:
                for key, value in list(vars(other).items()):
                    if value is original:
                        undo.append((other, key, original))
                        setattr(other, key, wrapped)
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)


def layer_metrics(tracer, ops: int) -> dict:
    """Per-layer figures per operation from the spans and counts of ``tracer``."""
    calls, total, self_s = benchlib.span_totals(tracer.spans)
    counts = tracer.counts
    per = {}
    for name in ("samplers.generator", "samplers.chi_square", "samplers.std_normal"):
        per[name + ".calls"] = calls[name]
        per[name + ".s"] = total[name]
    for name in ("samplers.chi_square", "samplers.std_normal", "generalized.sample_pivots"):
        per[name + ".draws"] = counts[name + ".draws"]
    per["generalized.sample_pivots.calls"] = calls["generalized.sample_pivots"]
    per["generalized.sample_pivots.self_s"] = self_s["generalized.sample_pivots"]
    for name in ("pvalue_from_pivots", "interval_from_pivots", "gp_value", "gci"):
        per[f"generalized.{name}.s"] = total[f"generalized.{name}"]
    per["classical.gupta_li_mle.calls"] = calls["classical.gupta_li_mle"]
    per["classical.gupta_li_mle.iterations"] = counts["classical.gupta_li_mle.iterations"]
    per["classical.gupta_li_mle.nonconverged"] = counts["classical.gupta_li_mle.nonconverged"]
    per["classical.gupta_li_mle.s"] = total["classical.gupta_li_mle"]
    for name in ("lr_test", "gupta_li_test", "gupta_li_ci"):
        per[f"classical.{name}.self_s"] = self_s[f"classical.{name}"]
    per["classical.ahmed_components.calls"] = calls["classical.ahmed_components"]
    per["classical.ahmed.s"] = total["classical.ahmed_test"] + total["classical.ahmed_ci"]
    per["classical.baklizi_ci.s"] = total["classical.baklizi_ci"]
    per["classical.baklizi_ci.empty"] = counts["classical.baklizi_ci.empty"]
    per["model.umvue_known_variance.calls"] = calls["model.umvue_known_variance"]
    per["simulate.run_cell.s"] = total["simulate.run_cell"]
    per["simulate.self_s"] = self_s["simulate.run_cell"] + self_s["simulate.run_grid"]
    per["cli.main.s"] = total["cli.main"]
    per["cli.self_s"] = self_s["cli.main"]
    per["simulate.replicates"] = counts["simulate.replicates"]
    return {key: value / ops for key, value in per.items()}


def finish(bench: Bench, report: dict, args) -> int:
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    report["digest"] = dict(sha256=bench.digest, recorded=recorded.get(bench.name),
                            matches=recorded.get(bench.name) == bench.digest)
    report["provenance"] = provenance()
    report["settings"] = bench.settings()
    report["problems"] = bench.problems
    correct = not bench.problems
    units = END_TO_END_UNITS if not args.trace else PER_LAYER_UNITS
    for name, value in report["metrics"].items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    for key in ("ops", "latency_samples", "latency_rule_percentile",
                "latency_ms_at_rule_percentile", "latency_tail_percentile",
                "failure_rate", "failure_breakdown", "full_grid_estimate_s",
                "overhead", "parent_side_overhead", "digest", "settings", "provenance"):
        if key in report:
            print(f"info {key} = {json.dumps(report[key])}")
    for problem in bench.problems:
        print(f"CHECK FAILED: {problem}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{bench.name}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, default=str) + "\n", encoding="utf-8")
    result = dict(correct=correct, attempted=report["attempted"], failed=report["failed"],
                  metrics={name: dict(value=value, unit=units[name])
                           for name, value in report["metrics"].items()})
    print(json.dumps(result))
    return 0 if correct else 1


def provenance() -> dict:
    import numpy
    import scipy
    revision = ""
    if (ROOT / ".git").exists():  # an exported checkout has no revision to report
        with contextlib.suppress(OSError):
            revision = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                      capture_output=True, text=True, timeout=30).stdout.strip()
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lnmean").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
            source.update(path.read_bytes())
    return dict(git_revision=revision or None, source_sha256=source.hexdigest(),
                python=platform.python_version(), numpy=numpy.__version__,
                scipy=scipy.__version__, nproc=os.cpu_count(),
                usable_cpus=len(os.sched_getaffinity(0)), **cpu_info())


def cpu_info() -> dict:
    model, caches = platform.processor() or None, {}
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    with contextlib.suppress(OSError):
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level} {kind}"] = (index / "size").read_text().strip()
    return dict(cpu_model=model, caches=caches)


if __name__ == "__main__":
    sys.exit(main())
