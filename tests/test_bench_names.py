"""The names that ``perfbench/run.py --trace 1`` reaches in the library.

The benchmark wraps functions by (module, attribute) and reads fields of the
ML fit; a rename or a deletion in ``src`` would otherwise surface only when
the traced run fails.  The benchmark script is loaded from its file and
left unchanged (no bytecode is written next to it).
"""

import collections
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from lnmean import gupta_li_mle, rmrs_dataset

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench_run():
    patch = pytest.MonkeyPatch()
    patch.setattr(sys, "dont_write_bytecode", True)
    patch.syspath_prepend(str(PERFBENCH))  # run.py imports its sibling benchlib
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        patch.undo()
    return module


def test_every_traced_name_resolves_in_the_library(bench_run):
    missing = []
    for span, (module_key, attr) in bench_run.TRACED.items():
        target = importlib.import_module(f"lnmean.{module_key}")
        for part in attr.split("."):  # StreamKey.generator is patched on its class
            target = getattr(target, part, None)
        if not callable(target):
            missing.append(span)
    assert missing == []


def test_the_fit_counter_reads_the_ml_fit(bench_run):
    counts = collections.Counter()
    fit = gupta_li_mle(rmrs_dataset())
    bench_run._count_fit(counts, "classical.gupta_li_mle", fit)
    assert counts == {"classical.gupta_li_mle.iterations": fit.iterations,
                      "classical.gupta_li_mle.nonconverged": 0}
