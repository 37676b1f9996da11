"""The classical procedures' command-line output, pinned bit for bit.

``lnmean test`` and ``lnmean ci`` run lrt, ahmed, gupta-li and baklizi on
RMRS and on datasets where some of them fail: ahmed's weights overflow, the
LRT's profile variance overflows at mu0, baklizi's acceptance set is empty,
one group's delta-method variance overflows, ahmed's lower bound is
negative, and every bound is past the float range.  Every float of the JSON report is compared by its
``.hex()`` and every error message exactly, against ``classical_pins.json``.
"""

import json
from pathlib import Path

import pytest

from lnmean.cli import main

PINS = json.loads((Path(__file__).parent / "classical_pins.json").read_text())

DATASETS = {
    "rmrs": None,
    "ahmed-overflow": "a,10,400,1\nb,12,401,2\n",
    "lrt-overflow": "a,10,1e200,1\nb,12,1e200,2\n",
    "baklizi-empty": "a,50,0,0.01\nb,50,3,0.01\n",
    "ahmed-negative": "a,3,0,4\nb,4,0.5,6\n",
    "past-float-range": "a,10,800,1\nb,12,800.2,2\n",
    "baklizi-nan-spread": "a,10,0,1\nb,10,500,1\n",
}

RUNS = (
    ("test", "--phi0", "1", "--method", "lrt,ahmed,gupta-li"),
    ("test", "--mu0", "9.9", "--method", "lrt,ahmed,gupta-li"),
    ("test", "--phi0", "20000", "--alt", "greater", "--method", "ahmed"),
    ("ci", "--method", "ahmed,gupta-li,baklizi"),
    ("ci", "--level", "0.9", "--method", "ahmed,gupta-li,baklizi"),
)


def _pinned(value):
    return value.hex() if isinstance(value, float) else value


@pytest.mark.parametrize("name", DATASETS)
def test_classical_reports_are_pinned_bit_for_bit(capsys, tmp_path, name):
    if DATASETS[name] is None:
        source = ("--example", "rmrs")
    else:
        path = tmp_path / f"{name}.csv"
        path.write_text("group,n,mean_log,var_log\n" + DATASETS[name])
        source = ("--summary", str(path))
    reports = []
    for command, *options in RUNS:
        assert main([command, *source, *options, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["results"]
        reports.append([{key: _pinned(value) for key, value in row.items()} for row in rows])
    assert reports == PINS[name]
