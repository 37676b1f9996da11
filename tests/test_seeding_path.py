"""Every generator of the package comes from ``samplers``.

``samplers.stream_words`` hashes stream addresses as numpy's seed sequence
does, and ``samplers.stream_generator`` builds a generator from the words;
a second seeding path elsewhere would draw streams that the tests comparing
the two with numpy's own do not see.  This test reads the source of every
other module and fails on any call that constructs a seed sequence, a bit
generator or a ``Generator``.
"""

import ast
from pathlib import Path

import lnmean

CONSTRUCTORS = {"SeedSequence", "SFC64", "PCG64", "PCG64DXSM", "Philox", "MT19937",
                "Generator", "RandomState", "default_rng"}
PACKAGE = Path(lnmean.__file__).resolve().parent


def _constructions(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in CONSTRUCTORS:
                found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_only_samplers_builds_generators():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert {path.name for path in modules} >= {"samplers.py", "simulate.py", "generalized.py"}
    found = [hit for path in modules if path.name != "samplers.py"
             for hit in _constructions(path)]
    assert found == []


def test_the_guard_sees_a_construction():
    # samplers itself builds them, so the scan is not blind to them
    hits = _constructions(PACKAGE / "samplers.py")
    assert any("SFC64" in hit for hit in hits) and any("Generator" in hit for hit in hits)
