"""Every generator of the package comes from ``samplers``, and none has its
state written.

``samplers.stream_words`` hashes stream addresses as numpy's seed sequence
does, and ``samplers.stream_generator`` builds a generator from the words;
a second seeding path would draw streams that the tests comparing them with
numpy's own do not see.  This test reads the source of every module and
fails on any call outside ``samplers`` that constructs a seed sequence, a
bit generator or a ``Generator``, and on any write of a generator's state in
any module, ``samplers`` included: a ``.state_address`` or ``.ctypes``
reference, or an assignment to ``.state``.  Writing a generator's state is
seeding it.
"""

import ast
from pathlib import Path

import lnmean

CONSTRUCTORS = {"SeedSequence", "SFC64", "PCG64", "PCG64DXSM", "Philox", "MT19937",
                "Generator", "RandomState", "default_rng"}
STATE_ACCESS = {"state_address", "ctypes"}
PACKAGE = Path(lnmean.__file__).resolve().parent


def _seeding(source: str, name: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if called in CONSTRUCTORS:
                found.append(f"{name}:{node.lineno} {called}")
        elif isinstance(node, ast.Attribute) and node.attr in STATE_ACCESS:
            found.append(f"{name}:{node.lineno} .{node.attr}")
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [f"{name}:{node.lineno} .state =" for target in targets
                      for part in ast.walk(target)
                      if isinstance(part, ast.Attribute) and part.attr == "state"]
    return found


def _file_seeding(path: Path) -> list[str]:
    return _seeding(path.read_text(encoding="utf-8"), path.name)


def _modules() -> list[Path]:
    modules = sorted(PACKAGE.rglob("*.py"))
    assert {path.name for path in modules} >= {"samplers.py", "simulate.py", "generalized.py"}
    return modules


def test_only_samplers_builds_generators():
    found = [hit for path in _modules() if path.name != "samplers.py"
             for hit in _file_seeding(path)]
    assert found == []


def test_no_module_writes_a_generators_state():
    # a state access is reported as ".name", a construction by its bare name
    found = [hit for path in _modules() for hit in _file_seeding(path)
             if hit.split(" ", 1)[1].startswith(".")]
    assert found == []


def test_the_guard_sees_a_construction():
    # samplers itself builds them, so the scan is not blind to one
    hits = _file_seeding(PACKAGE / "samplers.py")
    assert any("SFC64" in hit for hit in hits) and any("Generator" in hit for hit in hits)


def test_the_guard_sees_a_state_write():
    source = ("rng.bit_generator.state = saved\n"
              "bits.state, other = saved, 1\n"
              "address = bits.ctypes.state_address\n")
    assert _seeding(source, "m.py") == ["m.py:1 .state =", "m.py:2 .state =",
                                        "m.py:3 .state_address", "m.py:3 .ctypes"]
    assert _seeding("state = bits.state\nbits.advance(3)\n", "m.py") == []
