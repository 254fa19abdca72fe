"""Source checks on the package modules and the tests (stdlib `ast` only).

Every import is used; the package `__init__.py`, names listed in
`__all__` and `from __future__` are exempt as re-exports.  Outside the
engine, only `compiler.execute_schedule` applies segments, so gates
reach the engine through one path.  No package module imports `expm`: the engine's own stacked kernel
exponentiates every block, and scipy's `expm` serves only the tests'
dense oracle."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ybqc"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TEST_MODULES = sorted(TESTS.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):     # names re-exported through __all__
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") \
        == ["line 1: os"]
    assert unused_imports("from __future__ import annotations\n"
                          "from a import b as c\nc()\n") == []
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []


@pytest.mark.parametrize("path", MODULES + TEST_MODULES, ids=lambda p:
                         p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def expm_references(source: str) -> list[int]:
    """Lines that import `expm` or read it as an attribute."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "expm" in alias.name.split(".") for alias in node.names) \
                or isinstance(node, ast.Attribute) and node.attr == "expm":
            lines.append(node.lineno)
    return lines


def test_checker_finds_expm():
    assert expm_references("from scipy.linalg import expm as e\n"
                           "import scipy.linalg as sl\n"
                           "u = sl.expm(a)\nv = _expm_stack(a)\n") == [1, 3]


def test_package_does_not_use_expm():
    found = {p.name: expm_references(p.read_text()) for p in SRC.glob("*.py")}
    assert {name: lines for name, lines in found.items() if lines} == {}


ENGINE_ENTRY_POINTS = {"apply_segment"}
ALLOWED_CALLERS = {("compiler", "execute_schedule")}


def engine_callers(module: str, source: str) -> set[tuple[str, str]]:
    """(module, top-level function) pairs that call an engine entry point."""
    found = set()
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else \
                func.attr if isinstance(func, ast.Attribute) else None
            if name in ENGINE_ENTRY_POINTS:
                found.add((module, getattr(top, "name", "<module>")))
    return found


def test_checker_finds_engine_callers():
    assert engine_callers("m", "def f(r):\n"
                          "    return engine.apply_segment(r, s, n)\n"
                          "def g(r):\n    apply_segment(r, s, n)\n"
                          "def h(r):\n    return r\n") \
        == {("m", "f"), ("m", "g")}
    assert engine_callers("m", "x = apply_segment(r, s, n)\n") \
        == {("m", "<module>")}


def test_only_the_executor_drives_the_engine():
    callers = set()
    for path in MODULES:
        if path.stem != "engine":
            callers |= engine_callers(path.stem, path.read_text())
    assert callers <= ALLOWED_CALLERS
