"""Rules for the library source itself."""

import ast
import sys
from pathlib import Path

import pytest

import parachern

MODULES = sorted(Path(parachern.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """``python -O`` strips assert statements, so a runtime check must raise."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert at lines {lines}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_parachern(path):
    """The library depends on numpy and the standard library only; relative
    imports stay inside parachern."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = sys.stdlib_module_names | {"numpy", "parachern"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    bad = [(line, name) for line, name in found if name.split(".")[0] not in allowed]
    assert not bad, f"{path.name} imports outside the standard library and numpy: {bad}"
