"""Rules for the library source itself."""

import ast
import os
import subprocess
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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_private_names_imported_across_modules(path):
    """A module reads another parachern module through its public names
    only: no import of a name that starts with an underscore."""
    tree = ast.parse(path.read_text(), filename=str(path))
    private = [(node.lineno, node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or (node.module or "").split(".")[0] == "parachern")
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"{path.name} imports private names: {private}"


EXACT_RUN = """
import random, sys
from parachern.fiberint import scalar_fiber_integral, symbolic_pushforward
from parachern.forms import (chern_forms, chern_forms_minors, random_exact_curvature,
                             schur_form, segre_forms)
theta = random_exact_curvature(random.Random(3), 3, 3)
c = chern_forms(theta)
print(c == chern_forms_minors(theta), segre_forms(c, 3) == symbolic_pushforward(theta),
      schur_form((2,), c) == c[1].wedge(c[1]) - c[2])
print("numpy" in sys.modules)
print(scalar_fiber_integral([1.0, 2.0, 0.5]).value.hex(), "numpy" in sys.modules)
"""


def test_exact_algebra_runs_without_numpy():
    """In a fresh interpreter, importing forms and fiberint and running the
    exact Chern, Segre, Schur, wedge and push-forward work loads no numpy;
    the first quadrature call loads it and keeps the value's bits."""
    src = str(Path(parachern.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", EXACT_RUN], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    identities, exact_loaded, quadrature = proc.stdout.splitlines()
    assert identities == "True True True"
    assert exact_loaded == "False", "the exact computations imported numpy"
    assert quadrature == "0x1.fffffffaf9dafp-1 True"
