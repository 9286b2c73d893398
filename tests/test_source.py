"""Rules for the library source itself."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import parachern
from parachern import cli

MODULES = sorted(Path(parachern.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    """``python -O`` strips assert statements, so a runtime check must raise."""
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} uses assert at lines {lines}"


def _imports(nodes):
    """(line, dotted name) of each absolute import among ``nodes``; ``from m
    import x`` gives m.x."""
    found = []
    for node in nodes:
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found += [(node.lineno, f"{node.module}.{alias.name}") for alias in node.names]
    return found


def _load_time_nodes(tree):
    """The nodes of a module that run when it is imported: none inside a
    function body or under ``if TYPE_CHECKING:``."""
    todo = list(tree.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            todo += node.orelse
            continue
        yield node
        todo += ast.iter_child_nodes(node)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_parachern(path):
    """The library depends on numpy and the standard library only; relative
    imports stay inside parachern."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = sys.stdlib_module_names | {"numpy", "parachern"}
    bad = [(line, name) for line, name in _imports(ast.walk(tree))
           if name.split(".")[0] not in allowed]
    assert not bad, f"{path.name} imports outside the standard library and numpy: {bad}"


# every entry point of these modules computes with numpy
NUMPY_AT_LOAD = {"localmodel.py", "masolver.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_numpy_at_load_only_where_every_entry_point_needs_it(path):
    """Only localmodel and masolver import numpy when they load; the others
    import it inside the functions that compute with it.  No module reads
    importlib.metadata, which scans the installed distributions."""
    tree = ast.parse(path.read_text(), filename=str(path))
    numpy = [(line, name) for line, name in _imports(_load_time_nodes(tree))
             if name.split(".")[0] == "numpy"]
    assert path.name in NUMPY_AT_LOAD or not numpy, \
        f"{path.name} imports numpy at load: {numpy}"
    metadata = [(line, name) for line, name in _imports(ast.walk(tree))
                if f"{name}.".startswith("importlib.metadata.")]
    assert not metadata, f"{path.name} imports importlib.metadata: {metadata}"


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


def _src_env():
    """The environment with this checkout's sources first on PYTHONPATH."""
    src = str(Path(parachern.__file__).parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


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
    proc = subprocess.run([sys.executable, "-c", EXACT_RUN], env=_src_env(), capture_output=True,
                          text=True, timeout=120, check=True)
    identities, exact_loaded, quadrature = proc.stdout.splitlines()
    assert identities == "True True True"
    assert exact_loaded == "False", "the exact computations imported numpy"
    assert quadrature == "0x1.fffffffaf9dafp-1 True"


CLI_RUN = """
import contextlib, io, json, sys
from pathlib import Path
from parachern import cli
out = Path(sys.argv[1])
model = out / "model.json"
model.write_text(json.dumps({"rank": 2, "degree": 1, "points": {"p": ["1/3", "2/3"]}}))
chart = out / "chart.json"
chart.write_text(json.dumps({"N": 100}))

def run(*argv):
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(list(argv))
    except SystemExit as exc:  # --version
        return exc.code

print(run("pardeg", "--input", str(model), "--out", str(out)),
      run("chern", "--samples", "2", "--out", str(out)), run("--version"),
      run("pardeg", "--input", str(out / "missing.json"), "--out", str(out)),
      run("admissible", "--input", str(chart), "--out", str(out)),
      run("ops", "--samples", "2", "--out", str(out)))
print("numpy" in sys.modules, "importlib.metadata" in sys.modules)
print(run("pushforward", "--samples", "1", "--out", str(out)), "numpy" in sys.modules)
"""


def test_exact_subcommands_run_without_numpy(tmp_path):
    """In a fresh interpreter, cli's pardeg, chern, --version, an input file
    that cannot be read, an admissible spec out of range (checked before
    its numpy import) and ops load neither numpy nor importlib.metadata;
    pushforward loads numpy, in fiberint's float functions."""
    proc = subprocess.run([sys.executable, "-c", CLI_RUN, str(tmp_path)], env=_src_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    codes, loaded, pushforward = proc.stdout.splitlines()
    assert codes == "0 0 0 2 2 0"
    assert loaded == "False False", "numpy, importlib.metadata loaded"
    assert pushforward == "0 True"


def test_one_version_string(tmp_path):
    """--version, the reports and the package metadata all take the version
    from parachern.__version__."""
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    proc = subprocess.run([sys.executable, "-m", "parachern.cli", "--version"], env=_src_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.strip() == parachern.__version__
    assert cli.main(["chern", "--samples", "1", "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "chern_report.json").read_text())
    assert report["version"] == parachern.__version__
    pyproject = Path(parachern.__file__).parents[2] / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text())
    assert "version" not in config["project"] and "version" in config["project"]["dynamic"]
    assert config["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "parachern.__version__"}


def _call_graph():
    """{(module, name): callees} over the module-level functions of
    parachern, where the callees are the module-level functions that the
    body calls by bare name: defined in the same module or imported from
    another parachern module (a function-level import counts)."""
    defs, scopes = {}, {}
    for path in MODULES:
        module, tree = path.stem, ast.parse(path.read_text(), filename=str(path))
        defs[module] = {node.name: node for node in tree.body
                        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        scopes[module] = {name: (module, name) for name in defs[module]}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level == 1 or (node.module or "").startswith("parachern.")):
                source = (node.module or "").rpartition(".")[2]
                scopes[module].update({alias.asname or alias.name: (source, alias.name)
                                       for alias in node.names})
    graph = {}
    for module, functions in defs.items():
        for name, node in functions.items():
            called = (scopes[module].get(call.func.id) for call in ast.walk(node)
                      if isinstance(call, ast.Call) and isinstance(call.func, ast.Name))
            graph[module, name] = {f for f in called if f and f[1] in defs.get(f[0], {})}
    return graph


def _reach(graph, start):
    """start and every function it calls, transitively."""
    seen, todo = set(), [start]
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo += graph[node]
    return seen


# the degree check, the one mode rule and its unit; nothing that computes
ORACLE_SHARES = {"_checked_unit", "unit_of", "exact_mode"}


@pytest.mark.parametrize("computation,oracle", [
    (("forms", "chern_forms"), ("forms", "chern_forms_minors")),
    (("fiberint", "symbolic_pushforward"), ("forms", "chern_forms")),
    (("fiberint", "symbolic_pushforward"), ("forms", "segre_forms")),
    (("fiberint", "scalar_fiber_integral"), ("fiberint", "monte_carlo_oracle")),
    (("forms", "schur_form"), ("forms", "segre_forms")),
], ids=lambda pair: pair[1])
def test_oracles_share_no_step_with_what_they_check(computation, oracle):
    """A check is independent only if the computation and its oracle reach
    no common function through calls by bare name, beyond the degree check
    and the mode rule.  Today the shared sets are {_checked_unit, unit_of,
    exact_mode}, {unit_of, exact_mode}, {}, {} and {}: schur_form reads the Chern
    forms alone, so its check against the Segre forms is independent."""
    graph = _call_graph()
    shared = {name for _, name in _reach(graph, computation) & _reach(graph, oracle)}
    assert shared <= ORACLE_SHARES, f"{computation[1]} and {oracle[1]} share {shared}"
