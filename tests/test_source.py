"""Static checks on the package source, with the standard library only."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "psurf"
# __init__.py imports in order to re-export
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """(line, name) of each name a module imports and never reads, except
    from __future__ and on import statements marked `# noqa`."""
    lines = source.splitlines()
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [(line, name) for line, name in imported if name not in read]


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from numpy import pi  # noqa: F401\n"
              "from numpy import (e,\n"
              "                   inf)\n"
              "print(sys.argv, e)\n")
    assert unused_imports(source) == [(2, "os"), (4, "inf")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


def imports_oracle(source):
    """Whether a module imports psurf.oracle, by absolute or relative import."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("psurf" + (f".{node.module}" if node.module else "")) if node.level \
                else node.module
            names = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(n == "psurf.oracle" or n.startswith("psurf.oracle.") for n in names):
            return True
    return False


def test_the_check_finds_an_oracle_import():
    for source in ("import psurf.oracle\n", "from psurf.oracle import register_rigid\n",
                   "from psurf import loops, oracle\n", "from . import oracle\n",
                   "from .oracle import goursat_solve\n", "def f():\n    import psurf.oracle\n"):
        assert imports_oracle(source), source
    for source in ("import psurf.loops\n", "from psurf.loops import evaluate\n",
                   "from . import surface\n", "from oracle import x\n"):
        assert not imports_oracle(source), source


# the oracle is the loop-group-free reference the pipeline is checked against:
# only the CLI (its oracle suite) and the package's re-exports import it
@pytest.mark.parametrize("module", [m for m in MODULES if m != "cli.py"])
def test_the_pipeline_does_not_import_the_oracle(module):
    assert not imports_oracle((SRC / module).read_text())


def adapter_calls(source):
    """Lines of the calls of pointwise, .eta_x and .eta_y in a module: the
    per-parameter adapters the pipeline does not use."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            f = node.func
            name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
            if name == "pointwise" or (isinstance(f, ast.Attribute) and name in ("eta_x", "eta_y")):
                lines.append(node.lineno)
    return lines


def test_the_check_finds_the_adapter_calls():
    source = ("def pointwise(eta):\n    return eta\n"
              "def eta_x(t):\n    return t\n"
              "a = pointwise(f)\nb = pair.eta_x(0.0)\nc = potentials.pointwise(g)\n"
              "d = p.eta_y(t)\ne = eta_x(1.0)\nf = pair.coeffs_x(ts)\n")
    assert adapter_calls(source) == [5, 6, 7, 8]


# coefficient functions are the one representation of a potential in the pipeline
@pytest.mark.parametrize("module", [*MODULES, "__init__.py"])
def test_the_pipeline_does_not_read_potentials_per_parameter(module):
    assert adapter_calls((SRC / module).read_text()) == []
