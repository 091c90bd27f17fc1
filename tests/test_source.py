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
