"""Static checks on the package source, with the standard library only."""

import ast
import re
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


# -- the public API is what the CLI and the acceptance criteria reach ----------

TESTS = Path(__file__).resolve().parent
# the benchmark's split clock and tracer wrap split_minus_star_plus by name,
# so it leaves the package only together with a change to the benchmark
REACH_EXEMPT = {"split_minus_star_plus"}


def names_read(tree):
    """Identifiers a syntax tree reads: loaded names and attributes, and the
    names its from-imports bring in."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load):
            out.add(n.id if isinstance(n, ast.Name) else n.attr)
        elif isinstance(n, ast.ImportFrom):
            out.update(alias.name for alias in n.names)
    return out


def bound(node):
    """Names one statement binds: a definition, an assignment or an import."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return {node.name}
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return {(a.asname or a.name).split(".")[0] for a in node.names}
    return set()


def top_level_definitions(sources):
    """name -> the top-level functions, classes and assignments that bind it
    (an import defines nothing: the defining module holds the body)."""
    defs = {}
    for source in sources:
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                for name in bound(node):
                    defs.setdefault(name, []).append(node)
    return defs


def reached(entry_sources, module_sources):
    """Names the entry sources read, directly or through the bodies of the
    module definitions they read, closed under that rule.  Names are matched
    by identifier alone, so the closure errs on the side of reaching."""
    defs = top_level_definitions(module_sources)
    todo = set().union(*(names_read(ast.parse(s)) for s in entry_sources))
    seen = set()
    while todo:
        name = todo.pop()
        seen.add(name)
        for node in defs.get(name, ()):
            todo |= names_read(node) - seen
    return seen


def test_the_check_follows_definitions():
    module = ("import numpy as np\n"
              "LIMIT = 2\n"
              "def used(x):\n    return helper(x) + LIMIT\n"
              "def helper(x):\n    return np.abs(x)\n"
              "def unused(x):\n    return other(x)\n"
              "def other(x):\n    return x * LEVEL\n"
              "class Grid:\n    def evaluate(self):\n        return step()\n"
              "def step():\n    return 1\n"
              "LEVEL = 3\n")
    entry = "from m import used\nused(1)\ng.evaluate()\n"
    names = reached([entry], [module])
    assert {"used", "helper", "LIMIT", "evaluate"} <= names
    assert names.isdisjoint({"unused", "other", "LEVEL", "Grid", "step"})


def test_the_public_api_is_reached_by_the_cli_or_the_criteria():
    init = ast.parse((SRC / "__init__.py").read_text())
    public = next(ast.literal_eval(node.value) for node in init.body
                  if isinstance(node, ast.Assign)
                  and any(getattr(t, "id", None) == "__all__" for t in node.targets))
    names = reached([(SRC / "cli.py").read_text(), (TESTS / "test_acceptance.py").read_text()],
                    [(SRC / m).read_text() for m in MODULES])
    assert sorted(set(public) - names - REACH_EXEMPT) == []


# -- the README names only what the package defines ------------------------------

README = SRC.parents[1] / "README.md"
UPPER = r"[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)+"


def module_names(source):
    """(the attributes of a module, the names its class bodies bind: methods,
    class attributes and dataclass fields)."""
    body = ast.parse(source).body
    return (set().union(*map(bound, body)),
            set().union(*(bound(n) for c in body if isinstance(c, ast.ClassDef) for n in c.body)))


def readme_references(text):
    """(module or "", name) of each call, psurf.<module>.<name> and
    UPPER_CASE constant in the inline code spans of a Markdown text, fenced
    blocks left out; a constant written <module>.<NAME> keeps its module."""
    refs = set()
    for span in re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.S)):
        refs |= {("", name) for name in re.findall(r"(\w+)\(", span)}
        refs |= set(re.findall(r"\bpsurf\.(\w+)\.(\w+)", span))
        refs |= set(re.findall(rf"(?:(\w+)\.)?\b({UPPER})\b", span))
    return refs


def unresolved(refs, modules):
    """The references that name no attribute of their module, or, without a
    psurf module, nothing any module or class binds."""
    anywhere = set().union(*(top | members for top, members in modules.values()))
    return sorted((m, name) for m, name in refs
                  if name not in (modules[m][0] if m in modules else anywhere))


def test_the_check_finds_stale_readme_names():
    modules = {"loops": module_names("import numpy as np\nLIMIT_A = 1\n"
                                     "class Loop:\n    coeffs: object\n"
                                     "    def trim(self):\n        pass\n")}
    text = ("Call `trim()`, `Loop(c, 0)` and `coeffs(ts)`; read `loops.LIMIT_A`, "
            "`loops.GONE_B`, `LIMIT_A`, `psurf.loops.np`, `psurf.loops.trim`, `gone(x)`.\n"
            "```\nignored(NOT_THERE)\n```\n")
    assert unresolved(readme_references(text), modules) == [
        ("", "gone"), ("loops", "GONE_B"), ("loops", "trim")]


def test_the_readme_names_resolve():
    modules = {m[:-3]: module_names((SRC / m).read_text()) for m in MODULES}
    refs = readme_references(README.read_text())
    assert unresolved(refs, modules) == []
