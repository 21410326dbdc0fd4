"""No module in src/ or tests/ imports a name it never uses, no module
in src/ imports a process pool, none in src/ or tests/ imports mpmath or
scipy, and src/'s threshlab imports are layered.

A small stdlib `ast` check in place of a linter: a name bound by an import
counts as used when it appears as a bare name anywhere in its module, or as
a string in the module's `__all__` (a re-export).  `rate_sweep` forks its
extra shares itself, so `multiprocessing` and `concurrent` are imported
nowhere in src/, not even inside a function.  The tests run with numpy,
pytest and hypothesis alone, so neither they nor src/ import mpmath or
scipy; an oracle made with them is committed as data.  A threshlab module
imports other threshlab modules only at module level, and those imports
form no cycle, so no module reaches up to one that imports it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted(ROOT.glob("src/threshlab/*.py"))
FILES = sorted([*SRC, *ROOT.glob("tests/*.py")])
POOL_PACKAGES = ("multiprocessing", "concurrent")
ORACLE_PACKAGES = ("mpmath", "scipy")


def unused_imports(source: str) -> list:
    """(line, name) of each imported name that the module never uses."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_checker_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "import concurrent.futures\n"
        "from math import pi, tau\n"
        "from .x import exported\n"
        "__all__ = ['exported']\n"
        "def f():\n"
        "    return np.zeros(1), concurrent.futures, pi\n"
    )
    assert unused_imports(source) == [(2, "os"), (5, "tau")]


def package_imports(source: str, packages: tuple) -> list:
    """(line, module) of each import of a module of `packages`, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, module) for module in modules
                  if module.split(".")[0] in packages]
    return sorted(found)


def test_src_imports_no_process_pool():
    found = {path.name: package_imports(path.read_text(), POOL_PACKAGES)
             for path in SRC}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_no_module_imports_mpmath_or_scipy():
    found = {path.name: package_imports(path.read_text(), ORACLE_PACKAGES)
             for path in FILES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_pool_checker_sees_imports_in_function_bodies():
    source = (
        "import os, multiprocessing.pool as mp\n"
        "from . import concurrent\n"
        "from .concurrent import futures\n"
        "def f():\n"
        "    if True:\n"
        "        from concurrent.futures import ProcessPoolExecutor\n"
        "    import concurrent\n"
    )
    assert package_imports(source, POOL_PACKAGES) == [
        (1, "multiprocessing.pool"), (6, "concurrent.futures"), (7, "concurrent")]
    oracles = (
        "import mpmath as mp, numpy\n"
        "from scipy.integrate import quad\n"
        "from .mpmath import mpf\n"
        "def f():\n"
        "    import scipy\n"
    )
    assert package_imports(oracles, ORACLE_PACKAGES) == [
        (1, "mpmath"), (2, "scipy.integrate"), (5, "scipy")]


def threshlab_imports(source: str) -> list:
    """(line, module, in_function) of each import of a threshlab module,
    relative (`from .x import y`) or absolute (`from threshlab import x`)."""
    tree = ast.parse(source)
    nested = {id(inner) for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              for inner in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            path = (node.module or "").split(".")
            if not node.level:
                if path[0] != "threshlab":
                    continue
                path = path[1:]
            # `from . import x` and `from threshlab import x` name modules
            modules = [m for m in path[:1] if m] or [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            modules = [alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("threshlab.")]
        else:
            continue
        found += [(node.lineno, module, id(node) in nested) for module in modules]
    return sorted(found)


def cyclic_modules(graph: dict) -> list:
    """The modules left after repeatedly dropping every module that imports
    none of those left: the ones on or above a cycle, empty if none."""
    left = dict(graph)
    while leaves := [m for m, deps in left.items() if not deps & left.keys()]:
        for module in leaves:
            del left[module]
    return sorted(left)


def test_src_imports_threshlab_modules_only_at_module_level():
    found = {path.name: [(line, module) for line, module, in_function
                         in threshlab_imports(path.read_text()) if in_function]
             for path in SRC}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_src_import_graph_has_no_cycle():
    graph = {path.stem: {module for _, module, _ in threshlab_imports(path.read_text())}
             for path in SRC}
    assert "model" in graph and graph["model"]
    assert cyclic_modules(graph) == []


def test_layering_checkers_see_nested_imports_and_cycles():
    source = (
        "import numpy\n"
        "from .model import DensityPair\n"
        "from . import harness\n"
        "from threshlab import expr\n"
        "class C:\n"
        "    from .errors import InvalidModel\n"
        "    def f(self):\n"
        "        from .divergence import adaptive_simpson\n"
        "        import threshlab.risk\n"
        "def g():\n"
        "    from numpy.random import default_rng\n"
    )
    assert threshlab_imports(source) == [
        (2, "model", False), (3, "harness", False), (4, "expr", False),
        (6, "errors", False), (8, "divergence", True), (9, "risk", True)]
    assert cyclic_modules({"a": {"b"}, "b": {"c", "x"}, "c": set()}) == []
    assert cyclic_modules({"top": {"a"}, "a": {"b"}, "b": {"a"},
                           "c": set()}) == ["a", "b", "top"]
