"""No module in src/ or tests/ imports a name it never uses, and no module
in src/ imports a process pool.

A small stdlib `ast` check in place of a linter: a name bound by an import
counts as used when it appears as a bare name anywhere in its module, or as
a string in the module's `__all__` (a re-export).  `rate_sweep` forks its
extra shares itself, so `multiprocessing` and `concurrent` are imported
nowhere in src/, not even inside a function.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/threshlab/*.py"), *ROOT.glob("tests/*.py")])
POOL_PACKAGES = ("multiprocessing", "concurrent")


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


def pool_imports(source: str) -> list:
    """(line, module) of each import of a POOL_PACKAGES module, at any depth."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module]
        else:
            continue
        found += [(node.lineno, module) for module in modules
                  if module.split(".")[0] in POOL_PACKAGES]
    return sorted(found)


def test_src_imports_no_process_pool():
    found = {path.name: pool_imports(path.read_text())
             for path in ROOT.glob("src/threshlab/*.py")}
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
    assert pool_imports(source) == [(1, "multiprocessing.pool"),
                                    (6, "concurrent.futures"), (7, "concurrent")]
