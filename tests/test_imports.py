"""No module in src/ or tests/ imports a name it never uses.

A small stdlib `ast` check in place of a linter: a name bound by an import
counts as used when it appears as a bare name anywhere in its module, or as
a string in the module's `__all__` (a re-export).
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted([*ROOT.glob("src/threshlab/*.py"), *ROOT.glob("tests/*.py")])


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
