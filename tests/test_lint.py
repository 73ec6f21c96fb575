"""Lints of the library's source, read with the standard library's ast."""

import ast
import pathlib

import pytest

import qhistories

SOURCES = sorted(pathlib.Path(qhistories.__file__).parent.glob("*.py"))


def _unused_imports(source, exported=()):
    """(line, name) of each name an import in source binds and source never
    reads, other than the names in exported (a package's re-exports) and
    __future__ features."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read and name not in exported)


def test_import_lint_sees_an_unread_name_only():
    source = ("from __future__ import annotations\n"
              "import functools\n"
              "import numpy as np\n"
              "import os.path\n"
              "from . import spin as spin_mod\n"
              "from .selection import (_admissible, _scan_select,\n"
              "                        BipartiteModel)\n"
              "from .linalg import entropy\n"
              "entropy = None\n"
              "def f(x):\n"
              "    return np.abs(os.path.join(x)) + _scan_select(spin_mod)\n")
    assert _unused_imports(source) == [
        (2, "functools"), (6, "BipartiteModel"), (6, "_admissible"),
        (8, "entropy")]
    assert _unused_imports(source, ("functools", "entropy")) == [
        (6, "BipartiteModel"), (6, "_admissible")]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_no_unused_import(path):
    # the package's re-exports are read by its users, not by __init__
    exported = qhistories.__all__ if path.name == "__init__.py" else ()
    assert _unused_imports(path.read_text(), exported) == []
