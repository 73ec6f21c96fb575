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


def _dead_private_names(sources):
    """(module, line, name) of each private (_name, not __dunder__)
    module-level function, class or assigned name of the modules in
    sources ({module: source}) that no module there reads: by an ast.Name
    load, an ast.Attribute of that name, or an import of it."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (node.targets if isinstance(node, ast.Assign)
                           else [node.target])
                names = [target.id for target in targets
                         if isinstance(target, ast.Name)]
            else:
                continue
            defined += [(module, node.lineno, name) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(entry for entry in defined if entry[2] not in read)


def test_dead_name_lint_sees_a_name_no_module_reads():
    sources = {
        "a": ("import numpy as np\n"
              "__all__ = ['f']\n"
              "_TABLE = {}\n"
              "_UNREAD = 1\n"
              "_written: int = 2\n"
              "def _helper(x):\n"
              "    return np.abs(x)\n"
              "def _by_attribute():\n"
              "    pass\n"
              "class _Lonely:\n"
              "    _field = 3\n"
              "def f(x):\n"
              "    _local = _TABLE.get(x)\n"
              "    return _local\n"),
        "b": ("from .a import _helper\n"
              "from . import a\n"
              "_unused_here = _helper\n"
              "def _g():\n"
              "    return a._by_attribute()\n"),
    }
    assert _dead_private_names(sources) == [
        ("a", 4, "_UNREAD"), ("a", 5, "_written"), ("a", 10, "_Lonely"),
        ("b", 3, "_unused_here"), ("b", 4, "_g")]


def test_no_dead_private_name():
    # a private name is the library's own, so some module of it reads it
    assert _dead_private_names(
        {path.stem: path.read_text() for path in SOURCES}) == []


def _asserts(source):
    """Line of each assert statement in source.  python -O strips them, so
    an invariant of the library raises a named error instead."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Assert)]


def test_assert_lint_sees_every_assert_statement():
    source = ("def f(x):\n"
              "    assert x > 0, 'positive'\n"
              "    if x is None:\n"
              "        raise RuntimeError('assert x')\n"
              "    class C:\n"
              "        def g(self):\n"
              "            assert self\n"
              "    return 'assert'\n")
    assert _asserts(source) == [2, 7]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_no_assert_statement(path):
    assert _asserts(path.read_text()) == []
