"""Every module of the package uses each name it imports; none imports
numpy or `dataclasses` at all, function bodies included; only `_linalg`
imports `fractions`, and no module imports `_linalg`, when it is imported.

An import inside a function must be read in that function (nested
functions included); an import at module level must be read somewhere in
the module.  So a stale function-local import is caught even when another
function reads the same name.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orbicalc"
MODULES = sorted(PACKAGE.glob("*.py"))


def imported_names(tree):
    """(name bound, line, scope) for every import outside `from __future__`.

    The scope is the innermost function that holds the import, or the
    module's tree for an import outside every function.
    """
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                out.extend((a.asname or a.name.split(".")[0], child.lineno, scope)
                           for a in child.names)
            elif isinstance(child, ast.ImportFrom) and child.module != "__future__":
                out.extend((a.asname or a.name, child.lineno, scope) for a in child.names)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child if inner else scope)

    visit(tree, tree)
    return out


def unused_imports(tree):
    """(line, name) for every import its scope never reads."""
    return sorted(
        (line, name) for name, line, scope in imported_names(tree)
        if name not in used_names(scope)
    )


def used_names(tree):
    """Every name read in a tree, including those inside quoted annotations."""
    out = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [
        getattr(node, field)
        for node in ast.walk(tree)
        for field in ("annotation", "returns")
        if getattr(node, field, None) is not None
    ]
    for node in (n for a in annotations for n in ast.walk(a)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            quoted = ast.parse(node.value, mode="eval")
            out.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "from typing import Mapping, Optional, Sequence\n"
        "import os.path\n"
        "x: Sequence\n"
        "def f(y: 'Optional[int]'): return 'Mapping'\n"
        "def g():\n"
        "    from json import dumps, loads\n"
        "    return dumps(loads)\n"
        "def h():\n"
        "    from json import dumps\n"
        "    def inner(): return dumps\n"
        "    return inner\n"
        "def stale():\n"
        "    from json import dumps\n"
        "    return 1\n"
    )
    # g and h's inner function read dumps; stale's own import of it (line 14) is unused.
    assert unused_imports(tree) == [(2, "Mapping"), (3, "os"), (14, "dumps")]


def eager_imports(tree):
    """The top-level package of every absolute import, and the module of
    every relative one (as `.name`), outside a function body: what importing
    the module imports."""
    found = set()

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                found.update(a.name.split(".")[0] for a in child.names)
            elif isinstance(child, ast.ImportFrom) and child.level:
                # `from . import x` names x in the package: a submodule, if there is one.
                dots = "." * child.level
                found.update([dots + child.module] if child.module else (dots + a.name for a in child.names))
            elif isinstance(child, ast.ImportFrom):
                found.add(child.module.split(".")[0])
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child)

    visit(tree)
    return found


def test_the_check_sees_an_eager_numpy_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import numpy.linalg\n"
        "from .groups import cached\n"
        "class A:\n"
        "    from numpy import ndarray\n"
        "if True:\n"
        "    import json\n"
        "def f():\n"
        "    import scipy\n"
    )
    assert eager_imports(tree) == {"__future__", "numpy", ".groups", "json"}


def all_imports(tree):
    """The top-level package of every absolute import, function bodies included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_no_module_imports_dataclasses():
    importers = {
        path.name for path in MODULES
        if "dataclasses" in all_imports(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert not importers


# Both matrix modes run on lists of rows, so numpy is a test dependency only.
def test_no_module_imports_numpy():
    importers = {
        path.name for path in MODULES
        if "numpy" in all_imports(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert not importers


# Exact matrices and their Fractions are built only by the functions that
# need them: `MatrixRep`, `LinearChart` and a few others import the backend
# when they run.
def test_only_the_backend_imports_fractions_when_imported():
    importers = {
        path.name for path in MODULES
        if {"fractions", "._linalg"} & eager_imports(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert importers == {"_linalg.py"}


def test_the_check_sees_an_eager_backend_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "from typing import NamedTuple\n"
        "from ._linalg import EXACT\n"
        "from . import realreps\n"
        "class A(NamedTuple):\n"
        "    from fractions import Fraction\n"
        "def f():\n"
        "    from dataclasses import dataclass\n"
        "    from .realreps import MatrixRep\n"
    )
    assert eager_imports(tree) == {"__future__", "typing", "._linalg", ".realreps", "fractions"}
    assert all_imports(tree) == {"__future__", "typing", "fractions", "dataclasses"}
