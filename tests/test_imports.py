"""Every module of the package uses each name it imports; none imports
numpy or `dataclasses` at all, function bodies included; only `_linalg`
imports `fractions`, and no module imports `_linalg`, when it is imported;
only `stablemaps` imports `gc`, and only `map_group` uses it; no module
composes maps as `tuple(map(p.__getitem__, ...))`, which `groups.gather` does;
outside `FiniteCategory._validate`, which indexes a category's arrows,
`localize` selects no arrows by their endpoints in `.arrows.values()`; no
module defines the character table's replaced kernels, `reduce_blocks`
and `_dots`; every module-level function outside the exported names and
the command handlers has a caller in the package; and a cold table call
loads no module beyond the ones a bare interpreter has, the command line's
and `gc`.

An import inside a function must be read in that function (nested
functions included); an import at module level must be read somewhere in
the module.  So a stale function-local import is caught even when another
function reads the same name.
"""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from .test_cli import loaded_modules

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


def gc_mentions(tree):
    """(line, enclosing function) for every use of the name `gc`."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            if isinstance(child, ast.Name) and child.id == "gc":
                out.append((child.lineno, scope))
            visit(child, inner)

    visit(tree, None)
    return out


# Pausing the collector is process-wide; it is done in one place only,
# around `map_group`'s acyclic output.
def test_only_map_group_pauses_the_collector():
    importers = {
        path.name for path in MODULES
        if "gc" in all_imports(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert importers == {"stablemaps.py"}
    tree = ast.parse((PACKAGE / "stablemaps.py").read_text(encoding="utf-8"))
    assert {scope for _, scope in gc_mentions(tree)} == {"map_group"}


def test_the_check_sees_a_stray_collector_pause():
    tree = ast.parse(
        "import gc\n"
        "def map_group():\n"
        "    gc.disable()\n"
        "def other():\n"
        "    gc.freeze()\n"
    )
    assert gc_mentions(tree) == [(3, "map_group"), (5, "other")]


def getitem_compositions(tree):
    """The line of every `tuple(map(<x>.__getitem__, ...))`."""
    return [
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "tuple" and len(node.args) == 1
        and isinstance(node.args[0], ast.Call)
        and isinstance(node.args[0].func, ast.Name) and node.args[0].func.id == "map"
        and node.args[0].args and isinstance(node.args[0].args[0], ast.Attribute)
        and node.args[0].args[0].attr == "__getitem__"
    ]


# Maps stored as image tuples are composed by one kernel, `groups.gather`.
@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_composes_by_mapping_getitem(path):
    assert not getitem_compositions(ast.parse(path.read_text(encoding="utf-8")))


def test_the_check_sees_a_getitem_composition():
    tree = ast.parse(
        "a = tuple(map(b.__getitem__, c))\n"
        "d = tuple(map(e.rep.__getitem__, f.rep))\n"
        "g = sorted(range(3), key=h.__getitem__)\n"
        "i = list(map(j.__getitem__, k))\n"
        "def f():\n"
        "    return tuple(map(b.__getitem__, c))\n"
    )
    assert getitem_compositions(tree) == [1, 2, 6]


def endpoint_scans(tree):
    """(line, function) for every test of `.src` or `.dst` that filters an
    iteration over `<x>.arrows.values()`: a comprehension's condition, or
    an `if` in the body of a `for` loop."""
    def over_arrows(node):
        return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "values" and isinstance(node.func.value, ast.Attribute)
                and node.func.value.attr == "arrows")

    def reads_endpoint(nodes):
        return any(isinstance(n, ast.Attribute) and n.attr in ("src", "dst")
                   for node in nodes for n in ast.walk(node))

    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            if isinstance(child, ast.comprehension) and over_arrows(child.iter):
                if reads_endpoint(child.ifs):
                    out.append((child.iter.lineno, scope))
            elif isinstance(child, ast.For) and over_arrows(child.iter):
                tests = [n.test for s in child.body for n in ast.walk(s) if isinstance(n, ast.If)]
                if reads_endpoint(tests):
                    out.append((child.lineno, scope))
            visit(child, inner)

    visit(tree, None)
    return out


# A category indexes its arrows by source, by target and by both once, when
# it is validated; every other search in `localize` reads that index.
def test_only_validation_selects_arrows_by_endpoint():
    tree = ast.parse((PACKAGE / "localize.py").read_text(encoding="utf-8"))
    assert {scope for _, scope in endpoint_scans(tree)} <= {"_validate"}


def test_the_check_sees_an_endpoint_scan():
    tree = ast.parse(
        "def a(C, x):\n"
        "    return [f for f in C.arrows.values() if f.dst == x]\n"
        "def b(C, x):\n"
        "    for f in C.arrows.values():\n"
        "        if f.src != x:\n"
        "            continue\n"
        "def c(self):\n"
        "    return sorted(g.name for g in self.arrows.values() if g.src == g.dst)\n"
        "def d(C, x):\n"
        "    return [f for f in C.arrows_into(x) if f.src == x]\n"
        "def e(C):\n"
        "    return [f.src for f in C.arrows.values()]\n"
    )
    assert endpoint_scans(tree) == [(2, "a"), (4, "b"), (8, "c")]


# The batched reduction mod Phi_e and the one-product-at-a-time dots are
# oracles in tests/helpers.py: the indicators and the certificate run on
# packed residues mod a prime.
def test_no_module_defines_the_replaced_table_kernels():
    defined = {
        (path.name, node.name) for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name in ("reduce_blocks", "_dots")
    }
    assert not defined


def uncalled_functions(trees, exported):
    """(module, name) for every module-level function that no code outside
    its own body names, by a name or an attribute, among `trees` (module ->
    tree); exported names, dunders and the handlers `_command` registers
    are left out."""
    named = [
        (module, node.lineno, node.id if isinstance(node, ast.Name) else node.attr)
        for module, tree in trees.items() for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    ]

    def handler(f):
        return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_command"
                   for d in f.decorator_list)

    def called(module, f):
        return any(name == f.name and not (m == module and f.lineno <= line <= f.end_lineno)
                   for m, line, name in named)

    return [
        (module, f.name) for module, tree in trees.items() for f in tree.body
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef)) and f.name not in exported
        and not f.name.startswith("__") and not handler(f) and not called(module, f)
    ]


# Code only the tests call lives in tests/helpers.py, not in the package.
def test_every_function_outside_the_exports_has_a_caller_in_the_package():
    import orbicalc

    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    assert not uncalled_functions(trees, set(orbicalc.__all__))


def test_the_check_sees_a_function_only_tests_call():
    trees = {
        "a.py": ast.parse(
            "def exported(): return helper()\n"
            "def helper(): return 1\n"
            "def recursive(n): return recursive(n - 1)\n"
            "def orphan(): return 2\n"
            "@_command('x', 'help')\n"
            "def cmd_x(args, inputs): return {}\n"
            "@cached('memo')\n"
            "def memo(G): return G\n"
            "def __getattr__(name): return name\n"
            "def by_attribute(): return 3\n"
            "class A:\n"
            "    def orphan(self): return 4\n"
        ),
        "b.py": ast.parse("from . import a\nx = a.by_attribute()\n"),
    }
    assert uncalled_functions(trees, {"exported"}) == [
        ("a.py", "recursive"), ("a.py", "orphan"), ("a.py", "memo")
    ]


# Beyond what the interpreter has loaded before the first line runs, a
# cold call that builds a character table loads the package, the command
# line's own modules and `gc`, where `map_group` pauses the collector.
CLI_MODULES = {"__future__", "_locale", "argparse", "gettext", "importlib.machinery", "locale", "runpy"}


@pytest.mark.parametrize("argv", [["irreps", "c5"], ["stable-maps", "c2", "s3"]])
def test_a_cold_table_call_loads_no_other_module(tmp_path, argv):
    bare = subprocess.run(
        [sys.executable, "-c", "import json, sys; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, check=True,
    )
    extra = loaded_modules(tmp_path, *argv) - set(json.loads(bare.stdout))
    assert {m for m in extra if m.split(".")[0] != "orbicalc"} <= CLI_MODULES | {"gc"}
