"""Every cache kept on a group goes through `groups.cached`.

No module but groups.py mentions `_cache`, and inside groups.py only the
constructor (which creates it) and `cached` itself do.  Every memo's name
is a string literal used by no other memo.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "orbicalc"
MODULES = sorted(PACKAGE.glob("*.py"))
OWNERS = {"FiniteGroup.__init__", "cached.decorate.memo"}


def _mentions(node):
    return (
        (isinstance(node, ast.Attribute) and node.attr == "_cache")
        or (isinstance(node, ast.Name) and node.id == "_cache")
        or (isinstance(node, ast.Constant) and node.value == "_cache")
    )


def stray_mentions(tree, owner_module):
    """(line, enclosing scope) for every mention of `_cache` outside its
    owners; `owner_module` says whether the tree is groups.py."""
    out = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if _mentions(child) and not (owner_module and scope in OWNERS):
                out.append((child.lineno, scope))
            visit(child, inner)

    visit(tree, "")
    return out


def test_only_cached_touches_a_group_cache():
    stray = {
        path.name: found
        for path in MODULES
        if (found := stray_mentions(ast.parse(path.read_text(encoding="utf-8")),
                                    path.name == "groups.py"))
    }
    assert not stray, f"_cache used outside groups.cached: {stray}"


def test_the_check_sees_a_hand_rolled_cache():
    source = (
        "class FiniteGroup:\n"
        "    def __init__(self):\n"
        "        self._cache = {}\n"
        "    def _validate(self):\n"
        "        self._cache['inverses'] = ()\n"
        "        self._cache['array'] = ()\n"
        "def cached(name):\n"
        "    def decorate(fn):\n"
        "        def memo(G):\n"
        "            return G._cache[name]\n"
        "        return memo\n"
        "    return decorate\n"
        "def classes(G):\n"
        "    if 'classes' in G._cache:\n"
        "        return getattr(G, '_cache')['classes']\n"
    )
    tree = ast.parse(source)
    assert stray_mentions(tree, True) == [
        (5, "FiniteGroup._validate"), (6, "FiniteGroup._validate"), (14, "classes"), (15, "classes"),
    ]
    assert [line for line, _ in stray_mentions(tree, False)] == [3, 5, 6, 10, 14, 15]


def memo_names(tree):
    """(line, name) for every `cached(...)` call; name is None unless the
    call's one argument is a string literal."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (
            (isinstance(node.func, ast.Name) and node.func.id == "cached")
            or (isinstance(node.func, ast.Attribute) and node.func.attr == "cached")
        ):
            arg = node.args[0] if len(node.args) == 1 else None
            literal = isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            out.append((node.lineno, arg.value if literal and not node.keywords else None))
    return out


def shared_or_computed_names(named):
    """The (module, line) pairs of memos whose name is not a literal or is
    also another memo's, given {module: memo_names(tree)}."""
    seen: dict[str, list] = {}
    bad = []
    for module, found in named.items():
        for line, name in found:
            if name is None:
                bad.append((module, line))
            else:
                seen.setdefault(name, []).append((module, line))
    return sorted(bad + [site for sites in seen.values() if len(sites) > 1 for site in sites])


def test_every_memo_has_its_own_literal_name():
    # A name shared by two memos would serve one function's value to the
    # other; a computed name could not be checked for that.
    named = {path.name: memo_names(ast.parse(path.read_text(encoding="utf-8"))) for path in MODULES}
    assert ("characters.py", "character_table") in {
        (module, name) for module, found in named.items() for _, name in found
    }
    assert shared_or_computed_names(named) == []


def test_the_check_sees_a_shared_or_computed_memo_name():
    a = ast.parse("@cached('classes')\ndef f(G): ...\n@cached(NAME)\ndef g(G): ...\n")
    b = ast.parse("@groups.cached('classes')\ndef h(G): ...\n@cached('own')\ndef k(G): ...\n")
    named = {"a.py": memo_names(a), "b.py": memo_names(b)}
    assert named == {"a.py": [(1, "classes"), (3, None)], "b.py": [(1, "classes"), (3, "own")]}
    assert shared_or_computed_names(named) == [("a.py", 1), ("a.py", 3), ("b.py", 1)]
