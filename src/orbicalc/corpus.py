"""The bundled group corpus: every isomorphism type of order <= 12 and a
spread of named groups up to order 24, one JSON file of permutation
generators per group.

The corpus is the directory `corpus_dir()`: the package's corpus
directory, or the ORBICALC_CORPUS environment variable when it is set.
Every lookup (`corpus_names`, `corpus_group`, `groups_of_order_at_most`,
`resolve_group`, `load_group`) reads that directory, and `resolve_group`
alone decides whether a command-line argument is a file or a corpus name.
The group module is imported only when a group is built: an unknown name
or a file that is not JSON is refused first.  It imports no numpy, so
listing or dumping the corpus never loads it.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ValidationError, read_json_object

if TYPE_CHECKING:
    from .groups import FiniteGroup

ALIASES = {"trivial": "c1", "d6": "s3", "q12": "dic3"}

_BUNDLED_DIR = Path(__file__).parent / "corpus"
# Loaded groups by absolute file path, so a changed ORBICALC_CORPUS is
# never served a group read from another directory.
_GROUP_CACHE: dict[str, FiniteGroup] = {}


def corpus_dir() -> Path:
    env = os.environ.get("ORBICALC_CORPUS")
    if env:
        return Path(env)
    return _BUNDLED_DIR


def corpus_names() -> list[str]:
    return sorted(p.stem for p in corpus_dir().glob("*.json"))


def corpus_group(name: str) -> FiniteGroup:
    """Load (and cache) a corpus group by name or alias.  A name is a bare
    file stem: one with a directory part names no corpus group."""
    name = ALIASES.get(name, name)
    file = os.path.abspath(os.path.join(corpus_dir(), f"{name}.json"))
    if Path(name).name != name or not (file in _GROUP_CACHE or os.path.isfile(file)):
        raise ValidationError(
            f"cannot resolve group '{name}' (no file, not in corpus)"
        )
    if file not in _GROUP_CACHE:
        from .groups import group_from_json

        _GROUP_CACHE[file] = group_from_json(file, name=name)
    return _GROUP_CACHE[file]


def groups_of_order_at_most(n: int) -> list[FiniteGroup]:
    return [G for G in map(corpus_group, corpus_names()) if G.order <= n]


def resolve_group(name_or_path: str) -> tuple[FiniteGroup, Path]:
    """Resolve a CLI group argument: a JSON file path that exists, else a
    corpus name or alias.  Returns the group and the file it was read from."""
    path = Path(name_or_path)
    if path.suffix == ".json" and path.exists():
        data = read_json_object(path)
        from .groups import group_from_json

        return group_from_json(data, name=data.get("name", path.stem)), path
    G = corpus_group(name_or_path)
    return G, corpus_dir() / f"{G.name}.json"


def load_group(name_or_path: str) -> FiniteGroup:
    """The group a CLI argument names (see `resolve_group`)."""
    return resolve_group(name_or_path)[0]
