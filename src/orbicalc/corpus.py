"""The bundled group corpus: every isomorphism type of order <= 12 and a
spread of named groups up to order 24, one JSON file of permutation
generators per group.

The corpus is the directory `corpus_dir()`: the package's corpus
directory, or the ORBICALC_CORPUS environment variable when it is set.
Every lookup (`corpus_names`, `corpus_group`, `groups_of_order_at_most`,
`load_group`) reads that directory.
"""

from __future__ import annotations

import os
from pathlib import Path

from .errors import ValidationError
from .groups import FiniteGroup, group_from_json

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
    """Load (and cache) a corpus group by name or alias."""
    name = ALIASES.get(name, name)
    file = os.path.abspath(os.path.join(corpus_dir(), f"{name}.json"))
    if file not in _GROUP_CACHE:
        if not os.path.isfile(file):
            raise ValidationError(
                f"cannot resolve group '{name}' (no file, not in corpus)"
            )
        _GROUP_CACHE[file] = group_from_json(file, name=name)
    return _GROUP_CACHE[file]


def groups_of_order_at_most(n: int, names_only: bool = False):
    out = []
    for name in corpus_names():
        G = corpus_group(name)
        if G.order <= n:
            out.append(name if names_only else G)
    return out


def load_group(name_or_path: str) -> FiniteGroup:
    """Resolve a CLI group argument: a JSON file path or a corpus name."""
    path = Path(name_or_path)
    if path.suffix == ".json" and path.exists():
        return group_from_json(path)
    return corpus_group(name_or_path)
