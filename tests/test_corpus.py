"""The bundled corpus against the permutation generators it was written
from, and the ORBICALC_CORPUS override.

The builders below regenerate every bundled JSON file; the test compares
the bytes, so the corpus stays exactly what these constructions give.
"""

import json
import os
import subprocess
import sys
from typing import Callable

from orbicalc.corpus import (
    corpus_dir,
    corpus_group,
    corpus_names,
    groups_of_order_at_most,
    load_group,
)
from orbicalc.groups import group_from_generators

BUNDLED = corpus_dir()


def _cyclic_gens(n: int) -> tuple[int, list[list[int]]]:
    if n == 1:
        return 1, []
    return n, [[(i + 1) % n for i in range(n)]]


def _dihedral_gens(m: int) -> tuple[int, list[list[int]]]:
    """Symmetries of a regular m-gon (order 2m), acting on the vertices."""
    rot = [(i + 1) % m for i in range(m)]
    ref = [(m - i) % m for i in range(m)]
    return m, [rot, ref]


def _product_gens(a: tuple[int, list[list[int]]], b: tuple[int, list[list[int]]]):
    da, ga = a
    db, gb = b
    gens = [list(p) + list(range(da, da + db)) for p in ga]
    gens += [list(range(da)) + [da + x for x in p] for p in gb]
    return da + db, gens


def _dicyclic_table(n: int) -> list[list[int]]:
    """Dicyclic group of order 4n: a^(2n)=e, b^2=a^n, b a b^-1 = a^-1.

    Element (i, j) = a^i b^j is indexed as i + 2n*j.
    """
    m = 2 * n

    def idx(i, j):
        return i % m + m * (j % 2)

    table = [[0] * (4 * n) for _ in range(4 * n)]
    for i in range(m):
        for j in range(2):
            for k in range(m):
                for l in range(2):
                    if j == 0:
                        t = idx(i + k, l)
                    else:
                        t = idx(i - k, 1 + l) if l == 0 else idx(i - k + n, 0)
                    table[idx(i, j)][idx(k, l)] = t
    return table


def _regular_gens(table: list[list[int]], gens: list[int]) -> tuple[int, list[list[int]]]:
    """Left-regular permutation generators from a multiplication table."""
    n = len(table)
    return n, [[table[g][x] for x in range(n)] for g in gens]


def _dicyclic_gens(n: int) -> tuple[int, list[list[int]]]:
    t = _dicyclic_table(n)
    return _regular_gens(t, [1, 2 * n])


def _frobenius_gens(p: int, mult: int) -> tuple[int, list[list[int]]]:
    """c_p : c_k acting on Z/p, the second generator multiplying by `mult`."""
    rot = [(i + 1) % p for i in range(p)]
    act = [(mult * i) % p for i in range(p)]
    return p, [rot, act]


def _builders() -> dict[str, Callable[[], tuple[int, list[list[int]]]]]:
    out: dict[str, Callable[[], tuple[int, list[list[int]]]]] = {}
    for n in range(1, 25):
        out[f"c{n}"] = (lambda n=n: _cyclic_gens(n))
    for m in (4, 5, 6, 7, 8, 9, 10, 11, 12):
        out[f"d{2 * m}"] = (lambda m=m: _dihedral_gens(m))
    out["v4"] = lambda: (4, [[1, 0, 2, 3], [0, 1, 3, 2]])
    out["s3"] = lambda: (3, [[1, 2, 0], [1, 0, 2]])
    out["a4"] = lambda: (4, [[1, 2, 0, 3], [1, 0, 3, 2]])
    out["s4"] = lambda: (4, [[1, 2, 3, 0], [1, 0, 2, 3]])
    out["q8"] = lambda: _dicyclic_gens(2)
    out["dic3"] = lambda: _dicyclic_gens(3)
    out["q16"] = lambda: _dicyclic_gens(4)
    out["dic5"] = lambda: _dicyclic_gens(5)
    out["dic6"] = lambda: _dicyclic_gens(6)
    out["f20"] = lambda: _frobenius_gens(5, 2)
    out["f21"] = lambda: _frobenius_gens(7, 2)
    prods = {
        "c2xc4": ("c2", "c4"),
        "c2xc2xc2": ("c2", "v4"),
        "c3xc3": ("c3", "c3"),
        "c2xc6": ("c2", "c6"),
        "c2xc8": ("c2", "c8"),
        "c4xc4": ("c4", "c4"),
        "c3xc6": ("c3", "c6"),
        "c2xc10": ("c2", "c10"),
        "c2xc12": ("c2", "c12"),
        "c2xa4": ("c2", "a4"),
    }
    for name, (a, b) in prods.items():
        out[name] = (
            lambda a=a, b=b: _product_gens(out[a](), out[b]())
        )
    return out


def _corpus_text(name: str) -> str:
    degree, gens = _builders()[name]()
    data = {
        "name": name,
        "order": group_from_generators(degree, gens).order,
        "degree": degree,
        "generators": [list(g) for g in gens],
    }
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


def test_bundled_files_are_the_builders_bytes():
    assert corpus_names() == sorted(_builders())
    for name in corpus_names():
        assert (BUNDLED / f"{name}.json").read_text() == _corpus_text(name), name


def test_bundled_group_names_and_aliases():
    assert len(corpus_names()) == 54
    for name in corpus_names():
        assert corpus_group(name).name == name
    assert corpus_group("trivial") is corpus_group("c1")
    assert corpus_group("d6") is load_group("s3")


def _three_cycle_corpus(tmp_path):
    (tmp_path / "c2.json").write_text(
        json.dumps({"name": "c2", "degree": 3, "generators": [[1, 2, 0]]})
    )
    return tmp_path


def test_env_corpus_is_the_one_lookup_path(tmp_path, monkeypatch):
    _three_cycle_corpus(tmp_path)
    monkeypatch.setenv("ORBICALC_CORPUS", str(tmp_path))
    assert corpus_names() == ["c2"]
    assert corpus_group("c2").order == 3
    assert load_group("c2").order == 3
    assert [(G.name, G.order) for G in groups_of_order_at_most(3)] == [("c2", 3)]
    monkeypatch.delenv("ORBICALC_CORPUS")
    # The cache is keyed by file, so the bundled c2 is not served stale.
    assert corpus_group("c2").order == 2
    assert len(groups_of_order_at_most(3)) == 3


def test_env_corpus_reaches_the_cli(tmp_path):
    env = dict(os.environ, ORBICALC_CORPUS=str(_three_cycle_corpus(tmp_path)))

    def run(*argv):
        proc = subprocess.run([sys.executable, "-m", "orbicalc", *argv],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    assert run("group", "c2")["order"] == 3
    listing = run("corpus")
    assert listing["corpus_dir"] == str(tmp_path)
    assert listing["groups"] == [{"name": "c2", "order": 3}]
    assert run("corpus", "--dump", "c2")["order"] == 3
