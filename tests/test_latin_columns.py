"""A table whose rows are permutations, with two-sided inverses, that
passes Light's test is a group, so its columns are permutations too:
validation scans the columns only of a table it is about to refuse.  The
messages are the ones the old order gave, which scanned every column
first (`reference_validate`): on every 3 x 3 table with entries 0..2, and
on seeded random 4 x 4 and 5 x 5 tables."""

import random
from itertools import permutations, product

import pytest

from orbicalc.errors import ValidationError
from orbicalc.groups import FiniteGroup

from .helpers import reference_validate


def _message(table):
    try:
        FiniteGroup(table)
    except ValidationError as exc:
        return str(exc)
    return None


def _both(monkeypatch, tables):
    """(new message, old message) for each table."""
    new = [_message(T) for T in tables]
    with monkeypatch.context() as m:
        m.setattr(FiniteGroup, "_validate", reference_validate)
        old = [_message(T) for T in tables]
    return new, old


def test_every_3x3_table_gets_the_old_message(monkeypatch):
    tables = [[entries[0:3], entries[3:6], entries[6:9]] for entries in product(range(3), repeat=9)]
    new, old = _both(monkeypatch, tables)
    assert new == old
    # Every Latin square of order 3 with an identity is a group.
    assert {m.split(" ")[0] if m else None for m in old} == {"row", "column", "table", None}


def _loops(n):
    """Every Latin square on 0..n-1 with 0 as two-sided identity: for n = 5,
    groups and loops that are no groups."""
    T = [[a if b == 0 else b if a == 0 else None for b in range(n)] for a in range(n)]
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]

    def fill(k):
        if k == len(cells):
            yield [row[:] for row in T]
            return
        a, b = cells[k]
        for x in range(n):
            if x not in T[a] and all(T[c][b] != x for c in range(n)):
                T[a][b] = x
                yield from fill(k + 1)
                T[a][b] = None

    return list(fill(0))


def _random_tables(n, rng, count):
    """Tables with random entries; with random permutations as rows; with
    identity 0 and random permutations as the other rows; and Latin
    squares with identity 0, with one entry changed or none."""
    perms = list(permutations(range(n)))
    loops = _loops(n)
    for _ in range(count):
        yield [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
        yield [list(rng.choice(perms)) for _ in range(n)]
        yield [list(range(n))] + [list(rng.choice([p for p in perms if p[0] == a])) for a in range(1, n)]
        T = [row[:] for row in rng.choice(loops)]
        if rng.random() < 0.5:
            T[rng.randrange(n)][rng.randrange(n)] = rng.randrange(n)
        yield T


@pytest.mark.parametrize("n", [4, 5])
def test_random_tables_get_the_old_message(monkeypatch, n):
    tables = list(_random_tables(n, random.Random(n), 1000))
    new, old = _both(monkeypatch, tables)
    assert new == old
    kinds = {m.split(" ")[0] if m else None for m in old}
    assert {"row", "column", "table", None} <= kinds
    if n == 5:  # loops of order 5 that are no groups
        assert {"element", "associativity"} <= kinds
