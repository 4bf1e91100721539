"""Every build_quotient_category(N) shares each pair's arrows, orbits and
class table, and each triple's composition check, with the builds before
it in the process; each check runs once, and a shared result equals what
one build computing everything anew returns."""

from collections import Counter

from orbicalc import rstar
from orbicalc.groups import gather
from orbicalc.homs import class_of_hom

from .helpers import reference_quotient_category


def test_every_n_after_n12_equals_the_per_build_reference():
    rstar.build_quotient_category(12)
    for n in range(1, 13):
        cat, ref = rstar.build_quotient_category(n), reference_quotient_category(n)
        assert cat.objects == ref.objects, n
        assert cat.homs == ref.homs, n
        assert cat._classes == ref._classes, n
        pairs = 0
        for (i, j), arrows in cat.homs.items():
            for a in arrows:
                for k in range(len(cat.objects)):
                    for b in cat.homs[(j, k)]:
                        assert cat.compose(a, b) == ref.compose(a, b)
                        pairs += 1
        assert pairs >= len(cat.objects), n


def _counting(monkeypatch):
    """Count rstar's gather and class_of_hom calls."""
    calls = Counter()

    def wrap(name, f):
        def counted(*args):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(rstar, name, counted)

    wrap("gather", gather)
    wrap("class_of_hom", class_of_hom)
    return calls


def _gathers(cat, pairs, triples):
    """One gather per class of each pair, its orbit, and one per arrow of
    the first leg of each triple, composed with each orbit of the second."""
    return sum(len(cat.homs[p]) for p in pairs) + sum(len(cat.homs[(i, j)]) for i, j, _ in triples)


def _checked_triples(cat):
    """The triples (i, j, k) of cat's objects recorded as checked."""
    keys = [G.table_key() for G in cat.objects]
    return {
        (i, j, k)
        for i, A in enumerate(cat.objects)
        for j in range(len(keys))
        for k in range(len(keys))
        if ("composition_checked", keys[j], keys[k]) in A._cache
    }


def _composable(cat):
    """The triples whose A -> B and B -> C legs both have arrows."""
    n = len(cat.objects)
    return {
        (i, j, k)
        for i in range(n) for j in range(n) for k in range(n)
        if cat.homs[(i, j)] and cat.homs[(j, k)]
    }


class _CountingTable(dict):
    gets = 0

    def get(self, *args):
        _CountingTable.gets += 1
        return super().get(*args)


def _count_table_lookups(cat):
    """Swap every shared class table of cat for a copy counting its lookups."""
    for A in cat.objects:
        for B in cat.objects:
            key = ("arrow_orbits", B.table_key())
            reps, orbits, table = A._cache[key]
            A._cache[key] = reps, orbits, _CountingTable(table)


def test_each_orbit_and_triple_is_checked_once(fresh_groups, monkeypatch):
    calls = _counting(monkeypatch)
    cat8 = rstar.build_quotient_category(8)
    # Each orbit member is classified once, and each orbit built once.
    members = sum(map(len, cat8._classes.values()))
    assert calls["class_of_hom"] == members
    assert calls["gather"] == _gathers(cat8, cat8.homs, _composable(cat8))
    # A triple with an empty leg is never recorded.
    assert _checked_triples(cat8) == _composable(cat8)

    _count_table_lookups(cat8)
    calls.clear()
    for n in (8, 6, 1):
        cat = rstar.build_quotient_category(n)
        # Only the identity lookups; no composite is formed again.
        assert _CountingTable.gets == len(cat.objects)
        _CountingTable.gets = 0
    assert not calls
    assert _checked_triples(cat8) == _composable(cat8)

    cat12 = rstar.build_quotient_category(12)
    # The triples of cat8 are not checked again: the new triples look up
    # only the new pairs' tables.
    assert _CountingTable.gets == len(cat8.objects)
    new = _composable(cat12) - _composable(cat8)
    assert _checked_triples(cat12) == _composable(cat12)
    assert new and all(max(cat12.objects[o].order for o in t) > 8 for t in new)
    # Only the pairs that involve a new object are built.
    assert calls["class_of_hom"] == sum(map(len, cat12._classes.values())) - members
    assert calls["gather"] == _gathers(cat12, cat12.homs.keys() - cat8.homs.keys(), new)

    calls.clear()
    for n in range(1, 13):
        rstar.build_quotient_category(n)
    assert not calls
    assert _checked_triples(cat12) == _composable(cat12)
