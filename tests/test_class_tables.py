"""The quotient category's orbit and class tables, and the hom-layer
values they are built from."""

import pytest

from orbicalc import rstar
from orbicalc.corpus import corpus_group, groups_of_order_at_most
from orbicalc.errors import InternalCheckError, ValidationError
from orbicalc.groups import centralizer, quotient_group
from orbicalc.homs import class_of_hom, hom_classes


# The mutation tests below run on fresh corpus groups: a build on groups
# whose pair data and triples are already checked and cached checks nothing
# again, and a corrupted shared table must not outlive its test.


def test_non_invariant_class_of_hom_fails_the_build(fresh_groups, monkeypatch):
    # The identity is constant on no orbit of size > 1 (S3 has them).
    monkeypatch.setattr(rstar, "class_of_hom", lambda G, H, phi: tuple(phi))
    for _ in range(2):  # a failed check is not cached as passed
        with pytest.raises(InternalCheckError, match="class_of_hom"):
            rstar.QuotientCategory(6)
    monkeypatch.setattr(rstar, "class_of_hom", class_of_hom)
    rstar.QuotientCategory(6)


def test_class_of_hom_naming_no_arrow_fails_the_build(fresh_groups, monkeypatch):
    # Invariant, but the largest member is not the representative.
    def largest(G, H, phi):
        return max(tuple(cm[x] for x in phi) for cm in H.conj_maps())

    monkeypatch.setattr(rstar, "class_of_hom", largest)
    with pytest.raises(InternalCheckError):
        rstar.QuotientCategory(6)


def _shared_pair_with_a_conjugate(max_order):
    """The shared class table of a pair of groups of order <= max_order with
    at least two arrows, an arrow index t and a member of its orbit other
    than its representative."""
    groups = sorted(groups_of_order_at_most(max_order), key=lambda g: (g.order, g.name))
    for A in groups:
        for B in groups:
            reps, orbits, table = rstar._arrows(A, B)
            if len(reps) < 2:
                continue
            for t, orbit in enumerate(orbits):
                for phi in sorted(orbit):
                    if phi != reps[t]:
                        return table, t, phi
    raise AssertionError("no orbit of size > 1")


def test_verify_rejects_a_class_table_that_splits_an_orbit(fresh_groups):
    table, t, phi = _shared_pair_with_a_conjugate(8)
    table[phi] = 1 - min(t, 1)
    # A failed triple is not recorded as checked, so each build fails again.
    for _ in range(len(groups_of_order_at_most(8)) + 1):
        with pytest.raises(InternalCheckError, match="depends on representatives"):
            rstar.QuotientCategory(8)
    table[phi] = t
    rstar.QuotientCategory(8)


def test_verify_rejects_a_composite_missing_from_the_table(fresh_groups):
    table, _, phi = _shared_pair_with_a_conjugate(8)
    del table[phi]
    with pytest.raises(InternalCheckError, match="no class"):
        rstar.QuotientCategory(8)


def test_compose_is_class_of_hom_of_the_composite():
    cat = rstar.build_quotient_category(8)
    n = len(cat.objects)
    pairs = 0
    for (i, j), arrows in cat.homs.items():
        for a in arrows:
            for k in range(n):
                for b in cat.homs[(j, k)]:
                    comp = tuple(b.rep[x] for x in a.rep)
                    rep = class_of_hom(cat.objects[i], cat.objects[k], comp)
                    [named] = [c for c in cat.homs[(i, k)] if c.rep == rep]
                    assert cat.compose(a, b) == named
                    pairs += 1
    assert pairs > 1000


def test_orbits_are_the_conjugation_orbits():
    cat = rstar.build_quotient_category(6)
    for (i, j), arrows in cat.homs.items():
        A, B = cat.objects[i], cat.objects[j]
        orbits = rstar._arrows(A, B)[1]
        for a, orbit in zip(arrows, orbits):
            assert a.rep in orbit
            assert len(orbit) * len(centralizer(B, a.rep).representative) == B.order
        assert len(cat._classes[(i, j)]) == sum(map(len, orbits))


def test_centralizer_order_matches_the_centralizer_subgroup():
    groups = groups_of_order_at_most(12)
    for G in groups:
        for H in groups:
            for c in hom_classes(G, H):
                image = set(c.representative)
                assert c.centralizer_order == len(centralizer(H, image).representative)


def test_quotient_group_is_cached_per_normal_subgroup():
    G = corpus_group("d8")
    center = tuple(G.center())
    first = quotient_group(G, center)
    assert quotient_group(G, list(reversed(center))) is first
    assert first[0].order == 4


def test_quotient_group_rejects_a_non_normal_subgroup_every_time():
    G = corpus_group("s3")
    reflection = next(g for g in range(G.order) if G.element_order(g) == 2)
    for _ in range(2):
        with pytest.raises(ValidationError, match="not normal"):
            quotient_group(G, {G.identity, reflection})
