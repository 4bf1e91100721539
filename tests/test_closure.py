"""The group core's one closure by right multiplication, against the
two-sided closures it replaced (kept in helpers as oracles), and the group
core's invariants under relabelling of the elements."""

from hypothesis import given, settings
from hypothesis import strategies as st

from orbicalc.characters import character_table
from orbicalc.corpus import corpus_group, corpus_names
from orbicalc.groups import (
    all_subgroups,
    are_isomorphic,
    conjugacy_classes,
    generating_set,
    group_from_generators,
    hom_search,
    is_homomorphism,
    subgroup_classes,
)
from orbicalc.homs import enumerate_homs, hom_classes

from .helpers import (
    reference_all_subgroups,
    reference_generating_set,
    reference_hom_candidates,
    reference_hom_search,
    relabelled,
)

CORPUS = [corpus_group(n) for n in corpus_names()]


# -- permutation groups of the size the lattice sees ------------------------------


def cyclic(n):
    return n, [[(i + 1) % n for i in range(n)]]


def product(a, b):
    (da, ga), (db, gb) = a, b
    gens = [list(p) + list(range(da, da + db)) for p in ga]
    return da + db, gens + [list(range(da)) + [da + x for x in p] for p in gb]


def dihedral(m):
    return m, [[(i + 1) % m for i in range(m)], [-i % m for i in range(m)]]


def symmetric(n):
    return n, [[1, 0] + list(range(2, n)), [(i + 1) % n for i in range(n)]]


def alternating4():
    return 4, [[1, 2, 0, 3], [0, 2, 3, 1]]


def frobenius(p, a):
    return p, [[(i + 1) % p for i in range(p)], [a * i % p for i in range(p)]]


def dicyclic(n):
    """<a, b | a^2n = 1, b^2 = a^n, b a = a^-1 b> on itself: a^i b^j is i + 2n j."""
    m = 2 * n

    def mul(x, y):
        (j, i), (l, k) = divmod(x, m), divmod(y, m)
        if j == 0:
            return (i + k) % m + m * l
        return (i - k) % m + m if l == 0 else (i - k + n) % m

    return 4 * n, [[mul(g, x) for x in range(4 * n)] for g in (1, m)]


# The order <= 48 groups of the `groups` benchmark workload.
LATTICE_GROUPS = {
    "c24": cyclic(24),
    "c36": cyclic(36),
    "c5xc5": product(cyclic(5), cyclic(5)),
    "c3xc3xc3": product(cyclic(3), product(cyclic(3), cyclic(3))),
    "c6xc6": product(cyclic(6), cyclic(6)),
    "c4xc8": product(cyclic(4), cyclic(8)),
    "q16": dicyclic(4),
    "dic6": dicyclic(6),
    "c2xa4": product(cyclic(2), alternating4()),
    "d24": dihedral(12),
    "f21": frobenius(7, 2),
    "c4xc4": product(cyclic(4), cyclic(4)),
    "d20": dihedral(10),
    "d10": dihedral(5),
    "d16": dihedral(8),
    "dic3": dicyclic(3),
    "dic5": dicyclic(5),
    "f20": frobenius(5, 2),
    "s3": symmetric(3),
    "s4": symmetric(4),
    "a4": alternating4(),
    "s3xs3": product(symmetric(3), symmetric(3)),
    "s3xc4": product(symmetric(3), cyclic(4)),
    "d8xc2": product(dihedral(4), cyclic(2)),
    "a4xc3": product(alternating4(), cyclic(3)),
    "q8xc3": product(dicyclic(2), cyclic(3)),
}


def test_lattice_groups_have_their_orders():
    orders = {nm: group_from_generators(*g).order for nm, g in LATTICE_GROUPS.items()}
    assert orders == {
        "c24": 24, "c36": 36, "c5xc5": 25, "c3xc3xc3": 27, "c6xc6": 36, "c4xc8": 32,
        "q16": 16, "dic6": 24, "c2xa4": 24, "d24": 24, "f21": 21, "c4xc4": 16,
        "d20": 20, "d10": 10, "d16": 16, "dic3": 12, "dic5": 20, "f20": 20,
        "s3": 6, "s4": 24, "a4": 12, "s3xs3": 36, "s3xc4": 24, "d8xc2": 16,
        "a4xc3": 36, "q8xc3": 24,
    }


def test_subgroups_and_generating_sets_match_the_two_sided_closure():
    groups = CORPUS + [group_from_generators(*g) for g in LATTICE_GROUPS.values()]
    total = 0
    for G in groups:
        subs = all_subgroups(G)
        assert subs == reference_all_subgroups(G), G
        assert generating_set(G) == reference_generating_set(G), G
        total += len(subs)
    assert total == 1000


def test_hom_search_matches_the_two_sided_extension():
    # Every ordered pair of order <= 8, in the order the search yields them.
    small = [G for G in CORPUS if G.order <= 8]
    assert len(small) == 14
    total = 0
    for G in small:
        for H in small:
            cand = reference_hom_candidates(G, H)
            found = [tuple(phi[a] for a in range(G.order)) for phi in hom_search(G, H, cand)]
            assert found == list(reference_hom_search(G, H, cand)), (G, H)
            assert enumerate_homs(G, H) == sorted(found)
            total += len(found)
    assert total == 1852


# -- relabelling -----------------------------------------------------------------


def _invariants(G):
    return (
        sorted(len(c) for c in conjugacy_classes(G)),
        sorted(character_table(G).degrees),
        sorted((sc.order, sc.conjugates_count, sc.normalizer_order) for sc in subgroup_classes(G)),
        [len(hom_classes(G, corpus_group(nm))) for nm in ("c2", "s3", "d8")],
    )


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_group_core_is_invariant_under_relabelling(data):
    G = data.draw(st.sampled_from(CORPUS))
    G2 = relabelled(G, data.draw(st.permutations(range(G.order))))
    assert _invariants(G2) == _invariants(G)
    phi = are_isomorphic(G, G2)
    assert phi is not None and len(set(phi)) == G.order
    assert is_homomorphism(G, G2, phi)
