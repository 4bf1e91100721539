"""Random permutation groups of degree at most 6, built with every
self-check on: the group's validation, its character table's checks and
its real irreps'.  Relabelling the points gives an isomorphic group, so
its degrees, class sizes and Frobenius-Schur indicators must agree."""

from hypothesis import given, settings
from hypothesis import strategies as st

from orbicalc.characters import character_table, frobenius_schur
from orbicalc.groups import group_from_generators
from orbicalc.realreps import real_irreps


@st.composite
def generators_and_relabelling(draw):
    degree = draw(st.integers(1, 6))
    points = list(range(degree))
    gens = draw(st.lists(st.permutations(points), min_size=1, max_size=3))
    return degree, gens, draw(st.permutations(points))


def invariants(G):
    ct = character_table(G)
    characters = sorted(
        (d, frobenius_schur(ct, t)) for t, d in enumerate(ct.degrees)
    )
    reals = sorted((e.real_dim, e.end_type) for e in real_irreps(G).entries)
    return G.order, sorted(ct.class_sizes), characters, reals


@settings(max_examples=30, deadline=None)
@given(generators_and_relabelling())
def test_a_relabelling_keeps_degrees_class_sizes_and_indicators(case):
    degree, gens, sigma = case
    relabelled = [[0] * degree for _ in gens]
    for g, h in zip(gens, relabelled):
        for x in range(degree):
            h[sigma[x]] = sigma[g[x]]
    G = group_from_generators(degree, gens)
    H = group_from_generators(degree, relabelled)
    order, sizes, characters, reals = invariants(G)
    assert (order, sizes, characters, reals) == invariants(H)
    assert sum(d * d for d, _ in characters) == order == sum(sizes)
    assert len(characters) == len(sizes)
