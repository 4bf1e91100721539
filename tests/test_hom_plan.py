"""The hom plan: for each generator, the Cayley edges its level adds,
split into tree edges that reach a new element and check edges; and the
hom search over it against the per-candidate Cayley walk of
`extend_hom` it replaced (kept in helpers as an oracle)."""

from hypothesis import given, settings

from orbicalc.corpus import corpus_group, corpus_names
from orbicalc.groups import _hom_plan, generating_set, group_from_generators, hom_search

from .helpers import closure_of, reference_cayley_hom_search, reference_hom_candidates
from .test_random_groups import generators_and_relabelling

CORPUS = [corpus_group(n) for n in corpus_names()]


def check_plan(G):
    """Each level's tree reaches exactly the elements the level adds, in
    an order that only reads images already set, and over all levels the
    edges are every (x, gens[j]) once."""
    gens, plan = generating_set(G), _hom_plan(G)
    assert len(plan) == len(gens)
    edges = []
    for i, (tree, checks) in enumerate(plan):
        inner, outer = closure_of(G, gens[:i]), closure_of(G, gens[: i + 1])
        assert len(tree) == len(outer) - len(inner), (G, i)
        known = set(inner)
        for x, _, y in tree:
            assert x in known and y not in known, (G, i)
            known.add(y)
        assert known == outer
        assert all(x in outer and y in outer for x, _, y in checks)
        edges += tree + checks
    assert all(y == G.table[x][gens[j]] for x, j, y in edges)
    assert sorted((x, j) for x, j, _ in edges) == [
        (x, j) for x in range(G.order) for j in range(len(gens))
    ]


def test_the_plan_covers_every_cayley_edge_once_on_the_corpus():
    for G in CORPUS:
        check_plan(G)


@settings(max_examples=30, deadline=None)
@given(generators_and_relabelling())
def test_the_plan_covers_every_cayley_edge_once_on_random_groups(case):
    degree, gens, _ = case
    check_plan(group_from_generators(degree, gens))


def test_hom_search_matches_the_cayley_walk_on_every_pair_to_order_12():
    # Every ordered pair of order <= 12, in the order each search yields
    # them, with the candidates in either order.
    small = [G for G in CORPUS if G.order <= 12]
    assert len(small) == 24
    total = 0
    for G in small:
        for H in small:
            for cand in (reference_hom_candidates(G, H),
                         [c[::-1] for c in reference_hom_candidates(G, H)]):
                found = list(map(tuple, hom_search(G, H, cand)))
                assert found == list(reference_cayley_hom_search(G, H, cand)), (G, H)
                total += len(found)
    assert total == 2 * 4404
