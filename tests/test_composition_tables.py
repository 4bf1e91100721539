"""Composition in the quotient category by index: each table the
composition check fills against the composite found by its image tuple,
the identity indices, and the nerve's columns against the nerve built
from image tuples."""

from orbicalc.rstar import build_quotient_category, cell_census, nerve_chain_complex

from .helpers import reference_compose_index


def test_every_table_entry_is_the_class_of_the_composite():
    for n, pairs in ((8, 37723), (12, 41487)):
        cat = build_quotient_category(n)
        composable = 0
        for (i, j), first in cat.homs.items():
            for k in range(len(cat.objects)):
                second = cat.homs[(j, k)]
                if not (first and second):
                    assert (i, j, k) not in cat.composite
                    continue
                table = cat.composite[(i, j, k)]
                assert [len(row) for row in table] == [len(second)] * len(first)
                for s, a in enumerate(first):
                    for t, b in enumerate(second):
                        assert table[s][t] == reference_compose_index(cat, a, b), (i, j, k, s, t)
                        assert cat.compose(a, b) == cat.homs[(i, k)][table[s][t]]
                        composable += 1
        assert composable == pairs, n


def test_identity_indices_name_the_identity_arrows():
    cat = build_quotient_category(12)
    for i, G in enumerate(cat.objects):
        assert cat.homs[(i, i)][cat.identity[i]].rep == tuple(range(G.order))
        assert [a.is_identity() for a in cat.homs[(i, i)]].count(True) == 1
    for isos in (False, True):
        assert cat.nonidentity_arrows(isos) == [
            a for (i, j), arrows in cat.homs.items() for a in arrows
            if not a.is_identity() and (i != j or isos)
        ]


def reference_nerve_columns(cat, census):
    """The nerve's sparse columns with each inner face composed by its
    image tuple and left out when the composite is an identity arrow."""
    columns = [None]
    for p in range(1, len(census.chains)):
        index = {chain: r for r, chain in enumerate(census.chains[p - 1])}
        level = []
        for objs, arrows in census.chains[p]:
            faces = [(1, (objs[1:], arrows[1:])), ((-1) ** p, (objs[:-1], arrows[:-1]))]
            for i in range(1, p):
                x, y, z = objs[i - 1 : i + 2]
                a, b = cat.homs[(x, y)][arrows[i - 1]], cat.homs[(y, z)][arrows[i]]
                t = reference_compose_index(cat, a, b)
                if not cat.homs[(x, z)][t].is_identity():
                    faces.append(((-1) ** i, (objs[:i] + objs[i + 1 :],
                                              arrows[: i - 1] + (t,) + arrows[i + 1 :])))
            col = {}
            for sign, face in faces:
                col[index[face]] = col.get(index[face], 0) + sign
            level.append({r: v for r, v in col.items() if v})
        columns.append(level)
    return columns


def test_nerve_columns_match_composition_by_image_tuple():
    for n, d, isos in ((8, 2, True), (12, 3, False)):
        cat = build_quotient_category(n)
        cc, census = nerve_chain_complex(cat, d, isos)
        assert census.counts() == cell_census(n, d, isos, category=cat).counts()
        assert cc.columns == reference_nerve_columns(cat, census), (n, d, isos)
