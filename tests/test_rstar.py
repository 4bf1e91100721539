import pytest

from orbicalc.errors import ValidationError
from orbicalc.homs import rep_hom_classes
from orbicalc.rstar import (
    build_quotient_category,
    cell_census,
    nerve_chain_complex,
    rstar_homology,
)


def test_category_n1():
    cat = build_quotient_category(1)
    assert cat.object_names == ["c1"]
    assert len(cat.homs[(0, 0)]) == 1


def test_category_n2():
    cat = build_quotient_category(2)
    assert cat.object_names == ["c1", "c2"]
    assert len(cat.homs[(0, 0)]) == 1
    assert len(cat.homs[(0, 1)]) == 1
    # Injective classes c2 -> c1 cannot exist.
    assert cat.homs[(1, 0)] == []
    assert len(cat.homs[(1, 1)]) == 1


def test_category_n4_matches_rep_hom_classes():
    cat = build_quotient_category(4)
    assert cat.object_names == ["c1", "c2", "c3", "c4", "v4"]
    for i, A in enumerate(cat.objects):
        for j, B in enumerate(cat.objects):
            assert len(cat.homs[(i, j)]) == len(rep_hom_classes(A, B))


def test_category_rejects_large_order():
    with pytest.raises(ValidationError):
        build_quotient_category(13)


def test_census_2_1():
    c = cell_census(2, 1)
    assert c.counts() == [2, 1]
    assert c.cells[1][0].isotropy == "c1"
    assert c.cells[1][0].object_names == ("c1", "c2")


def test_census_1_5():
    c = cell_census(1, 5)
    assert c.counts() == [1, 0, 0, 0, 0, 0]


def test_census_3_2():
    # No proper injections between c2 and c3, so nothing composes.
    c = cell_census(3, 2)
    assert c.counts() == [3, 2, 0]


def test_census_3_2_with_isos():
    # The finer model adds the inversion class on c3 and its composites.
    c = cell_census(3, 2, include_isos=True)
    assert c.counts() == [3, 3, 2]


def test_census_isotropy_is_source():
    c = cell_census(4, 2)
    for dim_cells in c.cells[1:]:
        for cell in dim_cells:
            assert cell.isotropy == cell.object_names[0]


def test_census_monotone_in_n_and_k():
    keys = {}
    for n, k in ((2, 2), (4, 2), (4, 3), (6, 3)):
        c = cell_census(n, k)
        keys[(n, k)] = {cell.key() for level in c.cells for cell in level}
    assert keys[(2, 2)] <= keys[(4, 2)] <= keys[(4, 3)] <= keys[(6, 3)]


def test_boundary_n2_k1():
    cat = build_quotient_category(2)
    cc, _ = nerve_chain_complex(cat, 1)
    assert cc.ranks == (2, 1)
    assert cc.boundaries[1] == [[-1], [1]]


def test_complex_n3_k2():
    cat = build_quotient_category(3)
    cc, _ = nerve_chain_complex(cat, 2)
    assert cc.ranks == (3, 2, 0)


def test_ranks_match_census():
    for n, k in ((2, 3), (4, 3), (6, 4)):
        cat = build_quotient_category(n)
        cc, census = nerve_chain_complex(cat, k)
        assert list(cc.ranks) == census.counts()


def test_homology_n1():
    h = rstar_homology(1, 3)
    assert h[0].betti == 1 and h[0].torsion == ()


def test_homology_n2_k3():
    h = rstar_homology(2, 3)
    assert (h[0].betti, h[0].torsion) == (1, ())
    assert all(d.betti == 0 and d.torsion == () for d in h[1:3])


def test_contractibility_small():
    for n in (2, 3, 4, 6):
        for k in (1, 2, 3):
            h = rstar_homology(n, k)
            assert h[0].betti == 1 and h[0].torsion == ()
            for d in h[1:k]:
                assert d.betti == 0 and d.torsion == (), (n, k, d)


def test_contractibility_with_isos():
    # The finer model is also contractible (initial object); modest sizes only.
    for n in (3, 4):
        h = rstar_homology(n, 3, include_isos=True)
        assert h[0].betti == 1
        for d in h[1:3]:
            assert d.betti == 0 and d.torsion == ()


def test_truncation_flagging():
    h = rstar_homology(3, 2)
    assert [d.reliable for d in h] == [True, True, False]



# (max order, max dim, include isos, Euler characteristic): every census of
# N = 6, 8, 12 and d = 3, 4 within MAX_CELLS; N = 8 and 12 with isos exceed it.
EULER_CASES = [
    (6, 3, False, 1), (6, 3, True, -238), (6, 4, False, 1), (6, 4, True, 1096),
    (8, 3, False, 1), (8, 4, False, 1), (12, 3, False, 1), (12, 4, False, 1),
]


@pytest.mark.parametrize("max_order, max_dim, isos, chi", EULER_CASES)
def test_euler_characteristic_of_cells_equals_that_of_homology(max_order, max_dim, isos, chi):
    # The truncated top degree counts too: its betti number is rank ker d_top.
    from orbicalc.rstar import cell_counts
    from orbicalc.snf import homology

    cat = build_quotient_category(max_order)
    counts = cell_counts(cat, max_dim, isos)
    cc, _ = nerve_chain_complex(cat, max_dim, isos)
    assert list(cc.ranks) == counts
    assert sum((-1) ** p * c for p, c in enumerate(counts)) == chi
    assert sum((-1) ** d.degree * d.betti for d in homology(cc)) == chi


@pytest.mark.parametrize("max_order", [8, 12])
def test_euler_cases_with_isos_above_order_6_exceed_the_budget(max_order):
    from orbicalc.rstar import cell_counts

    with pytest.raises(ValidationError, match="exceed the budget"):
        cell_counts(build_quotient_category(max_order), 3, True)


def test_a_census_refuses_a_category_of_another_max_order():
    # N=6's category has 8 objects; a census labelled N=3 must not count them.
    cat = build_quotient_category(6)
    with pytest.raises(ValidationError, match="max order 6, not 3"):
        cell_census(3, 2, category=cat)
    assert cell_census(6, 2, category=cat).counts() == [8, 16, 9]
    assert cell_census(3, 2).counts() == [3, 2, 0]
