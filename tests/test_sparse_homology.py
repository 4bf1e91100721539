"""Sparse homology against the dense Smith normal form oracle kept in the
test helpers."""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbicalc.errors import ValidationError
from orbicalc.rstar import build_quotient_category, nerve_chain_complex
from orbicalc.snf import (
    ChainComplex,
    homology,
    invariant_factors,
    smith_normal_form,
)

from .helpers import complex_from_simplices, reference_smith_normal_form, sparse_columns
from .test_snf import RP2_TRIANGLES

# Units, zeros and non-units in about equal measure.
ENTRIES = st.sampled_from([-3, -2, -1, 0, 0, 0, 1, 1, 2, 4, 6])
# No units at all, and pairs like 2 and 3 or 4 and 6 that divide neither
# way: every pivot is a least entry, both reduction steps run, and the
# pivots need the (gcd, lcm) pass to come out in divisibility order.
NON_UNITS = st.sampled_from([0, 2, -2, 3, -3, 4, -4, 6, -6, 9, -9, 12, -12])


@st.composite
def matrices(draw, entries=ENTRIES):
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    return [[draw(entries) for _ in range(cols)] for _ in range(rows)], cols


def dense_homology(cc: ChainComplex) -> list[tuple[int, tuple[int, ...]]]:
    """(betti, torsion) per degree from dense SNF of each whole boundary."""
    k = len(cc.ranks)
    factors = [[]] + [
        reference_smith_normal_form(cc.boundaries[p]) if cc.ranks[p] and cc.ranks[p - 1] else []
        for p in range(1, k)
    ]
    factors.append([])
    return [
        (
            cc.ranks[p] - len(factors[p]) - len(factors[p + 1]),
            tuple(f for f in factors[p + 1] if f > 1),
        )
        for p in range(k)
    ]


def sparse_homology(cc: ChainComplex) -> list[tuple[int, tuple[int, ...]]]:
    return [(d.betti, d.torsion) for d in homology(cc)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices())
def test_invariant_factors_match_dense_snf(case):
    A, cols = case
    assert invariant_factors(sparse_columns(A, cols)) == reference_smith_normal_form(A)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices(NON_UNITS))
def test_least_entry_pivots_match_dense_snf(case):
    A, cols = case
    expected = reference_smith_normal_form(A)
    assert invariant_factors(sparse_columns(A, cols)) == expected
    assert smith_normal_form(A) == expected


@settings(max_examples=300, deadline=None, derandomize=True)
@given(matrices(), st.integers(0, 5), st.integers(0, 5))
def test_invariant_factors_of_unit_bordered_block(case, i, j):
    # Border a random block with a unit row and column, so that at least
    # one unit pivot is eliminated before any least-entry pivot.
    A, cols = case
    B = [[1] + [(i * c + j) % 3 for c in range(cols)]]
    B += [[(r * i + j) % 2] + row for r, row in enumerate(A)]
    assert invariant_factors(sparse_columns(B, cols + 1)) == reference_smith_normal_form(B)


def test_sparse_columns_skip_zeros():
    assert sparse_columns([[0, 2], [-1, 0], [0, 0]], 2) == [{1: -1}, {0: 2}]
    assert sparse_columns([], 3) == [{}, {}, {}]


def test_columns_are_derived_once_and_boundaries_stay_dense():
    cc = complex_from_simplices([(0, 1, 2)])
    assert cc.boundaries[1] == [[-1, -1, 0], [1, 0, -1], [0, 1, 1]]
    assert cc.columns[1] == [{0: -1, 1: 1}, {0: -1, 2: 1}, {1: -1, 2: 1}]
    assert cc.columns[2] == [{0: 1, 1: -1, 2: 1}]


def test_square_zero_check_is_complete():
    # d1 d2 is zero on the first column and nonzero only on the last one.
    d1 = [[1, 1, 0]]
    d2 = [[1, 0, 1], [-1, 0, 0], [0, 0, 0]]
    with pytest.raises(ValidationError):
        ChainComplex(ranks=(1, 3, 3), columns=[None, sparse_columns(d1, 3), sparse_columns(d2, 3)])
    d2[0][2] = 0
    ChainComplex(ranks=(1, 3, 3), columns=[None, sparse_columns(d1, 3), sparse_columns(d2, 3)])


simplices = st.lists(
    st.sets(st.integers(0, 6), min_size=1, max_size=4), min_size=1, max_size=10
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(simplices)
def test_homology_matches_dense_oracle_on_random_complexes(faces):
    cc = complex_from_simplices([sorted(s) for s in faces])
    assert sparse_homology(cc) == dense_homology(cc)


def test_rp2_torsion_from_the_invariant_factors_of_d2():
    cc = complex_from_simplices(RP2_TRIANGLES)
    factors = invariant_factors(cc.columns[2])
    assert factors == [1] * 9 + [2]
    assert factors == reference_smith_normal_form(cc.boundaries[2])
    assert sparse_homology(cc) == [(1, ()), (0, (2,)), (0, ())] == dense_homology(cc)


def test_homology_leaves_its_input_alone():
    nerve, _ = nerve_chain_complex(build_quotient_category(6), 3, True)
    for cc in (nerve, complex_from_simplices(RP2_TRIANGLES)):
        before = copy.deepcopy(cc.columns)
        first = homology(cc)
        assert cc.columns == before
        assert homology(cc) == first
        assert cc.columns == before


@pytest.mark.parametrize("include_isos", [False, True])
def test_nerve_homology_matches_dense_oracle(include_isos):
    for n in (1, 2, 3, 4, 5, 6):
        cat = build_quotient_category(n)
        for k in (1, 2, 3):
            cc, _ = nerve_chain_complex(cat, k, include_isos)
            assert sparse_homology(cc) == dense_homology(cc), (n, k, include_isos)
