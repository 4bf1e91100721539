"""The matrix backends and fixed-precision mode.

The exact backend's elimination is checked against a copy of the earlier
separate rank and column-space routines.  Fixed precision is exercised on
a C3 rotation given to five decimals with a declared tolerance of 1e-4:
every decision must go through that tolerance.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from orbicalc._linalg import EXACT, Fixed
from orbicalc.corpus import corpus_group
from orbicalc.errors import ValidationError
from orbicalc.realreps import MatrixRep, isotypic_decomposition, real_irreps
from orbicalc.transversality import (
    LinearChart,
    derived_class_detector,
    fixed_subspace,
    isotypic_surjectivity,
)

from .helpers import direct_sum, one_dim_rep

# The C3 rotation by 120 degrees, on the corpus labels e, (0 1 2), (0 2 1),
# rounded so that its entries are off by up to 1e-5 and the averaged
# projector is not exactly zero.
C3_ROTATION = [
    [[1, 0], [0, 1]],
    [[-0.49999, -0.86603], [0.86603, -0.50001]],
    [[-0.5, 0.86602], [-0.86603, -0.5]],
]


def c3_rotation(tolerance=1e-4):
    return MatrixRep(corpus_group("c3"), C3_ROTATION, exact=False, tolerance=tolerance)


# -- reference copies of the separate exact routines ----------------------------


def ref_mat_rank(A):
    rows = [list(r) for r in A]
    n_cols = len(rows[0]) if rows else 0
    rank = 0
    for c in range(n_cols):
        piv = next((r for r in range(rank, len(rows)) if rows[r][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def ref_column_space_basis(A):
    rows = [list(r) for r in A]
    m = len(rows)
    ncols = len(rows[0]) if m else 0
    work = [list(r) for r in rows]
    pivots = []
    rank = 0
    for c in range(ncols):
        piv = next((r for r in range(rank, m) if work[r][c] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = 1 / work[rank][c]
        work[rank] = [x * inv for x in work[rank]]
        for r in range(m):
            if r != rank and work[r][c] != 0:
                f = work[r][c]
                work[r] = [x - f * y for x, y in zip(work[r], work[rank])]
        pivots.append(c)
        rank += 1
    return [[rows[i][c] for i in range(m)] for c in pivots]


def random_rational_matrix(rng):
    """A random m x n rational matrix of random rank, often with zero columns."""
    m, n, r = rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 4)
    left = [[Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(r)] for _ in range(m)]
    right = [[Fraction(rng.randint(-2, 2)) * rng.randint(0, 1) for _ in range(n)] for _ in range(r)]
    if r == 0:
        return EXACT.zeros(m, n)
    return EXACT.mul(left, right)


def test_exact_rank_and_basis_match_the_reference_routines():
    rng = random.Random(8)
    for _ in range(400):
        A = random_rational_matrix(rng)
        basis = EXACT.column_basis(A)
        assert basis == ref_column_space_basis(A)
        assert EXACT.rank(A) == len(basis) == ref_mat_rank(A)


def test_fixed_rule_scales_with_the_largest_operand():
    la = Fixed(1e-4)
    A = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert la.close(A, A + 1e-4) and not la.close(A, A + 2e-4)
    assert la.close(1000 * A, 1000 * A + 0.09) and not la.close(1000 * A, 1000 * A + 0.2)
    small = np.full((2, 2), 5e-5)
    assert la.is_zero(small) and not la.is_zero(10 * small)
    assert not la.is_zero(10 * small, A) and la.is_zero(10 * small, 100 * A)
    assert la.integer(3.00005) == 3 and la.integer(3.001) is None
    assert la.integer(2.5) is None and la.integer(20000.9) == 20001
    assert la.rank(np.array([[1.0, 2.0], [2.0, 4.0 + 5e-5]])) == 1
    assert la.rank(np.array([[1.0, 2.0], [2.0, 4.001]])) == 2


# -- fixed-precision representations ---------------------------------------------


def test_c3_rotation_fixed_subspace_is_zero():
    dim, basis = fixed_subspace(corpus_group("c3"), c3_rotation())
    assert (dim, basis) == (0, [])


def test_c3_rotation_isotypic_decomposition():
    R = real_irreps(corpus_group("c3"))
    pieces = isotypic_decomposition(c3_rotation())
    got = {R.entries[p.irrep_index].end_type: p.multiplicity for p in pieces}
    assert got == {"R": 0, "C": 1}


def test_c3_rotation_detector_certifies():
    verdict = derived_class_detector(corpus_group("c3"), c3_rotation())
    assert verdict.certified and verdict.degree == -2 and verdict.fixed_dim == 0


def test_c3_rotation_is_refused_under_a_tighter_tolerance():
    with pytest.raises(ValidationError):
        c3_rotation(tolerance=1e-6)


def test_fixed_chart_identity_is_consistent_and_zero_is_not():
    G = corpus_group("c3")
    V = c3_rotation()
    report = isotypic_surjectivity(LinearChart(G, V, V, [[1, 0], [0, 1]]))
    assert report.consistent
    assert [b.rank for b in report.blocks] == [0, 2]
    report = isotypic_surjectivity(LinearChart(G, V, V, [[0, 0], [0, 0]]))
    assert not report.consistent
    assert [b.rank for b in report.blocks] == [0, 0]


def test_fixed_chart_rejects_a_non_equivariant_map():
    G = corpus_group("c3")
    V = c3_rotation()
    with pytest.raises(ValidationError):
        LinearChart(G, V, V, [[1, 0], [0, -1]])


def test_direct_sum_of_an_exact_and_a_fixed_rep():
    G = corpus_group("c2")
    exact = one_dim_rep(G, [1, -1])
    fixed = MatrixRep(G, [[[1.0]], [[-1.00001]]], exact=False, tolerance=1e-4)
    for total in (direct_sum(exact, fixed), direct_sum(fixed, exact)):
        assert not total.exact and total.tolerance == 1e-4 and total.dimension == 2
        assert total.character() == pytest.approx([2.0, -2.00001])
        assert derived_class_detector(G, total).degree == -2
        assert fixed_subspace(G, total)[0] == 0
        MatrixRep(G, total.matrices, exact=False, tolerance=1e-4)  # still a representation
    both = direct_sum(exact, exact)
    assert both.exact and both.matrices[1] == [[-1, 0], [0, -1]]


@pytest.mark.parametrize("tolerance", [-1.0, 0.0, 1.0, 1e300, math.inf, math.nan, 1, True, "1e-4"])
def test_matrix_rep_refuses_a_tolerance_outside_the_unit_interval(tolerance):
    G = corpus_group("c2")
    for exact in (True, False):
        with pytest.raises(ValidationError):
            MatrixRep(G, [[[1]], [[-1]]], exact=exact, tolerance=tolerance)


def test_matrix_rep_refuses_ragged_matrices():
    G = corpus_group("c2")
    for exact in (True, False):
        with pytest.raises(ValidationError):
            MatrixRep(G, [[[1, 0], [0, 1]], [[1, 0], [0]]], exact=exact)


def test_exact_mode_reads_a_float_by_its_repr_and_refuses_a_non_finite_one():
    assert EXACT.matrix([[0.6, 0.1, 2, Fraction(1, 3)]]) == [
        [Fraction(3, 5), Fraction(1, 10), 2, Fraction(1, 3)]
    ]
    reflection = [[[1, 0], [0, 1]], [[0.6, 0.8], [0.8, -0.6]]]
    rep = MatrixRep(corpus_group("c2"), reflection, exact=True)
    assert rep.matrices[1] == [[Fraction(3, 5), Fraction(4, 5)], [Fraction(4, 5), Fraction(-3, 5)]]
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValidationError, match="finite"):
            MatrixRep(corpus_group("c1"), [[[x]]], exact=True)
        with pytest.raises(ValidationError):
            MatrixRep(corpus_group("c1"), [[[x]]], exact=False)
