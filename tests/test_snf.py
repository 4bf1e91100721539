import pytest

from orbicalc.errors import ValidationError
from orbicalc.snf import (
    ChainComplex,
    complex_from_simplices,
    homology,
    smith_normal_form,
)

from .helpers import sparse_columns

# Minimal 6-vertex triangulation of the real projective plane (faces of
# an icosahedron with antipodes identified): every edge lies in exactly
# two of the ten triangles and the Euler characteristic is 6-15+10 = 1.
RP2_TRIANGLES = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (3, 5, 6), (3, 4, 6), (2, 4, 6), (2, 4, 5),
]

SPHERE_TRIANGLES = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]


def test_snf_diagonal_examples():
    assert smith_normal_form([[2]]) == [2]
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[0, 0], [0, 0]]) == []


def test_snf_divisibility_and_rank():
    A = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    d = smith_normal_form(A)
    assert len(d) == 3
    for a, b in zip(d, d[1:]):
        assert b % a == 0
    # Determinant magnitude is the product of the invariant factors.
    det = (
        A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1])
        - A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0])
        + A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0])
    )
    prod = 1
    for x in d:
        prod *= x
    assert prod == abs(det)


def test_chain_complex_rejects_nonzero_square():
    with pytest.raises(ValidationError):
        ChainComplex(
            ranks=(1, 1, 1),
            columns=[None, sparse_columns([[1]], 1), sparse_columns([[1]], 1)],
        )


def test_torsion_synthetic():
    cc = ChainComplex(ranks=(1, 1), columns=[None, sparse_columns([[2]], 1)])
    h = homology(cc)
    assert h[0].betti == 0
    assert h[0].torsion == (2,)


def test_sphere_homology():
    cc = complex_from_simplices(SPHERE_TRIANGLES)
    h = homology(cc)
    assert (h[0].betti, h[0].torsion) == (1, ())
    assert (h[1].betti, h[1].torsion) == (0, ())
    assert (h[2].betti, h[2].torsion) == (1, ())


def test_rp2_homology():
    cc = complex_from_simplices(RP2_TRIANGLES)
    assert cc.ranks == (6, 15, 10)
    h = homology(cc)
    assert (h[0].betti, h[0].torsion) == (1, ())
    assert h[1].betti == 0
    assert h[1].torsion == (2,)
    assert (h[2].betti, h[2].torsion) == (0, ())


def test_circle_homology():
    cc = complex_from_simplices([(0, 1), (1, 2), (0, 2)])
    h = homology(cc)
    assert (h[0].betti, h[1].betti) == (1, 1)
