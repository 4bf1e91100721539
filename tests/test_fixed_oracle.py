"""The one matrix backend against the numpy backend it replaced.

`ReferenceFixed` (tests/helpers.py) is the fixed-precision backend as it
ran on float arrays.  Random low-rank float matrices, with entries moved
to within a few ulps of the tolerance edge and spiked with 1e200, +-inf
and NaN, must get the same rank, pivot columns, and close, is_zero and
integer verdicts from both, and neither side may raise.

Both sides reach those verdicts by the same IEEE operations in the same
order: elementwise differences, absolute values, one product for the
bound, and an elimination by rank-one updates (f = x / p, then x - f * y).
So they agree exactly, edge draws included.  A matrix product is a sum,
and numpy may round it in another order than Python's loop does.  There
alone a close verdict may differ, and then only for a draw that lies
within n * eps * max|entry| of the bound, where n is the length of the
sums and max|entry| the largest entry of |A| |B|.

Entries stay at most about 1e200, so the elimination of a matrix of at
most five rows cannot overflow to a NaN in the middle of a column; the
two sides pick such a NaN as pivot differently (numpy's argmax takes it,
Python's max skips it).  The extra operands given to is_zero hold no NaN:
the oracle's bound keeps a NaN only when it comes first.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from orbicalc._linalg import Fixed

from .helpers import ReferenceFixed

EPS = np.finfo(float).eps
SPIKES = [1e200, -1e200, math.inf, -math.inf, math.nan]


def low_rank(data, m, n):
    """A random m x n float matrix of rank at most min(m, n), often lower."""
    k = data.draw(st.integers(0, min(m, n)))
    left = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=k, max_size=k),
                              min_size=m, max_size=m))
    right = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                               min_size=k, max_size=k))
    scale = data.draw(st.sampled_from([1.0, 1e-3, 0.37, 1e3]))
    return [[scale * sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
            if k else [0.0] * n for row in left]


def edge(data, tolerance, size):
    """An error at the rule's edge for entries as large as `size`: a factor
    0.999 or 1.001 of the bound, or the bound moved by a few ulps."""
    bound = tolerance * max(1.0, size)
    sign = data.draw(st.sampled_from([-1.0, 1.0]))
    kind = data.draw(st.sampled_from(["0.999", "1.001", "ulps", "zero"]))
    if kind == "ulps":
        steps = data.draw(st.integers(-3, 3))
        for _ in range(abs(steps)):
            bound = math.nextafter(bound, math.inf if steps > 0 else 0.0)
        return sign * bound
    return {"0.999": sign * 0.999 * bound, "1.001": sign * 1.001 * bound, "zero": 0.0}[kind]


def nudged(data, A, tolerance, spikes):
    """A copy of A with some entries moved by an edge error and, when
    `spikes`, some set to 1e200, +-inf or NaN."""
    size = max((abs(x) for row in A for x in row), default=0.0)
    out = [list(row) for row in A]
    for row in out:
        for j in range(len(row)):
            move = data.draw(st.sampled_from(["keep", "keep", "edge", "spike"]))
            if move == "edge":
                row[j] += edge(data, tolerance, size)
            elif move == "spike" and spikes:
                row[j] = data.draw(st.sampled_from(SPIKES))
    return out


@settings(max_examples=400, deadline=None)
@given(data=st.data(), tolerance=st.sampled_from([1e-4, 1e-6, 1e-9]),
       m=st.integers(1, 5), n=st.integers(1, 5))
def test_the_backend_decides_as_the_numpy_backend(data, tolerance, m, n):
    ours, ref = Fixed(tolerance), ReferenceFixed(tolerance)
    clean = low_rank(data, m, n)
    A = nudged(data, clean, tolerance, spikes=data.draw(st.booleans()))
    assert ours.rank(A) == ref.rank(np.array(A))
    # repr: a NaN column compares unequal to itself.
    assert repr(ours.column_basis(A)) == repr(ref.column_basis(A))

    B = nudged(data, A, tolerance, spikes=data.draw(st.booleans()))
    assert ours.close(A, B) == ref.close(np.array(A), np.array(B))
    D = [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]
    assert ours.is_zero(D) == ref.is_zero(np.array(D))
    F = [[0.0 if math.isnan(x) else x for x in row] for row in B]
    assert ours.is_zero(D, F) == ref.is_zero(np.array(D), np.array(F))

    k = data.draw(st.sampled_from([0, 3, -7, 20000, 12345678]))
    x = data.draw(st.one_of(st.just(k + edge(data, tolerance, abs(k))), st.sampled_from(SPIKES)))
    assert ours.integer(x) == ref.integer(x)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), tolerance=st.sampled_from([1e-4, 1e-6, 1e-9]),
       m=st.integers(1, 5), n=st.integers(1, 5), p=st.integers(1, 5))
def test_products_differ_only_within_rounding_of_the_bound(data, tolerance, m, n, p):
    ours, ref = Fixed(tolerance), ReferenceFixed(tolerance)
    A = nudged(data, low_rank(data, m, n), tolerance, spikes=False)
    B = nudged(data, low_rank(data, n, p), tolerance, spikes=False)
    ref_product = np.array(A) @ np.array(B)
    C = nudged(data, ref_product.tolist(), tolerance, spikes=False)
    verdict = ours.close(ours.mul(A, B), C)
    if verdict != ref.close(ref_product, np.array(C)):
        size = (np.abs(np.array(A)) @ np.abs(np.array(B))).max()
        error = np.abs(ref_product - np.array(C)).max()
        bound = tolerance * max(1.0, np.abs(ref_product).max(), np.abs(np.array(C)).max())
        assert abs(error - bound) <= n * EPS * size
