"""Dense matrices as lists of rows, exact or in fixed precision.

One class serves both modes.  ``Fixed(tolerance)`` works on floats and
decides every comparison, integrality test and rank by one rule: an error
counts as zero when it is at most ``tolerance * max(1, largest absolute
entry of the operands)``.  The operands are the compared values
themselves, plus any matrices a caller names as the inputs they were
computed from.  The bound is NaN, so nothing counts as zero, once an
operand entry is not finite; Python floats overflow without a warning.
``EXACT`` is the same class at tolerance 0: its entries are ``Fraction``
and its bound is 0, so it decides every question exactly and never turns
an entry into a float.  Other modules import this one, and ``fractions``,
only inside the functions that build a matrix.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ValidationError


def _exact(x) -> Fraction:
    """x as a Fraction, a float read by its repr (0.6 is 3/5); a non-finite float is refused."""
    if isinstance(x, float) and not math.isfinite(x):
        raise ValidationError("an exact matrix entry must be finite")
    return Fraction(repr(x) if isinstance(x, float) else x)


class Fixed:
    """Lists of rows under one declared tolerance (see the module rule);
    tolerance 0 is exact mode."""

    def __init__(self, tolerance: float):
        self.tolerance = tolerance
        self.scalar = float if tolerance else _exact

    def _bound(self, *operands):
        if not self.tolerance:
            return 0
        largest = 1.0
        for x in (x for X in operands for row in X for x in row):
            if not math.isfinite(x):  # tested first: max() with a NaN depends on order
                return math.nan
            largest = max(largest, abs(x))
        return self.tolerance * largest

    def matrix(self, rows):
        try:
            return [[self.scalar(x) for x in row] for row in rows]
        except OverflowError:  # float() of an int or Fraction beyond the float range
            raise ValidationError("a matrix entry is too large for fixed mode") from None

    def zeros(self, m: int, n: int):
        return [[self.scalar(0)] * n for _ in range(m)]

    def identity(self, n: int):
        return [[self.scalar(int(i == j)) for j in range(n)] for i in range(n)]

    def mul(self, A, B):
        out = self.zeros(len(A), len(B[0]))
        for Ai, row in zip(A, out):
            for a, Bt in zip(Ai, B):
                if a == 0:
                    continue
                for j, b in enumerate(Bt):
                    row[j] += a * b
        return out

    def add(self, A, B):
        return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]

    def scale(self, A, c):
        c = self.scalar(c)
        return [[c * x for x in row] for row in A]

    def trace(self, A):
        return sum((A[i][i] for i in range(len(A))), self.scalar(0))

    def close(self, A, B) -> bool:
        return self.is_zero([[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)], A, B)

    def is_zero(self, A, *operands) -> bool:
        bound = self._bound(A, *operands)
        return not math.isnan(bound) and all(abs(x) <= bound for row in A for x in row)

    def integer(self, x):
        """The integer nearest x, or None when x is farther from it than the rule allows."""
        x = self.scalar(x)
        bound = self._bound([[x]])
        m = 0 if math.isnan(bound) else round(x)  # the bound refuses a non-finite x
        return m if abs(x - m) <= bound else None

    def rank(self, A, *operands) -> int:
        return len(self.column_basis(A, *operands))

    def column_basis(self, A, *operands) -> list[list]:
        """The pivot columns of A, as column vectors, found by elimination
        with partial pivoting; a pivot within the rule's bound counts as
        zero.  Exact pivot columns do not depend on the row chosen: they
        are the first maximal independent set of columns, read left to right."""
        bound = self._bound(A, *operands)
        work = [list(r) for r in A]
        pivots: list[int] = []
        for c in range(len(A[0]) if len(A) else 0):
            r = len(pivots)
            if r == len(work):
                break
            p = max(range(r, len(work)), key=lambda i: abs(work[i][c]))
            if abs(work[p][c]) <= bound:
                continue
            pivots.append(c)
            if math.isnan(bound):  # every column is a pivot, and a pivot may be 0
                continue
            work[r], work[p] = work[p], work[r]
            for i in range(r + 1, len(work)):
                f = work[i][c] / work[r][c]
                if f != 0:
                    work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        return [[row[c] for row in A] for c in pivots]


EXACT = Fixed(0)
