"""Dense matrices behind one interface, exact or in fixed precision.

Two backends offer the same methods.  ``EXACT`` works on lists of
``Fraction`` rows and decides every question exactly.  ``Fixed(tolerance)``
works on float arrays and decides every comparison, integrality test and
rank by one rule: an error counts as zero when it is at most
``tolerance * max(1, largest absolute entry of the operands)``.  The
operands are the compared values themselves, plus any matrices a caller
names as the inputs they were computed from.  Nothing counts as zero once
an error or an operand is not finite, and overflow raises no warning.
Only ``Fixed`` uses numpy, and imports it when a backend is built, so
exact work never loads it.  Other modules import this one, and
``fractions``, only inside the functions that build a matrix.
"""

from __future__ import annotations

from fractions import Fraction


class _Exact:
    """Lists of Fraction rows; the operands never matter."""

    def matrix(self, rows) -> list[list[Fraction]]:
        return [[Fraction(x) for x in row] for row in rows]

    def zeros(self, m: int, n: int) -> list[list[Fraction]]:
        return [[Fraction(0)] * n for _ in range(m)]

    def identity(self, n: int) -> list[list[Fraction]]:
        return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]

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
        c = Fraction(c)
        return [[c * x for x in row] for row in A]

    def trace(self, A) -> Fraction:
        return sum((A[i][i] for i in range(len(A))), Fraction(0))

    def block_diag(self, A, B):
        return [list(r) + [Fraction(0)] * len(B) for r in A] + [
            [Fraction(0)] * len(A) + list(r) for r in B
        ]

    def close(self, A, B) -> bool:
        return A == B

    def is_zero(self, A, *operands) -> bool:
        return not any(x for row in A for x in row)

    def integer(self, x):
        """x as an int, or None when it is not an integer."""
        x = Fraction(x)
        return x.numerator if x.denominator == 1 else None

    def rank(self, A, *operands) -> int:
        return len(self.column_basis(A))

    def column_basis(self, A, *operands) -> list[list[Fraction]]:
        """The pivot columns of A, as column vectors: the first maximal
        independent set of columns, read left to right."""
        work = [list(r) for r in A]
        pivots: list[int] = []
        for c in range(len(A[0]) if A else 0):
            r = len(pivots)
            if r == len(work):
                break
            p = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
            if p is None:
                continue
            work[r], work[p] = work[p], work[r]
            inv = 1 / work[r][c]
            for i in range(r + 1, len(work)):
                f = work[i][c] * inv
                if f != 0:
                    work[i] = [x - f * y for x, y in zip(work[i], work[r])]
            pivots.append(c)
        return [[row[c] for row in A] for c in pivots]


EXACT = _Exact()


class Fixed:
    """Float arrays under one declared tolerance (see the module rule).
    numpy is imported when a backend is built, and only then."""

    def __init__(self, tolerance: float):
        import numpy

        self.np = numpy
        self.tolerance = tolerance

    def _quiet(self):
        """Overflow and invalid values warn of nothing: the rule decides."""
        return self.np.errstate(over="ignore", invalid="ignore")

    def _bound(self, *operands) -> float:
        np = self.np
        largest = max(float(np.abs(X).max(initial=0.0)) for X in operands)
        return self.tolerance * max(1.0, largest) if largest < np.inf else np.nan

    def matrix(self, rows):
        return self.np.array(rows, dtype=float)

    def zeros(self, m: int, n: int):
        return self.np.zeros((m, n))

    def identity(self, n: int):
        return self.np.eye(n)

    def mul(self, A, B):
        with self._quiet():
            return A @ B

    def add(self, A, B):
        with self._quiet():
            return A + B

    def scale(self, A, c):
        with self._quiet():
            return float(c) * A

    def trace(self, A) -> float:
        with self._quiet():
            return float(self.np.trace(A))

    def block_diag(self, A, B):
        out = self.np.zeros((len(A) + len(B),) * 2)
        out[: len(A), : len(A)] = A
        out[len(A) :, len(A) :] = B
        return out

    def close(self, A, B) -> bool:
        with self._quiet():
            return self.is_zero(A - B, A, B)

    def is_zero(self, A, *operands) -> bool:
        return bool(self.np.abs(A).max(initial=0.0) <= self._bound(A, *operands))

    def integer(self, x):
        """The integer nearest x, or None when x is farther from it than the rule allows."""
        m = round(float(x)) if self.np.isfinite(x) else 0  # the bound refuses a non-finite x
        return m if abs(x - m) <= self._bound(x) else None

    def rank(self, A, *operands) -> int:
        return len(self.column_basis(A, *operands))

    def column_basis(self, A, *operands) -> list[list[float]]:
        """The pivot columns of A, found by elimination with partial
        pivoting; a pivot within the rule's bound counts as zero."""
        np = self.np
        A = np.asarray(A, dtype=float)
        bound = self._bound(A, *operands)
        work = A.copy()
        pivots: list[int] = []
        with self._quiet():
            for c in range(A.shape[1]):
                r = len(pivots)
                if r == A.shape[0]:
                    break
                p = r + int(np.argmax(np.abs(work[r:, c])))
                if abs(work[p, c]) <= bound:
                    continue
                work[[r, p]] = work[[p, r]]
                work[r + 1 :] -= np.outer(work[r + 1 :, c] / work[r, c], work[r])
                pivots.append(c)
        return [A[:, c].tolist() for c in pivots]
