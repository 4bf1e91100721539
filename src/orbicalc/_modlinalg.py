"""Linear algebra over prime fields GF(p), on lists of Python ints.

Matrices are lists of rows, vectors are lists, and entries are reduced to
[0, p).  Python integers are exact at any size, so no bound on p or on
the dimension is needed.  Every elimination skips zero entries: a pivot
row costs only its nonzeros, and a row with a zero in the pivot column
costs nothing.  The character table's class matrices are sparse (an
abelian group's are permutation matrices), so most of its work is skipped.
"""

from __future__ import annotations

from .errors import InternalCheckError


def _nonzeros(row: list[int]) -> list[tuple[int, int]]:
    return [(j, x) for j, x in enumerate(row) if x]


def nullspace_mod(A: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """(basis, free): a basis of the kernel of A mod p, as vectors, and
    the free columns, read off A's reduced row echelon form.  Basis vector
    c is 1 at free[c] and 0 at the other free columns."""
    R = [[x % p for x in row] for row in A]
    pivots: list[int] = []
    for c in range(len(A[0])):
        r = len(pivots)
        i = next((i for i in range(r, len(R)) if R[i][c]), None)
        if i is None:
            continue
        R[r], R[i] = R[i], R[r]
        inv = pow(R[r][c], p - 2, p)
        R[r] = [x * inv % p for x in R[r]]
        pivot = _nonzeros(R[r])
        for i, row in enumerate(R):
            f = row[c]
            if f and i != r:
                for j, x in pivot:
                    row[j] = (row[j] - f * x) % p
        pivots.append(c)
    free = sorted(set(range(len(A[0]))) - set(pivots))
    basis = []
    for f in free:
        v = [0] * len(A[0])
        v[f] = 1
        for row, c in zip(R, pivots):
            v[c] = -row[f] % p
        basis.append(v)
    return basis, free


def hessenberg_mod(A: list[list[int]], p: int) -> tuple[list[list[int]], list[list[int]]]:
    """(H, S) with H upper Hessenberg and A = S H S^-1 mod p, by
    similarity transformations; S collects their column moves."""
    H = [[x % p for x in row] for row in A]
    k = len(H)
    S = [[int(i == j) for j in range(k)] for i in range(k)]
    for c in range(k - 2):
        i = next((i for i in range(c + 1, k) if H[i][c]), None)
        if i is None:
            continue
        if i != c + 1:
            H[c + 1], H[i] = H[i], H[c + 1]
            for row in H + S:
                row[c + 1], row[i] = row[i], row[c + 1]
        inv = pow(H[c + 1][c], p - 2, p)
        moves = [(m, H[m][c] * inv % p) for m in range(c + 2, k) if H[m][c]]
        if not moves:
            continue
        # Rows m lose u_m * row c+1; column c+1 gains the inverse moves.
        pivot = _nonzeros(H[c + 1])
        for m, u in moves:
            row = H[m]
            for j, x in pivot:
                row[j] = (row[j] - u * x) % p
        for row in H + S:
            row[c + 1] = (row[c + 1] + sum(u * row[m] for m, u in moves)) % p
    return H, S


def hessenberg_charpoly(H: list[list[int]], p: int) -> list[int]:
    """det(xI - H) mod p for H upper Hessenberg, coefficients from x^k
    down to x^0, by the recurrence over its leading principal blocks
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.2.9)."""
    k = len(H)
    # P[m] = det(xI - H[:m, :m]).
    P = [[1]]
    for m in range(k):
        nxt = P[m] + [0]
        h = H[m][m]
        if h:
            for j, c in enumerate(P[m], 1):
                nxt[j] -= h * c
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * H[i + 1][i] % p
            if t == 0:
                break
            f = H[i][m] * t % p
            if f:
                for j, c in enumerate(P[i], m - i + 1):
                    nxt[j] -= f * c
        P.append([x % p for x in nxt])
    return P[k]


def eigenspaces_mod(A: list[list[int]], p: int) -> list[tuple[list[list[int]], list[int]]]:
    """A's eigenspaces mod p, one per root in GF(p) of its characteristic
    polynomial, ascending, each as (basis, units): basis vector c is 1 at
    index units[c] and 0 at the other units.  If A = S H S^-1 has no zero
    on H's subdiagonal, A is non-derogatory: each eigenspace is a line,
    solved up the rows of H for every root and checked exactly in A.
    Otherwise each root takes a nullspace."""
    A = [[x % p for x in row] for row in A]
    k = len(A)
    H, S = hessenberg_mod(A, p)
    roots = roots_mod(hessenberg_charpoly(H, p), p)
    if not all(H[i][i - 1] for i in range(1, k)):
        return [
            nullspace_mod([[(x - lam * (i == j)) % p for j, x in enumerate(row)]
                           for i, row in enumerate(A)], p)
            for lam in roots
        ]
    # Row i of (H - lam) w = 0 gives w[i-1] from w[i:].
    steps = [
        (pow(H[i][i - 1], p - 2, p), [(j, x) for j, x in enumerate(H[i][i:], i) if x])
        for i in range(1, k)
    ]
    A_rows, S_rows = [_nonzeros(row) for row in A], [_nonzeros(row) for row in S]
    spaces = []
    for lam in roots:
        w = [0] * k
        w[k - 1] = 1
        for i in range(k - 1, 0, -1):
            inv, row = steps[i - 1]
            w[i - 1] = (lam * w[i] - sum(x * w[j] for j, x in row)) * inv % p
        v = [sum(x * w[j] for j, x in row) % p for row in S_rows]
        if any((sum(x * v[j] for j, x in row) - lam * y) % p for row, y in zip(A_rows, v)):
            raise InternalCheckError("back-substituted eigenvector fails A v = lam v")
        unit = next(j for j, x in enumerate(v) if x)
        inv = pow(v[unit], p - 2, p)
        spaces.append(([[x * inv % p for x in v]], [unit]))
    return spaces


def roots_mod(coeffs: list[int], p: int) -> list[int]:
    """The roots in GF(p), ascending, of a polynomial given from its
    leading coefficient down: Horner's rule at every x in 0..p-1 at once."""
    xs = range(p)
    val = [0] * p
    for c in coeffs:
        val = [(v * x + c) % p for v, x in zip(val, xs)]
    return [x for x, v in enumerate(val) if not v]
