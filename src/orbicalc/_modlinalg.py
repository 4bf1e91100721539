"""Linear algebra over prime fields GF(p), vectorized with numpy int64.

Entries stay far below 2**63 for the primes used here (p < 10**4), so all
arithmetic is exact.
"""

from __future__ import annotations

import numpy as np


def rref_mod(A: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (R, pivot column list)."""
    R = A.astype(np.int64) % p
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.flatnonzero(R[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        R[r] = (R[r] * pow(int(R[r, c]), p - 2, p)) % p
        # Columns left of c are zero in row r: one outer-product update.
        f = R[:, c].copy()
        f[r] = 0
        R[:, c:] -= np.outer(f, R[r, c:])
        R[:, c:] %= p
        pivots.append(c)
        r += 1
    return R, pivots


def nullspace_mod(A: np.ndarray, p: int) -> np.ndarray:
    """Columns form a basis of the kernel of A mod p."""
    R, pivots = rref_mod(A, p)
    cols = A.shape[1]
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    basis[free, range(len(free))] = 1
    basis[pivots] = (-R[: len(pivots), free]) % p
    return basis


def solve_columns(B: np.ndarray, C: np.ndarray, p: int) -> np.ndarray:
    """Solve B @ X = C mod p where B has full column rank and a solution exists."""
    n, k = B.shape
    aug = np.concatenate([B, C], axis=1) % p
    R, pivots = rref_mod(aug, p)
    if pivots[:k] != list(range(k)) or len(pivots) != k:
        raise ValueError("solve_columns: no unique solution")
    return R[:k, k:]


def charpoly_mod(A: np.ndarray, p: int) -> np.ndarray:
    """det(xI - A) mod p, coefficients from x^k down to x^0.

    A is brought to upper Hessenberg form H by similarity transformations
    mod p; the polynomial then follows from the recurrence over the
    leading principal blocks of H (Cohen, A Course in Computational
    Algebraic Number Theory, Algorithm 2.2.9).
    """
    H = np.array(A, dtype=np.int64) % p
    k = H.shape[0]
    for c in range(k - 2):
        nz = np.flatnonzero(H[c + 1 :, c])
        if nz.size == 0:
            continue
        i = c + 1 + int(nz[0])
        if i != c + 1:
            H[[c + 1, i]] = H[[i, c + 1]]
            H[:, [c + 1, i]] = H[:, [i, c + 1]]
        u = (H[c + 2 :, c] * pow(int(H[c + 1, c]), p - 2, p)) % p
        # Rows c+2.. lose u * row c+1; column c+1 gains the inverse move.
        H[c + 2 :] = (H[c + 2 :] - np.outer(u, H[c + 1])) % p
        H[:, c + 1] = (H[:, c + 1] + H[:, c + 2 :] @ u) % p
    # P[m] = det(xI - H[:m, :m]), coefficients from x^m down to x^0.
    P = [np.ones(1, dtype=np.int64)]
    for m in range(k):
        nxt = np.append(P[m], 0)
        nxt[1:] -= int(H[m, m]) * P[m]
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * int(H[i + 1, i]) % p
            if t == 0:
                break
            nxt[m - i + 1 :] -= (int(H[i, m]) * t % p) * P[i]
        P.append(nxt % p)
    return P[k]


def roots_mod(coeffs: np.ndarray, p: int) -> list[int]:
    """The roots in GF(p), ascending, of a polynomial given from its
    leading coefficient down: Horner's rule at every x in 0..p-1 at once."""
    x = np.arange(p, dtype=np.int64)
    val = np.zeros(p, dtype=np.int64)
    for c in coeffs:
        val = (val * x + int(c)) % p
    return np.flatnonzero(val == 0).tolist()
