"""Linear algebra over prime fields GF(p), vectorized with numpy int64.

Entries are reduced to [0, p) before they multiply, so sums of k products
stay below k * p**2 < 2**63: for the character table's prime (the least
p = 1 mod exp(G) above |G|) and k <= |G| <= 10,000 they stay below
3 * 10**15 (worst: C9199, p = 496747), so all arithmetic is exact.
"""

from __future__ import annotations

import numpy as np

from .errors import InternalCheckError


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


def hessenberg_mod(A: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(H, S) with H upper Hessenberg and A = S H S^-1 mod p, by
    similarity transformations; S collects their column moves."""
    H = np.array(A, dtype=np.int64) % p
    k = H.shape[0]
    S = np.eye(k, dtype=np.int64)
    for c in range(k - 2):
        nz = np.flatnonzero(H[c + 1 :, c])
        if nz.size == 0:
            continue
        i = c + 1 + int(nz[0])
        if i != c + 1:
            H[[c + 1, i]] = H[[i, c + 1]]
            H[:, [c + 1, i]] = H[:, [i, c + 1]]
            S[:, [c + 1, i]] = S[:, [i, c + 1]]
        u = (H[c + 2 :, c] * pow(int(H[c + 1, c]), p - 2, p)) % p
        # Rows c+2.. lose u * row c+1; column c+1 gains the inverse move.
        H[c + 2 :] = (H[c + 2 :] - np.outer(u, H[c + 1])) % p
        H[:, c + 1] = (H[:, c + 1] + H[:, c + 2 :] @ u) % p
        S[:, c + 1] = (S[:, c + 1] + S[:, c + 2 :] @ u) % p
    return H, S


def _hessenberg_charpoly(H: np.ndarray, p: int) -> np.ndarray:
    k = H.shape[0]
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


def charpoly_mod(A: np.ndarray, p: int) -> np.ndarray:
    """det(xI - A) mod p, coefficients from x^k down to x^0, by the
    recurrence over the leading principal blocks of A's Hessenberg form
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 2.2.9)."""
    return _hessenberg_charpoly(hessenberg_mod(A, p)[0], p)


def eigenspaces_mod(A: np.ndarray, p: int) -> list[np.ndarray]:
    """Column bases of A's eigenspaces mod p, one per root in GF(p) of its
    characteristic polynomial, ascending.  If A = S H S^-1 has no zero on
    H's subdiagonal, A is non-derogatory: each eigenspace is a line, solved
    up the rows of H for every root at once and checked exactly in A.
    Otherwise each root takes a nullspace."""
    A = np.array(A, dtype=np.int64) % p
    k = A.shape[0]
    H, S = hessenberg_mod(A, p)
    roots = roots_mod(_hessenberg_charpoly(H, p), p)
    if not np.diagonal(H, -1).all():
        return [nullspace_mod((A - lam * np.eye(k, dtype=np.int64)) % p, p) for lam in roots]
    lam = np.array(roots, dtype=np.int64)
    V = np.zeros((k, len(roots)), dtype=np.int64)
    V[k - 1] = 1
    # Row i of (H - lam) v = 0 gives v[i-1] from v[i:].
    for i in range(k - 1, 0, -1):
        t = (H[i, i:] @ V[i:] - lam * V[i]) % p
        V[i - 1] = (-t * pow(int(H[i, i - 1]), p - 2, p)) % p
    V = (S @ V) % p
    if ((A @ V - V * lam) % p).any():
        raise InternalCheckError("back-substituted eigenvector fails A v = lam v")
    return [V[:, [j]] for j in range(len(roots))]


def roots_mod(coeffs: np.ndarray, p: int) -> list[int]:
    """The roots in GF(p), ascending, of a polynomial given from its
    leading coefficient down: Horner's rule at every x in 0..p-1 at once."""
    x = np.arange(p, dtype=np.int64)
    val = np.zeros(p, dtype=np.int64)
    for c in coeffs:
        val = (val * x + int(c)) % p
    return np.flatnonzero(val == 0).tolist()
