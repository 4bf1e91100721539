"""Exact complex character tables of finite groups.

Method (Dixon, "High speed computation of group characters", Numer.
Math. 10, 1967): class-sum matrices are simultaneously diagonalized over a
prime field GF(p) with p = 1 mod exp(G) and p > |G|.  Each class matrix
splits the current invariant subspaces along its eigenspaces, restricted
to each subspace (Schneider, "Dixon's character table algorithm
revisited", J. Symb. Comp. 9, 1990).  The restriction is reduced once to
Hessenberg form H mod p; its eigenvalues are the roots in GF(p) of the
characteristic polynomial read off H (Horner's rule at every element of
GF(p)).  With no zero on H's subdiagonal every eigenspace is a line, and
one back-substitution up H finds them all; only a reduced H takes a
nullspace per root.  The joint eigenvectors are the central characters
mod p; degrees are recovered from the second orthogonality relation, and
the character values are lifted to exact cyclotomic integers through
eigenvalue multiplicities obtained by a discrete Fourier inversion mod p.
Both orthogonality relations are then re-verified for every pair with
exact integer arithmetic, folding only the nonzero multiplicities;
nothing in the public output depends on the internal prime.

The table owns the arithmetic on its characters: `inner_with` is the one
inner product of class functions, indicators fold the multiplicities at
the square classes in one batch reduction mod Phi_e, and a conjugate
character is found as a row read at the inverse classes.
"""

from __future__ import annotations

from math import isqrt
from typing import Sequence

import numpy as np

from ._modlinalg import eigenspaces_mod, solve_columns
from .cyclotomic import CycInt, reduce_rows
from .errors import InternalCheckError
from .groups import FiniteGroup, cached, class_index_map, conjugacy_classes


def _find_prime(e: int, bound: int) -> int:
    """Smallest prime p = 1 mod e with p > bound."""

    def is_prime(n):
        if n < 2:
            return False
        for q in range(2, isqrt(n) + 1):
            if n % q == 0:
                return False
        return True

    p = bound + 1
    while (p - 1) % e != 0 or not is_prime(p):
        p += 1
    return p


def _primitive_root(p: int) -> int:
    factors = []
    m = p - 1
    q = 2
    while q * q <= m:
        if m % q == 0:
            factors.append(q)
            while m % q == 0:
                m //= q
        q += 1
    if m > 1:
        factors.append(m)
    for w in range(2, p):
        if all(pow(w, (p - 1) // f, p) != 1 for f in factors):
            return w
    raise InternalCheckError("no primitive root found")


class CharacterTable:
    """Exact character table with deterministic row and class ordering.

    Classes are ordered by least member; characters by (degree, value
    lexicographic).  Values are CycInt of order exp(G).
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.classes = conjugacy_classes(group)
        self.class_sizes = tuple(len(c) for c in self.classes)
        self.num_classes = len(self.classes)
        self.exponent = group.exponent()
        self._indicators = None  # filled by frobenius_schur
        self._compute()
        self._verify()

    # -- computation -----------------------------------------------------

    def _compute(self) -> None:
        G, r = self.group, self.num_classes
        n, e = G.order, self.exponent
        class_of = class_index_map(G)
        reps = [c[0] for c in self.classes]
        self.identity_class = class_of[G.identity]
        inv_class = [class_of[G.inv(z)] for z in reps]
        p = _find_prime(e, n)

        # Class-sum matrices: (M_i)[j][k] = #{(x, y) in C_i x C_j : xy = z_k},
        # one bincount over the keys (class of y, class of xy) per class i.
        T = G.array()
        cls = np.array(class_of, dtype=np.int64)
        mats = np.empty((r, r, r), dtype=np.int64)
        for i, C in enumerate(self.classes):
            keys = cls * r + cls[T[list(C)]]
            mats[i] = np.bincount(keys.ravel(), minlength=r * r).reshape(r, r)
        sizes = np.array(self.class_sizes, dtype=np.int64)
        if np.any(mats % sizes):
            raise InternalCheckError("class constants not integral")
        mats //= sizes
        mats %= p

        # Joint eigenvectors over GF(p): iteratively split invariant subspaces
        # along the eigenspaces of each class matrix M_i restricted to each
        # subspace B, as X with M_i B = B X.
        subspaces = [np.eye(r, dtype=np.int64)]
        for i in range(r):
            if i == self.identity_class:
                continue
            if all(B.shape[1] == 1 for B in subspaces):
                break
            nxt = []
            for B in subspaces:
                k = B.shape[1]
                if k == 1:
                    nxt.append(B)
                    continue
                X = solve_columns(B, (mats[i] @ B) % p, p)
                spaces = eigenspaces_mod(X, p)
                if sum(K.shape[1] for K in spaces) != k:
                    raise InternalCheckError("class matrix not diagonalizable")
                nxt.extend((B @ K) % p for K in spaces)
            subspaces = nxt
        if any(B.shape[1] != 1 for B in subspaces):
            raise InternalCheckError("joint eigenspaces are not one-dimensional")
        del mats, keys

        sizes_inv = [pow(s, p - 2, p) for s in self.class_sizes]
        omegas = []
        for B in subspaces:
            v = B[:, 0] % p
            scale = pow(int(v[self.identity_class]), p - 2, p)
            omegas.append((v * scale) % p)

        # Degrees from sum_i omega(i) omega(i*) / |C_i| = |G| / d^2 (mod p).
        degrees, chi_mod = [], []
        for v in omegas:
            s = 0
            for i in range(r):
                s += int(v[i]) * int(v[inv_class[i]]) * sizes_inv[i]
            s %= p
            d2 = (n * pow(s, p - 2, p)) % p
            d = isqrt(d2)
            if d * d != d2 or d == 0:
                raise InternalCheckError("degree recovery failed")
            degrees.append(d)
            chi_mod.append([(d * int(v[i]) * sizes_inv[i]) % p for i in range(r)])

        # Power map: class of z_i^j for j = 0..e-1.
        power_class = np.zeros((r, e), dtype=np.int64)
        for i in range(r):
            x = G.identity
            for j in range(e):
                power_class[i, j] = class_of[x]
                x = G.table[x][reps[i]]

        # Multiplicity of zeta^k among the eigenvalues of rho(z_i):
        # m_k = (1/e) sum_j chi(z_i^j) z^(-jk) mod p, lifted to [0, p).
        z = 1 if e == 1 else pow(_primitive_root(p), (p - 1) // e, p)
        e_inv = pow(e, p - 2, p)
        Zmat = np.array(
            [[pow(z, (-j * k) % (p - 1), p) for k in range(e)] for j in range(e)],
            dtype=np.int64,
        )
        mults = np.zeros((len(omegas), r, e), dtype=np.int32)  # each <= degree
        for t, cm in enumerate(chi_mod):
            cm = np.array(cm, dtype=np.int64)
            A = cm[power_class]  # r x e, value of chi_t at z_i^j
            M = (A @ Zmat) % p
            M = (M * e_inv) % p
            if np.any(M > max(degrees)):
                raise InternalCheckError("eigenvalue multiplicity out of range")
            mults[t] = M
        for t in range(len(omegas)):
            if not np.all(mults[t].sum(axis=1) == degrees[t]):
                raise InternalCheckError("multiplicities do not sum to the degree")

        # Exact values and deterministic ordering.
        values = [
            [CycInt(e, tuple(c), _reduced=True) for c in reduce_rows(e, m).tolist()]
            for m in mults
        ]
        order = sorted(
            range(len(values)),
            key=lambda t: (degrees[t], [v.sort_key() for v in values[t]]),
        )
        self.degrees = tuple(degrees[t] for t in order)
        self.values = [values[t] for t in order]
        self._mults = mults[order]
        self._inv_class = inv_class

    # -- verification ------------------------------------------------------

    def _verify(self) -> None:
        n, r, e = self.group.order, self.num_classes, self.exponent
        if len(self.values) != r:
            raise InternalCheckError("character count differs from class count")
        if sum(d * d for d in self.degrees) != n:
            raise InternalCheckError("sum of squared degrees is not |G|")
        sizes = np.array(self.class_sizes, dtype=np.int64)
        diag = np.arange(r)
        V = self._mults
        # Each relation for every pair, reduced mod Phi_e in one batch:
        # sum_i |C_i| chi_s(i) conj(chi_t(i)) = delta_st |G| and
        # sum_t chi_t(i) conj(chi_t(j)) = delta_ij |G| / |C_i|.
        relations = (
            ("row", V.transpose(1, 0, 2), sizes, n),
            ("column", V, np.ones(r, dtype=np.int64), n // sizes),
        )
        for word, W, weights, expect in relations:
            reduced = reduce_rows(e, orthogonality_fold(W, weights))
            reduced[diag, diag, 0] -= expect
            if reduced.any():
                raise InternalCheckError(f"{word} orthogonality fails exactly")
            del reduced  # r x r x e: free it before the next fold

    # -- queries -----------------------------------------------------------

    def value(self, t: int, i: int) -> CycInt:
        return self.values[t][i]

    def inner(self, s: int, t: int) -> int:
        """Exact inner product of rows s and t."""
        return self.inner_with(self.values[s], self.values[t]).as_int()

    def inner_with(self, chi: Sequence[CycInt], psi: Sequence[CycInt]) -> CycInt:
        """<chi, psi> = (1/|G|) sum_i |C_i| chi(i) conj(psi(i)) for class
        functions with CycInt values of one order; ValueError when the sum
        is not divisible by |G|."""
        acc = CycInt.from_int(chi[0].order, 0)
        for size, a, b in zip(self.class_sizes, chi, psi):
            acc = acc + size * (a * b.conjugate())
        return acc.divide_exact(self.group.order)

    def conjugate_partner(self, t: int) -> int:
        """The row of conj(chi_t) = chi_t o inv, found by reading chi_t at
        the inverse classes."""
        target = [self.values[t][j] for j in self._inv_class]
        for s in range(self.num_classes):
            if self.values[s] == target:
                return s
        raise InternalCheckError("conjugate character missing from the table")

    def text_table(self) -> str:
        reps = [c[0] for c in self.classes]
        head = ["", *(f"{self.group.label(z)}({s})" for z, s in zip(reps, self.class_sizes))]
        rows = [head]
        for t in range(self.num_classes):
            rows.append([f"chi{t}", *(str(v) for v in self.values[t])])
        widths = [max(len(r[c]) for r in rows) for c in range(len(head))]
        lines = [
            "  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows
        ]
        return "\n".join(lines)


def orthogonality_fold(W: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """acc[x, y] = sum_g weights[g] sum_{a, b} W[g, x, a] W[g, y, b] zeta^(a - b),
    as r x r coefficient vectors mod x^e - 1 (int64, exact).

    W holds eigenvalue multiplicities: W[t, i, a] is the multiplicity of
    zeta^a in rho_t(z_i).  With W indexed (class, character) and class
    sizes as weights this is the row orthogonality sum of every pair of
    characters; indexed (character, class) with unit weights, the column
    sum of every pair of classes.  Only the nonzero multiplicities enter.
    """
    r, _, e = W.shape
    acc = np.zeros(r * r * e, dtype=np.int64)
    g, x, a = np.nonzero(W)
    v = W[g, x, a]
    bounds = np.searchsorted(g, np.arange(r + 1))
    for k in range(r):
        xs, as_, vs = (u[bounds[k] : bounds[k + 1]] for u in (x, a, v))
        keys = (xs[:, None] * r + xs) * e + (as_[:, None] - as_) % e
        np.add.at(acc, keys.ravel(), (weights[k] * vs[:, None] * vs).ravel())
    return acc.reshape(r, r, e)


@cached("character_table")
def character_table(G: FiniteGroup) -> CharacterTable:
    return CharacterTable(G)


def frobenius_schur(table: CharacterTable, t: int) -> int:
    """The indicator (1/|G|) sum_g chi_t(g^2); must be exactly -1, 0 or 1.

    The first call computes every character's indicator and stores them
    on the table: the eigenvalue multiplicities at the square classes,
    weighted by class size, are summed and reduced mod Phi_e in one batch."""
    if table._indicators is None:
        G = table.group
        class_of = class_index_map(G)
        squares = [class_of[G.table[c[0]][c[0]]] for c in table.classes]
        sizes = np.array(table.class_sizes, dtype=np.int64)
        sums = reduce_rows(table.exponent, sizes @ table._mults[:, squares])
        if sums[:, 1:].any() or (sums[:, 0] % G.order).any():
            raise InternalCheckError("Frobenius-Schur indicator is not an integer")
        indicators = tuple(int(nu) for nu in sums[:, 0] // G.order)
        for nu in indicators:
            if nu not in (-1, 0, 1):
                raise InternalCheckError(f"Frobenius-Schur indicator out of range: {nu}")
        table._indicators = indicators
    return table._indicators[t]
