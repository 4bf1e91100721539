"""Exact complex character tables of finite groups.

Method (Dixon, "High speed computation of group characters", Numer.
Math. 10, 1967): class-sum matrices are simultaneously diagonalized over a
prime field GF(p) with p = 1 mod exp(G) and p > |G|.  The class constants
a_ijk = #{x in C_i : x^-1 z_k in C_j} are counted at the class
representatives z_k, once the class map is seen to be invariant under
conjugation by a generating set.  Each class matrix splits the current
invariant subspaces along its eigenspaces, restricted to each subspace
(Schneider, "Dixon's character table algorithm revisited", J. Symb.
Comp. 9, 1990); the first splits the class matrix itself.  The
restriction is reduced once to Hessenberg form H mod p; its eigenvalues
are the roots in GF(p) of the characteristic polynomial read off H
(Horner's rule at every element of GF(p)).  With no zero on H's
subdiagonal every eigenspace is a line, and one back-substitution up H
finds them all; only a reduced H takes a nullspace per root.  The joint
eigenvectors are the central characters mod p; degrees are recovered
from the second orthogonality relation.  The character values are lifted
to exact cyclotomic integers through the eigenvalues of rho(z): Newton's
identities turn the power sums chi(z^j), j <= deg chi, into rho(z)'s
characteristic polynomial mod p, whose roots are found among the o-th
roots of unity, o the order of z.  Both orthogonality relations are then
re-verified for every pair with exact integer arithmetic, folding only
the nonzero multiplicities; nothing in the public output depends on the
internal prime.

Everything runs on lists of Python ints (`_modlinalg`, `cyclotomic`).

The table owns the arithmetic on its characters: `inner_with` is the one
inner product of class functions, indicators fold the multiplicities at
the square classes in one batch reduction mod Phi_e, and a conjugate
character is found as a row read at the inverse classes.

What is cached: through `groups.cached`, one table per group
("character_table"); on the table, its indicators, computed on first
read (`CharacterTable.indicators`, which `frobenius_schur` reads).
"""
from __future__ import annotations

from functools import cached_property
from math import isqrt
from operator import mul, sub
from typing import Sequence

from ._modlinalg import eigenspaces_mod
from .cyclotomic import CycInt, cyclotomic_polynomial, power_sum, reduce_blocks
from .errors import InternalCheckError
from .groups import FiniteGroup, _right_generators, cached, class_index_map, conjugacy_classes


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
        self._compute()
        self._verify()

    # -- computation -----------------------------------------------------

    def _compute(self) -> None:
        G, r = self.group, self.num_classes
        n, e, T = G.order, self.exponent, G.table
        class_of, inv = class_index_map(G), G.inverses()
        # The class constants are counted at one element per class, which
        # is sound only if the class map is constant on conjugacy classes.
        for g in _right_generators(T, G.identity):
            h = inv[g]
            if any(class_of[T[y][h]] != c for y, c in zip(T[g], class_of)):
                raise InternalCheckError("class map is not invariant under conjugation")
        reps = [c[0] for c in self.classes]
        self.identity_class = class_of[G.identity]
        inv_class = [class_of[inv[z]] for z in reps]
        p = _find_prime(e, n)

        # Joint eigenvectors over GF(p): the invariant subspaces are split
        # along the eigenspaces of each class matrix M in turn.  A subspace
        # is (B, units): basis vector c is 1 at row units[c] and 0 at the
        # other units, so M restricted to it, X with M B = B X, is read off
        # at the unit rows.  The whole space keeps its identity basis, where
        # M is its own restriction: the first split is on M itself.
        subspaces = [([[int(j == c) for j in range(r)] for c in range(r)], list(range(r)))]
        for i in range(r):
            if all(len(B) == 1 for B, _ in subspaces):
                break
            if i == self.identity_class:
                continue
            M = class_matrix(G, i)
            nxt = []
            for B, units in subspaces:
                k = len(B)
                if k == 1:
                    nxt.append((B, units))
                    continue
                if k == r:
                    pieces = eigenspaces_mod(M, p)
                else:
                    rows = [[(j, m) for j, m in enumerate(M[u]) if m] for u in units]
                    X = [[sum(m * b[j] for j, m in row) % p for b in B] for row in rows]
                    pieces = [
                        ([[sum(map(mul, v, col)) % p for col in zip(*B)] for v in K],
                         [units[f] for f in free])
                        for K, free in eigenspaces_mod(X, p)
                    ]
                if sum(len(K) for K, _ in pieces) != k:
                    raise InternalCheckError("class matrix not diagonalizable")
                nxt += pieces
            subspaces = nxt
        if any(len(B) != 1 for B, _ in subspaces):
            raise InternalCheckError("joint eigenspaces are not one-dimensional")

        # Degrees from sum_i omega(i) omega(i*) / |C_i| = |G| / d^2 (mod p).
        sizes_inv = [pow(s, p - 2, p) for s in self.class_sizes]
        degrees, chi_mod = [], []
        for [v], _ in subspaces:
            scale = pow(v[self.identity_class], p - 2, p)
            omega = [x * scale % p for x in v]
            s = sum(x * omega[j] * y for x, j, y in zip(omega, inv_class, sizes_inv)) % p
            d2 = n * pow(s, p - 2, p) % p
            d = isqrt(d2)
            if d * d != d2 or d == 0:
                raise InternalCheckError("degree recovery failed")
            degrees.append(d)
            chi_mod.append([d * x * y % p for x, y in zip(omega, sizes_inv)])

        # The eigenvalues of rho_t(z_i), from the values of chi_t at the
        # powers of z_i: seq[j] is the class of z_i^j, j < the order of z_i.
        powers = []
        for z in reps:
            seq, x = [self.identity_class], z
            while x != G.identity:
                seq.append(class_of[x])
                x = T[x][z]
            powers.append(seq)
        zeta = 1 if e == 1 else pow(_primitive_root(p), (p - 1) // e, p)
        roots = [pow(zeta, k, p) for k in range(e)]
        log = {w: k for k, w in enumerate(roots)}
        mults = [
            [eigenvalue_multiplicities([cm[seq[j % len(seq)]] for j in range(1, d + 1)],
                                       e // len(seq), roots, log, p) for seq in powers]
            for d, cm in zip(degrees, chi_mod)
        ]

        # Exact values and deterministic ordering.
        values = [[power_sum(e, terms) for terms in row] for row in mults]
        order = sorted(
            range(len(values)),
            key=lambda t: (degrees[t], [v.sort_key() for v in values[t]]),
        )
        self.degrees = tuple(degrees[t] for t in order)
        self.values = [values[t] for t in order]
        self._mults = [mults[t] for t in order]
        self._inv_class = inv_class

    # -- verification ------------------------------------------------------

    def _verify(self) -> None:
        n, r, e = self.group.order, self.num_classes, self.exponent
        if len(self.values) != r:
            raise InternalCheckError("character count differs from class count")
        if sum(d * d for d in self.degrees) != n:
            raise InternalCheckError("sum of squared degrees is not |G|")
        # Each relation for every pair s <= t, reduced mod Phi_e in one batch:
        # sum_i |C_i| chi_s(i) conj(chi_t(i)) = delta_st |G| and
        # sum_u chi_u(s) conj(chi_u(t)) = delta_st |G| / |C_s|.
        acc = reduce_blocks(e, orthogonality_fold(self._mults, self.class_sizes, e))
        deg = len(cyclotomic_polynomial(e)) - 1
        pairs = [(s, t) for s in range(r) for t in range(s, r)]
        centralizers = [n // c for c in self.class_sizes]
        for word, offset, diagonal in (("row", 0, [n] * r), ("column", e, centralizers)):
            for q, (s, t) in enumerate(pairs):
                start = 2 * e * q + offset
                if acc[start : start + deg] != [diagonal[s] if s == t else 0] + [0] * (deg - 1):
                    raise InternalCheckError(f"{word} orthogonality fails exactly")

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

    @cached_property
    def indicators(self) -> tuple[int, ...]:
        """Every character's Frobenius-Schur indicator, computed on first
        read: the eigenvalue multiplicities at the square classes, weighted
        by class size, are summed and reduced mod Phi_e in one batch."""
        G, r, e = self.group, self.num_classes, self.exponent
        class_of = class_index_map(G)
        squares = [class_of[G.table[c[0]][c[0]]] for c in self.classes]
        flat = [0] * (r * e)
        for t, row in enumerate(self._mults):
            for size, i in zip(self.class_sizes, squares):
                for a, m in row[i]:
                    flat[t * e + a] += size * m
        reduce_blocks(e, flat)
        deg = len(cyclotomic_polynomial(e)) - 1
        sums = [flat[t * e : t * e + deg] for t in range(r)]
        if any(any(s[1:]) or s[0] % G.order for s in sums):
            raise InternalCheckError("Frobenius-Schur indicator is not an integer")
        indicators = tuple(s[0] // G.order for s in sums)
        for nu in indicators:
            if nu not in (-1, 0, 1):
                raise InternalCheckError(f"Frobenius-Schur indicator out of range: {nu}")
        return indicators

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


def class_matrix(G: FiniteGroup, i: int) -> list[list[int]]:
    """The class constants a_ijk = #{x in C_i : x^-1 z_k in C_j}, rows j and
    columns k, z_k the least element of C_k: |C_i| r table lookups."""
    classes, class_of, T, inv = conjugacy_classes(G), class_index_map(G), G.table, G.inverses()
    M = [[0] * len(classes) for _ in classes]
    for x in classes[i]:
        row = T[inv[x]]
        for k, c in enumerate(classes):
            M[class_of[row[c[0]]]][k] += 1
    return M


def eigenvalue_multiplicities(
    sums: list[int], step: int, roots: list[int], log: dict[int, int], p: int
) -> tuple[tuple[int, int], ...]:
    """The eigenvalues of rho(z) as ascending (k, multiplicity) pairs for
    zeta^k, from the power sums sums[j - 1] = chi(z^j) mod p, j <= deg rho.

    Newton's identities give rho(z)'s characteristic polynomial mod p.  Its
    roots are divided out among the o-th roots of unity, roots[k] = zeta^k
    for k = 0, step, 2 step, ... (o the order of z), until a linear factor
    is left.  The discrete-log table `log` (zeta^k -> k) reads its root,
    which must be an o-th root of unity too.
    """
    f = [1]  # x^d + c_1 x^(d-1) + ... + c_d, with j c_j = -sum_{m <= j} c_(j-m) s_m
    for j in range(1, len(sums) + 1):
        f.append(-sum(f[j - m] * sums[m - 1] for m in range(1, j + 1)) * pow(j, p - 2, p) % p)
    found: dict[int, int] = {}
    k = 0
    while len(f) > 2 and k < len(roots):
        q = [1]  # f = (x - zeta^k) q + q[-1], by synthetic division
        for c in f[1:]:
            q.append((q[-1] * roots[k] + c) % p)
        if q[-1]:
            k += step
        else:
            f = q[:-1]
            found[k] = found.get(k, 0) + 1
    if len(f) > 2:
        raise InternalCheckError("multiplicities do not sum to the degree")
    k = log.get(-f[1] % p)
    if k is None or k % step:
        raise InternalCheckError("eigenvalue multiplicity out of range")
    found[k] = found.get(k, 0) + 1
    return tuple(sorted(found.items()))


def orthogonality_fold(
    W: list[list[tuple[tuple[int, int], ...]]], sizes: tuple[int, ...], e: int
) -> list[int]:
    """Both orthogonality sums of every pair s <= t, in one flat list with
    2e slots per pair, pairs in row-major order: slots 0..e-1 hold
    sum_i |C_i| chi_s(i) conj(chi_t(i)) and slots e..2e-1 hold
    sum_u chi_u(s) conj(chi_u(t)), as coefficients of 1, zeta, ...,
    zeta^(e-1).  The pairs t < s would be their complex conjugates.

    W[t][i] lists the (k, m) with zeta^k an eigenvalue of rho_t(z_i) of
    multiplicity m.  A row of W is folded in layers: layer l holds each
    entry's l-th pair, or (0, 0) past its end, so a linear character is
    one layer, and two layers fold in one pass over their entries.
    """

    def layers(row, weights):
        return [
            ([x[l][0] if l < len(x) else 0 for x in row],
             list(map(mul, weights, [x[l][1] if l < len(x) else 0 for x in row])))
            for l in range(max(map(len, row)))
        ]

    def fold(xs, ys):
        slots = [0] * e  # indexed by a - b in (-e, e), which wraps mod e
        for a, m in xs:
            for b, n in ys:
                for k, c in zip(map(sub, a, b), map(mul, m, n)):
                    slots[k] += c
        return slots

    ones = [1] * len(W)
    rows, weighted = [layers(row, ones) for row in W], [layers(row, sizes) for row in W]
    columns = [layers(col, ones) for col in zip(*W)]
    acc: list[int] = []
    for s in range(len(W)):
        for t in range(s, len(W)):
            acc += fold(weighted[s], rows[t]) + fold(columns[s], columns[t])
    return acc


@cached("character_table")
def character_table(G: FiniteGroup) -> CharacterTable:
    return CharacterTable(G)


def frobenius_schur(table: CharacterTable, t: int) -> int:
    """The indicator (1/|G|) sum_g chi_t(g^2); must be exactly -1, 0 or 1."""
    return table.indicators[t]
