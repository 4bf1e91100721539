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
roots of unity, o the order of z.  Nothing in the public output depends
on the internal prime.

Both orthogonality relations are then proved exactly for every pair,
modulo a second prime q = 1 mod e above B M_e: B = |G| (A^2 + 1), A the
largest sum of |multiplicities| in one entry, M_e the largest |coefficient|
of a reduced power of zeta.  A relation's value minus its constant c,
|c| <= |G|, sums at most |G| A^2 powers of zeta, so mod Phi_e it is a D of
degree < phi(e) with |coefficients| <= B M_e < q.  If D vanishes at the
phi(e) distinct roots w^k of Phi_e mod q (w of order e, k a unit), D is 0
mod q, so 0.  When zeta -> zeta^k permutes the rows for every unit k, a
row sum at w^k is another row sum at w and a column sum is fixed, so w
alone stands for every root; otherwise every w^k is checked.

The table follows the Galois action: the eigenvalues are solved for at
one class per rational class and twisted along the power maps to the
others, and each distinct entry gets one exact value.  The certificate's
dot products run on packed residues, one column of the array in one int,
so one row of sums is a multiply-add per column.  Everything runs on
Python ints (`_modlinalg`, `cyclotomic`).

The table owns the arithmetic on its characters: `inner_with` is the one
inner product of class functions, the indicators are proved integers mod
the certificate's prime, and a row is identified by lookup: a conjugate
character is a row read at the inverse classes and looked up, and a
class function equal to a row has the inner products `_verify` proved.

What is cached: through `groups.cached`, one table per group
("character_table"); on the table, its indicators, computed on first
read (`CharacterTable.indicators`, which `frobenius_schur` reads).
"""
from __future__ import annotations

from functools import cached_property
from math import gcd, isqrt
from operator import mul
from typing import Sequence

from ._modlinalg import eigenspaces_mod
from .cyclotomic import CycInt, _reduced_powers, power_sum
from .errors import InternalCheckError
from .groups import FiniteGroup, _right_generators, cached, class_index_map, conjugacy_classes, gather


def _find_prime(e: int, bound: int) -> int:
    """Smallest prime p = 1 mod e with p > bound, trying only p = 1 mod e."""
    p = bound + 1 + -bound % e
    while p < 2 or any(p % d == 0 for d in range(2, isqrt(p) + 1)):
        p += e
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
    for w in range(1, p):
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
        # powers of z_i: powers[i][j] is the class of z_i^j, j < the order
        # of z_i, for the least class i of each rational class.  A class j
        # of it holds z_i^k, k prime to that order, so rho_t(z_j) has the
        # eigenvalues of rho_t(z_i) to the k: rational[j] = (i, k), and the
        # entry of i is twisted by zeta^a -> zeta^(a k).
        powers, rational = {}, [None] * r
        for i, z in enumerate(reps):
            if rational[i] is None:
                seq, x = [self.identity_class], z
                while x != G.identity:
                    seq.append(class_of[x])
                    x = T[x][z]
                powers[i] = seq
                for k, j in enumerate(seq):
                    if rational[j] is None and gcd(k, len(seq)) == 1:
                        rational[j] = (i, k)
        zeta = pow(_primitive_root(p), (p - 1) // e, p)
        roots = [pow(zeta, k, p) for k in range(e)]
        log = {w: k for k, w in enumerate(roots)}
        mults = []
        for d, cm in zip(degrees, chi_mod):
            row: list = []
            for j, (i, k) in enumerate(rational):
                if i == j:
                    seq = powers[j]
                    row.append(eigenvalue_multiplicities(
                        [cm[seq[m % len(seq)]] for m in range(1, d + 1)], e // len(seq), roots, log, p))
                else:
                    row.append(_twist(row[i], k, e))
            mults.append(row)

        # Exact values, one per distinct entry, and deterministic ordering.
        value_of = {x: power_sum(e, x) for x in {x for row in mults for x in row}}
        values = [list(map(value_of.__getitem__, row)) for row in mults]
        order = sorted(range(len(values)), key=lambda t: (degrees[t], [v.sort_key() for v in values[t]]))
        self.degrees = tuple(degrees[t] for t in order)
        self.values = [values[t] for t in order]
        self._mults = [mults[t] for t in order]
        self._inv_class = inv_class

    # -- verification ------------------------------------------------------

    def _certificate(self) -> tuple[set, int, list[int], list[int]]:
        """The distinct entries of `_mults`; the prime q = 1 mod e above
        B M_e, B = |G| (A^2 + 1); the roots of Phi_e mod q to check at: w of
        order e alone when the twists zeta -> zeta^k of a generating set of
        units k permute the rows, else every w^k; and that generating set."""
        n, e, W = self.group.order, self.exponent, self._mults
        entries = {x for row in W for x in row}
        A = max(sum(abs(m) for _, m in x) for x in entries)
        q = _find_prime(e, n * (A * A + 1) * max(max(map(abs, v)) for v in _reduced_powers(e)))
        w = pow(_primitive_root(q), (q - 1) // e, q)
        units = [k for k in range(e) if gcd(k, e) == 1]
        gens, reached, rows = [], {1 % e}, sorted(map(tuple, W))
        for k in units:  # a greedy generating set: each k outside the subgroup so far
            if k in reached:
                continue
            twist = {x: _twist(x, k, e) for x in entries}
            if sorted(gather(row)(twist) for row in W) != rows:
                return entries, q, [pow(w, k, q) for k in units], []
            gens.append(k)
            cyclic = {pow(k, j, e) for j in range(e)}
            reached = {h * g % e for h in reached for g in cyclic}
        return entries, q, [w], gens

    def _verify(self) -> None:
        """Both orthogonality relations, exactly: sum_i |C_i| chi_s(i)
        conj(chi_t(i)) = delta_st |G| for every ordered pair, then
        sum_u chi_u(s) conj(chi_u(t)) = delta_st |G| / |C_s| for s <= t.
        Each holds exactly if it holds mod q at every root w^k of Phi_e:
        the remainder mod Phi_e of value minus constant has |coefficients|
        <= B M_e < q, and vanishing at phi(e) roots makes it 0 mod q.
        When the twists zeta -> zeta^k permute the rows of `_mults`, w
        stands for every root; otherwise every w^k is checked.  The sums
        of one s are read off one packed product (`_packed_dots`)."""
        n, r = self.group.order, self.num_classes
        if len(self.values) != r:
            raise InternalCheckError("character count differs from class count")
        if sum(d * d for d in self.degrees) != n:
            raise InternalCheckError("sum of squared degrees is not |G|")
        W = self._mults
        self._verified = W, self._certificate()  # `indicators` reuses it while `_mults` is W
        entries, q, roots, _ = self._verified[1]
        centralizers = [n // c for c in self.class_sizes]
        for word, diagonal in (("row", [n] * r), ("column", centralizers)):
            for root in roots:
                value, conj = _values_at(entries, root, self.exponent, q)
                X = [list(map(value.__getitem__, row)) for row in W]
                Y = [list(map(conj.__getitem__, row)) for row in W]
                if word == "row":
                    X = [[c * x % q for c, x in zip(self.class_sizes, row)] for row in X]
                else:
                    X, Y = list(zip(*X)), list(zip(*Y))
                packed, width = _pack(Y, q)
                for s, x in enumerate(X):
                    lo = 0 if word == "row" else s
                    expected = [0] * (s - lo) + [diagonal[s]] + [0] * (r - 1 - s)
                    if _packed_dots(x, packed, width, lo, q) != expected:
                        raise InternalCheckError(f"{word} orthogonality fails exactly")

    # -- queries -----------------------------------------------------------

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
        """Every character's Frobenius-Schur indicator S_t / |G|, computed
        on first read, S_t = sum_i |C_i| chi_t(z_i^2), and proved to be an
        integer mod the certificate's prime q.

        S_t sums at most |G| A powers of zeta, so its coefficients mod Phi_e
        are at most |G| A M_e < q / 2, and an integer S_t has |S_t| <= |G| A
        < q / 2: it is c_t, the residue of S_t(w) mod q nearest 0.  Then
        S_t - c_t has |coefficients| < q, so it is 0 iff it vanishes at
        every root w^k of Phi_e mod q.  Where the twist by each generator g
        maps every row t to a row pi(t), S_t(w^(gk)) = S_pi(t)(w^k), so
        S_t(w^g) = c_t for every t and g gives S_t(w^k) = c_t for every k:
        the roots checked are w and each w^g, or every w^k otherwise."""
        G, n, e, W = self.group, self.group.order, self.exponent, self._mults
        class_of = class_index_map(G)
        squares = gather([class_of[G.table[c[0]][c[0]]] for c in self.classes])
        _, q, roots, gens = self._verified[1] if self._verified[0] is W else self._certificate()
        at_squares = {x for row in W for x in squares(row)}
        sums = []
        for root in roots + [pow(roots[0], g, q) for g in gens]:
            value = _values_at(at_squares, root, e, q)[0]
            sums.append([sum(map(mul, self.class_sizes, map(value.__getitem__, squares(row)))) % q
                         for row in W])
        c = [v - q if 2 * v > q else v for v in sums[0]]
        if any(S != sums[0] for S in sums) or any(x % n for x in c):
            raise InternalCheckError("Frobenius-Schur indicator is not an integer")
        indicators = tuple(x // n for x in c)
        for nu in indicators:
            if nu not in (-1, 0, 1):
                raise InternalCheckError(f"Frobenius-Schur indicator out of range: {nu}")
        return indicators

    def conjugate_partner(self, t: int) -> int:
        """The row of conj(chi_t) = chi_t o inv: chi_t read at the inverse
        classes, looked up among the rows."""
        try:
            return self.values.index([self.values[t][j] for j in self._inv_class])
        except ValueError:
            raise InternalCheckError("conjugate character missing from the table") from None

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


def _twist(x: tuple[tuple[int, int], ...], k: int, e: int) -> tuple[tuple[int, int], ...]:
    """An entry's (a, multiplicity) pairs under the twist zeta -> zeta^k."""
    return tuple(sorted((a * k % e, m) for a, m in x))


def _values_at(entries, root: int, e: int, q: int) -> tuple[dict, dict]:
    """Each entry's sum m zeta^a, and its conjugate's sum m zeta^-a, at
    zeta = root of order e mod q: (entry -> value, entry -> conjugate)."""
    powers = [pow(root, a, q) for a in range(e)]
    return ({x: sum(m * powers[a] for a, m in x) % q for x in entries},
            {x: sum(m * powers[-a] for a, m in x) % q for x in entries})


def _pack(ys: Sequence[Sequence[int]], q: int) -> tuple[list[int], int]:
    """Column i of the square array ys of residues mod q as one int, ys[t][i]
    in slot t, and the slot width in bytes, which holds a sum of len(ys)
    products of two residues: no slot carries into the next."""
    width = ((len(ys) * (q - 1) ** 2).bit_length() + 7) // 8
    return [int.from_bytes(b"".join(y.to_bytes(width, "little") for y in col), "little")
            for col in zip(*ys)], width


def _packed_dots(x: Sequence[int], packed: Sequence[int], width: int, lo: int, q: int) -> list[int]:
    """sum_i x_i ys[t][i] mod q for every slot t >= lo of the columns of ys
    packed by `_pack`: one multiply-add per column, one read per slot."""
    raw = sum(map(mul, x, packed)).to_bytes(len(x) * width, "little")[lo * width :]
    return [int.from_bytes(raw[k : k + width], "little") % q for k in range(0, len(raw), width)]


@cached("character_table")
def character_table(G: FiniteGroup) -> CharacterTable:
    return CharacterTable(G)


def frobenius_schur(table: CharacterTable, t: int) -> int:
    """The indicator (1/|G|) sum_g chi_t(g^2); must be exactly -1, 0 or 1."""
    return table.indicators[t]
