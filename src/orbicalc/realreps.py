"""Real irreducible representations, isotypic projectors, and tensor
faithfulness.

The real classification is read off the complex table via Frobenius-Schur
indicators: indicator +1 characters stay real (type R), conjugate pairs of
indicator 0 characters merge into one complex-type entry of doubled real
dimension, and indicator -1 characters double into quaternionic entries.

What is cached, through `groups.cached`: the real irrep table
("real_irreps") and the isotypic projector weights ("projector_weights").
`min_faithful_tensor_power`'s faithfulness and an exact rep's
multiplicities are read off its genuine character and that character's
inner products with the complex table, not recomputed from matrices; a
row of the table, like a conjugate partner, is looked up, and only another
character takes the r inner products.  `_linalg` and `fractions` are
imported where a matrix or Fraction is built; exact mode reads a float by
its `repr`, so 0.6 is 3/5.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple, Sequence

from .characters import character_table, frobenius_schur
from .cyclotomic import CycInt
from .errors import InternalCheckError, ValidationError
from .groups import (
    FiniteGroup, cached, class_index_map, conjugacy_classes, gather, generating_set, is_homomorphism
)

END_DIM = {"R": 1, "C": 2, "H": 4}


class RealIrrep(NamedTuple):
    """One isomorphism class of real irreducible representations."""

    index: int
    real_dim: int
    end_type: str  # "R", "C" or "H"
    constituents: tuple[int, ...]  # complex character indices
    char: tuple[CycInt, ...]  # real character values per class

    @property
    def end_dim(self) -> int:
        return END_DIM[self.end_type]


class RealIrrepTable:
    """All real irreps of a group, in a fixed deterministic order.

    Entries are sorted by (real dimension, character lexicographic); every
    coordinate convention downstream (bundle coordinates, framing bits)
    refers to this order.
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.complex_table = character_table(group)
        ct = self.complex_table
        consumed = [False] * ct.num_classes
        raw, sums = [], {}  # sums: each distinct pair of values, summed once
        for t in range(ct.num_classes):
            if consumed[t]:
                continue
            nu = frobenius_schur(ct, t)
            d = ct.degrees[t]
            if nu == 1:
                consumed[t] = True
                raw.append((d, "R", (t,), tuple(ct.values[t])))
            elif nu == -1:
                consumed[t] = True
                raw.append((2 * d, "H", (t,), tuple(2 * v for v in ct.values[t])))
            else:
                s = ct.conjugate_partner(t)
                if s == t or consumed[s]:
                    raise InternalCheckError("indicator-0 character without a free conjugate partner")
                consumed[t] = consumed[s] = True
                pairs = list(zip(ct.values[t], ct.values[s]))
                sums.update((pair, pair[0] + pair[1]) for pair in set(pairs) - sums.keys())
                raw.append((2 * d, "C", tuple(sorted((t, s))), gather(pairs)(sums)))
        raw.sort(key=lambda r: (r[0], [v.sort_key() for v in r[3]]))
        self.entries = tuple(
            RealIrrep(i, d, typ, cons, char)
            for i, (d, typ, cons, char) in enumerate(raw)
        )
        self._verify()
        one = (CycInt.from_int(ct.exponent, 1),) * ct.num_classes
        try:  # a character of 1s has real dimension 1
            self.trivial_index = [e.char for e in self.entries].index(one)
        except ValueError:
            raise InternalCheckError("trivial representation missing") from None
        self._r_type = tuple(e.index for e in self.entries if e.end_type == "R")
        # Position of the trivial irrep's bit in a framing (its indicator is 1).
        self.trivial_bit = self._r_type.index(self.trivial_index)

    def _verify(self) -> None:
        n = self.group.order
        total = sum(e.real_dim**2 // e.end_dim for e in self.entries)
        if total != n:
            raise InternalCheckError(
                "real irrep bookkeeping sum dim^2/dim End != |G|"
            )
        used = [c for e in self.entries for c in e.constituents]
        if sorted(used) != list(range(self.complex_table.num_classes)):
            raise InternalCheckError("complex characters not consumed exactly once")

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def r_type_indices(self) -> tuple[int, ...]:
        return self._r_type


@cached("real_irreps")
def real_irreps(G: FiniteGroup) -> RealIrrepTable:
    return RealIrrepTable(G)


# -- restriction ---------------------------------------------------------------


def real_multiplicity(m: int, sigma: RealIrrep) -> int:
    """A complex inner product m with sigma's character, as a multiplicity
    of sigma: m / dim End(sigma), which must be a nonnegative integer."""
    q, r = divmod(m, sigma.end_dim)
    if r != 0 or q < 0:
        raise InternalCheckError("multiplicity fails End-divisibility")
    return q


def restriction_multiplicities(
    K: FiniteGroup,
    G: FiniteGroup,
    phi: Sequence[int],
    rho_index: int,
) -> tuple[int, ...]:
    """Multiplicities over K-hat of the G-irrep rho pulled back along phi.

    m_sigma = <chi_rho . phi, chi_sigma>_K / dim End(sigma); every entry
    must come out a nonnegative integer, and the dimensions must add up.
    """
    if not is_homomorphism(K, G, phi):
        raise ValidationError("phi is not a homomorphism K -> G")
    RG, RK = real_irreps(G), real_irreps(K)
    rho = RG.entries[rho_index]
    cls_G = class_index_map(G)
    order = lcm(RG.complex_table.exponent, RK.complex_table.exponent)
    pull = [
        rho.char[cls_G[phi[cls[0]]]].lift(order)
        for cls in conjugacy_classes(K)
    ]
    out = []
    for sigma in RK.entries:
        m = RK.complex_table.inner_with(pull, [v.lift(order) for v in sigma.char])
        out.append(real_multiplicity(m.as_int(), sigma))
    if sum(m * RK.entries[i].real_dim for i, m in enumerate(out)) != rho.real_dim:
        raise InternalCheckError("restricted dimensions do not add up")
    return tuple(out)


def restriction_matrix(K: FiniteGroup, G: FiniteGroup, phi: Sequence[int]) -> list[list[int]]:
    """Rows indexed by K-hat, columns by G-hat."""
    RG, RK = real_irreps(G), real_irreps(K)
    cols = [restriction_multiplicities(K, G, phi, j) for j in range(len(RG))]
    return [[cols[j][i] for j in range(len(RG))] for i in range(len(RK))]


# -- explicit matrix representations --------------------------------------------


class MatrixRep:
    """A representation by explicit matrices, exact or fixed precision.

    Both modes store lists of rows: of Fractions in exact mode, of floats
    in fixed precision.  ``la`` is the backend (``_linalg``) that does all
    matrix arithmetic and decides every comparison, under the declared
    tolerance in fixed mode.
    """

    def __init__(
        self,
        group: FiniteGroup,
        matrices: Sequence,
        exact: bool = True,
        tolerance: float = 1e-9,
        validate: bool = True,
    ):
        if not isinstance(tolerance, float) or not 0 < tolerance < 1:
            raise ValidationError("tolerance must be a float strictly between 0 and 1")
        if len(matrices) != group.order:
            raise ValidationError("need one matrix per group element")
        d = len(matrices[0])
        if d == 0 or any(len(m) != d or any(len(row) != d for row in m) for m in matrices):
            raise ValidationError("matrices must be square of equal size")
        from ._linalg import EXACT, Fixed

        self.group = group
        self.exact = exact
        self.tolerance = tolerance
        self.la = EXACT if exact else Fixed(tolerance)
        self.matrices = [self.la.matrix(m) for m in matrices]
        self.dimension = d
        if validate:
            self._validate()

    def _validate(self) -> None:
        G, la, M = self.group, self.la, self.matrices
        if not la.close(M[G.identity], la.identity(self.dimension)):
            raise ValidationError("identity element must map to the identity matrix")
        # Checking generators against everything suffices by induction.
        for g in generating_set(G):
            for h in range(G.order):
                if not la.close(la.mul(M[g], M[h]), M[G.table[g][h]]):
                    raise ValidationError("matrices do not respect the table")

    def character(self) -> list:
        """Trace per conjugacy class (Fraction in exact mode, float else)."""
        return [self.la.trace(self.matrices[c[0]]) for c in conjugacy_classes(self.group)]

    def to_float(self) -> "MatrixRep":
        return MatrixRep(
            self.group, self.matrices, exact=False, tolerance=self.tolerance, validate=False
        )

    def kernel_elements(self) -> tuple[int, ...]:
        ident = self.la.identity(self.dimension)
        return tuple(
            g for g in range(self.group.order) if self.la.close(self.matrices[g], ident)
        )

    def is_faithful(self) -> bool:
        return self.kernel_elements() == (self.group.identity,)


# -- isotypic decomposition ------------------------------------------------------


class IsotypicPiece(NamedTuple):
    irrep_index: int
    multiplicity: int
    projector: list  # rows of Fractions or of floats


@cached("projector_weights")
def projector_weights(G: FiniteGroup) -> tuple[list[list], bool]:
    """Per real irrep, the weights w(g) with P = sum_g w(g) rho(g), and
    whether they are all rational.

    w(g) = c(g) / |G|, where c(g) is the sum over the complex constituents
    chi of deg(chi) * chi(g^-1), a real cyclotomic integer; it is rational
    exactly when it is an integer.  The weights are Fractions when all are
    rational and floats otherwise.
    """
    from fractions import Fraction

    R = real_irreps(G)
    ct = R.complex_table
    cls = class_index_map(G)
    n = G.order
    per_class = []
    for sigma in R.entries:
        row = []
        for i in range(ct.num_classes):
            acc = CycInt.from_int(ct.exponent, 0)
            for t in sigma.constituents:
                acc = acc + ct.degrees[t] * ct.values[t][i].conjugate()
            row.append(acc)
        per_class.append(row)
    rational = all(v.is_integer() for row in per_class for v in row)
    weights = [
        [Fraction(v.as_int(), n) if rational else complex(v).real / n for v in row]
        for row in per_class
    ]
    return [[row[cls[g]] for g in range(n)] for row in weights], rational


def character_multiplicities(rep: MatrixRep, sigmas: Sequence[RealIrrep]) -> list[int]:
    """Multiplicity of each of sigmas inside rep, from characters alone.

    An exact rep reuses the complex inner products `genuine_character`
    checks: sigma's character is its constituents' sum, doubled for type H."""
    G = rep.group
    ct = real_irreps(G).complex_table
    if rep.exact:
        m = _genuine(G, rep)[1]
        ms = [(2 if s.end_type == "H" else 1) * sum(m[t] for t in s.constituents) for s in sigmas]
    else:
        traces = rep.character()
        ms = []
        for sigma in sigmas:
            terms = zip(ct.class_sizes, traces, sigma.char)
            m = rep.la.integer(sum(s * tr * complex(v).real for s, tr, v in terms) / G.order)
            if m is None:
                raise InternalCheckError("multiplicity is not close to an integer")
            ms.append(m)
    return [real_multiplicity(m, sigma) for m, sigma in zip(ms, sigmas)]


def isotypic_decomposition(rep: MatrixRep) -> list[IsotypicPiece]:
    """Isotypic projectors for every real irrep (zero pieces included).

    The projectors are exact whenever the rep is exact and all needed
    coefficients are rational; otherwise they are computed in fixed
    precision under the rep's declared tolerance.
    """
    R = real_irreps(rep.group)
    weights, rational = projector_weights(rep.group)
    work = rep if rational else rep.to_float()
    la, d = work.la, work.dimension
    mults = character_multiplicities(rep, R.entries)
    pieces = []
    total = la.zeros(d, d)
    for sigma, row, mult in zip(R.entries, weights, mults):
        P = la.zeros(d, d)
        for w, m in zip(row, work.matrices):
            if w != 0:
                P = la.add(P, la.scale(m, w))
        if not la.close(la.mul(P, P), P):
            raise InternalCheckError("projector is not idempotent")
        if la.rank(P) != mult * sigma.real_dim:
            raise InternalCheckError(
                "projector rank disagrees with multiplicity x dimension"
            )
        total = la.add(total, P)
        pieces.append(IsotypicPiece(sigma.index, mult, P))

    if not la.close(total, la.identity(d)):
        raise InternalCheckError("isotypic projectors do not sum to the identity")
    for i, a in enumerate(pieces):
        for b in pieces[i + 1 :]:
            if not la.is_zero(la.mul(a.projector, b.projector), a.projector, b.projector):
                raise InternalCheckError("isotypic projectors do not annihilate")
    return pieces


# -- tensor-power faithfulness ----------------------------------------------------


def genuine_character(G: FiniteGroup, V) -> list[CycInt]:
    """V's character as CycInts at the exponent of G, checked to be genuine.

    V is an exact MatrixRep or one value per conjugacy class (a CycInt or
    an integer); every inner product with an irreducible character must be
    a nonnegative integer.
    """
    return _genuine(G, V)[0]


def _genuine(G: FiniteGroup, V) -> tuple[list[CycInt], list[int]]:
    """`genuine_character`, and the inner product with each complex irrep."""
    ct = character_table(G)
    e = ct.exponent
    if isinstance(V, MatrixRep):
        if not V.exact:
            raise ValidationError("an exact character is needed")
        V = V.character()
    if len(V) != ct.num_classes:
        raise ValidationError("need one character value per conjugacy class")
    vals = []
    for v in V:
        if not isinstance(v, CycInt):
            if v != int(v):
                raise ValidationError("character values must be integers")
            v = CycInt.from_int(e, int(v))
        if e % v.order:
            raise ValidationError("character value outside the group's cyclotomic field")
        vals.append(v.lift(e))
    if vals in ct.values:  # a row, whose inner products the table's `_verify` proved
        return vals, [int(row == vals) for row in ct.values]
    ms = []
    for psi in ct.values:
        try:
            m = ct.inner_with(vals, psi)
        except ValueError:  # not divisible by |G|
            m = None
        if m is None or not m.is_integer() or m.as_int() < 0:
            raise ValidationError("V is not the character of a genuine representation")
        ms.append(m.as_int())
    return vals, ms


def min_faithful_tensor_power(G: FiniteGroup, V) -> int:
    """Least N such that V + V^2 + ... + V^N contains every irrep.

    V may be a character (per-class values) or an exact MatrixRep; it must
    be a genuine faithful character.  Terminates with N <= |G|.
    """
    ct = character_table(G)
    chi = genuine_character(G, V)
    # For a genuine character, rho(g) = I exactly when chi(g) = chi(1).
    deg = chi[ct.identity_class]
    if [i for i in range(ct.num_classes) if chi[i] == deg] != [ct.identity_class]:
        raise ValidationError("V is not faithful")

    power = chi
    found = [False] * ct.num_classes
    for N in range(1, G.order + 1):
        for t, psi in enumerate(ct.values):
            if not found[t] and ct.inner_with(power, psi).as_int() > 0:
                found[t] = True
        if all(found):
            return N
        power = [a * b for a, b in zip(power, chi)]
    raise InternalCheckError("faithful character failed to exhaust the irreps")
