"""Stable and coarsely stable bundle data over a classifying object, and
stable framings with their canonical involution.

Stable bundle classes are integer vectors over the real irrep table of the
base group; coarsely stable ones have a free integer trivial part and
nonnegative coordinates elsewhere.  A framing is a mod-2 bit per R-type
irrep; the canonical involution flips the bit at the trivial coordinate
(appending a trivial line and acting on it by -1 moves exactly the
trivial-isotypic coordinate of the framing torsor).  The three records
share one frozen base, `_Frozen`, which works on their `__slots__`.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple, Sequence

from .errors import InternalCheckError, ValidationError
from .groups import FiniteGroup, class_index_map, conjugacy_classes, gather, is_homomorphism
from .realreps import real_irreps, restriction_matrix


class _Frozen:
    """A record frozen on its `__slots__`: compared, hashed and shown by them."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        return type(other) is type(self) and self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"


class StableBundle(_Frozen):
    """Integer coordinates over the real irrep table of the base; immutable."""

    __slots__ = ("base", "coords")

    def __init__(self, base: FiniteGroup, coords: tuple[int, ...]):
        if len(coords) != len(real_irreps(base)):
            raise ValidationError("coordinate length must match the irrep table")
        super().__init__(base, coords)

    def virtual_rank(self) -> int:
        R = real_irreps(self.base)
        return sum(c * e.real_dim for c, e in zip(self.coords, R.entries))

    def __add__(self, other: "StableBundle") -> "StableBundle":
        if other.base is not self.base:
            raise ValidationError("bundles live over different bases")
        return StableBundle(self.base, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "StableBundle":
        return StableBundle(self.base, tuple(-a for a in self.coords))


class CoarseStableBundle(_Frozen):
    """A free trivial part and nonnegative coordinates, indexed by the
    nontrivial irreps in table order; immutable."""

    __slots__ = ("base", "trivial_part", "coords")

    def __init__(self, base: FiniteGroup, trivial_part: int, coords: tuple[int, ...]):
        if len(coords) != len(real_irreps(base)) - 1:
            raise ValidationError("need one coordinate per nontrivial irrep")
        if any(c < 0 for c in coords):
            raise ValidationError("coarsely stable coordinates must be nonnegative")
        super().__init__(base, trivial_part, coords)

    def nontrivial_indices(self) -> tuple[int, ...]:
        R = real_irreps(self.base)
        triv = R.trivial_index
        return tuple(i for i in range(len(R)) if i != triv)


class AutGroupDescriptor(NamedTuple):
    """An elementary abelian 2-group, recorded by its contributing irreps."""

    contributors: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.contributors)

    @property
    def order(self) -> int:
        return 2**self.rank


def aut_group(b: StableBundle | CoarseStableBundle) -> AutGroupDescriptor:
    """Automorphisms of a (coarsely) stable bundle class.

    Stable: one Z/2 per R-type irrep, independent of the coordinates.
    Coarsely stable: the trivial irrep always contributes; a nontrivial
    R-type irrep contributes exactly when its isotypic part is nonzero.
    """
    R = real_irreps(b.base)
    r_type = set(R.r_type_indices())
    if isinstance(b, StableBundle):
        return AutGroupDescriptor(tuple(sorted(r_type)))
    triv = R.trivial_index
    contributors = {triv}
    for pos, idx in enumerate(b.nontrivial_indices()):
        if idx in r_type and b.coords[pos] > 0:
            contributors.add(idx)
    return AutGroupDescriptor(tuple(sorted(contributors)))


def restrict_bundle(b: StableBundle, K: FiniteGroup, phi: Sequence[int]) -> StableBundle:
    """Pull a stable bundle back along phi: K -> base."""
    M = restriction_matrix(K, b.base, phi)
    coords = tuple(
        sum(M[i][j] * b.coords[j] for j in range(len(b.coords)))
        for i in range(len(M))
    )
    out = StableBundle(K, coords)
    if out.virtual_rank() != b.virtual_rank():
        raise InternalCheckError("restriction changed the virtual rank")
    return out


class Framing(_Frozen):
    """A stable framing: one bit per R-type irrep of the base; immutable."""

    __slots__ = ("base", "bits")

    def __init__(self, base: FiniteGroup, bits: tuple[int, ...]):
        if len(bits) != len(real_irreps(base).r_type_indices()):
            raise ValidationError("need one bit per R-type irrep")
        if any(b not in (0, 1) for b in bits):
            raise ValidationError("framing bits live in Z/2")
        super().__init__(base, bits)


def framings(K: FiniteGroup) -> list[Framing]:
    """All 2^(#R-type) framings, in lexicographic bit order."""
    r = len(real_irreps(K).r_type_indices())
    return [Framing(K, bits) for bits in product((0, 1), repeat=r)]


def flip_trivial_bit(K: FiniteGroup, bits: tuple[int, ...]) -> tuple[int, ...]:
    """The canonical involution on the framing bits of K."""
    pos = real_irreps(K).trivial_bit
    return bits[:pos] + (bits[pos] ^ 1,) + bits[pos + 1 :]


def involution(fr: Framing) -> Framing:
    """The canonical involution: flip the trivial-irrep bit."""
    return Framing(fr.base, flip_trivial_bit(fr.base, fr.bits))


def irrep_bijection_along(
    K: FiniteGroup, K2: FiniteGroup, alpha: Sequence[int]
) -> tuple[int, ...]:
    """Match the irrep tables through an isomorphism alpha: K -> K2.

    Returns sigma -> sigma' with char(sigma') . alpha = char(sigma); end
    types and dimensions must match, anything else is a hard failure.  K2's
    irreps are pulled back once and keyed by (dimension, end type, character).
    """
    if sorted(alpha) != list(range(K2.order)) or not is_homomorphism(K, K2, alpha):
        raise ValidationError("alpha is not an isomorphism")
    R2 = real_irreps(K2)
    cls2 = class_index_map(K2)
    pull = gather([cls2[alpha[cls[0]]] for cls in conjugacy_classes(K)])
    pulled = {(tau.real_dim, tau.end_type, pull(tau.char)): tau.index for tau in R2.entries}
    try:
        out = tuple(pulled[sigma.real_dim, sigma.end_type, sigma.char] for sigma in real_irreps(K))
    except KeyError:
        raise InternalCheckError("irrep matching failed along an isomorphism") from None
    if sorted(out) != list(range(len(R2))):
        raise InternalCheckError("irrep matching is not a bijection")
    return out


def framing_bit_permutation(
    K: FiniteGroup, K2: FiniteGroup, alpha: Sequence[int]
) -> tuple[int, ...]:
    """Where an isomorphism alpha: K -> K2 moves each framing bit: entry pos
    is the bit position, among the R-type irreps of K2, of the image of the
    R-type irrep at bit position pos of K."""
    bij = irrep_bijection_along(K, K2, alpha)
    dst = {tau: pos for pos, tau in enumerate(real_irreps(K2).r_type_indices())}
    try:
        return tuple(dst[bij[sigma]] for sigma in real_irreps(K).r_type_indices())
    except KeyError:
        raise InternalCheckError("R-type irrep mapped to a non-R-type one") from None


def push_bits(perm: Sequence[int], bits: Sequence[int]) -> tuple[int, ...]:
    """Framing bits moved along a framing_bit_permutation: bit pos goes to perm[pos]."""
    return tuple(b for _, b in sorted(zip(perm, bits)))


def transport_framing(fr: Framing, K2: FiniteGroup, alpha: Sequence[int]) -> Framing:
    """Carry a framing along an isomorphism alpha: base -> K2."""
    return Framing(K2, push_bits(framing_bit_permutation(fr.base, K2, alpha), fr.bits))
