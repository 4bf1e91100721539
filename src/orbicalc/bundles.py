"""Stable and coarsely stable bundle data over a classifying object, and
stable framings with their canonical involution.

Stable bundle classes are integer vectors over the real irrep table of the
base group; coarsely stable ones have a free integer trivial part and
nonnegative coordinates elsewhere.  A framing is a mod-2 bit per R-type
irrep; the canonical involution flips the bit at the trivial coordinate
(appending a trivial line and acting on it by -1 moves exactly the
trivial-isotypic coordinate of the framing torsor).
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple, Sequence

from .errors import InternalCheckError, ValidationError
from .groups import FiniteGroup, class_index_map, conjugacy_classes, is_homomorphism
from .realreps import real_irreps, restriction_matrix


class StableBundle:
    """Integer coordinates over the real irrep table of the base; immutable."""

    __slots__ = ("base", "coords")

    def __init__(self, base: FiniteGroup, coords: tuple[int, ...]):
        if len(coords) != len(real_irreps(base)):
            raise ValidationError("coordinate length must match the irrep table")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "coords", coords)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        return type(other) is StableBundle and (self.base, self.coords) == (other.base, other.coords)

    def __hash__(self):
        return hash((self.base, self.coords))

    def __repr__(self) -> str:
        return f"StableBundle(base={self.base!r}, coords={self.coords!r})"

    def virtual_rank(self) -> int:
        R = real_irreps(self.base)
        return sum(c * e.real_dim for c, e in zip(self.coords, R.entries))

    def __add__(self, other: "StableBundle") -> "StableBundle":
        if other.base is not self.base:
            raise ValidationError("bundles live over different bases")
        return StableBundle(self.base, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "StableBundle":
        return StableBundle(self.base, tuple(-a for a in self.coords))


class CoarseStableBundle:
    """A free trivial part and nonnegative coordinates, indexed by the
    nontrivial irreps in table order; immutable."""

    __slots__ = ("base", "trivial_part", "coords")

    def __init__(self, base: FiniteGroup, trivial_part: int, coords: tuple[int, ...]):
        if len(coords) != len(real_irreps(base)) - 1:
            raise ValidationError("need one coordinate per nontrivial irrep")
        if any(c < 0 for c in coords):
            raise ValidationError("coarsely stable coordinates must be nonnegative")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "trivial_part", trivial_part)
        object.__setattr__(self, "coords", coords)

    __setattr__ = StableBundle.__setattr__

    def __eq__(self, other):
        return type(other) is CoarseStableBundle and (self.base, self.trivial_part, self.coords) == (
            other.base, other.trivial_part, other.coords)

    def __hash__(self):
        return hash((self.base, self.trivial_part, self.coords))

    def __repr__(self) -> str:
        return (f"CoarseStableBundle(base={self.base!r}, trivial_part={self.trivial_part!r}, "
                f"coords={self.coords!r})")

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


class Framing:
    """A stable framing: one bit per R-type irrep of the base; immutable."""

    __slots__ = ("base", "bits")

    def __init__(self, base: FiniteGroup, bits: tuple[int, ...]):
        if len(bits) != len(real_irreps(base).r_type_indices()):
            raise ValidationError("need one bit per R-type irrep")
        if any(b not in (0, 1) for b in bits):
            raise ValidationError("framing bits live in Z/2")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "bits", bits)

    __setattr__ = StableBundle.__setattr__

    def __eq__(self, other):
        return type(other) is Framing and (self.base, self.bits) == (other.base, other.bits)

    def __hash__(self):
        return hash((self.base, self.bits))

    def __repr__(self) -> str:
        return f"Framing(base={self.base!r}, bits={self.bits!r})"


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
    types and dimensions must match, anything else is a hard failure.
    """
    if sorted(alpha) != list(range(K2.order)) or not is_homomorphism(K, K2, alpha):
        raise ValidationError("alpha is not an isomorphism")
    RK, R2 = real_irreps(K), real_irreps(K2)
    cls2 = class_index_map(K2)
    k_classes = conjugacy_classes(K)
    out = []
    for sigma in RK.entries:
        target = None
        for tau in R2.entries:
            if tau.real_dim != sigma.real_dim or tau.end_type != sigma.end_type:
                continue
            if all(
                tau.char[cls2[alpha[cls[0]]]] == sigma.char[i]
                for i, cls in enumerate(k_classes)
            ):
                target = tau.index
                break
        if target is None:
            raise InternalCheckError("irrep matching failed along an isomorphism")
        out.append(target)
    if sorted(out) != list(range(len(R2))):
        raise InternalCheckError("irrep matching is not a bijection")
    return tuple(out)


def framing_bit_permutation(
    K: FiniteGroup, K2: FiniteGroup, alpha: Sequence[int]
) -> tuple[int, ...]:
    """Where an isomorphism alpha: K -> K2 moves each framing bit: entry pos
    is the bit position, among the R-type irreps of K2, of the image of the
    R-type irrep at bit position pos of K."""
    bij = irrep_bijection_along(K, K2, alpha)
    dst = {tau: pos for pos, tau in enumerate(real_irreps(K2).r_type_indices())}
    perm = []
    for sigma in real_irreps(K).r_type_indices():
        if bij[sigma] not in dst:
            raise InternalCheckError("R-type irrep mapped to a non-R-type one")
        perm.append(dst[bij[sigma]])
    return tuple(perm)


def push_bits(perm: Sequence[int], bits: Sequence[int]) -> tuple[int, ...]:
    """Framing bits moved along a framing_bit_permutation: bit pos goes to perm[pos]."""
    return tuple(b for _, b in sorted(zip(perm, bits)))


def transport_framing(fr: Framing, K2: FiniteGroup, alpha: Sequence[int]) -> Framing:
    """Carry a framing along an isomorphism alpha: base -> K2."""
    return Framing(K2, push_bits(framing_bit_permutation(fr.base, K2, alpha), fr.bits))
