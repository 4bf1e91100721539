"""The abelian group of stable (representable) maps between two
classifying objects, computed through its bordism description.

Generators are points with isotropy K: a subgroup class K <= G (the
first, always injective leg), a conjugacy class of homomorphisms K -> H
(injective in the representable variant, arbitrary otherwise), and a
stable framing of K.  Two generators coincide when a normalizer-induced
automorphism of K carries one triple to the other.  Cylinders are the
only bordisms in dimension zero, and the boundary convention pairs each
generator with its image under the canonical framing involution as its
inverse.  The involution flips the trivial bit, the framing bit of the
trivial real irrep.  Every automorphism fixes the trivial irrep and so
that bit (checked for each one).  Each class therefore keeps one
trivial-bit value, and flipping the bit keeps the order among pairs that
share it: it carries the least pair of a bit-0 class to the least pair of
its partner, a larger one.  The group is free abelian on the bit-0
classes, the only ones enumerated.

What does not depend on the target is built once per source group and
cached on it: each subgroup class's K, the inverses of its
normalizer-induced automorphisms, their moves on the bit-0 framings and
each bit-0 framing's image under the involution.
Per target and variant only the hom-class representatives, their moves
under those automorphisms and the canonical pairs are built, one
subgroup class at a time; the per-class lists, each sorted, concatenate
to the global order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, NamedTuple, Sequence

from .bundles import flip_trivial_bit, framing_bit_permutation, framings, push_bits
from .errors import InternalCheckError, ValidationError
from .groups import (
    FiniteGroup,
    are_isomorphic,
    normalizer,
    subgroup_as_group,
    subgroup_classes,
)
from .homs import class_of_hom, enumerate_homs, hom_classes, rep_hom_classes
from .realreps import real_irreps

Variant = Literal["rep", "orb"]
Pair = tuple[tuple[int, ...], tuple[int, ...]]  # (hom class representative, framing bits)


def _check_variant(variant: str) -> str:
    if variant not in ("rep", "orb"):
        raise ValidationError("variant must be 'rep' or 'orb'")
    return variant


class MapGenerator(NamedTuple):
    """A framed point over the product of the two classifying objects.

    Tuple order is output order.
    """

    subgroup_index: int  # index into subgroup_classes(G)
    k_order: int
    g_class: tuple[int, ...]  # canonical hom class representative K -> H
    framing_bits: tuple[int, ...]


@dataclass(frozen=True)
class MapGroupPresentation:
    variant: str
    rank: int
    basis: tuple[MapGenerator, ...]
    orbit_table: tuple[tuple[MapGenerator, MapGenerator], ...]

    @property
    def num_classes(self) -> int:
        return 2 * self.rank


def _inverse(a: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(range(len(a)), key=a.__getitem__))


class _Subgroup(NamedTuple):
    """A subgroup class's target-independent data."""

    K: FiniteGroup
    auto_invs: tuple[tuple[int, ...], ...]  # inverses of the induced automorphisms
    bit_moves: tuple[dict, ...]  # per automorphism: bits -> bits pushed along it
    bits0: dict  # each framing with trivial bit 0, in lexicographic order -> its involution image


def _subgroups(G: FiniteGroup) -> list[_Subgroup]:
    if "stablemaps_subgroups" not in G._cache:
        out = []
        for sc in subgroup_classes(G):
            K, emb = subgroup_as_group(G, sc.representative)
            pos = {g: i for i, g in enumerate(emb)}
            autos = sorted(
                {tuple(pos[G.conj(n, g)] for g in emb) for n in normalizer(G, sc.representative)}
            )
            t = real_irreps(K).trivial_bit
            bits0 = {fr.bits: flip_trivial_bit(K, fr.bits) for fr in framings(K) if fr.bits[t] == 0}
            bit_moves = []
            for a in autos:
                perm = framing_bit_permutation(K, K, a)
                if perm[t] != t:
                    raise InternalCheckError("an automorphism moved the trivial framing bit")
                bit_moves.append({b: push_bits(perm, b) for b in bits0})
            out.append(_Subgroup(
                K=K,
                auto_invs=tuple(_inverse(a) for a in autos),
                bit_moves=tuple(bit_moves),
                bits0=bits0,
            ))
        G._cache["stablemaps_subgroups"] = out
    return G._cache["stablemaps_subgroups"]


def _generator_classes(sub: _Subgroup, H: FiniteGroup, variant: str) -> list[Pair]:
    """One subgroup class's canonical pairs with trivial bit 0, sorted.

    An automorphism a acts coherently: it precomposes the map leg by a^-1
    while pushing the framing forward along a.  The induced automorphisms
    form a group, so the pairs are visited in ascending order and the first
    one of each orbit is its least element, the canonical one.
    """
    K = sub.K
    classes = rep_hom_classes(K, H) if variant == "rep" else hom_classes(K, H)
    g_reps = [c.representative for c in classes]
    g_moves = [
        {g: class_of_hom(K, H, tuple(g[k] for k in a_inv)) for g in g_reps}
        for a_inv in sub.auto_invs
    ]
    seen: set[Pair] = set()
    out = []
    for g in g_reps:
        moves = [(gm[g], bm) for gm, bm in zip(g_moves, sub.bit_moves)]
        for bits in sub.bits0:
            if (g, bits) in seen:
                continue
            out.append((g, bits))
            for g2, bm in moves:
                seen.add((g2, bm[bits]))
    return out


def map_group(G: FiniteGroup, H: FiniteGroup, variant: Variant) -> MapGroupPresentation:
    """Free abelian presentation: generators modulo q + involution(q) = 0.

    The basis is the canonical classes with trivial bit 0, each paired with
    its image under the involution."""
    variant = _check_variant(variant)
    orbit_table = []
    for i, sub in enumerate(_subgroups(G)):
        n = sub.K.order
        for g, bits in _generator_classes(sub, H, variant):
            partner = MapGenerator(i, n, g, sub.bits0[bits])
            orbit_table.append((MapGenerator(i, n, g, bits), partner))
    basis = tuple(c for c, _ in orbit_table)
    return MapGroupPresentation(
        variant=variant,
        rank=len(basis),
        basis=basis,
        orbit_table=tuple(orbit_table),
    )


def enumerate_generators(G: FiniteGroup, H: FiniteGroup, variant: Variant) -> list[MapGenerator]:
    """All generator classes, canonical and sorted: both sides of each pair."""
    return sorted(c for pair in map_group(G, H, variant).orbit_table for c in pair)


# -- independent re-enumeration -------------------------------------------------


def _automorphisms(K: FiniteGroup) -> list[tuple[int, ...]]:
    key = "automorphisms"
    if key not in K._cache:
        K._cache[key] = [
            phi for phi in enumerate_homs(K, K) if len(set(phi)) == K.order
        ]
    return K._cache[key]


@dataclass
class CrossCheckReport:
    main_count: int
    abstract_count: int
    per_iso_class: list[tuple[int, int]]  # (abstract group order, orbit count)

    @property
    def ok(self) -> bool:
        return self.main_count == self.abstract_count


def _perm_cycle_count(perm: Sequence[int]) -> int:
    seen = [False] * len(perm)
    cycles = 0
    for i in range(len(perm)):
        if seen[i]:
            continue
        cycles += 1
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
    return cycles


def cross_check_abstract_enumeration(
    G: FiniteGroup, H: FiniteGroup, variant: Variant
) -> CrossCheckReport:
    """Recount generators via abstract quadruples (K, f, g, framing).

    K runs over abstract isomorphism types of subgroups of G, f over
    injective classes K -> G, g over classes K -> H (injective in the
    representable variant), framings over K; the whole quadruple is taken
    modulo simultaneous automorphisms of K.  Orbits are counted with the
    orbit-counting lemma over Aut(K), and the total must match
    enumerate_generators exactly.
    """
    variant = _check_variant(variant)
    subs = subgroup_classes(G)
    models: list[FiniteGroup] = []
    for sc in subs:
        K, _ = subgroup_as_group(G, sc.representative)
        if not any(are_isomorphic(K, M) is not None for M in models):
            models.append(K)

    per_class = []
    total = 0
    for K in models:
        f_classes = [c.representative for c in rep_hom_classes(K, G)]
        if variant == "rep":
            g_classes = [c.representative for c in rep_hom_classes(K, H)]
        else:
            g_classes = [c.representative for c in hom_classes(K, H)]
        autos = _automorphisms(K)
        n = K.order

        fixed_sum = 0
        for a in autos:
            a_inv = _inverse(a)
            fix_f = sum(
                1
                for f in f_classes
                if class_of_hom(K, G, tuple(f[a_inv[k]] for k in range(n))) == f
            )
            if fix_f == 0:
                continue
            fix_g = sum(
                1
                for g in g_classes
                if class_of_hom(K, H, tuple(g[a_inv[k]] for k in range(n))) == g
            )
            if fix_g == 0:
                continue
            bit_perm = framing_bit_permutation(K, K, a)
            fixed_sum += fix_f * fix_g * 2 ** _perm_cycle_count(bit_perm)
        count, rem = divmod(fixed_sum, len(autos))
        if rem:
            raise InternalCheckError("orbit count is not integral")
        per_class.append((K.order, count))
        total += count

    main = len(enumerate_generators(G, H, variant))
    report = CrossCheckReport(main_count=main, abstract_count=total, per_iso_class=per_class)
    if not report.ok:
        raise InternalCheckError(
            f"generator enumerations disagree: {main} vs {total} "
            f"for ({G.name or G.order}, {H.name or H.order}, {variant})"
        )
    return report
