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
classes, the only ones enumerated.  A class's least pair is found
without walking its orbit (orbit algorithm with stabilizers,
Holt-Eick-O'Brien 4.1): its hom class is the least of its orbit under the
automorphisms, its framing the least under that hom class's stabilizer.

What does not depend on the target is built once per source group and
cached on it: each subgroup class's K, the inverses of its
normalizer-induced automorphisms, their moves on the bit-0 framings
(None for one that fixes them all) and each bit-0 framing's image under
the involution.  Per target and variant only the hom-class
representatives, their moves under those automorphisms and the canonical
pairs are built, one subgroup class at a time; the per-class lists, each
sorted, concatenate to the global order.

`map_group` builds its presentation with CPython's cyclic garbage
collector paused.  Its output holds no reference cycle, yet every
generator and pair stays tracked (CPython untracks only exact tuples, and
`MapGenerator` is a tuple subclass), so each collector pass during the
build would walk all of them again and free nothing.  The collector's
state is put back as it was found, also when the build raises.  The pause
is process-wide: a thread running at the same time sees it too.
"""

from __future__ import annotations

import gc
from itertools import product
from typing import Iterable, Literal, NamedTuple, Sequence

from .bundles import flip_trivial_bit, framing_bit_permutation, push_bits
from .errors import InternalCheckError, ValidationError
from .groups import (
    FiniteGroup,
    are_isomorphic,
    cached,
    gather,
    normalizer,
    subgroup_as_group,
    subgroup_classes,
)
from .homs import class_of_hom, enumerate_homs, hom_classes, rep_hom_classes
from .realreps import real_irreps

Variant = Literal["rep", "orb"]
FramedClass = tuple[tuple[int, ...], Iterable[tuple[int, ...]]]  # (hom class, its framings)


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


class MapGroupPresentation(NamedTuple):
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
    bit_moves: tuple[dict | None, ...]  # per automorphism: bits -> bits pushed along it, or None
    bits0: dict  # each framing with trivial bit 0, in lexicographic order -> its involution image


@cached("stablemaps_subgroups")
def _subgroups(G: FiniteGroup) -> list[_Subgroup]:
    out = []
    subs = subgroup_classes(G)  # capped, so the conjugation maps are small
    cms = G.conj_maps()
    for sc in subs:
        K, emb = subgroup_as_group(G, sc.representative)
        pos = {g: i for i, g in enumerate(emb)}
        at_emb = gather(emb)
        autos = sorted({gather(at_emb(cms[n]))(pos) for n in normalizer(G, sc.representative)})
        t, r = real_irreps(K).trivial_bit, len(real_irreps(K).r_type_indices())
        bits0 = {b: flip_trivial_bit(K, b) for b in product((0, 1), repeat=r) if b[t] == 0}
        bit_moves = []
        for a in autos:
            perm = framing_bit_permutation(K, K, a)
            if perm[t] != t:
                raise InternalCheckError("an automorphism moved the trivial framing bit")
            moved = perm != tuple(range(len(perm)))
            bit_moves.append({b: push_bits(perm, b) for b in bits0} if moved else None)
        auto_invs = tuple(_inverse(a) for a in autos)
        out.append(_Subgroup(K, auto_invs, tuple(bit_moves), bits0))
    return out


def _generator_classes(sub: _Subgroup, H: FiniteGroup, variant: str) -> list[FramedClass]:
    """One subgroup class's canonical pairs with trivial bit 0, sorted, by hom class.

    An automorphism a acts coherently: it precomposes the map leg by a^-1
    while pushing the framing forward along a.  (g, bits) is the least pair
    of its orbit exactly when no automorphism moves g lower and none fixing
    g moves bits lower; the automorphisms form a group, so that is all of it.
    """
    K = sub.K
    classes = rep_hom_classes(K, H) if variant == "rep" else hom_classes(K, H)
    g_reps = [c.representative for c in classes]  # ascending
    index = {g: i for i, g in enumerate(g_reps)}
    g_moves = [[index[class_of_hom(K, H, pre(g))] for g in g_reps]
               for pre in map(gather, sub.auto_invs)]
    out = []
    for i, g in enumerate(g_reps):
        moves = []  # the stabilizer's moves on the framings, identities left out
        for gm, bm in zip(g_moves, sub.bit_moves):
            if gm[i] < i:
                break
            if gm[i] == i and bm is not None:
                moves.append(bm)
        else:
            kept = [b for b in sub.bits0 if all(m[b] >= b for m in moves)] if moves else sub.bits0
            out.append((g, kept))
    return out


def map_group(G: FiniteGroup, H: FiniteGroup, variant: Variant) -> MapGroupPresentation:
    """Free abelian presentation: generators modulo q + involution(q) = 0.

    The basis is the canonical classes with trivial bit 0, each paired with
    its image under the involution.

    Runs with the cyclic garbage collector paused: the presentation is
    acyclic, but the collector never untracks a tuple subclass or a tuple
    holding one, so each pass would walk every generator and pair again
    and free nothing.  The collector is re-enabled on the way out, also
    when this raises, only if it was enabled on the way in.  The pause is
    process-wide, so a thread running meanwhile sees it too."""
    variant = _check_variant(variant)
    collecting = gc.isenabled()
    gc.disable()
    try:
        new = tuple.__new__  # MapGenerator's own __new__ is one more Python call per generator
        orbit_table = []
        for i, sub in enumerate(_subgroups(G)):
            n, bits0 = sub.K.order, sub.bits0
            for g, kept in _generator_classes(sub, H, variant):
                orbit_table += [
                    (new(MapGenerator, (i, n, g, b)), new(MapGenerator, (i, n, g, bits0[b])))
                    for b in kept
                ]
        basis = tuple(c for c, _ in orbit_table)
        return MapGroupPresentation(variant, len(basis), basis, tuple(orbit_table))
    finally:
        if collecting:
            gc.enable()


def enumerate_generators(G: FiniteGroup, H: FiniteGroup, variant: Variant) -> list[MapGenerator]:
    """All generator classes, canonical and sorted: both sides of each pair."""
    return sorted(c for pair in map_group(G, H, variant).orbit_table for c in pair)


# -- independent re-enumeration -------------------------------------------------


@cached("automorphisms")
def _automorphisms(K: FiniteGroup) -> list[tuple[int, ...]]:
    return [phi for phi in enumerate_homs(K, K) if len(set(phi)) == K.order]


class CrossCheckReport(NamedTuple):
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

        fixed_sum = 0
        for a in autos:
            pre = gather(_inverse(a))
            fix_f = sum(1 for f in f_classes if class_of_hom(K, G, pre(f)) == f)
            if fix_f == 0:
                continue
            fix_g = sum(1 for g in g_classes if class_of_hom(K, H, pre(g)) == g)
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
