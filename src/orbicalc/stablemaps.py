"""The abelian group of stable (representable) maps between two
classifying objects, computed through its bordism description.

Generators are points with isotropy K: a subgroup class K <= G (the
first, always injective leg), a conjugacy class of homomorphisms K -> H
(injective in the representable variant, arbitrary otherwise), and a
stable framing of K.  Two generators coincide when a normalizer-induced
automorphism of K carries one triple to the other.  Cylinders are the
only bordisms in dimension zero, and the boundary convention pairs each
generator with its image under the canonical framing involution as its
inverse, so the group is free abelian of rank (#classes)/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

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

Variant = Literal["rep", "orb"]


def _check_variant(variant: str) -> str:
    if variant not in ("rep", "orb"):
        raise ValidationError("variant must be 'rep' or 'orb'")
    return variant


@dataclass(frozen=True)
class MapGenerator:
    """A framed point over the product of the two classifying objects."""

    subgroup_index: int  # index into subgroup_classes(G)
    k_order: int
    g_class: tuple[int, ...]  # canonical hom class representative K -> H
    framing_bits: tuple[int, ...]

    def sort_key(self) -> tuple:
        return (self.subgroup_index, self.g_class, self.framing_bits)


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


class _SubgroupContext:
    """Per-subgroup data: the subgroup as a group, its induced
    automorphisms from the ambient normalizer, and framing transport."""

    def __init__(self, G: FiniteGroup, H: FiniteGroup, subgroup_index: int, variant: str):
        sc = subgroup_classes(G)[subgroup_index]
        self.subgroup_index = subgroup_index
        K, emb = subgroup_as_group(G, sc.representative)
        self.K = K
        pos = {g: i for i, g in enumerate(emb)}
        autos = set()
        for n in normalizer(G, sc.representative):
            autos.add(tuple(pos[G.conj(n, emb[k])] for k in range(K.order)))
        self.autos = sorted(autos)
        self.auto_inv = {a: _inverse(a) for a in self.autos}
        self.bit_perm = {a: framing_bit_permutation(K, K, a) for a in self.autos}
        if variant == "rep":
            self.g_classes = [c.representative for c in rep_hom_classes(K, H)]
        else:
            self.g_classes = [c.representative for c in hom_classes(K, H)]
        self.H = H
        self._canon_cache: dict = {}

    def act(self, a, pair: tuple[tuple[int, ...], tuple[int, ...]]):
        """Apply one automorphism coherently: precompose the map leg by
        a^-1 while pushing the framing forward along a."""
        g_rep, bits = pair
        a_inv = self.auto_inv[a]
        moved = tuple(g_rep[a_inv[k]] for k in range(self.K.order))
        new_g = class_of_hom(self.K, self.H, moved)
        return (new_g, push_bits(self.bit_perm[a], bits))

    def canonical(self, pair) -> tuple[tuple[int, ...], tuple[int, ...]]:
        # Inputs always carry a class-canonical map leg, so a trivial
        # automorphism set means the pair is already canonical.
        if len(self.autos) == 1:
            return pair
        if pair not in self._canon_cache:
            orbit = {self.act(a, pair) for a in self.autos}
            rep = min(orbit)
            for p in orbit:
                self._canon_cache[p] = rep
        return self._canon_cache[pair]

    def generator_classes(self) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
        all_bits = [fr.bits for fr in framings(self.K)]
        if len(self.autos) == 1:
            return sorted((g, b) for g in self.g_classes for b in all_bits)
        seen = set()
        out = []
        for g_rep in self.g_classes:
            for bits in all_bits:
                rep = self.canonical((g_rep, bits))
                if rep not in seen:
                    seen.add(rep)
                    out.append(rep)
        out.sort()
        return out

    def involute(self, pair):
        g_rep, bits = pair
        return self.canonical((g_rep, flip_trivial_bit(self.K, bits)))


def _contexts(G: FiniteGroup, H: FiniteGroup, variant: str) -> list[_SubgroupContext]:
    variant = _check_variant(variant)
    key = ("stablemaps_ctx", H.table_key(), variant)
    if key not in G._cache:
        G._cache[key] = [
            _SubgroupContext(G, H, i, variant)
            for i in range(len(subgroup_classes(G)))
        ]
    return G._cache[key]


def enumerate_generators(G: FiniteGroup, H: FiniteGroup, variant: Variant) -> list[MapGenerator]:
    """All generator classes, canonical and sorted."""
    out = []
    for ctx in _contexts(G, H, variant):
        for g_rep, bits in ctx.generator_classes():
            out.append(
                MapGenerator(
                    subgroup_index=ctx.subgroup_index,
                    k_order=ctx.K.order,
                    g_class=g_rep,
                    framing_bits=bits,
                )
            )
    out.sort(key=MapGenerator.sort_key)
    return out


def map_group(G: FiniteGroup, H: FiniteGroup, variant: Variant) -> MapGroupPresentation:
    """Free abelian presentation: generators modulo q + involution(q) = 0."""
    contexts = {c.subgroup_index: c for c in _contexts(G, H, variant)}
    classes = enumerate_generators(G, H, variant)
    index = {(c.subgroup_index, c.g_class, c.framing_bits): c for c in classes}
    paired = set()
    basis = []
    orbit_table = []
    for c in classes:
        key = (c.subgroup_index, c.g_class, c.framing_bits)
        if key in paired:
            continue
        ctx = contexts[c.subgroup_index]
        pg, pb = ctx.involute((c.g_class, c.framing_bits))
        pkey = (c.subgroup_index, pg, pb)
        if pkey == key:
            raise InternalCheckError("involution fixed a generator class")
        if pkey not in index:
            raise InternalCheckError("involution left the generator set")
        partner = index[pkey]
        paired.add(key)
        paired.add(pkey)
        basis.append(min(c, partner, key=MapGenerator.sort_key))
        orbit_table.append((c, partner))
    basis.sort(key=MapGenerator.sort_key)
    return MapGroupPresentation(
        variant=variant,
        rank=len(basis),
        basis=tuple(basis),
        orbit_table=tuple(orbit_table),
    )


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
