"""Homomorphisms G -> H, their conjugation orbits, and representability.

A class of maps between the two classifying objects is an H-conjugacy
class of homomorphisms; the injective classes are exactly the
representable ones.  The two recovery identities tying all classes to the
injective classes of the quotients G/N are verified before the injective
classes are first returned for a pair of groups, and are a hard failure
if they break.

Every composition of maps stored as image tuples (a hom after an inner
automorphism, a hom read at the generators, a pull-back along a quotient)
is one `groups.gather`, run in C.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import InternalCheckError, ValidationError
from .groups import (
    FiniteGroup,
    cached,
    centralizer,
    gather,
    generating_set,
    hom_search,
    normal_subgroups,
    quotient_group,
)

DEFAULT_ORDER_CAP = 48


class HomClass(NamedTuple):
    """An H-conjugacy class of homomorphisms G -> H."""

    representative: tuple[int, ...]  # image of every element of G
    injective: bool
    orbit_size: int
    centralizer_order: int


def enumerate_homs(G: FiniteGroup, H: FiniteGroup) -> list[tuple[int, ...]]:
    """Every homomorphism G -> H as a full image tuple, sorted; refused
    when either group has more than DEFAULT_ORDER_CAP elements.

    A candidate generator image must have order dividing the generator's
    order.
    """
    if G.order > DEFAULT_ORDER_CAP or H.order > DEFAULT_ORDER_CAP:
        raise ValidationError(f"order cap {DEFAULT_ORDER_CAP} exceeded")
    gen_orders = [G.element_order(g) for g in generating_set(G)]
    candidates = [
        [h for h in range(H.order) if k % H.element_order(h) == 0] for k in gen_orders
    ]
    return sorted(map(tuple, hom_search(G, H, candidates)))


@cached("inner_automorphisms")
def inner_automorphisms(H: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """Inn(H): the distinct rows of H.conj_maps(), first seen first."""
    return tuple(dict.fromkeys(H.conj_maps()))


@cached("hom_classes")
def hom_classes(G: FiniteGroup, H: FiniteGroup) -> list[HomClass]:
    """Inn(H)-orbits of Hom(G, H) on generator images, canonical representative least."""
    gens, inn = generating_set(G), inner_automorphisms(H)
    homs = enumerate_homs(G, H)
    keys = list(map(gather(gens), homs))
    remaining = set(keys)
    classes = []
    for phi, key in zip(homs, keys):
        if key not in remaining:
            continue
        move = gather(key)
        orbit = set(map(move, inn))
        remaining -= orbit
        # enumerate_homs is sorted, so phi is the least member of its orbit.
        cls = HomClass(
            representative=phi,
            injective=len(set(phi)) == G.order,
            orbit_size=len(orbit),
            # |Z_H(im rep)| = |Z_H(rep(gens))|, without building the subgroup.
            centralizer_order=sum(map(key.__eq__, map(move, H.conj_maps()))),
        )
        if cls.orbit_size * cls.centralizer_order != H.order:
            raise InternalCheckError("orbit-stabilizer fails for a hom class")
        classes.append(cls)
    return classes


def class_of_hom(G: FiniteGroup, H: FiniteGroup, phi: Sequence[int]) -> tuple[int, ...]:
    """Canonical representative of the conjugacy class of phi."""
    return min(map(gather(phi), inner_automorphisms(H)))


def pi1(H: FiniteGroup, phi: HomClass | Sequence[int]):
    """Z_H(im phi), the automorphisms of the corresponding based map."""
    rep = phi.representative if isinstance(phi, HomClass) else tuple(phi)
    return centralizer(H, set(rep) | {H.identity})


class RepRecoveryReport(NamedTuple):
    total_classes: int
    injective_classes: int
    classes_by_normal: dict[tuple[int, ...], int]
    identity_a: bool
    identity_b: bool


def rep_hom_classes(
    G: FiniteGroup, H: FiniteGroup, report: bool = False
) -> list[HomClass] | tuple[list[HomClass], RepRecoveryReport]:
    """Injective hom classes, after verifying both recovery identities.

    (a) injective classes = all classes minus those pulled back from a
        proper quotient G/N, over nontrivial normal N;
    (b) the classes of G are partitioned by kernel: summing injective class
        counts of every quotient G/N gives the total class count.

    The verified list is kept on G, so the identities are checked once per
    target; report=True checks them again and returns the report too.
    """
    return _rep_hom_classes.__wrapped__(G, H, report=True) if report else _rep_hom_classes(G, H)


@cached("rep_hom_classes")
def _rep_hom_classes(G: FiniteGroup, H: FiniteGroup, report: bool = False):
    classes = hom_classes(G, H)
    injective = [c for c in classes if c.injective]

    all_reps = {c.representative for c in classes}
    from_quotients: set[tuple[int, ...]] = set()
    counts: dict[tuple[int, ...], int] = {}
    for N in normal_subgroups(G):
        if len(N) == 1:
            counts[N] = len(injective)
            continue
        Q, proj = quotient_group(G, N)
        q_classes = hom_classes(Q, H)
        q_inj = [c for c in q_classes if c.injective]
        counts[N] = len(q_inj)
        pull = gather(proj)
        for c in q_classes:
            from_quotients.add(class_of_hom(G, H, pull(c.representative)))

    identity_a = set(c.representative for c in injective) == all_reps - from_quotients
    identity_b = sum(counts.values()) == len(classes)
    if not identity_a or not identity_b:
        raise InternalCheckError(
            "representability recovery identities fail for "
            f"({G.name or G.order}, {H.name or H.order})"
        )
    if report:
        return injective, RepRecoveryReport(
            total_classes=len(classes),
            injective_classes=len(injective),
            classes_by_normal={n: c for n, c in sorted(counts.items())},
            identity_a=identity_a,
            identity_b=identity_b,
        )
    return injective

