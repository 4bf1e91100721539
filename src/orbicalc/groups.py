"""Finite groups as explicit multiplication tables.

Elements are integers 0..order-1.  Groups built from permutation
generators get a canonical breadth-first element ordering starting at the
identity, so identical inputs always produce byte-identical tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .errors import ValidationError, read_json

DEFAULT_ASSOCIATIVITY_BOUND = 128
DEFAULT_CLOSURE_CAP = 10_000
DEFAULT_SUBGROUP_CAP = 48


@dataclass(frozen=True)
class SubgroupClass:
    """A conjugacy class of subgroups, stored via one representative."""

    representative: tuple[int, ...]
    normalizer_order: int
    conjugates_count: int

    @property
    def order(self) -> int:
        return len(self.representative)


class FiniteGroup:
    """A finite group given by its full multiplication table.

    table[g][h] is the element index of g*h.  Instances are immutable
    (mutating methods do not exist); derived data is cached lazily, so any
    value may be shared freely between threads.
    """

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        labels: Optional[Sequence[str]] = None,
        name: Optional[str] = None,
        validate: bool = True,
        associativity_bound: int = DEFAULT_ASSOCIATIVITY_BOUND,
    ):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        self.name = name
        self.labels = tuple(labels) if labels is not None else None
        self.identity = self._find_identity()
        self._cache: dict = {}
        if validate:
            self._validate(associativity_bound)

    # -- construction checks ------------------------------------------------

    def _find_identity(self) -> int:
        n = self.order
        if n == 0:
            raise ValidationError("empty multiplication table")
        ident = tuple(range(n))
        for e in range(n):
            if self.table[e] == ident and tuple(row[e] for row in self.table) == ident:
                return e
        raise ValidationError("table has no two-sided identity")

    def _validate(self, associativity_bound: int) -> None:
        n = self.order
        full = set(range(n))
        for g in range(n):
            if len(self.table[g]) != n:
                raise ValidationError("table is not square")
            if set(self.table[g]) != full:
                raise ValidationError(f"row {g} is not a permutation")
            if {row[g] for row in self.table} != full:
                raise ValidationError(f"column {g} is not a permutation")
        for g in range(n):
            if self.inv(g) is None:
                raise ValidationError(f"element {g} has no two-sided inverse")
        if n <= associativity_bound:
            triples = (
                (a, b, c) for a in range(n) for b in range(n) for c in range(n)
            )
        else:
            # Sample deterministically above the bound.
            import random

            rng = random.Random(0)
            triples = (
                (rng.randrange(n), rng.randrange(n), rng.randrange(n))
                for _ in range(associativity_bound**3)
            )
        t = self.table
        for a, b, c in triples:
            if t[t[a][b]][c] != t[a][t[b][c]]:
                raise ValidationError(f"associativity fails at {(a, b, c)}")

    # -- elementary operations ----------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> Optional[int]:
        if "inverses" in self._cache:
            return self._cache["inverses"][a]
        e = self.identity
        for b in range(self.order):
            if self.table[a][b] == e and self.table[b][a] == e:
                return b
        return None

    def inverses(self) -> tuple[int, ...]:
        if "inverses" not in self._cache:
            self._cache["inverses"] = tuple(self.inv(a) for a in range(self.order))
        return self._cache["inverses"]

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.table[self.table[g][x]][self.inverses()[g]]

    def conj_maps(self) -> tuple[tuple[int, ...], ...]:
        """conj_maps()[g][x] = g x g^-1, precomputed for hot loops."""
        if "conj_maps" not in self._cache:
            inv = self.inverses()
            t = self.table
            self._cache["conj_maps"] = tuple(
                tuple(t[t[g][x]][inv[g]] for x in range(self.order))
                for g in range(self.order)
            )
        return self._cache["conj_maps"]

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            k += 1
        return k

    def exponent(self) -> int:
        if "exponent" not in self._cache:
            self._cache["exponent"] = lcm(
                *[self.element_order(a) for a in range(self.order)]
            )
        return self._cache["exponent"]

    def is_abelian(self) -> bool:
        if "abelian" not in self._cache:
            t = self.table
            self._cache["abelian"] = all(
                t[a][b] == t[b][a]
                for a in range(self.order)
                for b in range(a + 1, self.order)
            )
        return self._cache["abelian"]

    def label(self, a: int) -> str:
        if self.labels is not None:
            return self.labels[a]
        return f"g{a}"

    def center(self) -> tuple[int, ...]:
        t = self.table
        return tuple(
            z
            for z in range(self.order)
            if all(t[z][g] == t[g][z] for g in range(self.order))
        )

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a = self.inv(a)
            k = -k
        x = self.identity
        for _ in range(k):
            x = self.table[x][a]
        return x

    def table_key(self) -> tuple:
        return self.table

    def __repr__(self) -> str:
        nm = self.name or "?"
        return f"FiniteGroup({nm}, order={self.order})"


def trivial_group() -> FiniteGroup:
    return FiniteGroup([[0]], labels=["e"], name="c1")


# -- permutation closure ------------------------------------------------------


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Permutation p followed by q is computed as (p*q)(x) = p[q[x]].

    With this convention the table row g, column h holds g*h acting as
    "first apply h, then g", matching ordinary function composition.
    """
    return tuple(p[q[x]] for x in range(len(p)))


def _cycle_notation(p: tuple[int, ...]) -> str:
    seen = [False] * len(p)
    cycles = []
    for start in range(len(p)):
        if seen[start] or p[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        x = p[start]
        while x != start:
            cyc.append(x)
            seen[x] = True
            x = p[x]
        cycles.append("(" + " ".join(map(str, cyc)) + ")")
    return "".join(cycles) if cycles else "e"


def group_from_generators(
    degree: int,
    generators: Sequence[Sequence[int]],
    name: Optional[str] = None,
    max_order: int = DEFAULT_CLOSURE_CAP,
) -> FiniteGroup:
    """Close permutation generators into a FiniteGroup.

    Elements are ordered breadth-first from the identity, multiplying by
    generators in input order, so the element numbering is canonical.
    """
    if degree < 1:
        raise ValidationError("degree must be positive")
    gens = []
    for g in generators:
        p = tuple(g)
        if sorted(p) != list(range(degree)):
            raise ValidationError(f"not a permutation of 0..{degree - 1}: {g}")
        gens.append(p)

    ident = tuple(range(degree))
    elements = [ident]
    index = {ident: 0}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _compose(p, g)
                if q not in index:
                    if len(elements) >= max_order:
                        raise ValidationError(
                            f"closure exceeds cap of {max_order} elements"
                        )
                    index[q] = len(elements)
                    elements.append(q)
                    nxt.append(q)
        frontier = nxt

    n = len(elements)
    table = [
        [index[_compose(elements[a], elements[b])] for b in range(n)]
        for a in range(n)
    ]
    labels = [_cycle_notation(p) for p in elements]
    return FiniteGroup(table, labels=labels, name=name)


# -- conjugacy ---------------------------------------------------------------


def conjugacy_classes(G: FiniteGroup) -> list[tuple[int, ...]]:
    """Partition of the elements into conjugacy classes, sorted by minimum."""
    if "classes" in G._cache:
        return G._cache["classes"]
    seen = [False] * G.order
    classes = []
    for a in range(G.order):
        if seen[a]:
            continue
        orbit = {G.conj(g, a) for g in range(G.order)}
        for x in orbit:
            seen[x] = True
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda c: c[0])
    G._cache["classes"] = classes
    return classes


def class_index_map(G: FiniteGroup) -> list[int]:
    """Element index -> index of its conjugacy class."""
    if "class_of" in G._cache:
        return G._cache["class_of"]
    out = [0] * G.order
    for i, cls in enumerate(conjugacy_classes(G)):
        for x in cls:
            out[x] = i
    G._cache["class_of"] = out
    return out


# -- subgroups ----------------------------------------------------------------


def _closure_of(G: FiniteGroup, seed: Iterable[int]) -> frozenset[int]:
    elems = {G.identity}
    frontier = list(set(seed) | {G.identity})
    elems.update(frontier)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(elems):
                for c in (G.table[a][b], G.table[b][a]):
                    if c not in elems:
                        elems.add(c)
                        nxt.append(c)
        frontier = nxt
    return frozenset(elems)


def normalizer(G: FiniteGroup, H: Iterable[int]) -> tuple[int, ...]:
    Hs = frozenset(H)
    out = [
        g
        for g in range(G.order)
        if frozenset(G.conj(g, x) for x in Hs) == Hs
    ]
    return tuple(out)


def centralizer(G: FiniteGroup, S: Iterable[int]) -> SubgroupClass:
    """The subgroup commuting with every element of S, as a SubgroupClass."""
    Ss = set(S)
    if not Ss:
        raise ValidationError("centralizer of the empty set is not defined here")
    t = G.table
    elems = tuple(
        g for g in range(G.order) if all(t[g][s] == t[s][g] for s in Ss)
    )
    norm = normalizer(G, elems)
    return SubgroupClass(
        representative=elems,
        normalizer_order=len(norm),
        conjugates_count=G.order // len(norm),
    )


def all_subgroups(G: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP) -> list[frozenset[int]]:
    """Every subgroup of G, by closing cyclic seeds under one-element extensions."""
    if G.order > cap:
        raise ValidationError(f"group order {G.order} exceeds subgroup cap {cap}")
    if "all_subgroups" in G._cache:
        return G._cache["all_subgroups"]
    found = {frozenset({G.identity})}
    frontier = [frozenset({G.identity})]
    while frontier:
        nxt = []
        for H in frontier:
            for g in range(G.order):
                if g in H:
                    continue
                K = _closure_of(G, H | {g})
                if K not in found:
                    found.add(K)
                    nxt.append(K)
        frontier = nxt
    out = sorted(found, key=lambda s: (len(s), tuple(sorted(s))))
    G._cache["all_subgroups"] = out
    return out


def subgroup_classes(G: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP) -> list[SubgroupClass]:
    """Conjugacy classes of subgroups; representative is the least member."""
    if "subgroup_classes" in G._cache:
        return G._cache["subgroup_classes"]
    subs = all_subgroups(G, cap=cap)
    remaining = set(subs)
    classes = []
    for H in subs:
        if H not in remaining:
            continue
        orbit = {frozenset(G.conj(g, x) for x in H) for g in range(G.order)}
        remaining -= orbit
        rep = min(orbit, key=lambda s: tuple(sorted(s)))
        norm = normalizer(G, rep)
        sc = SubgroupClass(
            representative=tuple(sorted(rep)),
            normalizer_order=len(norm),
            conjugates_count=len(orbit),
        )
        if sc.conjugates_count * sc.normalizer_order != G.order:
            raise ValidationError("orbit-stabilizer identity fails for subgroups")
        classes.append(sc)
    classes.sort(key=lambda c: (c.order, c.representative))
    G._cache["subgroup_classes"] = classes
    return classes


def normal_subgroups(G: FiniteGroup, cap: int = DEFAULT_SUBGROUP_CAP) -> list[tuple[int, ...]]:
    return [
        sc.representative
        for sc in subgroup_classes(G, cap=cap)
        if sc.conjugates_count == 1
    ]


_CANONICAL_INSTANCES: dict[tuple, "FiniteGroup"] = {}


def canonical_instance(G: FiniteGroup) -> FiniteGroup:
    """A shared instance per multiplication table, so caches are reused."""
    key = G.table_key()
    if key not in _CANONICAL_INSTANCES:
        _CANONICAL_INSTANCES[key] = G
    return _CANONICAL_INSTANCES[key]


def subgroup_as_group(G: FiniteGroup, elements: Iterable[int]) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Reindex a subgroup as its own FiniteGroup.

    Returns (K, embedding) where embedding[i] is the G-element of K's
    element i.  The identity comes first, the rest in ascending G-order.
    """
    elems = sorted(set(elements))
    if G.identity in elems:
        elems.remove(G.identity)
    order = [G.identity] + elems
    pos = {g: i for i, g in enumerate(order)}
    n = len(order)
    try:
        table = [
            [pos[G.table[order[a]][order[b]]] for b in range(n)] for a in range(n)
        ]
    except KeyError:
        raise ValidationError("element set is not closed under multiplication")
    labels = [G.label(g) for g in order]
    K = FiniteGroup(table, labels=labels, name=None, validate=False)
    return canonical_instance(K), tuple(order)


def quotient_group(G: FiniteGroup, N: Iterable[int]) -> tuple[FiniteGroup, tuple[int, ...]]:
    """Quotient by a normal subgroup.

    Returns (Q, projection) with projection[g] the coset index of g.
    Cosets are ordered with the identity coset first, then by least member.
    The result is cached on G per subgroup, once N is known to be normal.
    """
    Ns = frozenset(N)
    key = ("quotient", Ns)
    if key in G._cache:
        return G._cache[key]
    if frozenset(G.conj(g, x) for g in range(G.order) for x in Ns) != Ns:
        raise ValidationError("subgroup is not normal")
    coset_of = {}
    cosets = []
    for g in range(G.order):
        if g in coset_of:
            continue
        coset = frozenset(G.table[g][x] for x in Ns)
        idx = len(cosets)
        cosets.append(coset)
        for x in coset:
            coset_of[x] = idx
    order = sorted(range(len(cosets)), key=lambda i: (G.identity not in cosets[i], min(cosets[i])))
    relabel = {old: new for new, old in enumerate(order)}
    cosets = [cosets[i] for i in order]
    projection = tuple(relabel[coset_of[g]] for g in range(G.order))
    reps = [min(c) for c in cosets]
    n = len(cosets)
    table = [
        [projection[G.table[reps[a]][reps[b]]] for b in range(n)] for a in range(n)
    ]
    labels = [f"[{G.label(r)}]" for r in reps]
    Q = FiniteGroup(table, labels=labels, validate=False)
    G._cache[key] = (canonical_instance(Q), projection)
    return G._cache[key]


# -- isomorphism ---------------------------------------------------------------


def generating_set(G: FiniteGroup) -> tuple[int, ...]:
    """Greedy generating set: repeatedly add the largest-order element
    outside the current closure (ties broken by index)."""
    if "gens" in G._cache:
        return G._cache["gens"]
    gens: list[int] = []
    closure = frozenset({G.identity})
    by_order = sorted(range(G.order), key=lambda a: (-G.element_order(a), a))
    while len(closure) < G.order:
        for a in by_order:
            if a not in closure:
                gens.append(a)
                closure = _closure_of(G, gens)
                break
    out = tuple(gens)
    G._cache["gens"] = out
    return out


def _invariant_fingerprint(G: FiniteGroup) -> tuple:
    orders = sorted(G.element_order(a) for a in range(G.order))
    sizes = sorted(len(c) for c in conjugacy_classes(G))
    return (G.order, tuple(orders), tuple(sizes))


def _extend_hom(
    G: FiniteGroup, H: FiniteGroup, gens: Sequence[int], images: Sequence[int]
) -> Optional[tuple[int, ...]]:
    """Extend generator images to a full homomorphism, or return None.

    Grows the partial map over the closure of the assigned generators,
    checking the multiplication tables at every step.
    """
    phi = {G.identity: H.identity}
    frontier = [G.identity]
    for g, h in zip(gens, images):
        if g in phi:
            if phi[g] != h:
                return None
            continue
        phi[g] = h
        frontier.append(g)
    while frontier:
        nxt = []
        for a in list(phi.keys()):
            for b in frontier:
                for x, y in ((G.table[a][b], H.table[phi[a]][phi[b]]),
                             (G.table[b][a], H.table[phi[b]][phi[a]])):
                    if x in phi:
                        if phi[x] != y:
                            return None
                    else:
                        phi[x] = y
                        nxt.append(x)
        frontier = nxt
    if len(phi) != G.order:
        # Generators did not generate G; cannot happen for a generating set.
        return None
    return tuple(phi[a] for a in range(G.order))


def are_isomorphic(G: FiniteGroup, H: FiniteGroup) -> Optional[tuple[int, ...]]:
    """An explicit isomorphism G -> H as an image array, or None."""
    if _invariant_fingerprint(G) != _invariant_fingerprint(H):
        return None
    gens = generating_set(G)
    cand = [
        [h for h in range(H.order) if H.element_order(h) == G.element_order(g)]
        for g in gens
    ]

    def backtrack(i: int, images: list[int]) -> Optional[tuple[int, ...]]:
        if i == len(gens):
            phi = _extend_hom(G, H, gens, images)
            if phi is not None and len(set(phi)) == G.order:
                return phi
            return None
        for h in cand[i]:
            res = backtrack(i + 1, images + [h])
            if res is not None:
                return res
        return None

    return backtrack(0, [])


def is_homomorphism(G: FiniteGroup, H: FiniteGroup, phi: Sequence[int]) -> bool:
    t, s = G.table, H.table
    return all(
        phi[t[a][b]] == s[phi[a]][phi[b]]
        for a in range(G.order)
        for b in range(G.order)
    )


# -- JSON I/O -------------------------------------------------------------------


def group_from_json(data: dict | str | Path, name: Optional[str] = None) -> FiniteGroup:
    """Load a group from {"degree", "generators"} or {"table"} JSON."""
    if not isinstance(data, dict):
        path = Path(data)
        data = read_json(path)
        if not isinstance(data, dict):
            raise ValidationError(f"{path} does not hold a JSON object")
        if name is None:
            name = data.get("name", path.stem)
    else:
        name = name or data.get("name")
    if "table" in data:
        return FiniteGroup(data["table"], labels=data.get("labels"), name=name)
    if "degree" in data and "generators" in data:
        return group_from_generators(data["degree"], data["generators"], name=name)
    raise ValidationError(
        "group JSON needs either a 'table' or 'degree' plus 'generators'"
    )


def group_to_json(G: FiniteGroup) -> dict:
    out = {"order": G.order, "table": [list(r) for r in G.table]}
    if G.name:
        out["name"] = G.name
    if G.labels:
        out["labels"] = list(G.labels)
    return out
