"""The truncated terminal object: cells indexed by chains of injections
between small groups, and the integer homology of its coarse space.

Objects of the underlying category are isomorphism types of groups of
order <= N; an arrow is a conjugacy class of injective homomorphisms.
Each pair of groups gets its arrows, their conjugation orbits and one
class table from every orbit member to its arrow (the orbit tables of
Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005,
section 4.1).  Every composite of maps stored as image tuples, orbit
members included, is one `groups.gather`, run in C.  This pair data is
built once per process, cached on the source group and shared by every
category; building it checks that class_of_hom names each orbit member's
own arrow.  The first category holding a triple A -> B -> C with arrows
on both legs composes a representative of each class A -> B with every
member of every orbit B -> C, checks that each pair of classes lands in
one class, and keeps its index in the triple's composition table.  So
each check runs once per pair or triple, before any category containing
it is returned, and composing arrows is one lookup by index.  A cell of
dimension p is a chain of p composable arrows, carrying its source group
as the isotropy label.  The census stores each cell once, as integers
(object indices, arrow indices); the nerve's boundaries are written
straight from these as sparse columns, each face found by its integer
chain and an inner face left out when the table gives an identity.

By default the cell census uses non-invertible arrows only (so chains
strictly increase group order); passing include_isos=True also admits
chains through non-identity automorphism classes, the finer model whose
cell counts grow very quickly.  Both models have contractible coarse
nerve, since the trivial group is initial either way.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .corpus import groups_of_order_at_most
from .errors import InternalCheckError, ValidationError
from .groups import FiniteGroup, are_isomorphic, cached, gather
from .homs import class_of_hom, rep_hom_classes
from .snf import ChainComplex, HomologyDegree, homology

MAX_ORDER_CAP = 12
# Most cells, summed over all degrees, that a census may enumerate.  N=8
# in dimension 2 with isos has 37,423 cells and N=12 in dimension 2 with
# isos 41,030; N=8 in dimension 3 with isos would have over 6 million,
# whose chains and boundary columns would not fit in memory.
MAX_CELLS = 100_000


def check_max_order(max_order: int) -> None:
    if max_order < 1 or max_order > MAX_ORDER_CAP:
        raise ValidationError(
            f"max order must lie in 1..{MAX_ORDER_CAP} (corpus completeness)"
        )


def check_max_dim(max_dim: int) -> None:
    # Every degree is a level of the census, so the budget bounds them too.
    if not 0 <= max_dim < MAX_CELLS:
        raise ValidationError(f"max dim must lie in 0..{MAX_CELLS - 1}")


class Arrow(NamedTuple):
    src: int
    dst: int
    rep: tuple[int, ...]

    def is_identity(self) -> bool:
        return self.src == self.dst and self.rep == tuple(range(len(self.rep)))


class QuotientCategory:
    """Groups of order <= N, injective hom classes, class composition."""

    def __init__(self, max_order: int):
        check_max_order(max_order)
        self.max_order = max_order
        candidates = sorted(
            groups_of_order_at_most(max_order), key=lambda g: (g.order, g.name)
        )
        objects: list[FiniteGroup] = []
        for G in candidates:
            if not any(are_isomorphic(G, H) is not None for H in objects):
                objects.append(G)
        self.objects = objects
        self.object_names = [G.name for G in objects]
        self.homs: dict[tuple[int, int], list[Arrow]] = {}
        self._classes: dict[tuple[int, int], dict[tuple[int, ...], int]] = {}
        for i, A in enumerate(objects):
            for j, B in enumerate(objects):
                reps, _, self._classes[(i, j)] = _arrows(A, B)
                self.homs[(i, j)] = [Arrow(i, j, rep) for rep in reps]
        # identity[i] indexes object i's identity arrow in homs[(i, i)].
        self.identity = [self.arrow_index(i, i, tuple(range(G.order))) for i, G in enumerate(objects)]
        self.composite = {
            (i, j, k): _composition_checked(objects[i], objects[j], C)
            for (i, j), arrows in self.homs.items() if arrows
            for k, C in enumerate(objects) if self.homs[(j, k)]
        }
        trivial = self.object_names.index("c1")
        if any(len(self.homs[(trivial, j)]) != 1 for j in range(len(objects))):
            raise InternalCheckError("trivial group is not initial")

    def arrow_index(self, i: int, j: int, phi: tuple[int, ...]) -> int:
        """The index in homs[(i, j)] of the class that holds the injective hom phi."""
        t = self._classes[(i, j)].get(phi)
        if t is None:
            raise InternalCheckError("a hom lies in no class of the category")
        return t

    def compose(self, a: Arrow, b: Arrow) -> Arrow:
        """b after a, for a: X -> Y and b: Y -> Z."""
        if a.dst != b.src:
            raise ValidationError("arrows are not composable")
        s, t = self.arrow_index(a.src, a.dst, a.rep), self.arrow_index(b.src, b.dst, b.rep)
        return self.homs[(a.src, b.dst)][self.composite[(a.src, a.dst, b.dst)][s][t]]

    def nonidentity_arrows(self, include_isos: bool) -> list[Arrow]:
        return [a for (i, j), arrows in self.homs.items() for t, a in enumerate(arrows)
                if i != j or include_isos and t != self.identity[i]]


@cached("arrow_orbits")
def _arrows(A: FiniteGroup, B: FiniteGroup) -> tuple[list, list, dict]:
    """The injective class representatives A -> B, each class's conjugation
    orbit and the table from every orbit member to its class's index, kept
    on A once class_of_hom is checked to name each member's own class."""
    reps = [c.representative for c in rep_hom_classes(A, B)]
    index = {rep: t for t, rep in enumerate(reps)}
    orbits, table = [], {}
    for t, rep in enumerate(reps):
        orbit = frozenset(map(gather(rep), B.conj_maps()))
        orbits.append(orbit)
        for phi in orbit:
            if index.get(class_of_hom(A, B, phi)) != t:
                raise InternalCheckError("class_of_hom does not name the class of a conjugate")
            table[phi] = t
    return reps, orbits, table


@cached("composition_checked")
def _composition_checked(A: FiniteGroup, B: FiniteGroup, C: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """The composition table of classes A -> B -> C, checked once to be well
    defined: class t of B -> C after class s of A -> B is class [s][t]."""
    # A representative of each class A -> B against each whole orbit B -> C:
    # conjugating fb by c conjugates fb o fa by c, conjugating fa by b
    # conjugates it by fb(b), so this already reaches the full product's set.
    table, orbits, rows = _arrows(A, C)[2], _arrows(B, C)[1], []
    members = [fb for orbit in orbits for fb in orbit]
    owner = [t for t, orbit in enumerate(orbits) for _ in orbit]
    for fa in _arrows(A, B)[0]:
        got = list(map(table.get, map(gather(fa), members)))
        if None in got:
            raise InternalCheckError("a composite lies in no class of the category")
        found = sorted(set(zip(owner, got)))  # one (orbit, class) per orbit
        if len(found) != len(orbits):
            raise InternalCheckError("class composition depends on representatives")
        rows.append(tuple(zip(*found))[1])
    return tuple(rows)


def build_quotient_category(max_order: int) -> QuotientCategory:
    return QuotientCategory(max_order)


class Cell(NamedTuple):
    """A chain of composable non-identity arrow classes, by name and rep."""

    object_names: tuple[str, ...]
    arrow_reps: tuple[tuple[int, ...], ...]

    @property
    def isotropy(self) -> str:
        return self.object_names[0]

    def key(self) -> tuple:
        return (self.object_names, self.arrow_reps)


# A cell as integers: its objects (indices into cat.objects) and, for each
# step, the index of its arrow in cat.homs[(src, dst)].
Chain = tuple[tuple[int, ...], tuple[int, ...]]


class CellCensus(NamedTuple):
    max_order: int
    max_dim: int
    include_isos: bool
    category: QuotientCategory
    chains: list[list[Chain]]  # by dimension, each level in Cell.key order

    def __repr__(self) -> str:
        return (f"CellCensus(max_order={self.max_order!r}, max_dim={self.max_dim!r}, "
                f"include_isos={self.include_isos!r}, chains={self.chains!r})")

    def counts(self) -> list[int]:
        return [len(c) for c in self.chains]

    @property
    def cells(self) -> list[list[Cell]]:
        """The chains as Cell views by dimension, built anew on each access."""
        names, homs = self.category.object_names, self.category.homs
        return [
            [
                Cell(
                    tuple(names[o] for o in objs),
                    tuple(homs[(i, j)][t].rep for i, j, t in zip(objs, objs[1:], arrows)),
                )
                for objs, arrows in level
            ]
            for level in self.chains
        ]


def _chains(cat: QuotientCategory, k: int, include_isos: bool) -> list[list[Chain]]:
    """Composable chains of non-identity arrows, by length 0..k."""
    steps: dict[int, list[tuple[int, int]]] = {}  # src -> (dst, arrow index)
    for a in cat.nonidentity_arrows(include_isos):
        steps.setdefault(a.src, []).append((a.dst, cat.arrow_index(a.src, a.dst, a.rep)))
    levels = [[((i,), ()) for i in range(len(cat.objects))]]
    for _ in range(k):
        levels.append([
            (objs + (j,), arrows + (t,))
            for objs, arrows in levels[-1]
            for j, t in steps.get(objs[-1], ())
        ])
    return levels


def cell_counts(cat: QuotientCategory, max_dim: int, include_isos: bool) -> list[int]:
    """Cells per degree 0..max_dim, counted without enumerating them: 1'A^p 1,
    where A counts the non-identity arrows between each pair of objects.

    Counting stops with a ValidationError, naming the counts so far, as
    soon as their total exceeds MAX_CELLS.
    """
    n = len(cat.objects)
    A = [[0] * n for _ in range(n)]
    for a in cat.nonidentity_arrows(include_isos):
        A[a.src][a.dst] += 1
    ends = [1] * n  # chains of the current length ending at each object
    counts = [n]
    while len(counts) <= max_dim and any(ends):
        ends = [sum(ends[i] * A[i][j] for i in range(n)) for j in range(n)]
        counts.append(sum(ends))
        if sum(counts) > MAX_CELLS:
            raise ValidationError(
                f"{sum(counts)} cells (per degree {counts}) exceed the budget of "
                f"{MAX_CELLS}; lower the maximum order or dimension"
            )
    return counts + [0] * (max_dim + 1 - len(counts))


def cell_census(max_order: int, max_dim: int, include_isos: bool = False,
                category: Optional[QuotientCategory] = None) -> CellCensus:
    check_max_dim(max_dim)
    if category is not None and category.max_order != max_order:
        raise ValidationError(
            f"the category is built for max order {category.max_order}, not {max_order}")
    cat = category or build_quotient_category(max_order)
    cell_counts(cat, max_dim, include_isos)  # refuses before any cell is built
    # Sorting by name rank, then by arrow index, is Cell.key order, because
    # each cat.homs[(i, j)] is sorted by representative.
    names = cat.object_names
    rank = [sorted(names).index(nm) for nm in names]

    def key(chain: Chain) -> tuple:
        return [rank[o] for o in chain[0]], chain[1]

    chains = [sorted(level, key=key) for level in _chains(cat, max_dim, include_isos)]
    return CellCensus(max_order, max_dim, include_isos, cat, chains)


def nerve_chain_complex(
    cat: QuotientCategory, max_dim: int, include_isos: bool = False
) -> tuple[ChainComplex, CellCensus]:
    """Normalized chains of the nerve, truncated at max_dim: face i of a
    chain has sign (-1)^i, and an inner face whose composite is an identity
    is degenerate and left out."""
    census = cell_census(cat.max_order, max_dim, include_isos, category=cat)
    composite, identity = cat.composite, cat.identity
    columns: list = [None]
    for p in range(1, len(census.chains)):
        index = {chain: r for r, chain in enumerate(census.chains[p - 1])}
        level = []
        for objs, arrows in census.chains[p]:
            faces = [(1, (objs[1:], arrows[1:])), ((-1) ** p, (objs[:-1], arrows[:-1]))]
            for i in range(1, p):
                x, y, z = objs[i - 1 : i + 2]
                t = composite[(x, y, z)][arrows[i - 1]][arrows[i]]
                if x != z or t != identity[x]:
                    face = (objs[:i] + objs[i + 1 :], arrows[: i - 1] + (t,) + arrows[i + 1 :])
                    faces.append(((-1) ** i, face))
            col: dict[int, int] = {}
            for sign, face in faces:
                r = index[face]
                col[r] = col.get(r, 0) + sign
            level.append({r: v for r, v in col.items() if v})
        columns.append(level)
    return ChainComplex(ranks=tuple(census.counts()), columns=columns), census


def rstar_homology(
    max_order: int, max_dim: int, include_isos: bool = False
) -> list[HomologyDegree]:
    cat = build_quotient_category(max_order)
    cc, _ = nerve_chain_complex(cat, max_dim, include_isos)
    return homology(cc, unreliable_from=max_dim)
