"""The truncated terminal object: cells indexed by chains of injections
between small groups, and the integer homology of its coarse space.

Objects of the underlying category are isomorphism types of groups of
order <= N; an arrow is a conjugacy class of injective homomorphisms.
Each arrow's conjugation orbit is computed once, and each pair of objects
gets one class table from every orbit member to its arrow (the orbit
tables of Holt, Eick and O'Brien, Handbook of Computational Group Theory,
2005, section 4.1), so composing classes is one lookup.  The build always
checks that class_of_hom names each orbit member's own arrow, and that
composition is representative-independent: for every composable pair of
classes, the composite of every member of both orbits lies in one class.
A cell of dimension p is a chain of p composable arrows, carrying its
source group as the isotropy label.

By default the cell census uses non-invertible arrows only (so chains
strictly increase group order); passing include_isos=True also admits
chains through non-identity automorphism classes, the finer model whose
cell counts grow very quickly.  Both models have contractible coarse
nerve, since the trivial group is initial either way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .corpus import groups_of_order_at_most
from .errors import InternalCheckError, ValidationError
from .groups import FiniteGroup, are_isomorphic
from .homs import class_of_hom, conjugate_hom, rep_hom_classes
from .snf import ChainComplex, HomologyDegree, homology

MAX_ORDER_CAP = 12
# Most cells, summed over all degrees, that a census may enumerate.  N=8
# in dimension 2 with isos has 37,423 cells and N=12 in dimension 2 with
# isos 41,030; N=8 in dimension 3 with isos would have over 6 million, and
# its dense boundaries would not fit in memory.
MAX_CELLS = 100_000


@dataclass(frozen=True)
class Arrow:
    src: int
    dst: int
    rep: tuple[int, ...]

    def is_identity(self) -> bool:
        return self.src == self.dst and self.rep == tuple(range(len(self.rep)))


class QuotientCategory:
    """Groups of order <= N, injective hom classes, class composition."""

    def __init__(self, max_order: int, verify: bool = True):
        if max_order < 1 or max_order > MAX_ORDER_CAP:
            raise ValidationError(
                f"max order must lie in 1..{MAX_ORDER_CAP} (corpus completeness)"
            )
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
        for i, A in enumerate(objects):
            for j, B in enumerate(objects):
                classes = rep_hom_classes(A, B)
                self.homs[(i, j)] = [
                    Arrow(i, j, c.representative) for c in classes
                ]
        # Each arrow's conjugation orbit, and for each object pair one table
        # from every orbit member to the index of the arrow that class_of_hom
        # names for it, so compose and _verify classify a hom by one probe.
        self._orbits: dict[tuple[int, int], list[frozenset[tuple[int, ...]]]] = {}
        self._classes: dict[tuple[int, int], dict[tuple[int, ...], int]] = {}
        for (i, j), arrows in self.homs.items():
            A, B = objects[i], objects[j]
            index = {a.rep: t for t, a in enumerate(arrows)}
            orbits = self._orbits[(i, j)] = []
            table = self._classes[(i, j)] = {}
            for t, a in enumerate(arrows):
                orbit = frozenset(conjugate_hom(B, a.rep, h) for h in range(B.order))
                orbits.append(orbit)
                for phi in orbit:
                    if index.get(class_of_hom(A, B, phi)) != t:
                        raise InternalCheckError(
                            "class_of_hom does not name the class of a conjugate"
                        )
                    table[phi] = t
        if verify:
            self._verify()

    def arrow(self, i: int, j: int, phi: tuple[int, ...]) -> Arrow:
        """The arrow i -> j whose class holds the injective hom phi."""
        t = self._classes[(i, j)].get(phi)
        if t is None:
            raise InternalCheckError("a hom lies in no class of the category")
        return self.homs[(i, j)][t]

    def identity(self, i: int) -> Arrow:
        return self.arrow(i, i, tuple(range(self.objects[i].order)))

    def compose(self, a: Arrow, b: Arrow) -> Arrow:
        """b after a, for a: X -> Y and b: Y -> Z."""
        if a.dst != b.src:
            raise ValidationError("arrows are not composable")
        return self.arrow(a.src, b.dst, tuple(map(b.rep.__getitem__, a.rep)))

    def _verify(self) -> None:
        # Identities, class-composition well-definedness, associativity.
        n = len(self.objects)
        for i in range(n):
            self.identity(i)
        for (i, j), orbits_ij in self._orbits.items():
            for orbit_a in orbits_ij:
                for k in range(n):
                    table = self._classes[(i, k)]
                    for orbit_b in self._orbits[(j, k)]:
                        got = {
                            table.get(tuple(map(fb.__getitem__, fa)))
                            for fa in orbit_a
                            for fb in orbit_b
                        }
                        if None in got:
                            raise InternalCheckError(
                                "a composite lies in no class of the category"
                            )
                        if len(got) != 1:
                            raise InternalCheckError(
                                "class composition depends on representatives"
                            )
        trivial = self.object_names.index("c1")
        for j in range(n):
            if len(self.homs[(trivial, j)]) != 1:
                raise InternalCheckError("trivial group is not initial")

    def nonidentity_arrows(self, include_isos: bool) -> list[Arrow]:
        out = []
        for (i, j), arrows in self.homs.items():
            for a in arrows:
                if a.is_identity():
                    continue
                if i == j and not include_isos:
                    continue
                out.append(a)
        return out


def build_quotient_category(max_order: int) -> QuotientCategory:
    return QuotientCategory(max_order)


@dataclass(frozen=True)
class Cell:
    """A chain of composable non-identity arrow classes."""

    object_names: tuple[str, ...]
    arrow_reps: tuple[tuple[int, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.arrow_reps)

    @property
    def isotropy(self) -> str:
        return self.object_names[0]

    def key(self) -> tuple:
        return (self.object_names, self.arrow_reps)


@dataclass
class CellCensus:
    max_order: int
    max_dim: int
    include_isos: bool
    cells: list[list[Cell]]  # by dimension

    def counts(self) -> list[int]:
        return [len(c) for c in self.cells]


def _chains(cat: QuotientCategory, k: int, include_isos: bool) -> list[list[tuple[Arrow, ...]]]:
    """Composable chains of non-identity arrows, by length 1..k."""
    arrows = cat.nonidentity_arrows(include_isos)
    by_src: dict[int, list[Arrow]] = {}
    for a in arrows:
        by_src.setdefault(a.src, []).append(a)
    out: list[list[tuple[Arrow, ...]]] = [[(a,) for a in arrows]]
    for _ in range(2, k + 1):
        nxt = []
        for chain in out[-1]:
            for a in by_src.get(chain[-1].dst, ()):
                nxt.append(chain + (a,))
        out.append(nxt)
    return out


def _cell_of(names: list[str], chain: tuple[Arrow, ...]) -> Cell:
    objs = (names[chain[0].src],) + tuple(names[a.dst] for a in chain)
    return Cell(objs, tuple(a.rep for a in chain))


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
    # Every degree is a level of the census, so the budget bounds them too.
    if not 0 <= max_dim < MAX_CELLS:
        raise ValidationError(f"max dim must lie in 0..{MAX_CELLS - 1}")
    cat = category or build_quotient_category(max_order)
    cell_counts(cat, max_dim, include_isos)  # refuses before any cell is built
    names = cat.object_names
    cells: list[list[Cell]] = [[Cell((nm,), ()) for nm in sorted(names)]]
    if max_dim >= 1:
        for level in _chains(cat, max_dim, include_isos):
            dim_cells = [_cell_of(names, chain) for chain in level]
            dim_cells.sort(key=Cell.key)
            cells.append(dim_cells)
    return CellCensus(max_order, max_dim, include_isos, cells)


def nerve_chain_complex(
    cat: QuotientCategory, max_dim: int, include_isos: bool = False
) -> tuple[ChainComplex, CellCensus]:
    """Normalized chains of the nerve, truncated at max_dim."""
    census = cell_census(cat.max_order, max_dim, include_isos, category=cat)
    names = cat.object_names
    name_to_idx = {nm: i for i, nm in enumerate(names)}
    index = [
        {cell.key(): i for i, cell in enumerate(level)} for level in census.cells
    ]
    ranks = tuple(len(level) for level in census.cells)

    def cell_arrows(cell: Cell) -> list[Arrow]:
        objs = [name_to_idx[nm] for nm in cell.object_names]
        return [
            cat.arrow(objs[t], objs[t + 1], rep)
            for t, rep in enumerate(cell.arrow_reps)
        ]

    boundaries: list = [None]
    for p in range(1, len(ranks)):
        B = [[0] * ranks[p] for _ in range(ranks[p - 1])]
        for j, cell in enumerate(census.cells[p]):
            chain = cell_arrows(cell)
            for i in range(p + 1):
                if i == 0:
                    sub = chain[1:]
                elif i == p:
                    sub = chain[:-1]
                else:
                    sub = chain[: i - 1] + [cat.compose(chain[i - 1], chain[i])] + chain[i + 1 :]
                if any(a.is_identity() for a in sub):
                    continue  # degenerate face, killed in normalized chains
                if sub:
                    face = Cell(
                        (names[sub[0].src],) + tuple(names[a.dst] for a in sub),
                        tuple(a.rep for a in sub),
                    )
                else:
                    face_obj = chain[0].dst if i == 0 else chain[0].src
                    face = Cell((names[face_obj],), ())
                B[index[p - 1][face.key()]][j] += (-1) ** i
        boundaries.append(B)
    cc = ChainComplex(ranks=ranks, boundaries=boundaries)
    return cc, census


def rstar_homology(
    max_order: int, max_dim: int, include_isos: bool = False
) -> list[HomologyDegree]:
    cat = build_quotient_category(max_order)
    cc, _ = nerve_chain_complex(cat, max_dim, include_isos)
    return homology(cc, unreliable_from=max_dim)
