"""Finite groups as explicit multiplication tables.

Elements are integers 0..order-1.  Groups built from permutation
generators get a canonical breadth-first element ordering starting at the
identity, so identical inputs always produce byte-identical tables.
Everything here runs on the tuple table.

Validation is complete at every order, with no sampling and no size
bound.  Associativity is proved by Light's test (Clifford and Preston,
The Algebraic Theory of Semigroups I, 1961, section 1.2): checking
(x g) y = x (g y) for all x, y and every g in a generating set suffices.

One loop closes element sets, `_closure`: breadth-first search by right
multiplication with generators (Holt, Eick and O'Brien, Handbook of
Computational Group Theory, 2005, section 4.1).  It picks Light's
generators, generating sets and the subgroup lattice.  `_hom_plan` splits
its Cayley graph once per group into tree edges, along which images are
set, and check edges, where phi(x g) = phi(x) phi(g) is checked.
One kernel, `gather`, composes maps stored as image tuples, in C.

Derived data kept on a group goes through one memo, `cached`, in whichever
module derives it.  This module keeps the table key, inverses,
conjugation maps, classes, class index map, subgroup classes, quotients,
generating set, fingerprint and hom plan; `exponent`, `is_abelian` and
`all_subgroups` are recomputed per call, as only a memoised caller (the
character table, `subgroup_classes`) or one CLI call reads them.
"""

from __future__ import annotations

from functools import wraps
from math import lcm
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import ValidationError, read_json_object

# A closure of n elements on d points stores n permutations of d points and
# an n x n table: it is refused once n * max(n, d) would pass this many entries.
CLOSURE_ENTRY_BUDGET = 1_000_000
DEFAULT_SUBGROUP_CAP = 48


def cached(name: str):
    """Memoise fn(G, *args) on G: computed once and kept in G._cache under
    `name`, or under (name, *args) with each group argument keyed by its
    `table_key()`.  A call that raises stores nothing."""

    def decorate(fn):
        @wraps(fn)
        def memo(G, *args):
            key = name
            if args:
                key = (name, *[a.table_key() if isinstance(a, FiniteGroup) else a for a in args])
            if key not in G._cache:
                G._cache[key] = fn(G, *args)
            return G._cache[key]

        return memo

    return decorate


def gather(idx: Sequence[int]) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """p -> tuple(p[i] for i in idx), for a sequence or dict p: the one
    composition of maps stored as image tuples.  itemgetter runs it in C;
    one index or none still gives a tuple."""
    if len(idx) > 1:
        return itemgetter(*idx)
    if idx:
        (i,) = idx
        return lambda p: (p[i],)
    return lambda p: ()


class TableKey:
    """A multiplication table as a dict key: hashed once, when built, and
    equal to another key with an equal table.  A tuple of tuples would be
    hashed again, entry by entry, on every lookup."""

    __slots__ = ("table", "_hash")

    def __init__(self, table: tuple[tuple[int, ...], ...]):
        self.table = table
        self._hash = hash(table)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, TableKey):
            return NotImplemented
        return self.table == other.table


class SubgroupClass(NamedTuple):
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
    (mutating methods do not exist); derived data is computed lazily and
    kept in `_cache` by `cached`, so any value may be shared freely between
    threads.
    """

    def __init__(
        self,
        table: Sequence[Sequence[int]],
        labels: Optional[Sequence[str]] = None,
        name: Optional[str] = None,
        validate: bool = True,
    ):
        self.table = tuple(tuple(row) for row in table)
        self.order = len(self.table)
        if labels is not None and not (isinstance(labels, (list, tuple)) and len(labels) == self.order
                                       and all(isinstance(x, str) for x in labels)):
            raise ValidationError("'labels' must be a list of one string per element")
        self.name = name
        self.labels = tuple(labels) if labels is not None else None
        self._cache: dict = {}
        if self.order == 0:
            raise ValidationError("empty multiplication table")
        if validate:
            bad_rows = self._check_entries()
        self.identity = self._find_identity()
        if validate:
            self._validate(bad_rows)

    # -- construction checks ------------------------------------------------

    def _check_entries(self) -> list[bool]:
        """Square, and every entry a Python int in 0..n-1 (before any cast).
        Returns, for `_validate`, which rows are not permutations: one set
        of each row's entries serves both checks."""
        n = self.order
        elements = set(range(n))
        bad_rows = []
        for g, row in enumerate(self.table):
            if len(row) != n:
                raise ValidationError("table is not square")
            # Types first: a set of the entries hashes them.
            if set(map(type, row)) == {int}:
                entries = set(row)
                bad_rows.append(entries != elements)
                if not bad_rows[-1] or 0 <= min(entries) and max(entries) < n:
                    continue
            h = next(h for h, x in enumerate(row) if type(x) is not int or not 0 <= x < n)
            raise ValidationError(
                f"table entry {row[h]!r} at ({g}, {h}) is not an element 0..{n - 1}"
            )
        return bad_rows

    def _find_identity(self) -> int:
        ident = tuple(range(self.order))
        for e in range(self.order):
            if self.table[e] == ident and tuple(row[e] for row in self.table) == ident:
                return e
        raise ValidationError("table has no two-sided identity")

    def _validate(self, bad_rows: list[bool]) -> None:
        """Latin square, two-sided inverses and full associativity, on the
        tuple table; `bad_rows` comes from `_check_entries`.

        Associativity is complete at every order by Light's test: the
        elements g with (x g) y = x (g y) for all x, y are closed under
        multiplication, so checking g over a generating set proves it for
        every element.  Each generator costs one gather per row: row x g
        of the table against row x read at the entries of row g.

        A group's columns are permutations, so they are scanned only before
        a table is refused, to name its first bad row or column.
        """
        T, n, e = self.table, self.order, self.identity

        def latin() -> None:
            # Entries are 0..n-1, so n distinct values make a permutation.
            cols = [len(set(col)) != n for col in zip(*T)]
            for g, (bad_row, bad_col) in enumerate(zip(bad_rows, cols)):
                if bad_row or bad_col:
                    kind = "row" if bad_row else "column"
                    raise ValidationError(f"{kind} {g} is not a permutation")

        if any(bad_rows):
            latin()
        for g, h in enumerate(self.inverses()):
            if T[h][g] != e:
                latin()
                raise ValidationError(f"element {g} has no two-sided inverse")
        for g in _right_generators(T, e):
            times_g = gather(T[g])
            for x, row in enumerate(T):
                xg_y, x_gy = T[row[g]], times_g(row)
                if xg_y != x_gy:
                    latin()
                    c = next(c for c, (a, b) in enumerate(zip(xg_y, x_gy)) if a != b)
                    raise ValidationError(f"associativity fails at {(x, g, c)}")

    # -- elementary operations ----------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses()[a]

    @cached("inverses")
    def inverses(self) -> tuple[int, ...]:
        """Row a's identity position; unvalidated tables are trusted to be groups."""
        e = self.identity
        return tuple(row.index(e) for row in self.table)

    def conj(self, g: int, x: int) -> int:
        """g * x * g^-1."""
        return self.table[self.table[g][x]][self.inverses()[g]]

    @cached("conj_maps")
    def conj_maps(self) -> tuple[tuple[int, ...], ...]:
        """conj_maps()[g][x] = g x g^-1, precomputed for hot loops."""
        inv, t, n = self.inverses(), self.table, self.order
        return tuple(tuple(t[t[g][x]][inv[g]] for x in range(n)) for g in range(n))

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.table[x][a]
            k += 1
        return k

    def exponent(self) -> int:
        return lcm(*[self.element_order(a) for a in range(self.order)])

    def is_abelian(self) -> bool:
        t, n = self.table, self.order
        return all(t[a][b] == t[b][a] for a in range(n) for b in range(a + 1, n))

    def label(self, a: int) -> str:
        if self.labels is not None:
            return self.labels[a]
        return f"g{a}"

    def center(self) -> tuple[int, ...]:
        return centralizer(self, range(self.order)).representative

    @cached("table_key")
    def table_key(self) -> TableKey:
        return TableKey(self.table)

    def __repr__(self) -> str:
        nm = self.name or "?"
        return f"FiniteGroup({nm}, order={self.order})"


def _closure(
    table: Sequence[Sequence[int]], gens: Sequence[int], start: Iterable[int]
) -> set[int]:
    """The elements reached from `start` by right multiplication with
    `gens`: the subgroup `gens` generate when `start` is {e} or a subgroup
    generated by some of them.  Only the products table[x][g] are formed,
    so no associativity is assumed."""
    reached = set(start)
    frontier = list(reached)
    for x in frontier:
        row = table[x]
        for g in gens:
            y = row[g]
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return reached


def _right_generators(table: Sequence[Sequence[int]], e: int,
                      candidates: Optional[Iterable[int]] = None) -> list[int]:
    """A generating set chosen greedily: take the first candidate (by
    default the least element) not yet reached from the identity by right
    multiplication with the chosen ones, until every element is reached."""
    gens: list[int] = []
    reached = {e}
    for g in range(len(table)) if candidates is None else candidates:
        if g not in reached:
            gens.append(g)
            reached = _closure(table, gens, reached)
    return gens


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
) -> FiniteGroup:
    """Close permutation generators into a FiniteGroup.

    Elements are ordered breadth-first from the identity, multiplying by
    generators in input order, so the element numbering is canonical.
    The table is filled row by row: element a is its BFS parent times one
    generator g, so a b = parent (g b), and row a is the parent's row read
    at the indices of g b.
    """
    if type(degree) is not int:
        raise ValidationError(f"degree must be an integer, not {degree!r}")
    if degree < 1:
        raise ValidationError("degree must be positive")
    if not isinstance(generators, (list, tuple)):
        raise ValidationError("generators must be a list of permutations")
    gens = []
    for g in generators:
        # The length first: nothing of size `degree` is built for a short list.
        if (
            not isinstance(g, (list, tuple))
            or len(g) != degree
            or any(type(x) is not int for x in g)
            or any(map(int.__ne__, sorted(g), range(degree)))
        ):
            raise ValidationError(f"not a permutation of 0..{degree - 1}: {g}")
        gens.append(tuple(g))
    if not gens:  # the trivial group, without a degree-length identity
        return FiniteGroup([[0]], labels=["e"], name=name)

    ident = tuple(sorted(gens[0]))  # 0..degree-1, in the generators' own ints
    elements = [ident]
    index = {ident: 0}
    parent, via = [0], [0]
    for a, p in enumerate(elements):  # BFS visits 0, 1, 2, ...
        for k, g in enumerate(gens):
            q = _compose(p, g)
            if q not in index:
                m = len(elements) + 1
                if m * max(m, degree) > CLOSURE_ENTRY_BUDGET:
                    raise ValidationError(
                        f"closure of {m} elements on {degree} points exceeds the budget"
                        f" of {CLOSURE_ENTRY_BUDGET} table entries"
                    )
                index[q] = len(elements)
                elements.append(q)
                parent.append(a)
                via.append(k)

    # reads[k] gathers a row at the indices of gens[k] * elements[b].  Every
    # row is gathered from row 0, so each element is one int object.
    reads = [gather([index[_compose(g, p)] for p in elements]) for g in gens]
    rows = [tuple(range(len(elements)))]
    for a in range(1, len(elements)):
        rows.append(reads[via[a]](rows[parent[a]]))
    labels = [_cycle_notation(p) for p in elements]
    return FiniteGroup(rows, labels=labels, name=name)


# -- conjugacy ---------------------------------------------------------------


@cached("classes")
def conjugacy_classes(G: FiniteGroup) -> list[tuple[int, ...]]:
    """Partition of the elements into conjugacy classes, sorted by minimum."""
    seen = [False] * G.order
    classes = []
    for a in range(G.order):
        if seen[a]:
            continue
        orbit = {G.conj(g, a) for g in range(G.order)}
        for x in orbit:
            seen[x] = True
        classes.append(tuple(sorted(orbit)))
    return classes


@cached("class_of")
def class_index_map(G: FiniteGroup) -> list[int]:
    """Element index -> index of its conjugacy class."""
    out = [0] * G.order
    for i, cls in enumerate(conjugacy_classes(G)):
        for x in cls:
            out[x] = i
    return out


# -- subgroups ----------------------------------------------------------------


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


def all_subgroups(G: FiniteGroup) -> list[frozenset[int]]:
    """Every subgroup of G, each <H, g> closed from a subgroup H found with
    H's generators plus g; refused above DEFAULT_SUBGROUP_CAP elements.

    <H, h g> = <H, g> for h in H, so g is tried once per right coset H g,
    as its least element."""
    if G.order > DEFAULT_SUBGROUP_CAP:
        raise ValidationError(
            f"group order {G.order} exceeds subgroup cap {DEFAULT_SUBGROUP_CAP}"
        )
    T = G.table
    found: dict[frozenset[int], list[int]] = {frozenset({G.identity}): []}
    frontier = list(found)
    for H in frontier:
        tried = set(H)
        for g in range(G.order):
            if g not in tried:
                tried.update([T[h][g] for h in H])
                gens = found[H] + [g]
                K = frozenset(_closure(T, gens, H))
                if K not in found:
                    found[K] = gens
                    frontier.append(K)
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))


@cached("subgroup_classes")
def subgroup_classes(G: FiniteGroup) -> list[SubgroupClass]:
    """Conjugacy classes of subgroups; representative is the least member.
    The conjugation maps are read only once all_subgroups has capped G."""
    subs = all_subgroups(G)
    cms = G.conj_maps()
    remaining = set(subs)
    classes = []
    for H in subs:
        if H not in remaining:
            continue
        conjugates = [frozenset(m) for m in map(gather(tuple(H)), cms)]
        orbit = set(conjugates)
        remaining -= orbit
        # all_subgroups is sorted, so H is the least member of its orbit.
        sc = SubgroupClass(
            representative=tuple(sorted(H)),
            normalizer_order=conjugates.count(H),
            conjugates_count=len(orbit),
        )
        if sc.conjugates_count * sc.normalizer_order != G.order:
            raise ValidationError("orbit-stabilizer identity fails for subgroups")
        classes.append(sc)
    return classes


def normal_subgroups(G: FiniteGroup) -> list[tuple[int, ...]]:
    return [sc.representative for sc in subgroup_classes(G) if sc.conjugates_count == 1]


_CANONICAL_INSTANCES: dict[TableKey, "FiniteGroup"] = {}


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
    Kept on G per subgroup once N is known to be normal.
    """
    return _quotient(G, frozenset(N))


@cached("quotient")
def _quotient(G: FiniteGroup, Ns: frozenset[int]) -> tuple[FiniteGroup, tuple[int, ...]]:
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
    return canonical_instance(Q), projection


# -- isomorphism ---------------------------------------------------------------


@cached("gens")
def generating_set(G: FiniteGroup) -> tuple[int, ...]:
    """Greedy generating set: repeatedly add the largest-order element
    outside the current closure (ties broken by index)."""
    by_order = sorted(range(G.order), key=lambda a: (-G.element_order(a), a))
    return tuple(_right_generators(G.table, G.identity, by_order))


@cached("fingerprint")
def _invariant_fingerprint(G: FiniteGroup) -> tuple:
    orders = sorted(G.element_order(a) for a in range(G.order))
    sizes = sorted(len(c) for c in conjugacy_classes(G))
    return (G.order, tuple(orders), tuple(sizes))


@cached("hom_plan")
def _hom_plan(G: FiniteGroup) -> list[tuple[tuple, tuple]]:
    """Per generator i, the Cayley edges (x, j, x gens[j]) that <gens[:i+1]>
    adds to <gens[:i]>: tree edges, each reaching a new element, and check
    edges.  Over all levels each edge of G's Cayley graph appears once."""
    T, gens = G.table, generating_set(G)
    elements, reached, plan = [G.identity], {G.identity}, []
    for i in range(len(gens)):
        tree, checks, old = [], [], len(elements)
        for k, x in enumerate(elements):  # grows as new elements are reached
            # An element of <gens[:i]> meets only the new generator.
            for j in range(i if k < old else 0, i + 1):
                y = T[x][gens[j]]
                if y in reached:
                    checks.append((x, j, y))
                else:
                    reached.add(y)
                    elements.append(y)
                    tree.append((x, j, y))
        plan.append((tuple(tree), tuple(checks)))
    return plan


def _extend(HT: Sequence[Sequence[int]], level: tuple, images: Sequence[int], phi: list) -> bool:
    """Set phi(y) = phi(x) images[j] on a level's tree edges; check it on the rest."""
    tree, checks = level
    for x, j, y in tree:
        phi[y] = HT[phi[x]][images[j]]
    for x, j, y in checks:
        if HT[phi[x]][images[j]] != phi[y]:
            return False
    return True


def hom_search(G: FiniteGroup, H: FiniteGroup,
               candidates: Sequence[Sequence[int]]) -> Iterator[list[int]]:
    """Every homomorphism G -> H sending generating_set(G)[i] into
    candidates[i], as a complete image list, by backtracking over the
    levels of `_hom_plan(G)`, trying images in the order given.  An image
    list starts all e: an entry is read only once a level sets it."""
    return _backtrack(H.table, _hom_plan(G), candidates, (), [H.identity] * G.order)


def _backtrack(HT: Sequence[Sequence[int]], plan: list[tuple[tuple, tuple]],
               candidates: Sequence[Sequence[int]], images: tuple[int, ...],
               phi: list[int]) -> Iterator[list[int]]:
    # Module level, not a closure: a recursive closure reaches itself through
    # its own cell, a cycle only the cyclic collector frees.
    i = len(images)
    if i == len(plan):
        yield phi
        return
    for h in candidates[i]:
        nxt, more = phi.copy(), images + (h,)
        if _extend(HT, plan[i], more, nxt):
            yield from _backtrack(HT, plan, candidates, more, nxt)


def are_isomorphic(G: FiniteGroup, H: FiniteGroup) -> Optional[tuple[int, ...]]:
    """An explicit isomorphism G -> H as an image array, or None.

    Generator images are tried in lexicographic order and the first
    assignment that extends to a bijective homomorphism is returned.
    """
    if _invariant_fingerprint(G) != _invariant_fingerprint(H):
        return None
    cand = [[h for h in range(H.order) if H.element_order(h) == G.element_order(g)]
            for g in generating_set(G)]
    for phi in hom_search(G, H, cand):
        if len(set(phi)) == G.order:
            return tuple(phi)
    return None


def is_homomorphism(G: FiniteGroup, H: FiniteGroup, phi: Sequence[int]) -> bool:
    """phi, an image array of length |G| into H, is a homomorphism exactly
    when every level of `_hom_plan(G)`, run from phi's images of
    generating_set(G), passes and sets every entry to phi's own."""
    if len(phi) != G.order or not set(phi) <= set(range(H.order)):
        return False
    images, ext = gather(generating_set(G))(phi), [H.identity] * G.order
    return all(_extend(H.table, level, images, ext) for level in _hom_plan(G)) and ext == list(phi)


# -- JSON I/O -------------------------------------------------------------------


def group_from_json(data: dict | str | Path, name: Optional[str] = None) -> FiniteGroup:
    """Load a group from {"degree", "generators"} or {"table"} JSON."""
    if not isinstance(data, dict):
        path = Path(data)
        data = read_json_object(path)
        if name is None:
            name = data.get("name", path.stem)
    else:
        name = name or data.get("name")
    if "table" in data:
        table, labels = data["table"], data.get("labels")
        if not isinstance(table, list) or not all(isinstance(r, list) for r in table):
            raise ValidationError("'table' must be a list of rows")
        return FiniteGroup(table, labels=labels, name=name)
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
