"""Integer Smith normal form and chain-complex homology, exact.

A chain complex holds each boundary as sparse columns only: one
row -> nonzero coefficient dict per cell, as its producer writes them.
The d∘d = 0 check and homology both work on those columns; the dense
matrices exist only as a view built on request.

One sparse elimination gives the invariant factors.  It first takes unit
pivots: a pivot of +1 or -1 splits off one invariant factor 1 by a
unimodular step (the Schur complement of the pivot), so the factors stay
exact; among a column's unit entries the pivot is taken in the row with
the fewest entries, which limits fill-in.  When no unit is left, it
pivots on a least nonzero entry p: a row or column step leaves a smaller
remainder wherever p does not divide its row or column, and once it
does, p splits off by the same Schur step, dividing exactly by p.  One
pairwise (gcd, lcm) pass puts those least-entry pivots into divisibility
order.  Nerve boundaries usually need no least-entry pivot at all.
Arithmetic is arbitrary precision throughout.  References: Dumas,
Heckenbach, Saunders and Welker, "Computing simplicial homology based on
efficient Smith normal form algorithms" (2003); Kaczynski, Mischaikow and
Mrozek, Computational Homology (2004), chapter 3.
"""

from __future__ import annotations

from math import gcd, lcm
from typing import Mapping, NamedTuple, Sequence

from .errors import ValidationError


def smith_normal_form(A: Sequence[Sequence[int]]) -> list[int]:
    """Invariant factors d_1 | d_2 | ... (nonzero diagonal of the SNF)."""
    width = len(A[0]) if A else 0
    return invariant_factors([{i: v for i, row in enumerate(A) if (v := int(row[j]))} for j in range(width)])


def invariant_factors(columns: Sequence[Mapping[int, int]]) -> list[int]:
    """The nonzero diagonal d_1 | d_2 | ... of the Smith normal form of the
    matrix with these columns."""
    cols = {j: dict(col) for j, col in enumerate(columns) if col}
    rows: dict[int, set[int]] = {}
    for j, col in cols.items():
        for i in col:
            rows.setdefault(i, set()).add(j)
    units = 0
    found = True
    while found:
        found = False
        for c in list(cols):
            col = cols.get(c)
            if col is None:
                continue
            r = None
            for i, v in col.items():
                if (v == 1 or v == -1) and (r is None or len(rows[i]) < len(rows[r])):
                    r = i
            if r is not None:
                _eliminate(cols, rows, r, c)
                units += 1
                found = True
    factors = []
    while cols:
        _, r, c = min((abs(v), i, j) for j, col in cols.items() for i, v in col.items())
        p = cols[c][r]
        if (j := next((j for j in rows[r] if cols[j][r] % p), None)) is not None:
            # column j minus q times column c
            q, line = cols[j][r] // p, [(i, j, v) for i, v in cols[c].items()]
        elif (i := next((i for i, v in cols[c].items() if v % p), None)) is not None:
            # row i minus q times row r
            q, line = cols[c][i] // p, [(i, j, cols[j][r]) for j in rows[r]]
        else:
            _eliminate(cols, rows, r, c)
            factors.append(abs(p))
            continue
        for i, j, v in line:
            col = cols[j]
            x = col.get(i, 0) - q * v
            if x:
                col[i] = x
                rows[i].add(j)
            else:
                del col[i]
                rows[i].discard(j)
    for s in range(len(factors)):
        for t in range(s + 1, len(factors)):
            factors[s], factors[t] = gcd(factors[s], factors[t]), lcm(factors[s], factors[t])
    return [1] * units + factors


def _eliminate(cols: dict, rows: dict, r: int, c: int) -> None:
    """Replace the matrix by the Schur complement of its entry (r, c), which
    divides every entry of its row and of its column."""
    pivot = cols.pop(c)
    p = pivot.pop(r)
    for i in pivot:
        rows[i].discard(c)
    targets = rows.pop(r)
    targets.discard(c)
    for j in targets:
        col = cols[j]
        q = col.pop(r) // p
        for i, v in pivot.items():
            x = col.get(i, 0) - q * v
            if x:
                col[i] = x
                rows[i].add(j)
            else:
                del col[i]
                rows[i].discard(j)
        if not col:
            del cols[j]


class ChainComplex:
    """Boundary data: columns[p] maps degree p to degree p-1, p >= 1.

    columns[p][j] is the boundary of the j-th cell of degree p, as a dict
    from row (a cell of degree p-1) to its nonzero coefficient; columns[0]
    is None.  Construction checks the shapes and that d∘d = 0.
    """

    def __init__(self, ranks: tuple[int, ...], columns: list):
        self.ranks, self.columns = ranks, columns
        if len(self.columns) != len(self.ranks):
            raise ValidationError(f"{len(self.columns)} boundaries for {len(self.ranks)} degrees")
        for p in range(1, len(self.ranks)):
            cols, rows = self.columns[p], self.ranks[p - 1]
            if len(cols) != self.ranks[p]:
                raise ValidationError(f"boundary {p} has {len(cols)} columns, not {self.ranks[p]}")
            for col in filter(None, cols):
                if min(col) < 0 or max(col) >= rows:
                    raise ValidationError(f"boundary {p} has a row outside 0..{rows - 1}")
                if not all(col.values()):
                    raise ValidationError(f"boundary {p} stores a zero coefficient")
        self.verify_square_zero()

    def __eq__(self, other):
        return type(other) is ChainComplex and (self.ranks, self.columns) == (other.ranks, other.columns)

    def __repr__(self) -> str:
        return f"ChainComplex(ranks={self.ranks!r}, columns={self.columns!r})"

    @property
    def boundaries(self) -> list:
        """The dense view: boundaries[p] is the ranks[p-1] x ranks[p] matrix
        of columns[p], built anew on each access."""
        return [None] + [
            [[col.get(i, 0) for col in self.columns[p]] for i in range(self.ranks[p - 1])]
            for p in range(1, len(self.ranks))
        ]

    def verify_square_zero(self) -> None:
        for p in range(2, len(self.ranks)):
            A = self.columns[p - 1]
            for col in self.columns[p]:
                image: dict[int, int] = {}
                for t, b in col.items():
                    for i, a in A[t].items():
                        image[i] = image.get(i, 0) + a * b
                if any(image.values()):
                    raise ValidationError("boundary squared is nonzero")


class HomologyDegree(NamedTuple):
    degree: int
    betti: int
    torsion: tuple[int, ...]
    reliable: bool


def homology(cc: ChainComplex, unreliable_from: int | None = None) -> list[HomologyDegree]:
    """Integral homology per degree; torsion lists the factors > 1.

    Degrees at or above `unreliable_from` are flagged: a truncated complex
    lacks the boundaries needed to pin them down.
    """
    k = len(cc.ranks)
    factors_of = [[]] + [invariant_factors(cc.columns[p]) for p in range(1, k)]
    out = []
    for p in range(k):
        factors_in = factors_of[p + 1] if p + 1 < k else []
        betti = cc.ranks[p] - len(factors_of[p]) - len(factors_in)
        torsion = tuple(f for f in factors_in if f > 1)
        reliable = unreliable_from is None or p < unreliable_from
        out.append(HomologyDegree(degree=p, betti=betti, torsion=torsion, reliable=reliable))
    return out

