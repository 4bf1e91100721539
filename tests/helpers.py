"""Independent brute-force oracles used across the test suite.

Everything here recomputes expected values from first principles, without
touching the library's own algorithms, so tests compare two genuinely
different routes to the same answer.
"""

from __future__ import annotations

from itertools import compress, product


def perm_compose(p, q):
    return tuple(p[q[x]] for x in range(len(p)))


def perm_closure(degree, gens):
    """Brute-force closure of permutation generators."""
    ident = tuple(range(degree))
    elems = {ident}
    frontier = [ident]
    gens = [tuple(g) for g in gens]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = perm_compose(p, g)
                if q not in elems:
                    elems.add(q)
                    nxt.append(q)
        frontier = nxt
    return elems


def conj_orbits(table):
    """Conjugacy classes straight from a multiplication table."""
    n = len(table)
    ident = next(
        e for e in range(n) if all(table[e][x] == x for x in range(n))
    )

    def inv(a):
        return next(b for b in range(n) if table[a][b] == ident)

    classes = []
    seen = set()
    for a in range(n):
        if a in seen:
            continue
        orb = {table[table[g][a]][inv(g)] for g in range(n)}
        seen |= orb
        classes.append(frozenset(orb))
    return classes


def brute_force_subgroups(table):
    """All subgroups by scanning every subset (only for tiny groups)."""
    n = len(table)
    ident = next(
        e for e in range(n) if all(table[e][x] == x for x in range(n))
    )
    subs = []
    for mask in range(1 << n):
        S = [x for x in range(n) if mask & (1 << x)]
        if ident not in S:
            continue
        Sset = set(S)
        if all(table[a][b] in Sset for a in S for b in S):
            subs.append(frozenset(S))
    return subs


def brute_force_homs(G, H):
    """All homomorphisms G -> H by testing every image tuple on a
    generating set and extending through products of generator words."""
    from orbicalc.groups import generating_set

    gens = generating_set(G)
    if not gens:
        return [tuple([H.identity] * G.order)]
    homs = []
    for images in product(range(H.order), repeat=len(gens)):
        phi = extend_by_words(G, H, gens, images)
        if phi is not None:
            homs.append(phi)
    return homs


def extend_by_words(G, H, gens, images):
    """Extend generator images by multiplying out words; verify on all pairs."""
    phi = {G.identity: H.identity}
    for g, h in zip(gens, images):
        phi[g] = h
    changed = True
    while changed and len(phi) < G.order:
        changed = False
        for a in list(phi):
            for b in list(phi):
                x = G.table[a][b]
                y = H.table[phi[a]][phi[b]]
                if x not in phi:
                    phi[x] = y
                    changed = True
    if len(phi) != G.order:
        return None
    arr = tuple(phi[a] for a in range(G.order))
    for a in range(G.order):
        for b in range(G.order):
            if arr[G.table[a][b]] != H.table[arr[a]][arr[b]]:
                return None
    return arr


def sparse_columns(A, cols):
    """The nonzero entries of each of the `cols` columns of A, as row -> coefficient."""
    out = [{} for _ in range(cols)]
    for i, row in enumerate(A):
        for j in compress(range(cols), row):
            out[j][i] = int(row[j])
    return out
