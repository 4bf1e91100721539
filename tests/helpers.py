"""Independent brute-force oracles used across the test suite, and small
constructors and checks that only the tests use.

The oracles recompute expected values from first principles, without
touching the library's own algorithms, so tests compare two genuinely
different routes to the same answer.  The later sections build test
inputs on top of the library: roots of unity, composite hom classes,
localization maps and the filteredness check.
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


# -- cyclotomic integers ---------------------------------------------------------


def poly_reduce(order, raw):
    """Coordinates of sum_k raw[k] zeta^k mod Phi_order by polynomial long
    division: fold exponents with zeta^order = 1, then divide by the monic
    Phi_order and keep the remainder, padded to degree phi(order)."""
    from orbicalc.cyclotomic import cyclotomic_polynomial

    num = [0] * order
    for k, c in enumerate(raw):
        num[k % order] += c
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    for i in range(len(num) - 1, deg - 1, -1):
        c = num[i]
        if c:
            for j, f in enumerate(phi):
                num[i - deg + j] -= c * f
    return tuple(num[:deg])


def root_of_unity(order, exponent):
    """zeta_order^exponent as a CycInt."""
    from orbicalc.cyclotomic import CycInt

    raw = [0] * order
    raw[exponent % order] = 1
    return CycInt(order, tuple(raw))


def from_root_multiplicities(order, mults):
    """Sum of mults[k] copies of zeta^k for k = 0..order-1."""
    from orbicalc.cyclotomic import CycInt

    return CycInt(order, tuple(mults))


def is_real(v):
    return v == v.conjugate()


# -- homomorphisms ----------------------------------------------------------------


def compose_hom_classes(A, B, C, f, g):
    """Canonical class of (g . f) for f: A -> B, g: B -> C."""
    from orbicalc.homs import class_of_hom

    return class_of_hom(A, C, tuple(g[x] for x in f))


# -- localization -----------------------------------------------------------------


def localization_map(C, W, x, y):
    """Index of the localized class of each plain arrow x -> y."""
    from orbicalc.localize import localize_hom

    loc = localize_hom(C, W, x, y)
    idx = {}
    id_x = C.identity(x)
    for i, cls in enumerate(loc.classes):
        for sp in cls:
            if sp.w == id_x:
                idx[sp.f] = i
    return idx


def verify_filtered(C, W, x):
    """Check the category of W-arrows into x is filtered (nonempty, upper
    bounds for pairs, equalizing refinements for parallel pairs)."""
    W = set(W)
    wins = [a for a in C.arrows.values() if a.dst == x and a.name in W]
    if not wins:
        return False
    for w1 in wins:
        for w2 in wins:
            ok = False
            for w3 in wins:
                for z1 in C.hom(w3.src, w1.src):
                    if C.compose(z1, w1.name) != w3.name:
                        continue
                    for z2 in C.hom(w3.src, w2.src):
                        if C.compose(z2, w2.name) == w3.name:
                            ok = True
                            break
                    if ok:
                        break
                if ok:
                    break
            if not ok:
                return False
    # Parallel morphisms over x get coequalized by a further W-arrow.
    for w1 in wins:
        for w2 in wins:
            par = [
                z
                for z in C.hom(w1.src, w2.src)
                if C.compose(z, w2.name) == w1.name
            ]
            for i, z1 in enumerate(par):
                for z2 in par[i + 1 :]:
                    ok = False
                    for w3 in wins:
                        for y in C.hom(w3.src, w1.src):
                            if (
                                C.compose(y, w1.name) == w3.name
                                and C.compose(y, z1) == C.compose(y, z2)
                            ):
                                ok = True
                                break
                        if ok:
                            break
                    if not ok:
                        return False
    return True
