"""Independent brute-force oracles used across the test suite, and small
constructors and checks that only the tests use.

The oracles recompute expected values from first principles, without
touching the library's own algorithms, so tests compare two genuinely
different routes to the same answer.  The later sections build test
inputs on top of the library: roots of unity, composite hom classes,
localization maps and the filteredness check.  The group-core section
keeps the subgroup closure and the hom search as they were before both
became one closure by right multiplication; the stable-maps section keeps
the map group as it was built before the basis was read off the framings
with trivial bit 0; the quotient-category section keeps the category as
each build made it before the pair data and the composition checks were
shared across builds.
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


def relabelled(G, perm):
    """A fresh copy of G in which element x is called perm[x]."""
    from orbicalc.groups import FiniteGroup

    inv = sorted(range(G.order), key=perm.__getitem__)
    return FiniteGroup(
        [[perm[G.table[inv[a]][inv[b]]] for b in range(G.order)] for a in range(G.order)]
    )


def sparse_columns(A, cols):
    """The nonzero entries of each of the `cols` columns of A, as row -> coefficient."""
    out = [{} for _ in range(cols)]
    for i, row in enumerate(A):
        for j in compress(range(cols), row):
            out[j][i] = int(row[j])
    return out


# -- the group core before one closure ---------------------------------------------


def closure_of(G, seed):
    """The subgroup generated by seed: every new element is multiplied on
    both sides with everything found so far."""
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


def reference_all_subgroups(G):
    """Every subgroup, sorted by (order, elements), from closing H | {g}."""
    found = {frozenset({G.identity})}
    frontier = [frozenset({G.identity})]
    while frontier:
        nxt = []
        for H in frontier:
            for g in range(G.order):
                if g not in H:
                    K = closure_of(G, H | {g})
                    if K not in found:
                        found.add(K)
                        nxt.append(K)
        frontier = nxt
    return sorted(found, key=lambda s: (len(s), tuple(sorted(s))))


def reference_generating_set(G):
    """The largest-order element outside the closure so far, repeatedly."""
    gens = []
    closure = frozenset({G.identity})
    by_order = sorted(range(G.order), key=lambda a: (-G.element_order(a), a))
    while len(closure) < G.order:
        a = next(a for a in by_order if a not in closure)
        gens.append(a)
        closure = closure_of(G, gens)
    return tuple(gens)


def reference_extend_hom(G, H, partial, g, h):
    """partial grown by g -> h and closed under products, on both sides,
    with everything already mapped; None on a contradiction."""
    phi = dict(partial)
    if g in phi:
        return phi if phi[g] == h else None
    phi[g] = h
    frontier = [g]
    while frontier:
        nxt = []
        for a in list(phi):
            for b in frontier:
                for x, y in (
                    (G.table[a][b], H.table[phi[a]][phi[b]]),
                    (G.table[b][a], H.table[phi[b]][phi[a]]),
                ):
                    if x in phi:
                        if phi[x] != y:
                            return None
                    else:
                        phi[x] = y
                        nxt.append(x)
        frontier = nxt
    return phi


def reference_hom_search(G, H, candidates):
    """Homomorphisms G -> H as image tuples, in backtracking order over
    candidates[i] for the i-th element of reference_generating_set(G)."""
    gens = reference_generating_set(G)

    def backtrack(i, partial):
        if i == len(gens):
            if len(partial) == G.order:
                yield tuple(partial[a] for a in range(G.order))
            return
        for h in candidates[i]:
            nxt = reference_extend_hom(G, H, partial, gens[i], h)
            if nxt is not None:
                yield from backtrack(i + 1, nxt)

    return backtrack(0, {G.identity: H.identity})


def reference_hom_candidates(G, H):
    """Images whose order divides the generator's, as `enumerate_homs` takes."""
    return [
        [h for h in range(H.order) if G.element_order(g) % H.element_order(h) == 0]
        for g in reference_generating_set(G)
    ]


def reference_are_isomorphic(G, H):
    """The first bijective homomorphism with order-preserving generator
    images, or None when the fingerprints differ or none is bijective."""
    from orbicalc.groups import _invariant_fingerprint

    if _invariant_fingerprint(G) != _invariant_fingerprint(H):
        return None
    cand = [
        [h for h in range(H.order) if H.element_order(h) == G.element_order(g)]
        for g in reference_generating_set(G)
    ]
    return next((phi for phi in reference_hom_search(G, H, cand) if len(set(phi)) == G.order), None)


# -- stable maps by canonicalising every framing and pairing --------------------------


_REFERENCE_MAP_SUBGROUPS = {}  # source group -> its per-subgroup-class data


def _reference_map_subgroups(G):
    """Per subgroup class: K, the inverses of its induced automorphisms,
    their moves on every framing, and the involution on every framing."""
    from orbicalc.bundles import flip_trivial_bit, framing_bit_permutation, framings, push_bits
    from orbicalc.groups import normalizer, subgroup_as_group, subgroup_classes

    if G not in _REFERENCE_MAP_SUBGROUPS:
        out = []
        for sc in subgroup_classes(G):
            K, emb = subgroup_as_group(G, sc.representative)
            pos = {g: i for i, g in enumerate(emb)}
            autos = sorted(
                {tuple(pos[G.conj(n, g)] for g in emb) for n in normalizer(G, sc.representative)}
            )
            all_bits = [fr.bits for fr in framings(K)]
            bit_moves = []
            for a in autos:
                perm = framing_bit_permutation(K, K, a)
                bit_moves.append({b: push_bits(perm, b) for b in all_bits})
            auto_invs = [tuple(sorted(range(len(a)), key=a.__getitem__)) for a in autos]
            flipped = {b: flip_trivial_bit(K, b) for b in all_bits}
            out.append((K, auto_invs, bit_moves, all_bits, flipped))
        _REFERENCE_MAP_SUBGROUPS[G] = out
    return _REFERENCE_MAP_SUBGROUPS[G]


def reference_map_group(G, H, variant):
    """(presentation, every generator class sorted): the canonical pair of
    every (hom class, framing) pair, then each unpaired class matched with
    the class of its involution image."""
    from orbicalc.homs import class_of_hom, hom_classes, rep_hom_classes
    from orbicalc.stablemaps import MapGenerator, MapGroupPresentation

    basis, orbit_table, classes = [], [], []
    for i, (K, auto_invs, bit_moves, all_bits, flipped) in enumerate(_reference_map_subgroups(G)):
        homs = rep_hom_classes(K, H) if variant == "rep" else hom_classes(K, H)
        canon = {}
        for g in (c.representative for c in homs):
            for bits in all_bits:
                if (g, bits) in canon:
                    continue
                classes.append(MapGenerator(i, K.order, g, bits))
                for a_inv, bm in zip(auto_invs, bit_moves):
                    canon[(class_of_hom(K, H, tuple(g[k] for k in a_inv)), bm[bits])] = (g, bits)
        paired = set()
        for pair in sorted(set(canon.values())):
            if pair in paired:
                continue
            partner = canon[(pair[0], flipped[pair[1]])]
            assert partner > pair and partner not in paired
            paired.add(partner)
            basis.append(MapGenerator(i, K.order, *pair))
            orbit_table.append((basis[-1], MapGenerator(i, K.order, *partner)))
    pres = MapGroupPresentation(variant, len(basis), tuple(basis), tuple(orbit_table))
    return pres, sorted(classes)


# -- the quotient category, built anew by every call ---------------------------------


class _ReferenceQuotientCategory:
    """Objects, homs, orbits and class tables of rstar.QuotientCategory,
    all computed and checked by this one build."""

    def __init__(self, max_order):
        from orbicalc.corpus import groups_of_order_at_most
        from orbicalc.groups import are_isomorphic
        from orbicalc.homs import class_of_hom, conjugate_hom, rep_hom_classes
        from orbicalc.rstar import Arrow

        candidates = sorted(groups_of_order_at_most(max_order), key=lambda g: (g.order, g.name))
        objects = []
        for G in candidates:
            if not any(are_isomorphic(G, H) is not None for H in objects):
                objects.append(G)
        self.objects = objects
        self.homs = {
            (i, j): [Arrow(i, j, c.representative) for c in rep_hom_classes(A, B)]
            for i, A in enumerate(objects)
            for j, B in enumerate(objects)
        }
        self._orbits, self._classes = {}, {}
        for (i, j), arrows in self.homs.items():
            A, B = objects[i], objects[j]
            index = {a.rep: t for t, a in enumerate(arrows)}
            orbits = self._orbits[(i, j)] = []
            table = self._classes[(i, j)] = {}
            for t, a in enumerate(arrows):
                orbit = frozenset(conjugate_hom(B, a.rep, h) for h in range(B.order))
                orbits.append(orbit)
                for phi in orbit:
                    assert index.get(class_of_hom(A, B, phi)) == t
                    table[phi] = t
        n = len(objects)
        for i, G in enumerate(objects):
            assert tuple(range(G.order)) in self._classes[(i, i)]
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
                        assert None not in got and len(got) == 1

    def compose(self, a, b):
        phi = tuple(map(b.rep.__getitem__, a.rep))
        return self.homs[(a.src, b.dst)][self._classes[(a.src, b.dst)][phi]]


def reference_quotient_category(max_order):
    """The quotient category on groups of order <= max_order, with every
    pair's orbits and class table and every composition check made anew."""
    return _ReferenceQuotientCategory(max_order)


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
