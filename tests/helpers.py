"""Independent brute-force oracles used across the test suite, and small
constructors and checks that only the tests use.

The oracles recompute expected values from first principles, without
touching the library's own algorithms, so tests compare two genuinely
different routes to the same answer.  The later sections build test
inputs on top of the library: roots of unity, composite hom classes,
localization maps, the filteredness check, and matrix representations
(regular, permutation, one-dimensional and block sums), which only tests
build.  The group-core section
keeps the subgroup closure and the hom search as they were before both
became one closure by right multiplication, and the table validation as
it scanned every column before a passing table's columns were proved;
the stable-maps section keeps the map group as it was built before the
basis was read off the framings with trivial bit 0, and the irrep
matching along an isomorphism as the scan over pairs of irreps it was
before K2's pulled-back characters were looked up in one dict; the quotient-category section keeps the category as
each build made it before the pair data and the composition checks were
shared across builds; the Smith normal form section keeps the dense
elimination that ran on whatever the unit pivots left, before the sparse
elimination took every pivot; the character-table section keeps the
whole table as it ran on numpy arrays, with the eigenspace split as it
was before eigenvectors were back-substituted on the Hessenberg form;
the exact-fold section keeps the table's self-check as it ran before
the orthogonality relations were proved mod a prime at roots of unity:
every pair's sums folded over Z and reduced mod Phi_e in one batch
(`reduce_blocks`), which also computed the Frobenius-Schur indicators
until they were proved mod the same prime, and the dot products mod that
prime one product at a time, before each column was packed into one int;
the fixed-precision section keeps the deciding half of the matrix backend
as it ran on numpy float arrays, before one class on lists of rows served
both modes; the homomorphisms section keeps the hom classes as
they were before orbits were taken under Inn(H) on generator images, and
`conjugate_hom`, which conjugates a hom one image at a time, as every
orbit member was built before an orbit became one gather over the
conjugation maps, and the homomorphism test on all |G|^2 products of
pairs, before `extend_hom` checked a map from its generator images; the
localization section keeps the right
multiplicative system checker as it searched before a category indexed
its arrows, every Ore square by a scan over pairs of arrows.
"""

from __future__ import annotations

from itertools import compress, product
from operator import mul, sub

import numpy as np


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


def reference_validate(G, bad_rows):
    """`FiniteGroup._validate` as it ran before a passing table's columns
    were proved rather than scanned: every column's entries counted first,
    then the first bad row or column named, then the two-sided inverses,
    then Light's test.  Patched in as the method, it gives the old order's
    messages."""
    from operator import itemgetter

    from orbicalc.errors import ValidationError
    from orbicalc.groups import _right_generators, gather

    T, n, e = G.table, G.order, G.identity
    cols = [len(set(map(itemgetter(c), T))) != n for c in range(n)]
    for g, (bad_row, bad_col) in enumerate(zip(bad_rows, cols)):
        if bad_row or bad_col:
            kind = "row" if bad_row else "column"
            raise ValidationError(f"{kind} {g} is not a permutation")
    for g, h in enumerate(G.inverses()):
        if T[h][g] != e:
            raise ValidationError(f"element {g} has no two-sided inverse")
    for g in _right_generators(T, e):
        times_g = gather(T[g])
        for x, row in enumerate(T):
            xg_y, x_gy = T[row[g]], times_g(row)
            if xg_y != x_gy:
                c = next(c for c, (a, b) in enumerate(zip(xg_y, x_gy)) if a != b)
                raise ValidationError(f"associativity fails at {(x, g, c)}")


def sparse_columns(A, cols):
    """The nonzero entries of each of the `cols` columns of A, as row -> coefficient."""
    out = [{} for _ in range(cols)]
    for i, row in enumerate(A):
        for j in compress(range(cols), row):
            out[j][i] = int(row[j])
    return out


def complex_from_simplices(simplices):
    """Chain complex of a simplicial complex given by its maximal (or all)
    simplices on integer vertices; faces are closed over automatically."""
    from orbicalc.snf import ChainComplex

    by_dim = {}

    def add(s):
        d = len(s) - 1
        if s in by_dim.setdefault(d, set()):
            return
        by_dim[d].add(s)
        if d > 0:
            for i in range(len(s)):
                add(s[:i] + s[i + 1 :])

    for s in simplices:
        add(tuple(sorted(set(s))))
    top = max(by_dim)
    ordered = [sorted(by_dim.get(d, ())) for d in range(top + 1)]
    index = [{s: i for i, s in enumerate(level)} for level in ordered]
    ranks = tuple(len(level) for level in ordered)
    columns = [None]
    for p in range(1, top + 1):
        at = index[p - 1]
        # The faces of a simplex are distinct, so no coefficient cancels.
        columns.append([
            {at[s[:i] + s[i + 1 :]]: (-1) ** i for i in range(len(s))}
            for s in ordered[p]
        ])
    return ChainComplex(ranks=ranks, columns=columns)


# -- Smith normal form by the dense loop ---------------------------------------------


def reference_smith_normal_form(A):
    """Invariant factors d_1 | d_2 | ... (nonzero diagonal of the SNF), by
    the dense loop: a least-magnitude pivot swapped to the diagonal, its row
    and column reduced until clear, then a row added wherever the pivot
    does not divide the block that is left."""
    M = [list(map(int, row)) for row in A]
    rows = len(M)
    cols = len(M[0]) if rows else 0
    diag = []
    t = 0
    while t < min(rows, cols):
        # Find a minimal nonzero pivot in the remaining block.
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if M[i][j] != 0 and (best is None or abs(M[i][j]) < abs(M[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        M[t], M[bi] = M[bi], M[t]
        for r in M:
            r[t], r[bj] = r[bj], r[t]
        # Reduce row and column against the pivot until both are clear.
        while True:
            pivot = M[t][t]
            done = True
            for i in range(t + 1, rows):
                if M[i][t] % pivot != 0:
                    q = M[i][t] // pivot
                    M[i] = [a - q * b for a, b in zip(M[i], M[t])]
                    M[t], M[i] = M[i], M[t]
                    done = False
                    break
            if not done:
                continue
            for i in range(t + 1, rows):
                q = M[i][t] // pivot
                if q:
                    M[i] = [a - q * b for a, b in zip(M[i], M[t])]
            for j in range(t + 1, cols):
                if M[t][j] % pivot != 0:
                    q = M[t][j] // pivot
                    for r in M:
                        r[j] -= q * r[t]
                    for r in M:
                        r[t], r[j] = r[j], r[t]
                    done = False
                    break
            if not done:
                continue
            for j in range(t + 1, cols):
                q = M[t][j] // pivot
                if q:
                    for r in M:
                        r[j] -= q * r[t]
            break
        # Enforce divisibility towards the lower-right block.
        pivot = M[t][t]
        fixed = False
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if M[i][j] % pivot != 0:
                    M[t] = [a + b for a, b in zip(M[t], M[i])]
                    fixed = True
                    break
            if fixed:
                break
        if fixed:
            continue
        diag.append(abs(pivot))
        t += 1
    return diag


# -- character tables: the numpy pipeline -------------------------------------------
#
# The Dixon-Schneider table as it ran on numpy int64 arrays: class-sum
# matrices by one bincount per class over the whole multiplication table,
# eigenspaces mod p vectorized, eigenvalue multiplicities by a discrete
# Fourier inversion mod p, and the orthogonality folds and reductions mod
# Phi_e as array products.  Matrices are arrays here, columns are vectors.


def np_rref_mod(A, p):
    """Reduced row echelon form mod p; returns (R, pivot column list)."""
    R = np.array(A, dtype=np.int64) % p
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.flatnonzero(R[r:, c])
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            R[[r, i]] = R[[i, r]]
        R[r] = (R[r] * pow(int(R[r, c]), p - 2, p)) % p
        f = R[:, c].copy()
        f[r] = 0
        R[:, c:] -= np.outer(f, R[r, c:])
        R[:, c:] %= p
        pivots.append(c)
        r += 1
    return R, pivots


def np_nullspace_mod(A, p):
    """Columns form a basis of the kernel of A mod p."""
    A = np.asarray(A)
    R, pivots = np_rref_mod(A, p)
    cols = A.shape[1]
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = np.zeros((cols, len(free)), dtype=np.int64)
    basis[free, range(len(free))] = 1
    basis[pivots] = (-R[: len(pivots), free]) % p
    return basis


def np_solve_columns(B, C, p):
    """Solve B @ X = C mod p where B has full column rank and a solution exists."""
    k = B.shape[1]
    R, pivots = np_rref_mod(np.concatenate([B, C], axis=1) % p, p)
    if pivots[:k] != list(range(k)) or len(pivots) != k:
        raise ValueError("np_solve_columns: no unique solution")
    return R[:k, k:]


def np_hessenberg_mod(A, p):
    """(H, S) with H upper Hessenberg and A = S H S^-1 mod p."""
    H = np.array(A, dtype=np.int64) % p
    k = H.shape[0]
    S = np.eye(k, dtype=np.int64)
    for c in range(k - 2):
        nz = np.flatnonzero(H[c + 1 :, c])
        if nz.size == 0:
            continue
        i = c + 1 + int(nz[0])
        if i != c + 1:
            H[[c + 1, i]] = H[[i, c + 1]]
            H[:, [c + 1, i]] = H[:, [i, c + 1]]
            S[:, [c + 1, i]] = S[:, [i, c + 1]]
        u = (H[c + 2 :, c] * pow(int(H[c + 1, c]), p - 2, p)) % p
        H[c + 2 :] = (H[c + 2 :] - np.outer(u, H[c + 1])) % p
        H[:, c + 1] = (H[:, c + 1] + H[:, c + 2 :] @ u) % p
        S[:, c + 1] = (S[:, c + 1] + S[:, c + 2 :] @ u) % p
    return H, S


def np_charpoly_mod(A, p):
    """det(xI - A) mod p, coefficients from x^k down to x^0, by the
    recurrence over the leading principal blocks of A's Hessenberg form."""
    H = np_hessenberg_mod(A, p)[0]
    k = H.shape[0]
    P = [np.ones(1, dtype=np.int64)]
    for m in range(k):
        nxt = np.append(P[m], 0)
        nxt[1:] -= int(H[m, m]) * P[m]
        t = 1
        for i in range(m - 1, -1, -1):
            t = t * int(H[i + 1, i]) % p
            if t == 0:
                break
            nxt[m - i + 1 :] -= (int(H[i, m]) * t % p) * P[i]
        P.append(nxt % p)
    return P[k]


def np_roots_mod(coeffs, p):
    """The roots in GF(p), ascending: Horner's rule at every x at once."""
    x = np.arange(p, dtype=np.int64)
    val = np.zeros(p, dtype=np.int64)
    for c in coeffs:
        val = (val * x + int(c)) % p
    return np.flatnonzero(val == 0).tolist()


def reference_eigenspaces(A, p):
    """Bases of the eigenspaces of A mod p as columns: one nullspace per
    root of the characteristic polynomial, roots ascending."""
    A = np.array(A, dtype=np.int64) % p
    eye = np.eye(len(A), dtype=np.int64)
    return [np_nullspace_mod((A - lam * eye) % p, p) for lam in np_roots_mod(np_charpoly_mod(A, p), p)]


def np_reduce_rows(order, raw):
    """Reduce every coefficient vector over 1, zeta, ..., zeta^(order-1)
    (the last axis of an integer array) mod Phi_order, as one product with
    the matrix of the reduced powers of zeta, on Python integers."""
    from orbicalc.cyclotomic import _reduced_powers

    R = np.array(_reduced_powers(order), dtype=object)
    return np.asarray(raw).astype(object) @ R


def np_orthogonality_fold(W, weights):
    """acc[x, y] = sum_g weights[g] sum_{a, b} W[g, x, a] W[g, y, b] zeta^(a - b),
    as r x r coefficient vectors mod x^e - 1, one rolled einsum per power
    of zeta.  W indexed (class, character) with class sizes as weights
    gives the row sums; (character, class) with unit weights the column sums."""
    r, _, e = W.shape
    Wc = W[:, :, (-np.arange(e)) % e]
    Ww = W * np.asarray(weights)[:, None, None]
    acc = np.zeros((r, r, e), dtype=np.int64)
    for a in range(e):
        acc += np.roll(np.einsum("gx,gyb->xyb", Ww[:, :, a], Wc), a, axis=2)
    return acc


def reference_table(G):
    """(degrees, values as coefficient tuples, indicators, multiplicities)
    of G's character table, rows in the library's order, computed the way
    the numpy pipeline did; multiplicities[t, i, k] is that of zeta^k in
    rho_t(z_i)."""
    from math import isqrt

    from orbicalc.characters import _find_prime, _primitive_root
    from orbicalc.groups import class_index_map, conjugacy_classes

    classes, class_of = conjugacy_classes(G), class_index_map(G)
    r, n, e = len(classes), G.order, G.exponent()
    reps = [c[0] for c in classes]
    sizes = np.array([len(c) for c in classes], dtype=np.int64)
    ident = class_of[G.identity]
    inv_class = [class_of[G.inv(z)] for z in reps]
    p = _find_prime(e, n)

    T = np.array(G.table, dtype=np.int64)
    cls = np.array(class_of, dtype=np.int64)
    mats = np.empty((r, r, r), dtype=np.int64)
    for i, C in enumerate(classes):
        keys = cls * r + cls[T[list(C)]]
        mats[i] = np.bincount(keys.ravel(), minlength=r * r).reshape(r, r)
    assert not np.any(mats % sizes)
    mats = (mats // sizes) % p

    subspaces = [np.eye(r, dtype=np.int64)]
    for i in range(r):
        if i == ident or all(B.shape[1] == 1 for B in subspaces):
            continue
        nxt = []
        for B in subspaces:
            if B.shape[1] == 1:
                nxt.append(B)
                continue
            X = np_solve_columns(B, (mats[i] @ B) % p, p)
            spaces = reference_eigenspaces(X, p)
            assert sum(K.shape[1] for K in spaces) == B.shape[1]
            nxt.extend((B @ K) % p for K in spaces)
        subspaces = nxt
    assert all(B.shape[1] == 1 for B in subspaces)

    sizes_inv = [pow(int(s), p - 2, p) for s in sizes]
    degrees, chi_mod = [], []
    for B in subspaces:
        v = B[:, 0] % p
        v = (v * pow(int(v[ident]), p - 2, p)) % p
        s = sum(int(v[i]) * int(v[inv_class[i]]) * sizes_inv[i] for i in range(r)) % p
        d2 = n * pow(s, p - 2, p) % p
        d = isqrt(d2)
        assert d * d == d2 and d > 0
        degrees.append(d)
        chi_mod.append([d * int(v[i]) * sizes_inv[i] % p for i in range(r)])

    power_class = np.zeros((r, e), dtype=np.int64)
    for i in range(r):
        x = G.identity
        for j in range(e):
            power_class[i, j] = class_of[x]
            x = G.table[x][reps[i]]
    z = 1 if e == 1 else pow(_primitive_root(p), (p - 1) // e, p)
    Z = np.array([[pow(z, (-j * k) % (p - 1), p) for k in range(e)] for j in range(e)],
                 dtype=np.int64)
    mults = np.zeros((r, r, e), dtype=np.int64)
    for t, cm in enumerate(chi_mod):
        M = (np.array(cm, dtype=np.int64)[power_class] @ Z) % p * pow(e, p - 2, p) % p
        assert M.max() <= max(degrees) and (M.sum(axis=1) == degrees[t]).all()
        mults[t] = M

    values = [tuple(tuple(c) for c in np_reduce_rows(e, m).tolist()) for m in mults]
    order = sorted(range(r), key=lambda t: (degrees[t], values[t]))
    mults = mults[order]
    squares = [class_of[G.table[z][z]] for z in reps]
    sums = np_reduce_rows(e, sizes @ mults[:, squares])
    assert not sums[:, 1:].any() and not (sums[:, 0] % n).any()
    indicators = tuple(int(nu) // n for nu in sums[:, 0])
    return tuple(degrees[t] for t in order), [values[t] for t in order], indicators, mults


# -- character tables: the exact fold ------------------------------------------------


def orthogonality_fold(W, sizes, e):
    """Both orthogonality sums of every pair s <= t, in one flat list with
    2e slots per pair, pairs in row-major order: slots 0..e-1 hold
    sum_i |C_i| chi_s(i) conj(chi_t(i)) and slots e..2e-1 hold
    sum_u chi_u(s) conj(chi_u(t)), as coefficients of 1, zeta, ...,
    zeta^(e-1).  The pairs t < s would be their complex conjugates.

    W[t][i] lists the (k, m) with zeta^k an eigenvalue of rho_t(z_i) of
    multiplicity m.  A row of W is folded in layers: layer l holds each
    entry's l-th pair, or (0, 0) past its end, so a linear character is
    one layer, and two layers fold in one pass over their entries.
    """

    def layers(row, weights):
        return [
            ([x[l][0] if l < len(x) else 0 for x in row],
             list(map(mul, weights, [x[l][1] if l < len(x) else 0 for x in row])))
            for l in range(max(map(len, row)))
        ]

    def fold(xs, ys):
        slots = [0] * e  # indexed by a - b in (-e, e), which wraps mod e
        for a, m in xs:
            for b, n in ys:
                for k, c in zip(map(sub, a, b), map(mul, m, n)):
                    slots[k] += c
        return slots

    ones = [1] * len(W)
    rows, weighted = [layers(row, ones) for row in W], [layers(row, sizes) for row in W]
    columns = [layers(col, ones) for col in zip(*W)]
    acc = []
    for s in range(len(W)):
        for t in range(s, len(W)):
            acc += fold(weighted[s], rows[t]) + fold(columns[s], columns[t])
    return acc


def reduce_blocks(order, flat):
    """Reduce mod Phi_order, in place, every block of `order` coefficients
    over 1, zeta, ..., zeta^(order-1) in a flat list, and return the list.
    One synthetic division serves every block: each exponent column from
    the top down is folded into the columns below it.  The first
    phi(order) slots of each block then hold its reduced coordinates, as
    `CycInt` stores them."""
    from orbicalc.cyclotomic import cyclotomic_polynomial

    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    for a in range(order - 1, deg - 1, -1):
        top = flat[a::order]
        multiples = {f: top if f == 1 else [f * c for c in top] for f in set(phi[:-1]) if f}
        # zeta^a = -zeta^(a - deg) (phi_0 + phi_1 zeta + ... + phi_(deg-1) zeta^(deg-1)).
        for b, f in enumerate(phi[:-1], a - deg):
            if f:
                flat[b::order] = map(sub, flat[b::order], multiples[f])
    return flat


def reference_dots(x, ys, q):
    """sum_i x_i y_i mod q for every y in ys: one pair's sum each, one
    product at a time."""
    return [sum(map(mul, x, y)) % q for y in ys]


def reference_indicators(ct):
    """ct's Frobenius-Schur indicators as they were computed before they
    were proved mod a prime: the multiplicities at the square classes,
    weighted by class size, summed over Z and reduced mod Phi_e in one
    batch; None when a sum is no multiple of |G| in Z, or out of range."""
    from orbicalc.cyclotomic import cyclotomic_polynomial
    from orbicalc.groups import class_index_map

    G, r, e = ct.group, ct.num_classes, ct.exponent
    class_of = class_index_map(G)
    squares = [class_of[G.table[c[0]][c[0]]] for c in ct.classes]
    flat = [0] * (r * e)
    for t, row in enumerate(ct._mults):
        for size, i in zip(ct.class_sizes, squares):
            for a, m in row[i]:
                flat[t * e + a] += size * m
    reduce_blocks(e, flat)
    deg = len(cyclotomic_polynomial(e)) - 1
    sums = [flat[t * e : t * e + deg] for t in range(r)]
    if any(any(s[1:]) or s[0] % G.order for s in sums):
        return None
    indicators = tuple(s[0] // G.order for s in sums)
    return indicators if all(nu in (-1, 0, 1) for nu in indicators) else None


def fold_verdict(ct):
    """The relation ("row" or "column") the fold and one batch reduction
    mod Phi_e find broken in ct's multiplicities, rows first, or None."""
    from orbicalc.cyclotomic import cyclotomic_polynomial

    n, r, e = ct.group.order, ct.num_classes, ct.exponent
    acc = reduce_blocks(e, orthogonality_fold(ct._mults, ct.class_sizes, e))
    deg = len(cyclotomic_polynomial(e)) - 1
    pairs = [(s, t) for s in range(r) for t in range(s, r)]
    centralizers = [n // c for c in ct.class_sizes]
    for word, offset, diagonal in (("row", 0, [n] * r), ("column", e, centralizers)):
        for q, (s, t) in enumerate(pairs):
            start = 2 * e * q + offset
            if acc[start : start + deg] != [diagonal[s] if s == t else 0] + [0] * (deg - 1):
                return word
    return None


# -- fixed-precision matrices on numpy arrays -----------------------------------------


class ReferenceFixed:
    """The fixed-precision backend as it ran on float arrays: the same rule
    (an error counts as zero when it is at most tolerance * max(1, largest
    absolute entry of the operands)), with numpy's overflow and invalid
    warnings silenced.  Only the methods that decide are kept.  Its bound
    takes the largest entry of each operand with `max`, which keeps a NaN
    only when it comes first."""

    def __init__(self, tolerance: float):
        self.np = np
        self.tolerance = tolerance

    def _quiet(self):
        """Overflow and invalid values warn of nothing: the rule decides."""
        return self.np.errstate(over="ignore", invalid="ignore")

    def _bound(self, *operands) -> float:
        np = self.np
        largest = max(float(np.abs(X).max(initial=0.0)) for X in operands)
        return self.tolerance * max(1.0, largest) if largest < np.inf else np.nan

    def matrix(self, rows):
        return self.np.array(rows, dtype=float)

    def close(self, A, B) -> bool:
        with self._quiet():
            return self.is_zero(A - B, A, B)

    def is_zero(self, A, *operands) -> bool:
        return bool(self.np.abs(A).max(initial=0.0) <= self._bound(A, *operands))

    def integer(self, x):
        """The integer nearest x, or None when x is farther from it than the rule allows."""
        m = round(float(x)) if self.np.isfinite(x) else 0  # the bound refuses a non-finite x
        return m if abs(x - m) <= self._bound(x) else None

    def rank(self, A, *operands) -> int:
        return len(self.column_basis(A, *operands))

    def column_basis(self, A, *operands) -> list[list[float]]:
        """The pivot columns of A, found by elimination with partial
        pivoting; a pivot within the rule's bound counts as zero."""
        np = self.np
        A = np.asarray(A, dtype=float)
        bound = self._bound(A, *operands)
        work = A.copy()
        pivots: list[int] = []
        with self._quiet():
            for c in range(A.shape[1]):
                r = len(pivots)
                if r == A.shape[0]:
                    break
                p = r + int(np.argmax(np.abs(work[r:, c])))
                if abs(work[p, c]) <= bound:
                    continue
                work[[r, p]] = work[[p, r]]
                work[r + 1 :] -= np.outer(work[r + 1 :, c] / work[r, c], work[r])
                pivots.append(c)
        return [A[:, c].tolist() for c in pivots]


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


def reference_irrep_bijection(K, K2, alpha):
    """sigma -> sigma' with char(sigma') . alpha = char(sigma), found by
    scanning every irrep of K2 for each irrep of K; None for an irrep of K
    with no match."""
    from orbicalc.groups import class_index_map, conjugacy_classes
    from orbicalc.realreps import real_irreps

    cls2 = class_index_map(K2)
    out = []
    for sigma in real_irreps(K).entries:
        target = None
        for tau in real_irreps(K2).entries:
            if tau.real_dim != sigma.real_dim or tau.end_type != sigma.end_type:
                continue
            if all(tau.char[cls2[alpha[cls[0]]]] == sigma.char[i]
                   for i, cls in enumerate(conjugacy_classes(K))):
                target = tau.index
                break
        out.append(target)
    return tuple(out)


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
        from orbicalc.homs import class_of_hom, rep_hom_classes
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


def conjugate_hom(H, phi, h):
    """h phi h^-1, one image at a time."""
    cm = H.conj_maps()[h]
    return tuple(cm[x] for x in phi)


def reference_is_homomorphism(G, H, phi):
    """phi(ab) = phi(a) phi(b) on all |G|^2 pairs, for an image array of length |G|."""
    t, s = G.table, H.table
    return len(phi) == G.order and all(
        phi[t[a][b]] == s[phi[a]][phi[b]]
        for a in range(G.order)
        for b in range(G.order)
    )


def reference_hom_classes(G, H):
    """Conjugation orbits of Hom(G, H), each full image tuple conjugated by
    every element of H."""
    from orbicalc.errors import InternalCheckError
    from orbicalc.homs import HomClass, enumerate_homs

    homs = enumerate_homs(G, H)
    remaining = set(homs)
    classes = []
    for phi in homs:
        if phi not in remaining:
            continue
        orbit = {conjugate_hom(H, phi, h) for h in range(H.order)}
        remaining -= orbit
        # enumerate_homs is sorted, so phi is the least member of its orbit.
        image = set(phi)
        cls = HomClass(
            representative=phi,
            injective=len(image) == G.order,
            orbit_size=len(orbit),
            # |Z_H(im rep)|, counted without building the subgroup class.
            centralizer_order=sum(all(cm[s] == s for s in image) for cm in H.conj_maps()),
        )
        if cls.orbit_size * cls.centralizer_order != H.order:
            raise InternalCheckError("orbit-stabilizer fails for a hom class")
        classes.append(cls)
    return classes


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


def reference_rms_failures(C, W):
    """The failures of `check_right_multiplicative`, as its loops found them
    before arrows were indexed: each Ore cospan searches every pair (f, w')
    over every object, and each cancellability witness every object's
    arrows into x."""
    W = set(W)
    failures = []

    W_sorted = sorted(W)
    for x in C.objects:
        if C.identity(x) not in W:
            failures.append({"axiom": "identities", "object": x})
    for a in W_sorted:
        for b in W_sorted:
            if C.arrows[a].dst == C.arrows[b].src:
                if C.compose(a, b) not in W:
                    failures.append(
                        {"axiom": "closure", "first": a, "then": b,
                         "composite": C.compose(a, b)}
                    )

    for u in C.arrows.values():
        for w_name in W_sorted:
            w = C.arrows[w_name]
            if w.dst != u.dst:
                continue
            found = False
            for a_obj in C.objects:
                for f in C.hom(a_obj, w.src):
                    for wp in C.hom(a_obj, u.src):
                        if wp not in W:
                            continue
                        if C.compose(f, w_name) == C.compose(wp, u.name):
                            found = True
                            break
                    if found:
                        break
                if found:
                    break
            if not found:
                failures.append(
                    {"axiom": "ore", "cospan": {"map": u.name, "w": w_name}}
                )

    for w_name in W_sorted:
        w = C.arrows[w_name]
        for x in C.objects:
            homs = C.hom(x, w.src)
            for i, f in enumerate(homs):
                for g in homs[i + 1 :]:
                    if C.compose(f, w_name) != C.compose(g, w_name):
                        continue
                    found = False
                    for a_obj in C.objects:
                        for wp in C.hom(a_obj, x):
                            if wp in W and C.compose(wp, f) == C.compose(wp, g):
                                found = True
                                break
                        if found:
                            break
                    if not found:
                        failures.append(
                            {"axiom": "cancellability",
                             "parallel": [f, g], "w": w_name}
                        )
    return failures


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


# -- matrix representations ---------------------------------------------------------


def _permutation_matrices(perms):
    """Per permutation p, the 0/1 matrix sending basis vector x to p[x]."""
    return [[[int(p[x] == y) for x in range(len(p))] for y in range(len(p))] for p in perms]


def regular_rep(G):
    """Left regular representation by permutation matrices (exact)."""
    from orbicalc.realreps import MatrixRep

    return MatrixRep(G, _permutation_matrices(G.table), exact=True, validate=False)


def permutation_rep(G, perms):
    """Representation from an action: perms[g] is the permutation of g."""
    from orbicalc.realreps import MatrixRep

    return MatrixRep(G, _permutation_matrices(perms), exact=True)


def one_dim_rep(G, values):
    from fractions import Fraction

    from orbicalc.realreps import MatrixRep

    return MatrixRep(G, [[[Fraction(v)]] for v in values], exact=True)


def direct_sum(a, b):
    """Block sum; exact only when both summands are."""
    from orbicalc._linalg import EXACT, Fixed
    from orbicalc.errors import ValidationError
    from orbicalc.realreps import MatrixRep

    if a.group is not b.group:
        raise ValidationError("direct sum needs representations of one group")
    tolerance = max(a.tolerance, b.tolerance)
    la = EXACT if a.exact and b.exact else Fixed(tolerance)
    zero = la.scalar(0)
    mats = []
    for x, y in zip(a.matrices, b.matrices):
        A, B = la.matrix(x), la.matrix(y)
        mats.append([r + [zero] * len(B) for r in A] + [[zero] * len(A) + r for r in B])
    return MatrixRep(a.group, mats, exact=la is EXACT, tolerance=tolerance, validate=False)
