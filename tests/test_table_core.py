"""The character table's core: characteristic polynomials mod p, the
exact orthogonality fold, the batched cyclotomic reduction, the self-checks
of the table, each made to fire, the whole table against the numpy
pipeline it replaced, and a group of order 660."""

import random
from itertools import permutations

import numpy as np
import pytest

from orbicalc import characters
from orbicalc._modlinalg import hessenberg_charpoly, hessenberg_mod, nullspace_mod, roots_mod
from orbicalc.characters import (
    CharacterTable,
    character_table,
    eigenvalue_multiplicities,
    frobenius_schur,
    orthogonality_fold,
)
from orbicalc.corpus import corpus_group, corpus_names
from orbicalc.cyclotomic import CycInt, cyclotomic_polynomial, reduce_blocks
from orbicalc.errors import InternalCheckError
from orbicalc.groups import group_from_generators, trivial_group

from .helpers import np_charpoly_mod, np_orthogonality_fold, reference_table
from .test_table_bytes import BUILT

PRIMES = (2, 3, 13, 61, 181)


def _sign(perm):
    s, seen = 1, set()
    for i in range(len(perm)):
        if i in seen:
            continue
        j, length = i, 0
        while j not in seen:
            seen.add(j)
            j = perm[j]
            length += 1
        s *= (-1) ** (length - 1)
    return s


def leibniz_det_mod(M, p):
    k = len(M)
    total = 0
    for perm in permutations(range(k)):
        term = _sign(perm)
        for i in range(k):
            term *= int(M[i][perm[i]])
        total += term
    return total % p


def charpoly(A, p):
    return hessenberg_charpoly(hessenberg_mod(A, p)[0], p)


def scanned_eigenvalues(A, p):
    """The old search: every lambda in GF(p) with a nonzero kernel."""
    k = len(A)
    return [
        lam for lam in range(p)
        if nullspace_mod([[(x - lam * (i == j)) % p for j, x in enumerate(row)]
                          for i, row in enumerate(A)], p)[0]
    ]


def _matrices(rng, p):
    """Random, sparse, diagonal and triangular k x k matrices mod p for
    k = 1..8, and a cyclic shift for k > 1, as lists of rows."""
    for k in range(1, 9):
        def entry():
            return rng.randrange(p)

        yield [[entry() for _ in range(k)] for _ in range(k)]
        yield [[entry() if rng.random() < 0.25 else 0 for _ in range(k)] for _ in range(k)]
        yield [[entry() if i == j else 0 for j in range(k)] for i in range(k)]
        yield [[entry() if i <= j else 0 for j in range(k)] for i in range(k)]
        if k > 1:
            yield [[int(i == (j + 1) % k) for j in range(k)] for i in range(k)]


@pytest.mark.parametrize("p", PRIMES)
def test_charpoly_agrees_with_leibniz_and_the_eigenvalue_scan(p):
    for A in _matrices(random.Random(p), p):
        k = len(A)
        f = charpoly(A, p)
        assert len(f) == k + 1 and f[0] == 1
        assert f == np_charpoly_mod(A, p).tolist()
        if k <= 5:
            for lam in range(min(p, 40)):
                M = [[(lam * (i == j) - x) % p for j, x in enumerate(row)] for i, row in enumerate(A)]
                horner = 0
                for c in f:
                    horner = (horner * lam + c) % p
                assert horner == leibniz_det_mod(M, p), (A, lam)
        assert roots_mod(f, p) == scanned_eigenvalues(A, p), A


def test_charpoly_of_a_companion_matrix():
    p = 61
    coeffs = [1, 5, 0, 60, 7, 3]  # x^5 + 5x^4 - x^2 + 7x + 3
    k = len(coeffs) - 1
    C = [[int(i == j + 1) for j in range(k)] for i in range(k)]
    for i, c in enumerate(reversed(coeffs[1:])):
        C[i][-1] = (-c) % p
    assert charpoly(C, p) == coeffs


def dense_multiplicities(ct):
    """ct's multiplicities as an r x r x e array, [t, i, k] for zeta^k in rho_t(z_i)."""
    r, e = ct.num_classes, ct.exponent
    V = np.zeros((r, r, e), dtype=np.int64)
    for t, row in enumerate(ct._mults):
        for i, terms in enumerate(row):
            for k, m in terms:
                V[t, i, k] += m
    return V


@pytest.mark.parametrize("name", corpus_names())
def test_sparse_folds_equal_the_dense_folds(name):
    """The flat fold holds, for every pair s <= t, the row and the column
    sums the numpy pipeline folded into two r x r x e arrays."""
    ct = character_table(corpus_group(name))
    r, e = ct.num_classes, ct.exponent
    V = dense_multiplicities(ct)
    rows = np_orthogonality_fold(V.transpose(1, 0, 2), ct.class_sizes)
    cols = np_orthogonality_fold(V, np.ones(r, dtype=np.int64))
    acc = orthogonality_fold(ct._mults, ct.class_sizes, e)
    pairs = [(s, t) for s in range(r) for t in range(s, r)]
    assert len(acc) == 2 * e * len(pairs)
    for q, (s, t) in enumerate(pairs):
        assert acc[2 * e * q : 2 * e * q + e] == rows[s, t].tolist()
        assert acc[2 * e * q + e : 2 * e * (q + 1)] == cols[s, t].tolist()


@pytest.mark.parametrize("order", [1, 2, 5, 12, 30, 59, 60, 105, 330])
def test_batched_reduction_equals_cycint(order):
    rng = random.Random(order)
    raw = [[rng.randrange(-1000, 1000) for _ in range(order)] for _ in range(7)]
    raw[0] = [0] * order
    deg = len(cyclotomic_polynomial(order)) - 1
    flat = reduce_blocks(order, [c for row in raw for c in row])
    for q, row in enumerate(raw):
        assert tuple(flat[q * order : q * order + deg]) == CycInt(order, tuple(row)).coeffs


def test_batched_reduction_stays_exact_past_int64():
    # zeta^3 + zeta^4 + zeta^5 = -2 zeta for zeta of order 6: the result
    # leaves the int64 range although every input is inside it.
    c = 3 * 2**61
    out = tuple(reduce_blocks(6, [0, 0, 0, c, c, c])[:2])
    assert out == CycInt(6, (0, 0, 0, c, c, c)).coeffs == (0, -2 * c)


def _psl2_11():
    """PSL(2, 11) on the projective line over GF(11), infinity = 11."""
    inf = 11

    def moebius(a, b, c, d):
        img = []
        for x in range(12):
            if x == inf:
                img.append(inf if c == 0 else a * pow(c, -1, 11) % 11)
            else:
                den = (c * x + d) % 11
                img.append(inf if den == 0 else (a * x + b) * pow(den, -1, 11) % 11)
        return img

    return group_from_generators(12, [moebius(1, 1, 0, 1), moebius(0, 10, 1, 0)])


def test_psl2_11_character_table():
    G = _psl2_11()
    assert G.order == 660
    ct = character_table(G)
    assert ct.degrees == (1, 5, 5, 10, 10, 11, 12, 12)
    assert [frobenius_schur(ct, t) for t in range(ct.num_classes)] == [1, 0, 0, 1, 1, 1, 1, 1]
    assert sorted(ct.class_sizes) == [1, 55, 60, 60, 110, 110, 132, 132]


@pytest.mark.parametrize("name", ["c5", "s3", "q8", "a4", "dic3"])
def test_verify_rejects_every_single_shifted_eigenvalue(name):
    ct = CharacterTable(corpus_group(name))
    good = ct._mults
    r, e = ct.num_classes, ct.exponent
    for t in range(r):
        for i in range(r):
            shifted = dict(good[t][i])
            a = min(shifted)
            shifted[a] -= 1
            shifted[(a + 1) % e] = shifted.get((a + 1) % e, 0) + 1
            ct._mults = [list(row) for row in good]
            ct._mults[t][i] = tuple(sorted((k, m) for k, m in shifted.items() if m))
            with pytest.raises(InternalCheckError, match="orthogonality"):
                ct._verify()
    ct._mults = good
    ct._verify()


@pytest.mark.parametrize("name", ["c2", "s3", "v4"])
def test_verify_checks_each_relation_on_its_own(monkeypatch, name):
    """One unit added to either sum of any pair is caught, and named by
    the relation it broke."""
    fold = characters.orthogonality_fold
    ct = CharacterTable(corpus_group(name))
    r, e = ct.num_classes, ct.exponent
    pairs = r * (r + 1) // 2
    for offset, word in ((0, "row"), (e, "column")):
        for q in range(pairs):

            def corrupted(W, sizes, e, slot=2 * e * q + offset):
                acc = fold(W, sizes, e)
                acc[slot] += 1
                return acc

            monkeypatch.setattr(characters, "orthogonality_fold", corrupted)
            with pytest.raises(InternalCheckError, match=word + " orthogonality"):
                ct._verify()
    monkeypatch.undo()
    ct._verify()


# C2 x S5 on 2 + 5 points: a swap of the first two, then S5 on the rest.
ORACLE_GROUPS = {
    "c59": BUILT["c59"],
    "s6": BUILT["s6"],
    "c2xs5": (7, [[1, 0, 2, 3, 4, 5, 6], [0, 1, 3, 2, 4, 5, 6], [0, 1, 3, 4, 5, 6, 2]]),
}


@pytest.mark.parametrize("name", ORACLE_GROUPS)
def test_the_table_equals_the_numpy_pipeline(name):
    """Degrees, values, indicators and every eigenvalue multiplicity are
    the ones the numpy pipeline computed."""
    G = group_from_generators(*ORACLE_GROUPS[name], name=name)
    degrees, values, indicators, mults = reference_table(G)
    ct = CharacterTable(G)
    assert ct.degrees == degrees
    assert [tuple(v.coeffs for v in row) for row in ct.values] == values
    assert ct.indicators == indicators
    assert np.array_equal(dense_multiplicities(ct), mults)


# -- each self-check of the table fires ------------------------------------------


def test_a_class_map_not_invariant_under_conjugation_stops_the_table(monkeypatch):
    """The class constants are counted at one element per class, so a class
    map that splits a conjugacy class is refused before they are counted."""
    G = corpus_group("s3")
    true_map = characters.class_index_map(G)
    split = list(true_map)
    big = max(characters.conjugacy_classes(G), key=len)
    split[big[-1]] = len(characters.conjugacy_classes(G))
    monkeypatch.setattr(characters, "class_index_map", lambda G: split)
    with pytest.raises(InternalCheckError, match="not invariant under conjugation"):
        CharacterTable(G)
    monkeypatch.undo()
    assert CharacterTable(G).num_classes == 3


def _patched_eigenspaces(monkeypatch, spaces):
    """Make every split return spaces(k) for a k x k matrix."""
    monkeypatch.setattr(characters, "eigenspaces_mod", lambda X, p: spaces(len(X)))


def test_an_eigenspace_left_unsplit_stops_the_table(monkeypatch):
    whole = lambda k: [([[int(i == j) for j in range(k)] for i in range(k)], list(range(k)))]
    _patched_eigenspaces(monkeypatch, whole)
    with pytest.raises(InternalCheckError, match="joint eigenspaces are not one-dimensional"):
        CharacterTable(corpus_group("c2"))


def test_a_wrong_eigenvector_stops_the_degree_recovery(monkeypatch):
    lines = lambda k: [([[int(i == j) for j in range(k)]], [i]) for i in range(k)]
    _patched_eigenspaces(monkeypatch, lines)
    with pytest.raises(InternalCheckError, match="degree recovery failed"):
        CharacterTable(corpus_group("c2"))


# p = 13 with e = 4: zeta = 5, the 4th roots of unity are 1, 5, 12, 8.
ROOTS = [1, 5, 12, 8]
LOG = {w: k for k, w in enumerate(ROOTS)}


def test_eigenvalue_multiplicities_from_power_sums():
    # rho(z) = diag(zeta, zeta^3), z of order 4: s_1 = 5 + 8, s_2 = 25 + 64.
    assert eigenvalue_multiplicities([0, 89 % 13], 1, ROOTS, LOG, 13) == ((1, 1), (3, 1))
    # diag(1, 1, -1), z of order 2: s_j = 2 + (-1)^j.
    assert eigenvalue_multiplicities([1, 3, 1], 2, ROOTS, LOG, 13) == ((0, 2), (2, 1))
    assert eigenvalue_multiplicities([12], 2, ROOTS, LOG, 13) == ((2, 1),)


def test_an_eigenvalue_that_is_no_root_of_unity_of_the_order_is_out_of_range():
    for sums in ([5], [2]):  # zeta itself for z of order 2, and no root of unity
        with pytest.raises(InternalCheckError, match="multiplicity out of range"):
            eigenvalue_multiplicities(sums, 2, ROOTS, LOG, 13)


def test_a_polynomial_without_enough_roots_does_not_sum_to_the_degree():
    # x^2 + 1 has the roots zeta and zeta^3, which are no square roots of 1.
    with pytest.raises(InternalCheckError, match="do not sum to the degree"):
        eigenvalue_multiplicities([0, 89 % 13], 2, ROOTS, LOG, 13)


def test_an_indicator_that_is_no_integer_stops_the_table():
    ct = CharacterTable(corpus_group("c3"))
    ct._mults = [list(row) for row in ct._mults]
    ct._mults[0][0] = ((1, 1),)  # the trivial character at the identity, made zeta
    with pytest.raises(InternalCheckError, match="indicator is not an integer"):
        ct.indicators


def test_an_indicator_past_one_stops_the_table():
    ct = CharacterTable(trivial_group())
    ct._mults = [[((0, 2),)]]
    with pytest.raises(InternalCheckError, match="indicator out of range: 2"):
        ct.indicators
