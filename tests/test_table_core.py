"""The character table's core: characteristic polynomials mod p, the sparse
exact orthogonality folds, the batched cyclotomic reduction, and a group of
order 660."""

from itertools import permutations

import numpy as np
import pytest

from orbicalc.characters import character_table, frobenius_schur, orthogonality_fold
from orbicalc.corpus import corpus_group, corpus_names
from orbicalc.cyclotomic import CycInt, reduce_rows
from orbicalc.groups import group_from_generators
from orbicalc._modlinalg import charpoly_mod, nullspace_mod, roots_mod

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


def scanned_eigenvalues(A, p):
    """The old search: every lambda in GF(p) with a nonzero kernel."""
    k = len(A)
    return [
        lam for lam in range(p)
        if nullspace_mod((A - lam * np.eye(k, dtype=np.int64)) % p, p).shape[1]
    ]


def _matrices(rng, p):
    for k in range(1, 9):
        yield rng.integers(0, p, size=(k, k))
        sparse = rng.integers(0, p, size=(k, k)) * (rng.random((k, k)) < 0.25)
        yield sparse
        yield np.diag(rng.integers(0, p, size=k))
        yield np.triu(rng.integers(0, p, size=(k, k)))
        if k > 1:
            yield np.roll(np.eye(k, dtype=np.int64), 1, axis=0)  # a cyclic shift


@pytest.mark.parametrize("p", PRIMES)
def test_charpoly_agrees_with_leibniz_and_the_eigenvalue_scan(p):
    rng = np.random.default_rng(p)
    for A in _matrices(rng, p):
        k = len(A)
        f = charpoly_mod(A, p)
        assert len(f) == k + 1 and f[0] == 1
        if k <= 5:
            for lam in range(min(p, 40)):
                M = (lam * np.eye(k, dtype=np.int64) - A) % p
                horner = 0
                for c in f:
                    horner = (horner * lam + int(c)) % p
                assert horner == leibniz_det_mod(M, p), (A, lam)
        assert roots_mod(f, p) == scanned_eigenvalues(A % p, p), A


def test_charpoly_of_a_companion_matrix():
    p = 61
    coeffs = [1, 5, 0, 60, 7, 3]  # x^5 + 5x^4 - x^2 + 7x + 3
    k = len(coeffs) - 1
    C = np.zeros((k, k), dtype=np.int64)
    C[1:, :-1] = np.eye(k - 1, dtype=np.int64)
    C[:, -1] = [(-c) % p for c in reversed(coeffs[1:])]
    assert charpoly_mod(C, p).tolist() == coeffs


def dense_folds(V, sizes):
    """The dense fold the table used before: one rolled einsum per power of zeta."""
    r, _, e = V.shape
    Vc = V[:, :, (-np.arange(e)) % e]
    Vw = V * sizes[None, :, None]
    rows = np.zeros((r, r, e), dtype=np.int64)
    cols = np.zeros((r, r, e), dtype=np.int64)
    for a in range(e):
        rows += np.roll(np.einsum("si,tib->stb", Vw[:, :, a], Vc), a, axis=2)
        cols += np.roll(np.einsum("ti,tjb->ijb", V[:, :, a], Vc), a, axis=2)
    return rows, cols


@pytest.mark.parametrize("name", corpus_names())
def test_sparse_folds_equal_the_dense_folds(name):
    ct = character_table(corpus_group(name))
    sizes = np.array(ct.class_sizes, dtype=np.int64)
    V = ct._mults
    rows = orthogonality_fold(V.transpose(1, 0, 2), sizes)
    cols = orthogonality_fold(V, np.ones(len(sizes), dtype=np.int64))
    old_rows, old_cols = dense_folds(V, sizes)
    assert rows.dtype == cols.dtype == np.int64
    assert np.array_equal(rows, old_rows)
    assert np.array_equal(cols, old_cols)


@pytest.mark.parametrize("order", [1, 2, 5, 12, 30, 59, 60, 105, 330])
def test_batched_reduction_equals_cycint(order):
    rng = np.random.default_rng(order)
    raw = rng.integers(-1000, 1000, size=(7, order))
    raw[0] = 0
    red = reduce_rows(order, raw)
    for row, coords in zip(raw.tolist(), red.tolist()):
        assert tuple(coords) == CycInt(order, tuple(row)).coeffs


def test_batched_reduction_stays_exact_past_int64():
    # zeta^3 + zeta^4 + zeta^5 = -2 zeta for zeta of order 6: the result
    # leaves the int64 range although every input is inside it.
    c = 3 * 2**61
    raw = np.array([[0, 0, 0, c, c, c]], dtype=np.int64)
    out = tuple(reduce_rows(6, raw).tolist()[0])
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
    from orbicalc.characters import CharacterTable
    from orbicalc.errors import InternalCheckError

    ct = CharacterTable(corpus_group(name))
    good = ct._mults.copy()
    r, _, e = good.shape
    for t in range(r):
        for i in range(r):
            a = int(np.flatnonzero(good[t, i])[0])
            ct._mults = good.copy()
            ct._mults[t, i, a] -= 1
            ct._mults[t, i, (a + 1) % e] += 1
            with pytest.raises(InternalCheckError, match="orthogonality"):
                ct._verify()
    ct._mults = good
    ct._verify()


@pytest.mark.parametrize("name", ["c2", "s3", "v4"])
def test_verify_checks_each_relation_on_its_own(monkeypatch, name):
    from orbicalc import characters
    from orbicalc.errors import InternalCheckError

    fold = characters.orthogonality_fold
    ct = characters.CharacterTable(corpus_group(name))
    r = ct.num_classes
    for call, word in ((0, "row"), (1, "column")):
        for s in range(r):
            for t in range(r):
                calls = []

                def corrupted(W, weights, s=s, t=t):
                    acc = fold(W, weights)
                    if len(calls) == call:
                        acc[s, t, 0] += 1
                    calls.append(None)
                    return acc

                monkeypatch.setattr(characters, "orthogonality_fold", corrupted)
                with pytest.raises(InternalCheckError, match=word + " orthogonality"):
                    ct._verify()
