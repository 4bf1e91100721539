"""Eigenspaces mod p read off one Hessenberg form: back-substitution when
the form is unreduced, one nullspace per root otherwise.  Both routes must
span what the per-root nullspaces spanned (the oracle in helpers), a
matrix that is not diagonalizable must still stop the character table,
and the exact check must catch a wrong eigenvector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbicalc import _modlinalg, characters
from orbicalc._modlinalg import eigenspaces_mod, hessenberg_mod, rref_mod, solve_columns
from orbicalc.errors import InternalCheckError
from orbicalc.groups import group_from_generators

from .helpers import reference_eigenspaces
from .test_table_core import PRIMES, _matrices


def assert_same_eigenspaces(A, p):
    new, old = eigenspaces_mod(A, p), reference_eigenspaces(A, p)
    assert len(new) == len(old)
    for K, L in zip(new, old):
        assert K.shape == L.shape
        assert np.array_equal(rref_mod(K.T, p)[0], rref_mod(L.T, p)[0])
    return new


def _spy_nullspaces(monkeypatch):
    calls = []
    nullspace = _modlinalg.nullspace_mod

    def counted(A, p):
        calls.append(len(A))
        return nullspace(A, p)

    monkeypatch.setattr(_modlinalg, "nullspace_mod", counted)
    return calls


@pytest.mark.parametrize("p", PRIMES)
def test_eigenspaces_equal_the_per_root_nullspaces(p):
    rng = np.random.default_rng(p)
    for A in _matrices(rng, p):
        assert_same_eigenspaces(A % p, p)


@settings(max_examples=80, deadline=None)
@given(
    p=st.sampled_from([13, 61, 181]),
    k=st.integers(1, 8),
    repeated=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_conjugated_diagonal_matrices_split_into_their_eigenspaces(p, k, repeated, seed):
    """S D S^-1 with distinct or repeated eigenvalues: the eigenspaces are
    the oracle's and together span the whole space."""
    rng = np.random.default_rng(seed)
    if repeated:
        eigenvalues = rng.integers(0, p, size=k) % 3
    else:
        eigenvalues = rng.permutation(p)[:k]
    eye = np.eye(k, dtype=np.int64)
    while True:
        S = rng.integers(0, p, size=(k, k))
        try:
            S_inv = solve_columns(S, eye, p)
            break
        except ValueError:
            continue
    A = (S @ np.diag(eigenvalues) % p @ S_inv) % p
    spaces = assert_same_eigenspaces(A, p)
    assert sum(K.shape[1] for K in spaces) == k
    assert len(spaces) == len(set(eigenvalues.tolist()))


def test_hessenberg_form_is_similar_to_its_input():
    p = 61
    rng = np.random.default_rng(7)
    for A in _matrices(rng, p):
        H, S = hessenberg_mod(A, p)
        assert not np.tril(H, -2).any()
        assert np.array_equal((A @ S) % p, (S @ H) % p)
        assert S[:, 0].tolist() == [1] + [0] * (len(A) - 1)


def test_a_reduced_hessenberg_form_takes_one_nullspace_per_root(monkeypatch):
    p = 13
    A = np.diag([1, 2, 2, 5])  # derogatory: H is A itself, with a zero subdiagonal
    assert not np.diagonal(hessenberg_mod(A, p)[0], -1).all()
    expected = [K.copy() for K in reference_eigenspaces(A, p)]
    calls = _spy_nullspaces(monkeypatch)
    spaces = eigenspaces_mod(A, p)
    assert len(calls) == 3
    assert [K.tolist() for K in spaces] == [K.tolist() for K in expected]


def test_c59s_first_split_is_back_substituted(monkeypatch):
    """C59's class matrices have 59 distinct eigenvalues, so its first
    split ends the search, and takes no nullspace at all."""
    calls = _spy_nullspaces(monkeypatch)
    splits = []
    eigenspaces = characters.eigenspaces_mod

    def recorded(X, p):
        splits.append((X.copy(), p))
        return eigenspaces(X, p)

    monkeypatch.setattr(characters, "eigenspaces_mod", recorded)
    C59 = group_from_generators(59, [[(i + 1) % 59 for i in range(59)]])
    ct = characters.CharacterTable(C59)
    assert ct.degrees == (1,) * 59
    assert calls == [] and len(splits) == 1
    X, p = splits[0]
    assert X.shape == (59, 59) and np.diagonal(hessenberg_mod(X, p)[0], -1).all()
    monkeypatch.undo()
    assert len(assert_same_eigenspaces(X, p)) == 59


@pytest.mark.parametrize("transpose", [False, True], ids=["upper", "lower"])
def test_a_jordan_block_still_stops_the_table(monkeypatch, transpose):
    """A Jordan block has one eigenline; the upper one is already a reduced
    Hessenberg form, the lower one an unreduced one."""

    def jordan(B, C, p):
        k = B.shape[1]
        J = 3 * np.eye(k, dtype=np.int64) + np.eye(k, k, 1, dtype=np.int64)
        return J.T if transpose else J

    monkeypatch.setattr(characters, "solve_columns", jordan)
    C3 = group_from_generators(3, [[1, 2, 0]])
    with pytest.raises(InternalCheckError, match="class matrix not diagonalizable"):
        characters.CharacterTable(C3)


def test_the_exact_check_rejects_a_wrong_transform(monkeypatch):
    hessenberg = _modlinalg.hessenberg_mod

    def skewed(A, p):
        H, S = hessenberg(A, p)
        S = S.copy()
        S[0, -1] = (S[0, -1] + 1) % p
        return H, S

    A = np.roll(np.eye(5, dtype=np.int64), 1, axis=0)  # unreduced, 5 distinct roots mod 61
    assert len(eigenspaces_mod(A, 61)) == 5
    monkeypatch.setattr(_modlinalg, "hessenberg_mod", skewed)
    with pytest.raises(InternalCheckError, match="back-substituted"):
        eigenspaces_mod(A, 61)
