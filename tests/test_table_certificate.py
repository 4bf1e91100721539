"""The character table's exact orthogonality certificate: the second prime
q = 1 mod e above B M_e, the Galois stability of the rows that lets one
root of Phi_e mod q stand for all of them, and the verdicts of `_verify`
on corrupted tables against the exact fold and batch reduction it
replaced."""

import random
from itertools import product
from math import gcd, isqrt

import pytest

from orbicalc import characters
from orbicalc.characters import CharacterTable, _find_prime, _primitive_root
from orbicalc.corpus import corpus_group, corpus_names
from orbicalc.errors import InternalCheckError
from orbicalc.groups import group_from_generators

from .helpers import fold_verdict, poly_reduce
from .test_table_bytes import BUILT


def is_prime(n):
    return n > 1 and all(n % d for d in range(2, isqrt(n) + 1))


def order_mod(g, p):
    k, x = 1, g % p
    while x != 1:
        x, k = x * g % p, k + 1
    return k


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5, 6, 12, 30, 59, 60, 105, 210, 422, 499])
def test_find_prime_and_primitive_root_equal_brute_force(e):
    """The least prime p = 1 mod e above the bound, found by walking every
    integer, and the least g whose powers reach every unit mod p."""
    for bound in (0, 1, 2, 3, 10, 100, 1000, 4321):
        p = bound + 1
        while (p - 1) % e or not is_prime(p):
            p += 1
        assert _find_prime(e, bound) == p, (e, bound)
        assert _primitive_root(p) == next(g for g in range(1, p) if order_mod(g, p) == p - 1)


def _spy(monkeypatch):
    """Record (root, q) at every evaluation `_verify` makes."""
    seen = []
    values_at = characters._values_at

    def spy(entries, root, e, q):
        seen.append((root, q))
        return values_at(entries, root, e, q)

    monkeypatch.setattr(characters, "_values_at", spy)
    return seen


def _groups():
    yield from ((name, corpus_group(name)) for name in corpus_names())
    yield from ((name, group_from_generators(*BUILT[name], name=name)) for name in BUILT)


def test_a_correct_table_is_evaluated_at_one_root_mod_a_prime_above_the_bound(monkeypatch):
    """Every corpus table and the six larger built ones: one root w, for
    both relations, of order e mod a prime q = 1 mod e above B M_e, where
    B = |G| (A^2 + 1), A the largest sum of |multiplicities| in an entry
    and M_e the largest |coefficient| of zeta^k reduced mod Phi_e."""
    seen = _spy(monkeypatch)
    for name, G in _groups():
        seen.clear()
        ct = CharacterTable(G)
        n, e = G.order, ct.exponent
        assert len(seen) == 2 and len(set(seen)) == 1, name
        [(w, q)] = set(seen)
        A = max(sum(abs(m) for _, m in x) for row in ct._mults for x in row)
        M = max(max(map(abs, poly_reduce(e, [0] * k + [1]))) for k in range(e))
        assert is_prime(q) and q % e == 1 % e and q > n * (A * A + 1) * M, name
        assert order_mod(w, q) == e, name


def _corruptions(ct, rng):
    """Random corruptions of ct's multiplicities, each a fresh list of rows:
    a moved eigenvalue, a doubled or negated multiplicity, a Galois twist
    of one entry or one whole row, swaps within a row or a class, and the
    p-th roots of unity times zeta added to one entry, which keeps every
    value and so every relation, but often not the rows' Galois
    stability.  Each kind comes three times."""
    W, r, e = ct._mults, ct.num_classes, ct.exponent
    units = [k for k in range(e) if gcd(k, e) == 1]
    primes = [p for p in range(2, e + 1) if e % p == 0 and is_prime(p)]

    def entry(counts):
        return tuple(sorted((a, m) for a, m in counts.items() if m))

    def twisted(x, k):
        return tuple(sorted((a * k % e, m) for a, m in x))

    for kind in list(range(7)) * 3:
        V = [list(row) for row in W]
        t, i, u, j = (rng.randrange(r) for _ in range(4))
        counts = dict(V[t][i])
        a = rng.choice(sorted(counts))
        if kind == 0:
            counts[a] -= 1
            b = rng.randrange(e)
            counts[b] = counts.get(b, 0) + 1
            V[t][i] = entry(counts)
        elif kind == 1:
            counts[a] *= rng.choice((2, -1))
            V[t][i] = entry(counts)
        elif kind == 2:
            V[t][i] = twisted(V[t][i], rng.choice(units))
        elif kind == 3:
            k = rng.choice(units)
            V[t] = [twisted(x, k) for x in V[t]]
        elif kind == 4:
            V[t][i], V[t][j] = V[t][j], V[t][i]
        elif kind == 5:
            V[t][i], V[u][i] = V[u][i], V[t][i]
        elif primes:
            p = rng.choice(primes)
            for c in range(p):
                b = (1 + c * e // p) % e
                counts[b] = counts.get(b, 0) + 1
            V[t][i] = entry(counts)
        yield V


def _verdict(ct):
    try:
        ct._verify()
    except InternalCheckError as exc:
        word, rest = str(exc).split(" ", 1)
        assert rest == "orthogonality fails exactly"
        return word
    return None


def galois_stable(W, e):
    """Whether every twist zeta -> zeta^k, k a unit mod e, maps the rows of
    the multiplicities W onto rows."""
    rows = sorted(map(tuple, W))
    return all(
        sorted(tuple(tuple(sorted((a * k % e, m) for a, m in x)) for x in row) for row in W) == rows
        for k in range(e) if gcd(k, e) == 1
    )


@pytest.mark.parametrize("name", corpus_names())
def test_corrupted_tables_get_the_verdict_of_the_exact_fold(monkeypatch, name):
    """The same verdict and the same relation named as the fold over Z and
    one batch reduction mod Phi_e, on random corruptions of the table.  A
    Galois-stable table is evaluated at one root; an unstable one that
    passes, at every root of Phi_e mod q, each of order e."""
    ct = CharacterTable(corpus_group(name))
    good, e = ct._mults, ct.exponent
    phi = sum(gcd(k, e) == 1 for k in range(e))
    seen = _spy(monkeypatch)
    verdicts, unstable = set(), 0
    for V in _corruptions(ct, random.Random(name)):
        ct._mults = V
        seen.clear()
        verdict = _verdict(ct)
        assert verdict == fold_verdict(ct), V
        verdicts.add(verdict)
        roots = {w for w, _ in seen}
        if galois_stable(V, e):
            assert len(roots) == 1
        else:
            unstable += 1
            if verdict is None:
                assert len(roots) == phi
            assert all(order_mod(w, seen[0][1]) == e for w in roots)
    assert "row" in verdicts
    assert unstable or phi == 1
    ct._mults = good
    assert _verdict(ct) is None


@pytest.mark.parametrize("name", ["c3", "c5", "s3", "c2xc6", "a4"])
def test_an_unstable_table_that_holds_passes_at_every_root(monkeypatch, name):
    """The p-th roots of unity times zeta, p the least prime factor of e,
    added to the first entry where that breaks the rows' Galois stability,
    keep every value: both relations are checked at all phi(e) roots, and
    hold."""
    ct = CharacterTable(corpus_group(name))
    r, e = ct.num_classes, ct.exponent
    p = next(p for p in range(2, e + 1) if e % p == 0)
    for t, i in product(range(r), repeat=2):
        counts = dict(ct._mults[t][i])
        for c in range(p):
            counts[(1 + c * e // p) % e] = counts.get((1 + c * e // p) % e, 0) + 1
        V = [list(row) for row in ct._mults]
        V[t][i] = tuple(sorted(counts.items()))
        if not galois_stable(V, e):
            break
    assert not galois_stable(V, e)
    ct._mults = V
    seen = _spy(monkeypatch)
    assert _verdict(ct) is None and fold_verdict(ct) is None
    phi = sum(gcd(k, e) == 1 for k in range(e))
    assert len(seen) == 2 * phi and len(set(seen)) == phi


def test_one_root_alone_would_pass_a_wrong_table_that_is_not_stable(monkeypatch):
    """zeta + zeta^2 + zeta^8 + zeta^9 + zeta^29 + zeta^40 vanishes at the
    certificate's root w of order 59, and at 1/w, mod its prime q = 3187
    (found by a meet-in-the-middle search).  Added to one entry of C59's
    table it keeps every relation at w alone, but the table is wrong: the
    rows are no longer Galois stable, so every root is checked, and the
    row relation fails, as the exact fold says."""
    ct = CharacterTable(group_from_generators(*BUILT["c59"], name="c59"))
    r, e, n = ct.num_classes, ct.exponent, ct.group.order
    counts = dict(ct._mults[1][1])
    for a in (1, 2, 8, 9, 29, 40):
        counts[a] = counts.get(a, 0) + 1
    ct._mults = [list(row) for row in ct._mults]
    ct._mults[1][1] = tuple(sorted(counts.items()))
    seen = _spy(monkeypatch)
    assert _verdict(ct) == fold_verdict(ct) == "row"
    assert len({w for w, _ in seen}) > 1
    w, q = seen[0]
    assert q == 3187
    V = [[sum(m * pow(w, a, q) for a, m in x) % q for x in row] for row in ct._mults]
    C = [[sum(m * pow(w, -a % e, q) for a, m in x) % q for x in row] for row in ct._mults]
    for s, t in product(range(r), repeat=2):
        row = sum(c * x * y for c, x, y in zip(ct.class_sizes, V[s], C[t])) % q
        column = sum(V[u][s] * C[u][t] for u in range(r)) % q
        assert row == (n if s == t else 0) and column == (n // ct.class_sizes[s] if s == t else 0)
