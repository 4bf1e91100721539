import tracemalloc

import pytest

from orbicalc import groups
from orbicalc.errors import ValidationError
from orbicalc.groups import (
    FiniteGroup,
    are_isomorphic,
    centralizer,
    conjugacy_classes,
    gather,
    generating_set,
    group_from_generators,
    group_from_json,
    is_homomorphism,
    normal_subgroups,
    normalizer,
    quotient_group,
    subgroup_as_group,
    subgroup_classes,
    trivial_group,
)
from .helpers import brute_force_subgroups, conj_orbits, perm_closure, reference_are_isomorphic
from .test_light import reduced_latin_squares

S3_GENS = [[1, 2, 0], [1, 0, 2]]  # (0 1 2), (0 1)
C4_GENS = [[1, 2, 3, 0]]


def s3():
    return group_from_generators(3, S3_GENS, name="s3")


def c4():
    return group_from_generators(4, C4_GENS, name="c4")


def v4():
    return group_from_generators(4, [[1, 0, 2, 3], [0, 1, 3, 2]], name="v4")


def test_trivial_group():
    G = group_from_generators(1, [])
    assert G.order == 1
    assert conjugacy_classes(G) == [(0,)]


def _peak_bytes(fn):
    """The tracemalloc peak while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_large_degree_alone_allocates_nothing_of_its_size():
    """The degree of a group file sets no memory by itself: no generators
    give the trivial group and a short one is refused, each in under 1 MB
    at degree 2,000,000."""
    trivial = {"degree": 2_000_000, "generators": []}
    assert _peak_bytes(lambda: group_from_json(trivial)) < 1 << 20
    G = group_from_json(trivial)
    assert (G.table, G.labels) == (((0,),), ("e",))

    def refused():
        with pytest.raises(ValidationError, match=r"not a permutation of 0\.\.1999999: \[0\]"):
            group_from_json({"degree": 2_000_000, "generators": [[0]]})

    assert _peak_bytes(refused) < 1 << 20


def test_a_closure_is_refused_before_its_table_outgrows_the_entry_budget():
    """One long cycle is refused once elements x max(elements, points)
    would pass the budget: a 9,999-cycle at 101 elements, a 1,000,000-point
    cycle at its second element."""
    group_from_generators(6, [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]])  # S6 is admitted
    for degree, refused_at in ((9_999, 101), (1_000_000, 2)):
        cycle = [(i + 1) % degree for i in range(degree)]

        def refused():
            with pytest.raises(ValidationError, match=f"closure of {refused_at} elements"):
                group_from_generators(degree, [cycle])

        assert _peak_bytes(refused) < 40 << 20


def test_s3_closure_order_and_classes():
    # Oracle: brute-force closure of the generators.
    assert len(perm_closure(3, S3_GENS)) == 6
    G = s3()
    assert G.order == 6
    classes = conjugacy_classes(G)
    assert sorted(len(c) for c in classes) == [1, 2, 3]
    # Oracle: conjugation orbits computed directly from the table.
    assert {frozenset(c) for c in classes} == set(conj_orbits(G.table))


def test_c4_closure():
    assert len(perm_closure(4, C4_GENS)) == 4
    G = c4()
    assert G.order == 4
    assert G.is_abelian()
    assert len(conjugacy_classes(G)) == 4


def test_identity_first_and_table_is_group():
    G = s3()
    assert G.identity == 0
    for a in range(6):
        assert G.table[G.inv(a)][a] == 0


def test_inverses_of_unvalidated_subgroups_and_quotients():
    # Subgroup and quotient tables skip validation, so their inverses are
    # read off the tables rather than cached by _validate.
    from orbicalc.corpus import corpus_group

    G = corpus_group("s4")
    built = [subgroup_as_group(G, sc.representative)[0] for sc in subgroup_classes(G)]
    built += [quotient_group(G, N)[0] for N in normal_subgroups(G)]
    assert sorted(X.order for X in built) == [1, 1, 2, 2, 2, 3, 4, 4, 4, 6, 6, 8, 12, 24, 24]
    for X in built:
        e = X.identity
        assert all(X.table[X.inv(a)][a] == e == X.table[a][X.inv(a)] for a in range(X.order))
        assert X.inverses() == tuple(X.inv(a) for a in range(X.order))


def test_rejects_bad_generator():
    with pytest.raises(ValidationError):
        group_from_generators(3, [[0, 0, 1]])


def test_rejects_closure_cap(monkeypatch):
    # S5 has 120 elements; the budget is read when the closure runs, and
    # 900 entries stop it at its 31st element (31 x 31 > 900).
    monkeypatch.setattr(groups, "CLOSURE_ENTRY_BUDGET", 900)
    message = "closure of 31 elements on 5 points exceeds the budget of 900 table entries"
    with pytest.raises(ValidationError, match=message):
        group_from_generators(5, [[1, 2, 3, 4, 0], [1, 0, 2, 3, 4]])


def test_rejects_non_associative_table():
    # A Latin square with identity that is not a group table.
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValidationError):
        FiniteGroup(table)


@pytest.mark.parametrize("table, labels", [
    ([[0, 1], [1, 0]], ["e"]),
    ([[0, 1], [1, 0]], [1, 2]),
    ([[0, 1], [1, 0]], "ea"),
    ([[0, 1], [1, 2]], ["e"]),  # before the entries are read
    ([], ["e"]),  # before the table is found empty
], ids=["short", "not-strings", "one-string", "bad-entry", "empty"])
def test_the_constructor_checks_its_labels(table, labels):
    with pytest.raises(ValidationError) as err:
        FiniteGroup(table, labels=labels)
    assert str(err.value) == "'labels' must be a list of one string per element"
    with pytest.raises(ValidationError) as err:
        group_from_json({"table": table, "labels": labels})
    assert str(err.value) == "'labels' must be a list of one string per element"


def first_light_failure(t):
    """The first (x, g, c) with (x g) c != x (g c): g over Light's generators
    in order, then (x, c) in row-major order; None when there is none."""
    n = len(t)
    for g in groups._right_generators(t, 0):
        for x in range(n):
            for c in range(n):
                if t[t[x][g]][c] != t[x][t[g][c]]:
                    return (x, g, c)
    return None


def test_an_associativity_failure_names_the_first_triple_in_row_major_order():
    named = 0
    for n in range(1, 7):
        for sq in reduced_latin_squares(n):
            first = first_light_failure(sq)
            try:
                FiniteGroup(sq)
            except ValidationError as exc:
                if "inverse" not in str(exc):
                    assert str(exc) == f"associativity fails at {first}", sq
                    named += 1
            else:
                assert first is None, sq
    # Reduced squares with two-sided inverses that are not group tables.
    assert named == 1730


def test_centralizer_examples():
    G = s3()
    whole = centralizer(G, {G.identity})
    assert len(whole.representative) == 6
    # A transposition: index of (0 1) in the BFS ordering.
    t = next(a for a in range(6) if G.labels[a] == "(0 1)")
    Z = centralizer(G, {t})
    assert len(Z.representative) == 2
    C = c4()
    assert len(centralizer(C, {1}).representative) == 4


def test_subgroup_classes_c4():
    G = c4()
    classes = subgroup_classes(G)
    assert [c.order for c in classes] == [1, 2, 4]
    # Oracle: exhaustive closed-subset scan.
    assert len(brute_force_subgroups(G.table)) == 3


def test_subgroup_classes_s3():
    G = s3()
    classes = subgroup_classes(G)
    assert [c.order for c in classes] == [1, 2, 3, 6]
    by_order = {c.order: c for c in classes}
    assert by_order[2].conjugates_count == 3
    assert by_order[3].conjugates_count == 1
    # Oracle: exhaustive scan finds 1 + 3 + 1 + 1 = 6 subgroups.
    subs = brute_force_subgroups(G.table)
    assert len(subs) == 6
    assert sum(c.conjugates_count for c in classes) == len(subs)


def test_orbit_stabilizer_for_subgroups():
    for G in (s3(), c4(), v4()):
        for c in subgroup_classes(G):
            assert c.conjugates_count * c.normalizer_order == G.order


def test_lagrange():
    for G in (s3(), c4(), v4()):
        for c in subgroup_classes(G):
            assert G.order % c.order == 0


def test_class_equation():
    for G in (s3(), c4(), v4()):
        classes = conjugacy_classes(G)
        assert sum(len(c) for c in classes) == G.order
        singletons = sum(1 for c in classes if len(c) == 1)
        assert singletons == len(G.center())


def test_are_isomorphic_reflexive():
    G = s3()
    phi = are_isomorphic(G, G)
    assert phi is not None
    assert is_homomorphism(G, G, phi)
    assert sorted(phi) == list(range(6))


def test_c4_not_isomorphic_v4():
    assert are_isomorphic(c4(), v4()) is None
    assert are_isomorphic(v4(), c4()) is None


def test_s3_two_presentations():
    A = s3()
    # Same group generated by two transpositions instead.
    B = group_from_generators(3, [[1, 0, 2], [0, 2, 1]], name="s3'")
    phi = are_isomorphic(A, B)
    assert phi is not None
    assert is_homomorphism(A, B, phi)


def test_quotient_s3_by_a3():
    G = s3()
    normals = normal_subgroups(G)
    assert sorted(len(n) for n in normals) == [1, 3, 6]
    A3 = next(n for n in normals if len(n) == 3)
    Q, proj = quotient_group(G, A3)
    assert Q.order == 2
    assert all(proj[G.table[a][b]] == Q.table[proj[a]][proj[b]] for a in range(6) for b in range(6))


def test_subgroup_as_group():
    G = s3()
    sub = next(c for c in subgroup_classes(G) if c.order == 3)
    K, emb = subgroup_as_group(G, sub.representative)
    assert K.order == 3
    assert emb[K.identity] == G.identity
    for a in range(3):
        for b in range(3):
            assert emb[K.table[a][b]] == G.table[emb[a]][emb[b]]


def test_generating_set_generates():
    for G in (s3(), c4(), v4(), trivial_group()):
        gens = generating_set(G)
        elems = {G.identity}
        frontier = [G.identity]
        while frontier:
            nxt = []
            for a in frontier:
                for g in gens:
                    for x in (G.table[a][g], G.table[g][a]):
                        if x not in elems:
                            elems.add(x)
                            nxt.append(x)
            frontier = nxt
        assert len(elems) == G.order


def test_deterministic_tables():
    assert s3().table == s3().table
    assert group_from_generators(3, S3_GENS).table == s3().table


def test_isomorphism_is_equivalence_relation():
    # Corpus groups of order <= 16 plus re-presented copies of a few of
    # them: the relation must be reflexive, symmetric and transitive.
    from orbicalc.corpus import groups_of_order_at_most

    pool = list(groups_of_order_at_most(16))
    pool.append(group_from_generators(3, [[1, 0, 2], [0, 2, 1]], name="s3-alt"))
    pool.append(group_from_generators(6, [[1, 2, 3, 4, 5, 0]], name="c6-alt"))
    pool.append(group_from_generators(4, [[0, 1, 3, 2], [1, 0, 2, 3]], name="v4-alt"))
    rel = {}
    for A in pool:
        for B in pool:
            rel[(A.name, B.name)] = are_isomorphic(A, B) is not None
    for A in pool:
        assert rel[(A.name, A.name)]
        for B in pool:
            assert rel[(A.name, B.name)] == rel[(B.name, A.name)]
            for C in pool:
                if rel[(A.name, B.name)] and rel[(B.name, C.name)]:
                    assert rel[(A.name, C.name)]


def _reference_are_isomorphic(G, H):
    """The earlier search: enumerate whole tuples of generator images in
    lexicographic order and close each one from scratch."""
    from orbicalc.groups import _invariant_fingerprint

    if _invariant_fingerprint(G) != _invariant_fingerprint(H):
        return None
    gens = generating_set(G)
    cand = [
        [h for h in range(H.order) if H.element_order(h) == G.element_order(g)]
        for g in gens
    ]

    def close(images):
        phi = {G.identity: H.identity}
        frontier = [G.identity]
        for g, h in zip(gens, images):
            phi[g] = h
            frontier.append(g)
        while frontier:
            nxt = []
            for a in list(phi):
                for b in frontier:
                    for x, y in ((G.table[a][b], H.table[phi[a]][phi[b]]),
                                 (G.table[b][a], H.table[phi[b]][phi[a]])):
                        if x in phi:
                            if phi[x] != y:
                                return None
                        else:
                            phi[x] = y
                            nxt.append(x)
            frontier = nxt
        return tuple(phi[a] for a in range(G.order))

    def backtrack(i, images):
        if i == len(gens):
            phi = close(images)
            return phi if phi is not None and len(set(phi)) == G.order else None
        for h in cand[i]:
            res = backtrack(i + 1, images + [h])
            if res is not None:
                return res
        return None

    return backtrack(0, [])


def test_are_isomorphic_returns_the_reference_search_result():
    # Every ordered pair of corpus groups, and every subgroup of a corpus
    # group of order <= 12 against each corpus group of its order both
    # ways, so that many pairs are isomorphic through a nontrivial map.
    # Both references agree: whole image tuples closed from scratch, and
    # prefixes extended by the two-sided closure.
    from orbicalc.corpus import corpus_group, corpus_names

    corpus = [corpus_group(n) for n in corpus_names()]
    pairs = [(A, B) for A in corpus for B in corpus]
    for G in corpus:
        if G.order <= 12:
            for sc in subgroup_classes(G):
                K = subgroup_as_group(G, sc.representative)[0]
                pairs += [p for B in corpus if B.order == K.order for p in ((K, B), (B, K))]
    found = 0
    for A, B in pairs:
        phi = are_isomorphic(A, B)
        assert phi == _reference_are_isomorphic(A, B) == reference_are_isomorphic(A, B)
        found += phi is not None
    assert found == 300  # 54 diagonal pairs and 246 through subgroups


class _CountingTable(tuple):
    """A table that counts how often it is hashed."""

    hashes = 0

    def __hash__(self):
        _CountingTable.hashes += 1
        return tuple.__hash__(self)


def test_memo_keys_hash_a_group_table_once(monkeypatch):
    from orbicalc.homs import hom_classes

    A, B = s3(), c4()
    monkeypatch.setattr(_CountingTable, "hashes", 0)
    B.table = _CountingTable(B.table)
    first = hom_classes(A, B)
    assert hom_classes(A, B) is first
    assert _CountingTable.hashes <= 1
    # The key still compares tables: an equal table built apart is the same key.
    assert c4().table_key() == B.table_key() != v4().table_key()
    assert hash(c4().table_key()) == hash(B.table_key())


@pytest.mark.parametrize("idx", [(), (2,), (0, 2), (3, 1, 3, 0)], ids=len)
def test_gather_is_a_tuple_of_the_entries_read(idx):
    p = (10, 11, 12, 13)
    for source in (p, dict(enumerate(p)), list(p)):
        got = gather(idx)(source)
        assert type(got) is tuple
        assert got == tuple(source[i] for i in idx)
    assert gather(range(len(idx)))(idx) == tuple(idx)


def test_homs_from_the_trivial_group_gather_no_index_and_one():
    from orbicalc.homs import HomClass, enumerate_homs, hom_classes

    T = trivial_group()
    assert generating_set(T) == ()
    for H in (trivial_group(), s3(), c4()):
        assert enumerate_homs(T, H) == [(H.identity,)]
        assert hom_classes(T, H) == [HomClass((H.identity,), True, 1, H.order)]
    # One generator: every generator image is a 1-tuple.
    assert [c.orbit_size for c in hom_classes(c4(), s3())] == [1, 3]


def test_subgroup_classes_count_conjugates_and_normalizers_by_conjugation():
    from orbicalc.corpus import groups_of_order_at_most

    for G in [s3(), c4(), v4()] + groups_of_order_at_most(24):
        for sc in subgroup_classes(G):
            H = frozenset(sc.representative)
            orbit = {frozenset(G.conj(g, x) for x in H) for g in range(G.order)}
            assert sc.conjugates_count == len(orbit), G
            assert sc.normalizer_order == len(normalizer(G, H)), G
