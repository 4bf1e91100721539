import pytest

from orbicalc.characters import character_table, frobenius_schur
from orbicalc.corpus import corpus_group, groups_of_order_at_most
from orbicalc.cyclotomic import CycInt
from orbicalc.errors import ValidationError
from orbicalc.groups import subgroup_as_group, subgroup_classes
from orbicalc.realreps import (
    MatrixRep,
    isotypic_decomposition,
    min_faithful_tensor_power,
    real_irreps,
    restriction_multiplicities,
)

from .helpers import direct_sum, one_dim_rep, regular_rep, root_of_unity


def test_character_table_c3_values():
    ct = character_table(corpus_group("c3"))
    assert ct.degrees == (1, 1, 1)
    # The two nontrivial characters take primitive cube root values.
    z = root_of_unity(3, 1)
    nontrivial = [row for row in ct.values if any(v != 1 for v in row)]
    assert len(nontrivial) == 2
    for row in nontrivial:
        assert set(row[1:]) == {z, z * z}


def test_q8_degrees():
    ct = character_table(corpus_group("q8"))
    assert ct.degrees == (1, 1, 1, 1, 2)


def test_fs_trivial_character_is_plus_one():
    for name in ("c2", "s3", "q8", "a4"):
        ct = character_table(corpus_group(name))
        triv = next(
            t for t in range(ct.num_classes) if all(v == 1 for v in ct.values[t])
        )
        assert frobenius_schur(ct, triv) == 1


def test_fs_c3_nontrivial_is_zero():
    ct = character_table(corpus_group("c3"))
    for t in range(3):
        expected = 1 if all(v == 1 for v in ct.values[t]) else 0
        assert frobenius_schur(ct, t) == expected


def test_fs_q8_two_dim_is_minus_one():
    ct = character_table(corpus_group("q8"))
    t = ct.degrees.index(2)
    assert frobenius_schur(ct, t) == -1


def test_real_irreps_c2():
    R = real_irreps(corpus_group("c2"))
    assert [(e.real_dim, e.end_type) for e in R.entries] == [(1, "R"), (1, "R")]


def test_real_irreps_c4():
    R = real_irreps(corpus_group("c4"))
    assert sorted((e.real_dim, e.end_type) for e in R.entries) == [
        (1, "R"),
        (1, "R"),
        (2, "C"),
    ]


def test_real_irreps_q8():
    R = real_irreps(corpus_group("q8"))
    kinds = sorted((e.real_dim, e.end_type) for e in R.entries)
    assert kinds == [(1, "R")] * 4 + [(4, "H")]


def test_real_bookkeeping_all_corpus():
    for G in groups_of_order_at_most(16):
        R = real_irreps(G)
        assert sum(e.real_dim**2 // e.end_dim for e in R.entries) == G.order
        ct = R.complex_table
        fs = [frobenius_schur(ct, t) for t in range(ct.num_classes)]
        assert sum(1 for e in R.entries if e.end_type == "R") == fs.count(1)
        assert sum(1 for e in R.entries if e.end_type == "C") == fs.count(0) // 2
        assert sum(1 for e in R.entries if e.end_type == "H") == fs.count(-1)


def test_restriction_identity_is_indicator():
    G = corpus_group("s3")
    phi = tuple(range(G.order))
    R = real_irreps(G)
    for rho in R.entries:
        m = restriction_multiplicities(G, G, phi, rho.index)
        assert m == tuple(int(i == rho.index) for i in range(len(R)))


def test_restriction_s3_standard_to_c2():
    G = corpus_group("s3")
    sub = next(c for c in subgroup_classes(G) if c.order == 2)
    K, emb = subgroup_as_group(G, sub.representative)
    R = real_irreps(G)
    std = next(e for e in R.entries if e.real_dim == 2)
    m = restriction_multiplicities(K, G, emb, std.index)
    # Restricted character (2, 0) = trivial + sign.
    assert sorted(m) == [1, 1]
    assert sum(m) == 2


def test_restriction_through_trivial_map():
    G = corpus_group("s3")
    K = corpus_group("v4")
    phi = tuple(G.identity for _ in range(K.order))
    R = real_irreps(G)
    RK = real_irreps(K)
    triv = RK.trivial_index
    for rho in R.entries:
        m = restriction_multiplicities(K, G, phi, rho.index)
        assert m[triv] == rho.real_dim
        assert sum(m) == rho.real_dim


def test_isotypic_trivial_rep():
    G = corpus_group("c2")
    rep = one_dim_rep(G, [1, 1])
    pieces = isotypic_decomposition(rep)
    triv = real_irreps(G).trivial_index
    for p in pieces:
        expected = 1 if p.irrep_index == triv else 0
        assert p.multiplicity == expected


def test_isotypic_sign_rep_c2():
    G = corpus_group("c2")
    rep = one_dim_rep(G, [1, -1])
    pieces = isotypic_decomposition(rep)
    triv = real_irreps(G).trivial_index
    ranks = {p.irrep_index: p.multiplicity for p in pieces}
    assert ranks[triv] == 0
    sign = next(i for i in ranks if i != triv)
    assert ranks[sign] == 1


def test_isotypic_regular_s3():
    G = corpus_group("s3")
    pieces = isotypic_decomposition(regular_rep(G))
    R = real_irreps(G)
    got = sorted(
        (R.entries[p.irrep_index].real_dim, p.multiplicity * R.entries[p.irrep_index].real_dim)
        for p in pieces
    )
    # Isotypic ranks 1, 1, 4 for the two linear and the standard irrep.
    assert got == [(1, 1), (1, 1), (2, 4)]


def test_isotypic_regular_matches_table_all_small_groups():
    # Regular-representation multiplicities must equal dim/dimEnd.
    for G in groups_of_order_at_most(8):
        R = real_irreps(G)
        pieces = isotypic_decomposition(regular_rep(G))
        for p in pieces:
            e = R.entries[p.irrep_index]
            assert p.multiplicity == e.real_dim // e.end_dim


def test_isotypic_c5_regular_uses_fixed_precision():
    # The 2-dim real pieces of c5 have irrational projectors; the engine
    # must still produce ranks matching the character data.
    G = corpus_group("c5")
    pieces = isotypic_decomposition(regular_rep(G))
    R = real_irreps(G)
    for p in pieces:
        e = R.entries[p.irrep_index]
        assert p.multiplicity == e.real_dim // e.end_dim


def test_min_faithful_regular_is_one():
    for name in ("c2", "s3", "q8"):
        G = corpus_group(name)
        assert min_faithful_tensor_power(G, regular_rep(G)) == 1


def test_min_faithful_c3_rotation():
    G = corpus_group("c3")
    R = real_irreps(G)
    rot = next(e for e in R.entries if e.real_dim == 2)
    assert min_faithful_tensor_power(G, list(rot.char)) == 2


def test_min_faithful_c5_rotation():
    G = corpus_group("c5")
    R = real_irreps(G)
    rots = [e for e in R.entries if e.real_dim == 2]
    for rot in rots:
        assert min_faithful_tensor_power(G, list(rot.char)) == 2


def test_min_faithful_rejects_unfaithful():
    G = corpus_group("c4")
    with pytest.raises(ValidationError):
        min_faithful_tensor_power(G, [1, 1, 1, 1])


def test_the_character_kernel_agrees_with_the_matrix_kernel():
    # min_faithful_tensor_power reads faithfulness off the character:
    # rho(g) = I exactly when chi(g) = chi(1).  Its verdict must be the
    # matrices' own on the regular rep and on every real line; the lines
    # with a kernel (the trivial one at least) are exact reps it refuses.
    from orbicalc.groups import class_index_map

    refused = 0
    for G in groups_of_order_at_most(12):
        cls = class_index_map(G)
        lines = [
            one_dim_rep(G, [e.char[cls[g]].as_int() for g in range(G.order)])
            for e in real_irreps(G)
            if e.real_dim == 1
        ]
        for rep in [regular_rep(G), *lines]:
            chi = rep.character()
            kernel = [cls[g] for g in range(G.order) if chi[cls[g]] == chi[cls[G.identity]]]
            assert (kernel == [cls[G.identity]]) == rep.is_faithful(), G
            if rep.is_faithful():
                assert min_faithful_tensor_power(G, rep) >= 1, G
            else:
                with pytest.raises(ValidationError, match="V is not faithful"):
                    min_faithful_tensor_power(G, rep)
                refused += 1
    assert refused > len(groups_of_order_at_most(12))


def test_one_surjectivity_report_computes_the_projector_weights_once(monkeypatch):
    # isotypic_surjectivity reads the weights three times (once per side's
    # decomposition, once for the mode); the group computes them once.
    from orbicalc import realreps
    from orbicalc.groups import FiniteGroup, class_index_map
    from orbicalc.transversality import LinearChart, isotypic_surjectivity

    for name in ("s3", "c5"):  # rational and irrational weights
        G = FiniteGroup(corpus_group(name).table, name=name)
        V = regular_rep(G)
        identity = [[int(i == j) for j in range(G.order)] for i in range(G.order)]
        chart = LinearChart(G, V, regular_rep(G), identity)
        calls = []

        def counting(H):
            calls.append(H)
            return class_index_map(H)

        monkeypatch.setattr(realreps, "class_index_map", counting)
        report = isotypic_surjectivity(chart)
        monkeypatch.undo()
        assert report.consistent, name
        assert calls == [G], name


def test_functorial_restriction_composites():
    # Restriction along K -> G -> G must match iterated restriction.
    G = corpus_group("s3")
    sub3 = next(c for c in subgroup_classes(G) if c.order == 3)
    K, emb = subgroup_as_group(G, sub3.representative)
    R = real_irreps(G)
    RK = real_irreps(K)
    import numpy as np

    from orbicalc.realreps import restriction_matrix

    M_id = np.array(restriction_matrix(G, G, tuple(range(G.order))))
    assert (M_id == np.eye(len(R), dtype=int)).all()
    M = np.array(restriction_matrix(K, G, emb))
    M_KK = np.array(restriction_matrix(K, K, tuple(range(K.order))))
    assert (M_KK @ M == M).all()


def test_direct_sum_multiplicities():
    G = corpus_group("c2")
    rep = direct_sum(one_dim_rep(G, [1, 1]), one_dim_rep(G, [1, -1]))
    pieces = isotypic_decomposition(rep)
    assert sorted(p.multiplicity for p in pieces) == [1, 1]


def test_stored_irrep_indices_equal_a_rescan():
    from orbicalc.corpus import corpus_names

    for name in corpus_names():
        R = real_irreps(corpus_group(name))
        one = CycInt.from_int(R.complex_table.exponent, 1)
        trivial = [e.index for e in R if e.real_dim == 1 and all(v == one for v in e.char)]
        assert trivial == [R.trivial_index], name
        assert R.r_type_indices() == tuple(e.index for e in R if e.end_type == "R"), name
        assert R.r_type_indices()[R.trivial_bit] == R.trivial_index, name


def test_indicators_are_computed_once_per_table(monkeypatch):
    from orbicalc import characters
    from orbicalc.corpus import corpus_names
    from orbicalc.groups import class_index_map

    for name in corpus_names():
        G = corpus_group(name)
        ct = characters.CharacterTable(G)  # a fresh table, not the cached one
        calls = []

        def counting(H):
            calls.append(H)
            return class_index_map(H)

        monkeypatch.setattr(characters, "class_index_map", counting)
        got = [frobenius_schur(ct, t) for t in range(ct.num_classes)] * 2
        got += [frobenius_schur(ct, t) for t in range(ct.num_classes)]
        monkeypatch.undo()
        assert len(calls) == 1, name
        # (1/|G|) sum over elements, not classes, of chi(g^2).
        cls = class_index_map(G)
        for t, chi in enumerate(ct.values):
            acc = CycInt.from_int(ct.exponent, 0)
            for g in range(G.order):
                acc = acc + chi[cls[G.mul(g, g)]]
            assert got[t] == acc.divide_exact(G.order).as_int(), (name, t)


def test_conjugate_partner_is_the_conjugate_row_at_every_element():
    from orbicalc.corpus import corpus_names
    from orbicalc.groups import class_index_map

    for name in corpus_names():
        G = corpus_group(name)
        ct = character_table(G)
        cls = class_index_map(G)
        for t, chi in enumerate(ct.values):
            partner = ct.values[ct.conjugate_partner(t)]
            for g in range(G.order):
                assert partner[cls[g]] == chi[cls[g]].conjugate(), (name, t, g)



def test_exact_multiplicities_reuse_the_complex_inner_products(monkeypatch):
    # One inner product per complex irrep of C12 (12 classes), taken while
    # the character is checked genuine; the real irreps' multiplicities are
    # sums of those.
    from orbicalc.characters import CharacterTable
    from orbicalc.transversality import fixed_subspace

    G = corpus_group("c12")
    reg = regular_rep(G)
    real_irreps(G)
    calls = []
    inner_with = CharacterTable.inner_with

    def counting(self, chi, psi):
        calls.append(psi)
        return inner_with(self, chi, psi)

    monkeypatch.setattr(CharacterTable, "inner_with", counting)
    pieces = isotypic_decomposition(reg)
    assert len(calls) == 12
    assert [p.multiplicity for p in pieces] == [1, 1, 1, 1, 1, 1, 1]
    calls.clear()
    assert fixed_subspace(G, reg)[0] == 1
    assert len(calls) == 12


def test_detector_reads_the_trivial_multiplicity_off_the_genuine_check(monkeypatch):
    # <chi, 1> for a character is the trivial row of the inner products
    # taken while chi is checked genuine: 12 calls for C12, not 13.
    from orbicalc.characters import CharacterTable
    from orbicalc.transversality import derived_class_detector

    G = corpus_group("c12")
    ct = character_table(G)
    regular = [G.order if i == ct.identity_class else 0 for i in range(ct.num_classes)]
    calls = []
    inner_with = CharacterTable.inner_with

    def counting(self, chi, psi):
        calls.append(psi)
        return inner_with(self, chi, psi)

    monkeypatch.setattr(CharacterTable, "inner_with", counting)
    verdict = derived_class_detector(G, regular)
    assert (verdict.fixed_dim, verdict.degree, verdict.status) == (1, -12, "inconclusive")
    assert len(calls) == 12


def test_exact_and_fixed_multiplicities_agree_with_types_r_c_and_h():
    # Q8 has an H-type irrep and C12 has C-type pairs; a direct sum of two
    # regular reps doubles every multiplicity in both modes.
    from orbicalc.realreps import character_multiplicities

    types = set()
    for name in ("q8", "c12", "dic3", "s4"):
        G = corpus_group(name)
        R = real_irreps(G)
        reg = regular_rep(G)
        two = direct_sum(reg, reg)
        expect = [e.real_dim // e.end_dim for e in R.entries]
        types |= {e.end_type for e in R.entries}
        for rep, k in ((reg, 1), (two, 2)):
            for mode in (rep, rep.to_float()):
                assert character_multiplicities(mode, R.entries) == [k * m for m in expect], name
    assert types == {"R", "C", "H"}


def test_an_entry_beyond_the_float_range_is_refused_when_decomposing():
    # C5's rational 4-dimensional rep, the companion matrix of Phi_5,
    # conjugated by the shear I + 10^200 E_12: its entries have up to 401
    # digits, and its projector weights are irrational, so the
    # decomposition goes through fixed precision.
    from orbicalc._linalg import EXACT

    G = corpus_group("c5")
    a = next(x for x in range(G.order) if G.element_order(x) == 5)
    C = [[0, 0, 0, -1], [1, 0, 0, -1], [0, 1, 0, -1], [0, 0, 1, -1]]
    S, S_inv, M = EXACT.identity(4), EXACT.identity(4), EXACT.identity(4)
    S[0][1], S_inv[0][1] = 10**200, -(10**200)
    mats, x = [None] * G.order, G.identity
    for _ in range(G.order):
        mats[x] = EXACT.mul(EXACT.mul(S, M), S_inv)
        x, M = G.table[x][a], EXACT.mul(M, C)
    rep = MatrixRep(G, mats)
    with pytest.raises(ValidationError, match="^a matrix entry is too large for fixed mode$"):
        isotypic_decomposition(rep)
