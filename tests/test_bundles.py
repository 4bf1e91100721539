import random

import pytest

from orbicalc.bundles import (
    CoarseStableBundle,
    Framing,
    StableBundle,
    aut_group,
    framing_bit_permutation,
    framings,
    involution,
    irrep_bijection_along,
    push_bits,
    restrict_bundle,
    transport_framing,
)
from orbicalc.corpus import corpus_group, groups_of_order_at_most
from orbicalc.groups import subgroup_as_group, subgroup_classes
from orbicalc.homs import enumerate_homs
from orbicalc.realreps import real_irreps


def test_aut_group_stable_c2():
    G = corpus_group("c2")
    b = StableBundle(G, (3, -2))
    desc = aut_group(b)
    assert desc.rank == 2  # trivial and sign are both R-type
    assert desc.order == 4


def test_aut_group_coarse_c2():
    G = corpus_group("c2")
    R = real_irreps(G)
    zero_sign = CoarseStableBundle(G, trivial_part=5, coords=(0,))
    desc = aut_group(zero_sign)
    assert desc.contributors == (R.trivial_index,)
    with_sign = CoarseStableBundle(G, trivial_part=0, coords=(2,))
    assert aut_group(with_sign).rank == 2


def test_aut_group_trivial_base():
    G = corpus_group("c1")
    assert aut_group(StableBundle(G, (7,))).order == 2


def test_restrict_identity():
    G = corpus_group("s3")
    b = StableBundle(G, (1, -2, 3))
    r = restrict_bundle(b, G, tuple(range(G.order)))
    assert r.coords == b.coords


def test_restrict_standard_s3_to_c2():
    G = corpus_group("s3")
    R = real_irreps(G)
    std = next(e.index for e in R.entries if e.real_dim == 2)
    coords = [0] * len(R)
    coords[std] = 1
    sub = next(c for c in subgroup_classes(G) if c.order == 2)
    K, emb = subgroup_as_group(G, sub.representative)
    r = restrict_bundle(StableBundle(G, tuple(coords)), K, emb)
    assert sorted(r.coords) == [1, 1]


def test_restrict_zero():
    G = corpus_group("s3")
    K = corpus_group("c1")
    r = restrict_bundle(StableBundle(G, (0, 0, 0)), K, (0,))
    assert r.coords == (0,)


def test_restrict_preserves_virtual_rank_random():
    rng = random.Random(7)
    G = corpus_group("s3")
    subs = subgroup_classes(G)
    for _ in range(20):
        coords = tuple(rng.randint(-5, 5) for _ in range(len(real_irreps(G))))
        b = StableBundle(G, coords)
        for sc in subs:
            K, emb = subgroup_as_group(G, sc.representative)
            assert restrict_bundle(b, K, emb).virtual_rank() == b.virtual_rank()


def test_restriction_functorial():
    # K < L < G: restricting in two steps equals one step.
    G = corpus_group("s4")
    L_cls = next(c for c in subgroup_classes(G) if c.order == 6)
    L, embL = subgroup_as_group(G, L_cls.representative)
    K_cls = next(c for c in subgroup_classes(L) if c.order == 2)
    K, embK = subgroup_as_group(L, K_cls.representative)
    comp = tuple(embL[embK[k]] for k in range(K.order))
    for j in range(len(real_irreps(G))):
        coords = [0] * len(real_irreps(G))
        coords[j] = 1
        b = StableBundle(G, tuple(coords))
        two_step = restrict_bundle(restrict_bundle(b, L, embL), K, embK)
        one_step = restrict_bundle(b, K, comp)
        assert two_step.coords == one_step.coords


def test_framings_counts():
    assert len(framings(corpus_group("c1"))) == 2
    assert len(framings(corpus_group("c2"))) == 4
    assert len(framings(corpus_group("c3"))) == 2


def test_framing_count_formula():
    for G in groups_of_order_at_most(12):
        R = real_irreps(G)
        assert len(framings(G)) == 2 ** len(R.r_type_indices())


def test_involution_fixed_point_free():
    for name in ("c1", "c2", "c3", "s3", "q8"):
        G = corpus_group(name)
        for fr in framings(G):
            assert involution(fr) != fr
            assert involution(involution(fr)) == fr


def test_involution_orbit_counts():
    assert len({frozenset((fr.bits, involution(fr).bits)) for fr in framings(corpus_group("c1"))}) == 1
    assert len({frozenset((fr.bits, involution(fr).bits)) for fr in framings(corpus_group("c2"))}) == 2


def test_transport_identity():
    G = corpus_group("c2")
    for fr in framings(G):
        assert transport_framing(fr, G, tuple(range(G.order))) == fr


def test_transport_c3_inversion():
    G = corpus_group("c3")
    inv = tuple(G.inv(g) for g in range(G.order))
    for fr in framings(G):
        assert transport_framing(fr, G, inv) == fr


def test_transport_commutes_with_involution():
    G = corpus_group("c2xc2xc2")
    autos = [
        phi for phi in enumerate_homs(G, G) if len(set(phi)) == G.order
    ]
    for phi in autos[:10]:
        for fr in framings(G)[:4]:
            a = transport_framing(involution(fr), G, phi)
            b = involution(transport_framing(fr, G, phi))
            assert a == b


def test_framing_bit_permutation_follows_the_irrep_matching():
    for G in groups_of_order_at_most(12):
        autos = [phi for phi in enumerate_homs(G, G) if len(set(phi)) == G.order]
        r_idx = real_irreps(G).r_type_indices()
        for a in autos[:12]:
            bij = irrep_bijection_along(G, G, a)
            perm = framing_bit_permutation(G, G, a)
            assert perm == tuple(r_idx.index(bij[s]) for s in r_idx), G.name
            bits = tuple(random.Random(len(a)).choices((0, 1), k=len(perm)))
            moved = push_bits(perm, bits)
            assert all(moved[perm[pos]] == b for pos, b in enumerate(bits))
            assert transport_framing(Framing(G, bits), G, a).bits == moved


def test_framing_bit_permutation_refuses_an_r_type_irrep_sent_to_another_type(monkeypatch):
    from orbicalc import bundles
    from orbicalc.errors import InternalCheckError

    G = corpus_group("c3")  # the trivial irrep (type R) and one of type C
    assert [e.end_type for e in real_irreps(G)] == ["R", "C"]
    monkeypatch.setattr(bundles, "irrep_bijection_along", lambda K, K2, alpha: (1, 0))
    with pytest.raises(InternalCheckError, match="non-R-type"):
        framing_bit_permutation(G, G, tuple(range(G.order)))
