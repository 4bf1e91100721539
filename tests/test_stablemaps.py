from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbicalc import bundles, stablemaps
from orbicalc.corpus import corpus_group, groups_of_order_at_most
from orbicalc.errors import InternalCheckError, ValidationError
from orbicalc.groups import FiniteGroup, normalizer, subgroup_as_group, subgroup_classes
from orbicalc.homs import hom_classes, rep_hom_classes
from orbicalc.stablemaps import (
    cross_check_abstract_enumeration,
    enumerate_generators,
    map_group,
)

from .helpers import _reference_map_subgroups, reference_map_group, relabelled


def test_generators_point_to_point():
    # One subgroup (trivial), one map, two framings of a point.
    G = corpus_group("c1")
    gens = enumerate_generators(G, G, "rep")
    assert len(gens) == 2
    assert {g.framing_bits for g in gens} == {(0,), (1,)}


def test_generators_c2_to_point_variants():
    G, H = corpus_group("c2"), corpus_group("c1")
    rep = enumerate_generators(G, H, "rep")
    orb = enumerate_generators(G, H, "orb")
    # The K = c2 leg to a point can never be injective, so the
    # representable variant sees only the framed honest points.
    assert len(rep) == 2
    # All maps allowed: K = 1 contributes 2, K = c2 contributes the 4
    # framings of its unique (trivial) map class.
    assert len(orb) == 6
    assert {g.k_order for g in orb} == {1, 2}


def test_generators_c2_c2_variant_gap():
    G = corpus_group("c2")
    rep = enumerate_generators(G, G, "rep")
    orb = enumerate_generators(G, G, "orb")
    assert len(rep) == 6
    assert len(orb) == 10
    extra = set(orb) - set(rep)
    # The gap is exactly the non-injective leg on the full subgroup.
    assert len(extra) == 4
    assert all(g.k_order == 2 and len(set(g.g_class)) == 1 for g in extra)


def test_map_group_point():
    p = map_group(corpus_group("c1"), corpus_group("c1"), "rep")
    assert p.rank == 1
    assert p.num_classes == 2


def test_map_group_c2_point():
    # Injectivity of both legs forces K = 1 over a point target, giving
    # the integers; the all-maps variant keeps the framed c2 point too.
    assert map_group(corpus_group("c2"), corpus_group("c1"), "rep").rank == 1
    assert map_group(corpus_group("c2"), corpus_group("c1"), "orb").rank == 3


def test_map_group_c2_c2():
    assert map_group(corpus_group("c2"), corpus_group("c2"), "rep").rank == 3
    assert map_group(corpus_group("c2"), corpus_group("c2"), "orb").rank == 5


def test_involution_pairing_structure():
    p = map_group(corpus_group("c2"), corpus_group("s3"), "orb")
    assert p.num_classes == 2 * p.rank
    for a, b in p.orbit_table:
        assert a != b
        assert a.subgroup_index == b.subgroup_index
        assert a.g_class == b.g_class


def test_rep_rank_at_most_orb_rank():
    for G in groups_of_order_at_most(6):
        for H in groups_of_order_at_most(6):
            assert map_group(G, H, "rep").rank <= map_group(G, H, "orb").rank


def test_rep_generators_subset_of_orb():
    for G in groups_of_order_at_most(6):
        for H in groups_of_order_at_most(6):
            rep = set(enumerate_generators(G, H, "rep"))
            orb = set(enumerate_generators(G, H, "orb"))
            assert rep <= orb


def test_two_leg_symmetry():
    names = ["c1", "c2", "c3", "c4", "v4", "s3", "q8", "d8"]
    for a in names:
        for b in names:
            G, H = corpus_group(a), corpus_group(b)
            assert map_group(G, H, "rep").rank == map_group(H, G, "rep").rank


def test_point_source_rank_one():
    for H in groups_of_order_at_most(8):
        assert map_group(corpus_group("c1"), H, "orb").rank == 1
        assert map_group(corpus_group("c1"), H, "rep").rank == 1


def test_rank_formula_point_target():
    # Against a point target every subgroup class contributes the orbits
    # of its framings under the normalizer automorphisms together with
    # the involution; evaluate that formula directly and compare.
    from orbicalc.bundles import Framing, framings, involution, irrep_bijection_along
    from orbicalc.groups import normalizer, subgroup_as_group, subgroup_classes
    from orbicalc.realreps import real_irreps

    for name in ("c2", "s3", "a4", "d8"):
        G = corpus_group(name)
        expected = 0
        for sc in subgroup_classes(G):
            K, emb = subgroup_as_group(G, sc.representative)
            pos = {g: i for i, g in enumerate(emb)}
            autos = {
                tuple(pos[G.conj(n, emb[k])] for k in range(K.order))
                for n in normalizer(G, sc.representative)
            }
            r_idx = real_irreps(K).r_type_indices()
            perms = []
            for a in autos:
                bij = irrep_bijection_along(K, K, a)
                perms.append(tuple(r_idx.index(bij[s]) for s in r_idx))
            # Orbits of the group generated by the bit permutations and
            # the involution, by closure from each framing.
            seen = set()
            orbits = 0
            for fr in framings(K):
                if fr.bits in seen:
                    continue
                orbits += 1
                stack = [fr.bits]
                while stack:
                    bits = stack.pop()
                    if bits in seen:
                        continue
                    seen.add(bits)
                    stack.append(involution(Framing(K, bits)).bits)
                    for perm in perms:
                        moved = [0] * len(bits)
                        for src, dst in enumerate(perm):
                            moved[dst] = bits[src]
                        stack.append(tuple(moved))
            expected += orbits
        assert map_group(G, corpus_group("c1"), "orb").rank == expected, name


def test_cross_check_small():
    for pair in (("c1", "c1"), ("c2", "c1"), ("s3", "c1"), ("s3", "s3")):
        G, H = corpus_group(pair[0]), corpus_group(pair[1])
        for variant in ("rep", "orb"):
            rep = cross_check_abstract_enumeration(G, H, variant)
            assert rep.ok


def test_cross_check_order12_sources():
    H = corpus_group("c2")
    for name in ("a4", "d12", "dic3", "c12", "c2xc6"):
        rep = cross_check_abstract_enumeration(corpus_group(name), H, "rep")
        assert rep.ok


def test_variant_validation():
    with pytest.raises(ValidationError):
        map_group(corpus_group("c1"), corpus_group("c1"), "bogus")


def test_deterministic_output():
    a = map_group(corpus_group("s3"), corpus_group("c2"), "orb")
    b = map_group(corpus_group("s3"), corpus_group("c2"), "orb")
    assert a.basis == b.basis
    assert a.orbit_table == b.orbit_table


def _shape(p):
    gens = {g for pair in p.orbit_table for g in pair}
    return p.rank, len(gens), sorted(Counter(g.k_order for g in gens).items())


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_map_group_is_invariant_under_relabelling(data):
    names = [G.name for G in groups_of_order_at_most(8)]
    G, H = (corpus_group(data.draw(st.sampled_from(names))) for _ in range(2))
    G2, H2 = (relabelled(X, data.draw(st.permutations(range(X.order)))) for X in (G, H))
    for variant in ("rep", "orb"):
        assert _shape(map_group(G2, H2, variant)) == _shape(map_group(G, H, variant))


def test_target_independent_data_is_built_once(monkeypatch):
    calls = []

    def counting(K, K2, alpha):
        calls.append(alpha)
        return bundles.framing_bit_permutation(K, K2, alpha)

    monkeypatch.setattr(stablemaps, "framing_bit_permutation", counting)
    d8 = corpus_group("d8")
    G = FiniteGroup(d8.table)  # a fresh instance: nothing cached on it yet
    autos = 0
    for sc in subgroup_classes(G):
        K, emb = subgroup_as_group(G, sc.representative)
        autos += len({tuple(G.conj(n, g) for g in emb) for n in normalizer(G, sc.representative)})
    for name in ("c2", "s3", "q8"):
        for variant in ("rep", "orb"):
            map_group(G, corpus_group(name), variant)
    assert autos > len(subgroup_classes(G))  # some automorphism is not the identity
    assert len(calls) == autos


def test_partner_bits_are_flipped_once_per_bit0_framing(monkeypatch):
    calls = []

    def counting(K, bits):
        calls.append(bits)
        return bundles.flip_trivial_bit(K, bits)

    monkeypatch.setattr(stablemaps, "flip_trivial_bit", counting)
    G = FiniteGroup(corpus_group("d8").table)  # a fresh instance: nothing cached on it yet
    map_group(G, corpus_group("c2"), "rep")
    bit0_framings = sum(
        len(bundles.framings(subgroup_as_group(G, sc.representative)[0])) // 2
        for sc in subgroup_classes(G)
    )
    assert len(calls) == bit0_framings  # while the source's data is built
    calls.clear()
    for H in groups_of_order_at_most(8):
        for variant in ("rep", "orb"):
            assert map_group(G, H, variant).rank > 0
    assert calls == []


def test_map_group_equals_the_canonicalise_and_pair_reference():
    # Reading the basis off the framings with trivial bit 0 gives the same
    # presentation as canonicalising every framing and pairing each class
    # with its involution partner, on all 392 calls of order <= 8.
    groups = groups_of_order_at_most(8)
    calls = 0
    for G in groups:
        for H in groups:
            for variant in ("rep", "orb"):
                expected, classes = reference_map_group(G, H, variant)
                p = map_group(G, H, variant)
                assert (p.rank, p.basis, p.orbit_table) == (
                    expected.rank, expected.basis, expected.orbit_table
                ), (G.name, H.name, variant)
                assert enumerate_generators(G, H, variant) == classes, (G.name, H.name, variant)
                calls += 1
    assert calls == 392


def test_stabilizers_that_move_framings_filter_as_the_reference_does():
    # Over order <= 8 nearly every induced automorphism fixes each framing
    # with trivial bit 0, so the stabilizer filter and the least-hom-class
    # test seldom act there; these sources make both act.
    calls, moving, filtered, skipped = 0, {}, 0, 0
    for name in ("a4", "d16", "q16", "f20", "s4", "d24", "c2xa4"):
        G = corpus_group(name)
        moving[name] = sum(
            any(bm[b] != b for b in all_bits if flipped[b] > b)
            for _, _, bit_moves, all_bits, flipped in _reference_map_subgroups(G)
            for bm in bit_moves
        )
        for target in ("c1", "c2", "c3", "s3"):
            H = corpus_group(target)
            for variant in ("rep", "orb"):
                expected, classes = reference_map_group(G, H, variant)
                p = map_group(G, H, variant)
                assert (p.rank, p.basis, p.orbit_table) == (
                    expected.rank, expected.basis, expected.orbit_table
                ), (name, target, variant)
                assert enumerate_generators(G, H, variant) == classes, (name, target, variant)
                calls += 1
                # A hom class with no basis pair is not least in its orbit; one
                # with fewer pairs than bit-0 framings lost some to its stabilizer.
                per_class = Counter((c.subgroup_index, c.g_class) for c in p.basis)
                for i, (K, _, _, all_bits, _) in enumerate(_reference_map_subgroups(G)):
                    homs = rep_hom_classes(K, H) if variant == "rep" else hom_classes(K, H)
                    counts = [per_class[(i, c.representative)] for c in homs]
                    skipped += counts.count(0)
                    filtered += sum(0 < k < len(all_bits) // 2 for k in counts)
    assert calls == 56
    assert moving["f20"] == 10
    assert filtered > 0 and skipped > 0, (filtered, skipped)


def test_an_automorphism_moving_the_trivial_bit_is_refused(monkeypatch):
    def swapping(K, K2, alpha):
        perm = list(bundles.framing_bit_permutation(K, K2, alpha))
        if len(perm) > 1:
            t = bundles.real_irreps(K).trivial_bit
            u = (t + 1) % len(perm)
            perm[t], perm[u] = perm[u], perm[t]
        return tuple(perm)

    monkeypatch.setattr(stablemaps, "framing_bit_permutation", swapping)
    G = FiniteGroup(corpus_group("c2").table)  # a fresh instance: nothing cached on it yet
    assert [sc.order for sc in subgroup_classes(G)] == [1, 2]
    with pytest.raises(InternalCheckError, match="trivial framing bit"):
        map_group(G, corpus_group("c1"), "rep")
