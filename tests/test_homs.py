import random

import pytest

from orbicalc import homs
from orbicalc.characters import character_table
from orbicalc.corpus import corpus_group, groups_of_order_at_most
from orbicalc.errors import InternalCheckError, ValidationError
from orbicalc.groups import (
    FiniteGroup,
    group_from_generators,
    is_homomorphism,
    normal_subgroups,
    subgroup_as_group,
    subgroup_classes,
)
from orbicalc.homs import (
    class_of_hom,
    enumerate_homs,
    hom_classes,
    pi1,
    rep_hom_classes,
)
from .helpers import (
    brute_force_homs,
    compose_hom_classes,
    reference_hom_classes,
    reference_is_homomorphism,
)


def test_hom_from_trivial_group():
    T = corpus_group("c1")
    for name in ("c2", "s3", "q8"):
        H = corpus_group(name)
        assert enumerate_homs(T, H) == [(H.identity,)]


def test_is_homomorphism_agrees_with_the_product_oracle():
    groups = groups_of_order_at_most(8)
    rng = random.Random(8)
    verdicts = {True: 0, False: 0}
    for G in groups:
        for H in groups:
            homs_GH = enumerate_homs(G, H)
            maps = list(homs_GH)
            maps += [tuple(rng.randrange(H.order) for _ in range(G.order)) for _ in range(6)]
            # phi(e) != e: a hom with the identity's image moved, and a constant map.
            for h in range(H.order):
                if h != H.identity:
                    phi = list(rng.choice(homs_GH))
                    phi[G.identity] = h
                    maps += [tuple(phi), (h,) * G.order]
            # The wrong length: one image too many or too few.
            maps += [phi + (H.identity,) for phi in homs_GH[:3]]
            maps += [phi[:-1] for phi in homs_GH[:3]]
            for phi in maps:
                verdict = is_homomorphism(G, H, phi)
                assert verdict == reference_is_homomorphism(G, H, phi), (G.name, H.name, phi)
                verdicts[verdict] += 1
            assert all(is_homomorphism(G, H, phi) for phi in homs_GH)
    assert min(verdicts.values()) > 1000


def test_is_homomorphism_refuses_a_map_of_the_wrong_length_or_range():
    c2 = corpus_group("c2")
    assert is_homomorphism(c2, c2, (0, 1))
    assert not is_homomorphism(c2, c2, (0, 1, 5))
    assert not is_homomorphism(c2, c2, (0,))
    assert not is_homomorphism(c2, c2, (0, 5))


def test_hom_c2_s3_count():
    G, H = corpus_group("c2"), corpus_group("s3")
    homs = enumerate_homs(G, H)
    # Oracle: brute force over all generator images.
    assert len(homs) == len(brute_force_homs(G, H)) == 4
    for phi in homs:
        assert is_homomorphism(G, H, phi)


def test_hom_c3_c2_only_trivial():
    G, H = corpus_group("c3"), corpus_group("c2")
    assert len(enumerate_homs(G, H)) == 1


def test_hom_counts_match_brute_force_small():
    smalls = [g for g in groups_of_order_at_most(6)]
    targets = [g for g in groups_of_order_at_most(8)]
    for G in smalls:
        for H in targets:
            fast = enumerate_homs(G, H)
            slow = brute_force_homs(G, H)
            assert sorted(fast) == sorted(slow), (G.name, H.name)


def test_hom_classes_c2_c2():
    classes = hom_classes(corpus_group("c2"), corpus_group("c2"))
    assert len(classes) == 2
    assert sorted(c.injective for c in classes) == [False, True]


def test_hom_classes_c2_s3_orbits():
    classes = hom_classes(corpus_group("c2"), corpus_group("s3"))
    assert len(classes) == 2
    assert sorted(c.orbit_size for c in classes) == [1, 3]


def test_hom_classes_s3_c2():
    classes = hom_classes(corpus_group("s3"), corpus_group("c2"))
    assert len(classes) == 2  # trivial and sign


def test_orbit_stabilizer_sum():
    for G in groups_of_order_at_most(8):
        for H in groups_of_order_at_most(12):
            homs = enumerate_homs(G, H)
            classes = hom_classes(G, H)
            assert sum(c.orbit_size for c in classes) == len(homs)
            for c in classes:
                assert c.orbit_size * c.centralizer_order == H.order


def test_pi1_examples():
    s3 = corpus_group("s3")
    classes = hom_classes(corpus_group("c2"), s3)
    triv = next(c for c in classes if not c.injective)
    inj = next(c for c in classes if c.injective)
    assert len(pi1(s3, triv).representative) == 6
    assert len(pi1(s3, inj).representative) == 2
    ident = next(
        c for c in hom_classes(s3, s3) if c.representative == tuple(range(6))
    )
    assert len(pi1(s3, ident).representative) == 1  # s3 is centerless


def _oracle_pairs():
    """The ordered pairs of order <= 12 corpus groups, then the (subgroup,
    target) pairs of the order <= 8 map groups."""
    groups, small = groups_of_order_at_most(12), groups_of_order_at_most(8)
    pairs = [(G, H) for G in groups for H in groups]
    assert len(pairs) == 576
    for G in small:
        for sc in subgroup_classes(G):
            K, _ = subgroup_as_group(G, sc.representative)
            pairs += [(K, H) for H in small]
    return pairs


def test_hom_classes_and_class_of_hom_equal_the_whole_group_conjugation():
    for G, H in _oracle_pairs():
        assert hom_classes(G, H) == reference_hom_classes(G, H), (G.name, H.name)
        for phi in enumerate_homs(G, H):
            least = min(tuple(cm[x] for x in phi) for cm in H.conj_maps())
            assert class_of_hom(G, H, phi) == least, (G.name, H.name, phi)


def test_inner_automorphisms_are_the_distinct_conjugations():
    for H in groups_of_order_at_most(12):
        inn = homs.inner_automorphisms(H)
        assert set(inn) == set(H.conj_maps()) and len(set(inn)) == len(inn)
        assert len(inn) == H.order // len(H.center())
        assert inn[0] == H.conj_maps()[0]


@pytest.mark.parametrize("drop", range(1, 6))
def test_a_missing_inner_automorphism_fails_orbit_stabilizer(fresh_groups, monkeypatch, drop):
    # Inn(S3) acts regularly on the automorphisms of S3, so without one row
    # the identity's orbit has 5 members against a centralizer of 1.  (Any
    # five rows still reach all three transpositions, so c2 -> s3 cannot
    # see the loss.)
    s3 = corpus_group("s3")
    inn = homs.inner_automorphisms(s3)
    assert len(inn) == 6 and inn[0] == tuple(range(6))
    monkeypatch.setattr(homs, "inner_automorphisms", lambda H: inn[:drop] + inn[drop + 1 :])
    with pytest.raises(InternalCheckError, match="orbit-stabilizer fails for a hom class"):
        hom_classes(s3, s3)


def test_rep_hom_classes_examples():
    assert len(rep_hom_classes(corpus_group("c2"), corpus_group("s3"))) == 1
    assert len(rep_hom_classes(corpus_group("c2"), corpus_group("c3"))) == 0
    assert len(rep_hom_classes(corpus_group("c1"), corpus_group("q8"))) == 1


def test_rep_recovery_report():
    inj, rep = rep_hom_classes(corpus_group("c4"), corpus_group("c2"), report=True)
    assert rep.identity_a and rep.identity_b
    assert rep.total_classes == sum(rep.classes_by_normal.values())


def test_recovery_identities_run_once_per_pair_unless_reported(monkeypatch):
    checks = []

    def counting(G, *args):
        checks.append(G)
        return normal_subgroups(G, *args)

    normal_subgroups = homs.normal_subgroups
    monkeypatch.setattr(homs, "normal_subgroups", counting)
    G = FiniteGroup(corpus_group("v4").table)  # a fresh instance: nothing cached on it yet
    H = corpus_group("d8")
    first = rep_hom_classes(G, H)
    assert first
    assert rep_hom_classes(G, H) is first
    assert len(checks) == 1
    inj, report = rep_hom_classes(G, H, report=True)
    assert len(checks) == 2
    assert inj == first and report.identity_a and report.identity_b


def test_recovery_identities_small_grid():
    for G in groups_of_order_at_most(8):
        for H in groups_of_order_at_most(8):
            rep_hom_classes(G, H)  # raises on identity failure


def test_hom_count_isomorphism_invariant():
    # Two presentations of s3 must give identical hom counts.
    from orbicalc.groups import group_from_generators

    A = corpus_group("s3")
    B = group_from_generators(3, [[1, 0, 2], [0, 2, 1]])
    for H in groups_of_order_at_most(8):
        assert len(enumerate_homs(A, H)) == len(enumerate_homs(B, H))
        assert len(enumerate_homs(H, A)) == len(enumerate_homs(H, B))


def test_composition_well_defined_on_classes():
    A, B, C = corpus_group("c2"), corpus_group("s3"), corpus_group("s3")
    for fc in hom_classes(A, B):
        for gc in hom_classes(B, C):
            expected = compose_hom_classes(A, B, C, fc.representative, gc.representative)
            # Every pair of representatives must land in the same class.
            f_orbit = {
                tuple(B.conj(h, x) for x in fc.representative)
                for h in range(B.order)
            }
            g_orbit = {
                tuple(C.conj(h, x) for x in gc.representative)
                for h in range(C.order)
            }
            for f in f_orbit:
                for g in g_orbit:
                    assert compose_hom_classes(A, B, C, f, g) == expected


def test_order_caps_refuse_a5_cold_and_after_warm_calls():
    A5 = group_from_generators(5, [[1, 2, 0, 3, 4], [1, 2, 3, 4, 0]])
    assert A5.order == 60
    c2 = corpus_group("c2")
    for _ in range(2):
        for refused in (
            lambda: subgroup_classes(A5),
            lambda: normal_subgroups(A5),
            lambda: enumerate_homs(A5, c2),
            lambda: enumerate_homs(c2, A5),
            lambda: hom_classes(A5, c2),
        ):
            with pytest.raises(ValidationError, match="cap"):
                refused()
        # Warm A5's own derived data and the small groups' lattice and homs.
        character_table(A5)
        subgroup_classes(c2)
        enumerate_homs(c2, c2)
