import pytest

from orbicalc.corpus import corpus_group
from orbicalc.errors import ValidationError
from orbicalc.realreps import MatrixRep, real_irreps
from orbicalc.transversality import (
    DetectorVerdict,
    LinearChart,
    derived_class_detector,
    fixed_subspace,
    isotypic_surjectivity,
)

from .helpers import direct_sum, one_dim_rep, regular_rep


def sign_rep(G):
    # Works for c2 only: the unique faithful one-dimensional rep.
    return one_dim_rep(G, [1, -1])


def test_fixed_subspace_trivial_rep():
    G = corpus_group("s3")
    rep = one_dim_rep(G, [1] * 6)
    dim, basis = fixed_subspace(G, rep)
    assert dim == 1


def test_fixed_subspace_sign_rep():
    G = corpus_group("c2")
    dim, basis = fixed_subspace(G, sign_rep(G))
    assert dim == 0
    assert basis == []


def test_fixed_subspace_regular():
    for name in ("c2", "s3", "q8"):
        G = corpus_group(name)
        dim, basis = fixed_subspace(G, regular_rep(G))
        assert dim == 1  # <chi_reg, 1> = 1


def test_fixed_subspace_permutation_rep():
    # Natural s3 action on 3 points: invariants are the constant vectors.
    G = corpus_group("s3")
    from .helpers import permutation_rep

    # The BFS labels of s3 are permutations of 3 points; rebuild them.
    import re

    perms = []
    for g in range(6):
        lbl = G.labels[g]
        p = list(range(3))
        if lbl != "e":
            for cyc in re.findall(r"\(([^)]*)\)", lbl):
                pts = [int(t) for t in cyc.split()]
                for i, a in enumerate(pts):
                    p[a] = pts[(i + 1) % len(pts)]
        perms.append(tuple(p))
    rep = permutation_rep(G, perms)
    dim, _ = fixed_subspace(G, rep)
    assert dim == 1


def test_chart_alpha_identity_is_consistent():
    G = corpus_group("c2")
    V = sign_rep(G)
    chart = LinearChart(G, V, V, [[1]])
    report = isotypic_surjectivity(chart)
    assert report.consistent
    nontrivial = [b for b in report.blocks if b.irrep_index != report.trivial_index]
    assert all(b.surjective for b in nontrivial)


def test_chart_projection_onto_sign():
    G = corpus_group("c2")
    V = direct_sum(one_dim_rep(G, [1, 1]), sign_rep(G))
    E = sign_rep(G)
    chart = LinearChart(G, V, E, [[0, 1]])
    report = isotypic_surjectivity(chart)
    assert report.consistent


def test_chart_zero_map_fails():
    G = corpus_group("c2")
    V = one_dim_rep(G, [1, 1])
    E = sign_rep(G)
    # Equivariance forces the zero map; the sign block cannot be onto.
    chart = LinearChart(G, V, E, [[0]])
    report = isotypic_surjectivity(chart)
    assert not report.consistent
    sign_block = next(
        b for b in report.blocks if b.irrep_index != report.trivial_index and b.dim_e
    )
    assert sign_block.rank == 0 and not sign_block.surjective


def test_chart_rejects_non_equivariant():
    G = corpus_group("c2")
    V = one_dim_rep(G, [1, 1])
    E = sign_rep(G)
    with pytest.raises(ValidationError):
        LinearChart(G, V, E, [[1]])


def test_surjectivity_invariant_under_equivariant_basis_change():
    # Conjugating by an invertible equivariant map cannot change verdicts.
    G = corpus_group("c2")
    V = direct_sum(direct_sum(one_dim_rep(G, [1, 1]), sign_rep(G)), sign_rep(G))
    E = direct_sum(sign_rep(G), sign_rep(G))
    alpha = [[0, 1, 0], [0, 0, 1]]
    base = isotypic_surjectivity(LinearChart(G, V, E, alpha))
    # Mix the two sign coordinates of V (block diag(1, M) with M invertible).
    import random

    rng = random.Random(3)
    for _ in range(5):
        a, b, c, d = (rng.choice([-2, -1, 1, 2]) for _ in range(4))
        if a * d - b * c == 0:
            continue
        mixed = [[0, a, b], [0, c, d]]
        rep = isotypic_surjectivity(LinearChart(G, V, E, mixed))
        assert rep.consistent == base.consistent


def test_detector_sign_rep():
    G = corpus_group("c2")
    verdict = derived_class_detector(G, sign_rep(G))
    assert verdict.certified
    assert verdict.degree == -1
    assert verdict.fixed_dim == 0


def test_detector_trivial_rep_inconclusive():
    G = corpus_group("s3")
    verdict = derived_class_detector(G, one_dim_rep(G, [1] * 6))
    assert not verdict.certified
    assert verdict.status == "inconclusive"


def test_detector_standard_rep_s3():
    G = corpus_group("s3")
    R = real_irreps(G)
    std = next(e for e in R.entries if e.real_dim == 2)
    verdict = derived_class_detector(G, list(std.char))
    assert verdict.certified
    assert verdict.degree == -2


def test_detector_direct_sum_additivity():
    # V^G = 0 and W^G = 0 certify the sum in the summed degree.
    G = corpus_group("c2")
    V = sign_rep(G)
    VW = direct_sum(V, V)
    v1 = derived_class_detector(G, V)
    v2 = derived_class_detector(G, VW)
    assert v1.certified and v2.certified
    assert v2.degree == 2 * v1.degree


def test_detector_character_input():
    G = corpus_group("c2")
    assert derived_class_detector(G, [1, -1]).certified
    assert not derived_class_detector(G, [2, 0]).certified  # regular rep


def test_detector_rejects_non_character():
    G = corpus_group("c2")
    for values in ([1, 7], [1, 2], [1.5, 0.5], [1]):
        with pytest.raises(ValidationError):
            derived_class_detector(G, values)
