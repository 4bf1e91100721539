import pytest

from orbicalc.errors import ValidationError
from orbicalc.localize import (
    ArrowData,
    FiniteCategory,
    category_from_json,
    check_right_multiplicative,
    localize_hom,
    verify_universal_property,
)
from .cat_corpus import (
    chain_category,
    ore_counterexample,
    single_inversion,
    synthetic_corpus,
    walking_iso,
    cyclic_monoid,
    idempotent_monoid,
)
from .helpers import localization_map, verify_filtered


def identities_of(C):
    return {C.identity(x) for x in C.objects}


def test_category_validation_catches_missing_identity():
    # Neither arrow is two-sided neutral, so this is not a category.
    with pytest.raises(ValidationError):
        FiniteCategory(
            ["a"],
            [ArrowData("e", "a", "a"), ArrowData("f", "a", "a")],
            {("e", "e"): "f", ("e", "f"): "f", ("f", "e"): "f", ("f", "f"): "f"},
        )


def test_identities_only_is_rms_everywhere():
    for C in synthetic_corpus():
        verdict = check_right_multiplicative(C, identities_of(C))
        assert verdict.ok, (C.name, verdict.failures)


def test_identities_only_localization_is_hom():
    for C in synthetic_corpus():
        W = identities_of(C)
        for x in C.objects:
            for y in C.objects:
                loc = localize_hom(C, W, x, y)
                assert len(loc.classes) == len(C.hom(x, y)), (C.name, x, y)
                lmap = localization_map(C, W, x, y)
                assert sorted(lmap) == C.hom(x, y)
                assert sorted(set(lmap.values())) == list(range(len(loc.classes)))


def test_chain_with_terminal_arrow_in_w():
    # a then b along a three-object chain; inverting the second arrow is
    # legitimate because every completion the Ore condition asks for exists.
    C = chain_category(2)
    W = identities_of(C) | {"f1_2"}
    verdict = check_right_multiplicative(C, W)
    assert verdict.ok, verdict.failures


def test_ore_counterexample_witness():
    C, W = ore_counterexample()
    verdict = check_right_multiplicative(C, W)
    assert not verdict.ok
    ore_failures = [f for f in verdict.failures if f["axiom"] == "ore"]
    assert ore_failures
    witness = ore_failures[0]["cospan"]
    assert witness == {"map": "u", "w": "w"}


def test_localize_refuses_bad_w():
    C, W = ore_counterexample()
    with pytest.raises(ValidationError):
        localize_hom(C, W, "x", "z")


def test_single_inversion_localization():
    C = single_inversion()
    W = {"ia", "ib", "w"}
    assert check_right_multiplicative(C, W).ok
    # Hom(b, a) in the localization is the single formal inverse class.
    loc = localize_hom(C, W, "b", "a")
    assert len(loc.classes) == 1
    assert loc.classes[0][0].w == "w" and loc.classes[0][0].f == "ia"
    # Hom(b, b) collapses to the identity class.
    loc_bb = localize_hom(C, W, "b", "b")
    assert len(loc_bb.classes) == 1
    # Hom(a, b) and Hom(a, a) are unchanged in size.
    assert len(localize_hom(C, W, "a", "b").classes) == 1
    assert len(localize_hom(C, W, "a", "a").classes) == 1


def test_invertible_w_preserves_hom_sets():
    C = walking_iso()
    W = {"ia", "ib", "u", "v"}
    assert check_right_multiplicative(C, W).ok
    for x in C.objects:
        for y in C.objects:
            loc = localize_hom(C, W, x, y)
            assert len(loc.classes) == len(C.hom(x, y))
    Z = cyclic_monoid(3)
    Wz = set(Z.arrows)
    assert check_right_multiplicative(Z, Wz).ok
    assert len(localize_hom(Z, Wz, "*", "*").classes) == 3


def test_filteredness_for_valid_rms():
    C = single_inversion()
    for x in C.objects:
        assert verify_filtered(C, {"ia", "ib", "w"}, x)
    for cat in synthetic_corpus():
        W = identities_of(cat)
        for x in cat.objects:
            assert verify_filtered(cat, W, x)


def test_universal_property_identities_only():
    for C in synthetic_corpus():
        if len(C.arrows) > 12:
            continue
        W = identities_of(C)
        for x in C.objects:
            for y in C.objects:
                assert verify_universal_property(C, W, x, y)


def test_universal_property_single_inversion():
    C = single_inversion()
    W = {"ia", "ib", "w"}
    for x in C.objects:
        for y in C.objects:
            assert verify_universal_property(C, W, x, y)


def test_universal_property_guards_size():
    C = grid = chain_category(4)
    if len(C.arrows) > 12:
        with pytest.raises(ValidationError):
            verify_universal_property(C, identities_of(C), "0", "1")


def test_category_json_roundtrip(tmp_path):
    data = {
        "objects": ["a", "b"],
        "arrows": [
            {"name": "ia", "src": "a", "dst": "a"},
            {"name": "ib", "src": "b", "dst": "b"},
            {"name": "w", "src": "a", "dst": "b"},
        ],
        "compose": [
            ["ia", "ia", "ia"], ["ib", "ib", "ib"],
            ["ia", "w", "w"], ["w", "ib", "w"],
        ],
        "W": ["ia", "ib", "w"],
    }
    p = tmp_path / "cat.json"
    import json

    p.write_text(json.dumps(data))
    C, W = category_from_json(p)
    assert check_right_multiplicative(C, W).ok
    assert len(localize_hom(C, W, "b", "a").classes) == 1


def test_inverse_is_two_sided_or_none():
    C = walking_iso()
    assert [C.inverse(a) for a in ("ia", "ib", "u", "v")] == ["ia", "ib", "v", "u"]
    Z = cyclic_monoid(3)
    assert [Z.inverse(a) for a in ("g0", "g1", "g2")] == ["g0", "g2", "g1"]
    E = idempotent_monoid()
    assert E.inverse("id") == "id" and E.inverse("e") is None
