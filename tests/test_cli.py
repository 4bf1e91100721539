import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orbicalc import cli
from orbicalc.corpus import corpus_dir

from .test_linalg import C3_ROTATION

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "orbicalc" / "schemas"


def run_cli(*argv, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "orbicalc", *argv],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, proc.stderr
    return proc


def check_schema(instance, schema) -> None:
    """A deliberately small validator: types, required, properties, items, enum."""
    t = schema.get("type")
    if t == "object":
        assert isinstance(instance, dict), schema.get("$id", schema)
        for key in schema.get("required", []):
            assert key in instance, f"missing {key}"
        for key, sub in schema.get("properties", {}).items():
            if key in instance and sub:
                check_schema(instance[key], sub)
    elif t == "array":
        assert isinstance(instance, list)
        items = schema.get("items")
        if items:
            for x in instance:
                check_schema(x, items)
    elif t == "integer":
        assert isinstance(instance, int) and not isinstance(instance, bool)
    elif t == "string":
        assert isinstance(instance, str)
        if "enum" in schema:
            assert instance in schema["enum"]
    elif t == "boolean":
        assert isinstance(instance, bool)


def load_schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def test_group_command_schema():
    out = json.loads(run_cli("group", "s3").stdout)
    check_schema(out, load_schema("group"))
    assert out["order"] == 6
    assert out["class_sizes"] == [1, 2, 3]


def test_irreps_command():
    out = json.loads(run_cli("irreps", "q8").stdout)
    check_schema(out, load_schema("irreps"))
    kinds = sorted((e["dim"], e["end_type"]) for e in out["entries"])
    assert kinds == [(1, "R")] * 4 + [(4, "H")]
    assert "chi" in out["character_table_text"]


def test_homs_command_matches_example():
    out = json.loads(run_cli("homs", str(corpus_dir() / "c2.json"),
                             str(corpus_dir() / "s3.json")).stdout)
    check_schema(out, load_schema("homs"))
    assert len(out["classes"]) == 2
    inj = json.loads(run_cli("homs", "c2", "s3", "--injective").stdout)
    assert len(inj["classes"]) == 1


def test_bundles_command():
    out = json.loads(run_cli("bundles", "c3").stdout)
    check_schema(out, load_schema("bundles"))
    assert out["framing_count"] == 2


def test_stable_maps_command():
    out = json.loads(run_cli("stable-maps", "c2", "c2", "--variant", "orb").stdout)
    check_schema(out, load_schema("stable-maps"))
    assert out["rank"] == 5


def test_rstar_commands():
    hom = json.loads(
        run_cli("rstar", "--max-order", "2", "--max-dim", "3", "--homology").stdout
    )
    check_schema(hom, load_schema("rstar-homology"))
    assert hom["homology"][0]["betti"] == 1
    assert all(d["betti"] == 0 for d in hom["homology"][1:3])
    cen = json.loads(
        run_cli("rstar", "--max-order", "3", "--max-dim", "2", "--census").stdout
    )
    check_schema(cen, load_schema("rstar-census"))
    assert [c["count"] for c in cen["cells"]] == [3, 2, 0]


def test_localize_command(tmp_path):
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
    f = tmp_path / "cat.json"
    f.write_text(json.dumps(data))
    out = json.loads(run_cli("localize", str(f), "--from", "b", "--to", "a").stdout)
    check_schema(out, load_schema("localize"))
    assert out["rms_ok"] and out["count"] == 1


def test_detect_command():
    out = json.loads(run_cli("detect", "c2", "--char-index", "0").stdout)
    check_schema(out, load_schema("detect"))
    assert out["verdict"] == "nonzero_certified"
    assert out["degree"] == -1


def test_detect_matrix_file(tmp_path):
    f = tmp_path / "rep.json"
    f.write_text(json.dumps({
        "mode": "exact",
        "matrices": [[[1]], [[-1]]],
    }))
    out = json.loads(run_cli("detect", "c2", "--matrix-file", str(f)).stdout)
    assert out["verdict"] == "nonzero_certified"


def test_corpus_command():
    out = json.loads(run_cli("corpus").stdout)
    check_schema(out, load_schema("corpus"))
    assert any(g["name"] == "s4" and g["order"] == 24 for g in out["groups"])
    dumped = json.loads(run_cli("corpus", "--dump", "trivial").stdout)
    assert dumped["order"] == 1


def test_usage_error_exits_2():
    run_cli("stable-maps", "c2", "c2", "--variant", "nope", expect=2)
    run_cli(expect=2)


def test_domain_error_exits_1():
    proc = run_cli("group", "definitely-not-a-group", expect=1)
    err = json.loads(proc.stderr)
    assert err["error"] == "ValidationError"


def test_help_exits_zero():
    proc = run_cli("group", "--help")
    assert "usage" in proc.stdout


def test_out_and_manifest(tmp_path):
    out_path = tmp_path / "res.json"
    man_path = tmp_path / "man.json"
    run_cli("irreps", "c4", "--out", str(out_path), "--manifest", str(man_path))
    payload = json.loads(out_path.read_text())
    manifest = json.loads(man_path.read_text())
    check_schema(manifest, load_schema("manifest"))
    import hashlib

    assert manifest["output_sha256"] == hashlib.sha256(
        out_path.read_bytes()
    ).hexdigest()
    assert manifest["command"] == "irreps"


def test_determinism_twice():
    cmds = [
        ("group", "d8"),
        ("irreps", "c6"),
        ("homs", "c2", "s3"),
        ("stable-maps", "s3", "c2", "--variant", "rep"),
        ("rstar", "--max-order", "4", "--max-dim", "3", "--homology"),
        ("detect", "s3", "--char-index", "2"),
        ("corpus",),
    ]
    for cmd in cmds:
        a = run_cli(*cmd).stdout
        b = run_cli(*cmd).stdout
        assert a == b


def _structured_error(proc):
    assert "Traceback" not in proc.stderr
    err = json.loads(proc.stderr)
    assert err["error"] == "ValidationError" and err["message"]
    return err


def test_group_file_that_is_not_json_exits_1(tmp_path):
    f = tmp_path / "broken.json"
    f.write_text('{"name": "s3", "degree": 3, "gener')
    _structured_error(run_cli("group", str(f), expect=1))
    f.write_text("[1, 2, 3]")
    _structured_error(run_cli("group", str(f), expect=1))


def _two_object_category():
    return {
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


def test_malformed_category_exits_1(tmp_path):
    f = tmp_path / "cat.json"
    for key in ("name", "src", "dst"):
        data = _two_object_category()
        del data["arrows"][2][key]
        f.write_text(json.dumps(data))
        err = _structured_error(run_cli("localize", str(f), "--from", "a",
                                        "--to", "b", expect=1))
        assert key in err["message"]
    for key in ("objects", "arrows"):
        data = _two_object_category()
        del data[key]
        f.write_text(json.dumps(data))
        _structured_error(run_cli("localize", str(f), "--from", "a", "--to", "b",
                                  expect=1))
    data = _two_object_category()
    data["compose"][0].pop()
    f.write_text(json.dumps(data))
    _structured_error(run_cli("localize", str(f), "--from", "a", "--to", "b",
                              expect=1))
    f.write_text("{not json")
    _structured_error(run_cli("localize", str(f), "--from", "a", "--to", "b",
                              expect=1))


def test_localize_unknown_object_exits_1(tmp_path):
    f = tmp_path / "cat.json"
    f.write_text(json.dumps(_two_object_category()))
    for ends in (("a", "zz"), ("zz", "a")):
        err = _structured_error(run_cli("localize", str(f), "--from", ends[0],
                                        "--to", ends[1], expect=1))
        assert "zz" in err["message"]


def test_detect_matrix_file_that_is_not_json_exits_1(tmp_path):
    f = tmp_path / "rep.json"
    f.write_text('{"mode": "exact", "matr')
    _structured_error(run_cli("detect", "c2", "--matrix-file", str(f), expect=1))


def test_group_files_with_wrong_field_types_exit_1(tmp_path):
    f = tmp_path / "g.json"
    bad = [
        {"degree": "3", "generators": [[1, 2, 0]]},
        {"degree": 3, "generators": [[1, 2, "0"]]},
        {"table": [[0, 1], [1, True]]},
        {"table": [[0, 1], [1, 0.0]]},
        {"table": [[0, 1], [1, -1]]},
        {"table": [[0, 1], [1, 2]]},
        {"table": [[0, 1], [1, 0]], "labels": [0, 1]},
    ]
    for data in bad:
        f.write_text(json.dumps(data))
        _structured_error(run_cli("group", str(f), expect=1))


def test_detect_matrix_file_without_matrices_exits_1(tmp_path):
    f = tmp_path / "rep.json"
    for data in ({"mode": "exact"}, {"matrices": [1, 2]}, {"matrices": [[["x"]], [[1]]]},
                 {"mode": "fixed", "matrices": [[["x"]], [[1]]]}, [1]):
        f.write_text(json.dumps(data))
        _structured_error(run_cli("detect", "c2", "--matrix-file", str(f), expect=1))


def test_manifest_records_the_file_an_alias_names(tmp_path):
    m = tmp_path / "m.json"
    run_cli("group", "d6", "--manifest", str(m))
    digest = json.loads(m.read_text())["inputs"]["group"]
    assert digest == hashlib.sha256((corpus_dir() / "s3.json").read_bytes()).hexdigest()


def _detect_file(tmp_path, group, data, expect):
    f = tmp_path / "rep.json"
    f.write_text(json.dumps(data))
    return run_cli("detect", group, "--matrix-file", str(f), expect=expect)


def test_detect_fixed_mode_uses_the_declared_tolerance(tmp_path):
    data = {"mode": "fixed", "tolerance": 1e-4, "matrices": C3_ROTATION}
    out = json.loads(_detect_file(tmp_path, "c3", data, 0).stdout)
    assert out == {"group": "c3", "fixed_dim": 0, "degree": -2, "verdict": "nonzero_certified"}


def test_detect_refuses_an_unknown_mode(tmp_path):
    data = {"mode": "exakt", "matrices": [[[1]], [[-1]]]}
    err = _structured_error(_detect_file(tmp_path, "c2", data, 1))
    assert "mode" in err["message"]


def test_detect_refuses_a_negative_tolerance(tmp_path):
    data = {"mode": "fixed", "tolerance": -1, "matrices": [[[1]], [[-1]]]}
    err = _structured_error(_detect_file(tmp_path, "c2", data, 1))
    assert "tolerance" in err["message"]


def test_detect_refuses_a_tolerance_that_accepts_anything(tmp_path):
    data = {"mode": "fixed", "tolerance": 1e300, "matrices": [[[1]], [[5]], [[-7]]]}
    err = _structured_error(_detect_file(tmp_path, "c3", data, 1))
    assert "tolerance" in err["message"]


def _main(argv):
    """cli.main in process: (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _category_with(path, value):
    """The two-object category JSON with the leaf at path replaced by value."""
    data = _two_object_category()
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(data)


def _leaf_paths(node, path=()):
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [p for key, child in items for p in _leaf_paths(child, path + (key,))]
    return [path]


FILE = object()  # stands for the input file in an argv
LOCALIZE = ["localize", FILE, "--from", "a", "--to", "b"]
DETECT = ["detect", "c2", "--matrix-file", FILE]
DEEP = "[" * 100_000 + "]" * 100_000

MALFORMED_INPUTS = {  # name -> (argv, file text, part of the error message)
    "arrow name": (LOCALIZE, _category_with(("arrows", 2, "name"), ["i"]), "lacks a string name"),
    "arrow src": (LOCALIZE, _category_with(("arrows", 2, "src"), ["i"]), "lacks a string src"),
    "arrow dst": (LOCALIZE, _category_with(("arrows", 2, "dst"), ["i"]), "lacks a string dst"),
    "object": (LOCALIZE, _category_with(("objects", 0), 5), "'objects' must be"),
    "W not a list": (LOCALIZE, _category_with(("W",), 5), "'W' must be"),
    "W entry": (LOCALIZE, _category_with(("W",), [["i"]]), "'W' must be"),
    "compose not a list": (LOCALIZE, _category_with(("compose",), 7), "'compose'"),
    "compose entry": (LOCALIZE, _category_with(("compose", 0, 2), ["ia"]), "compose entry"),
    "exact NaN": (DETECT, '{"mode": "exact", "matrices": [[[1]], [[NaN]]]}', "finite numbers"),
    "exact Infinity": (DETECT, '{"matrices": [[[1]], [[Infinity]]]}', "finite numbers"),
    "exact 1e400": (DETECT, '{"mode": "exact", "matrices": [[[1]], [[1e400]]]}', "finite numbers"),
    "fixed NaN": (DETECT, '{"mode": "fixed", "matrices": [[[1]], [[NaN]]]}', "finite numbers"),
    "fixed big integer": (
        DETECT, '{"mode": "fixed", "matrices": [[[1]], [[1%s]]]}' % ("0" * 400), "too large"
    ),
    "deep matrix file": (DETECT, DEEP, "nested too deeply"),
    "deep category": (LOCALIZE, DEEP, "nested too deeply"),
    "deep group file": (["group", FILE], DEEP, "nested too deeply"),
}


@pytest.mark.parametrize("argv, text, message", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS)
def test_malformed_inputs_exit_1_with_a_structured_error(tmp_path, argv, text, message):
    f = tmp_path / "input.json"
    f.write_text(text)
    code, err = _main([str(f) if a is FILE else a for a in argv])
    assert code == 1
    err = json.loads(err)
    assert err["error"] == "ValidationError" and message in err["message"]


def test_exact_mode_accepts_an_integer_too_large_for_a_float(tmp_path):
    big = 10**400
    # [[1, big], [0, -1]] squares to the identity, so it represents C2.
    data = {"mode": "exact", "matrices": [[[1, 0], [0, 1]], [[1, big], [0, -1]]]}
    f = tmp_path / "m.json"
    f.write_text(json.dumps(data))
    code, err = _main(["detect", "c2", "--matrix-file", str(f)])
    assert (code, err) == (0, "")


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    path=st.sampled_from(_leaf_paths(_two_object_category())),
    value=st.one_of(
        st.integers(),
        st.lists(st.sampled_from(["a", "b", "ia", "ib", "w"]), max_size=3),
        st.none(),
        st.dictionaries(st.sampled_from(["name", "src", "dst"]), st.just("a"), max_size=3),
    ),
)
def test_a_category_with_one_mistyped_leaf_never_raises(tmp_path, path, value):
    f = tmp_path / "cat.json"
    f.write_text(_category_with(path, value))
    code, err = _main(["localize", str(f), "--from", "a", "--to", "b"])
    assert code in (0, 1)
    if code == 1:
        json.loads(err)


def test_import_loads_neither_scipy_nor_sympy():
    code = (
        "import sys, orbicalc, orbicalc.cli; "
        "print(sorted(m for m in ('scipy', 'sympy') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_package_exports_are_pinned():
    import types

    import orbicalc

    exported = {
        n for n, v in vars(orbicalc).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert exported == {
        "ChainComplex", "CharacterTable", "CoarseStableBundle", "FiniteCategory",
        "FiniteGroup", "Framing", "HomClass", "InternalCheckError", "LinearChart",
        "MapGenerator", "MapGroupPresentation", "MatrixRep", "OrbicalcError",
        "RealIrrep", "RealIrrepTable", "StableBundle", "SubgroupClass",
        "ValidationError", "are_isomorphic", "aut_group", "build_quotient_category",
        "cell_census", "centralizer", "character_table", "check_right_multiplicative",
        "conjugacy_classes", "corpus_group", "corpus_names",
        "cross_check_abstract_enumeration", "derived_class_detector",
        "enumerate_generators", "enumerate_homs", "fixed_subspace", "framings",
        "frobenius_schur", "group_from_generators", "group_from_json", "hom_classes",
        "homology", "involution", "isotypic_decomposition", "isotypic_surjectivity",
        "load_group", "localize_hom", "map_group", "min_faithful_tensor_power",
        "nerve_chain_complex", "pi1", "quotient_group", "real_irreps",
        "rep_hom_classes", "restrict_bundle", "restriction_multiplicities",
        "rstar_homology", "smith_normal_form", "subgroup_as_group", "subgroup_classes",
        "transport_framing", "trivial_group", "verify_universal_property",
    }

