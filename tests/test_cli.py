import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
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
    # An object named twice, a composite of an unknown arrow, and two
    # entries that give one pair different composites (the last of which
    # would make the idempotent e invertible).
    idempotent = {
        "objects": ["a"],
        "arrows": [{"name": n, "src": "a", "dst": "a"} for n in ("ia", "e")],
        "compose": [["ia", "ia", "ia"], ["ia", "e", "e"], ["e", "ia", "e"],
                    ["e", "e", "e"], ["e", "e", "ia"]],
    }
    duplicate, unknown = _two_object_category(), _two_object_category()
    duplicate["objects"].append("a")
    unknown["compose"].append(["zz", "ia", "ia"])
    for data, word in ((duplicate, "duplicate object"), (unknown, "unknown arrows"),
                       (idempotent, "disagree")):
        f.write_text(json.dumps(data))
        err = _structured_error(run_cli("localize", str(f), "--from", "a",
                                        "--to", "b", expect=1))
        assert word in err["message"]
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


def _category_file(path, C, W):
    path.write_text(json.dumps({
        "name": C.name,
        "objects": C.objects,
        "arrows": [{"name": a.name, "src": a.src, "dst": a.dst} for a in C.arrows.values()],
        "compose": [[a, b, c] for (a, b), c in sorted(C.compose_table.items())],
        "W": sorted(W),
    }))
    return str(path)


def test_localize_checks_its_system_once_per_call(tmp_path, monkeypatch):
    from orbicalc import localize

    from .cat_corpus import ore_counterexample, synthetic_corpus

    cases = [ore_counterexample()]
    for C in synthetic_corpus():
        identities = {C.identity(x) for x in C.objects}
        cases += [(C, identities), (C, set(C.arrows))]
    check, calls = localize.check_right_multiplicative, []

    def counting(C, W):
        calls.append(C.name)
        return check(C, W)

    runs, refused = 0, 0
    for k, (C, W) in enumerate(cases):
        f = _category_file(tmp_path / f"cat{k}.json", C, W)
        verdict = check(C, W)
        refused += not verdict.ok
        for x in C.objects:
            for y in C.objects:
                # stdout as check_right_multiplicative and localize_hom give it
                expected = {"category": C.name, "rms_ok": verdict.ok,
                            "rms_failures": verdict.failures}
                if verdict.ok:
                    loc = localize.localize_hom(C, W, x, y)
                    expected |= {"from": x, "to": y, "count": len(loc.classes), "classes": [
                        [{"w": s.w, "f": s.f} for s in cls] for cls in loc.classes
                    ]}
                out = io.StringIO()
                with monkeypatch.context() as m, contextlib.redirect_stdout(out):
                    m.setattr(localize, "check_right_multiplicative", counting)
                    assert cli.main(["localize", f, "--from", x, "--to", y]) == 0
                assert out.getvalue() == json.dumps(expected, sort_keys=True, indent=2) + "\n"
                runs += 1
    assert len(calls) == runs
    assert 0 < refused < len(cases)


def test_localize_unknown_w_arrow_keeps_its_record(tmp_path):
    f = tmp_path / "cat.json"
    data = _two_object_category()
    data["W"].append("zz")
    f.write_text(json.dumps(data))
    code, err = _main(["localize", str(f), "--from", "a", "--to", "b"])
    assert code == 1
    assert err == (
        '{\n  "error": "ValidationError",\n'
        '  "message": "W contains unknown arrows: [\'zz\']"\n}\n'
    )


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
    """cli.main in process: (exit code, stderr), with every warning added to
    stderr as a run of the command would print it."""
    err = io.StringIO()
    with (
        warnings.catch_warnings(record=True) as caught,
        contextlib.redirect_stdout(io.StringIO()),
        contextlib.redirect_stderr(err),
    ):
        warnings.simplefilter("always")
        code = cli.main(argv)
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
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
    "fixed overflow": (
        DETECT, '{"mode": "fixed", "matrices": [[[1.0]], [[1e200]]]}', "do not respect the table"
    ),
    "fixed big integer": (
        DETECT, '{"mode": "fixed", "matrices": [[[1]], [[1%s]]]}' % ("0" * 400), "too large"
    ),
    "exact big integer": (
        DETECT, '{"mode": "exact", "matrices": [[[1]], [[1%s]]]}' % ("0" * 400),
        "do not respect the table"
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


PATH_ARGVS = {  # FILE stands for a directory named x.json
    "--out": ["group", "c2", "--out", FILE],
    "--manifest": ["group", "c2", "--manifest", FILE],
    "group file": ["group", FILE],
    "category file": ["localize", FILE, "--from", "a", "--to", "b"],
    "matrix file": ["detect", "c2", "--matrix-file", FILE],
}


@pytest.mark.parametrize("argv", PATH_ARGVS.values(), ids=PATH_ARGVS)
def test_a_directory_for_a_path_exits_1_with_a_structured_error(tmp_path, argv):
    d = tmp_path / "x.json"
    d.mkdir()
    code, err = _main([str(d) if a is FILE else a for a in argv])
    assert code == 1
    assert json.loads(err) == {
        "error": "IsADirectory", "message": f"[Errno 21] Is a directory: '{d}'"
    }


def test_a_manifest_that_cannot_be_written_stops_the_payload(tmp_path):
    d, out, m = tmp_path / "x.json", tmp_path / "out.json", tmp_path / "m.json"
    d.mkdir()
    record = {"error": "IsADirectory", "message": f"[Errno 21] Is a directory: '{d}'"}
    proc = run_cli("group", "c2", "--manifest", str(d), expect=1)
    assert proc.stdout == "" and json.loads(proc.stderr) == record
    proc = run_cli("group", "c2", "--out", str(out), "--manifest", str(d), expect=1)
    assert proc.stdout == "" and json.loads(proc.stderr) == record and not out.exists()
    # A manifest that can be written changes nothing on stdout.
    plain = run_cli("group", "c2").stdout
    assert run_cli("group", "c2", "--manifest", str(m)).stdout == plain
    manifest = m.read_text()
    assert json.loads(manifest)["output_sha256"] == hashlib.sha256(plain.encode()).hexdigest()
    # Named by both options, one file ends up holding the manifest alone.
    assert run_cli("group", "c2", "--out", str(m), "--manifest", str(m)).stdout == ""
    assert m.read_text() == manifest


def test_a_path_that_cannot_be_opened_leaves_no_new_file(tmp_path):
    d, new, kept = tmp_path / "x.json", tmp_path / "new.json", tmp_path / "kept.json"
    d.mkdir()
    kept.write_text("kept")
    record = {"error": "IsADirectory", "message": f"[Errno 21] Is a directory: '{d}'"}
    # --out fails after --manifest could be opened, and the other way round.
    for out, manifest in ((d, new), (new, d), (d, kept), (kept, d)):
        proc = run_cli("group", "c2", "--out", str(out), "--manifest", str(manifest), expect=1)
        assert proc.stdout == "" and json.loads(proc.stderr) == record
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.json", "x.json"]
        assert kept.read_text() == "kept"
    # A file that cannot be truncated, such as a device, still takes the manifest.
    assert run_cli("group", "c2", "--manifest", os.devnull).stdout == run_cli("group", "c2").stdout


def test_detect_refuses_a_character_and_a_matrix_file_together(tmp_path):
    f = tmp_path / "rep.json"
    f.write_text(json.dumps({"mode": "exact", "matrices": [[[1]], [[-1]]]}))
    proc = run_cli("detect", "c2", "--char-index", "0", "--matrix-file", str(f), expect=2)
    assert proc.stdout == "" and "not allowed with argument" in proc.stderr


EMPTY_VALUES = {  # an empty option value is a path or name, not an absent option
    "--out": (["group", "c2", "--out", ""], "IsADirectory", "Is a directory: '.'"),
    "--manifest": (["group", "c2", "--manifest", ""], "IsADirectory", "Is a directory: '.'"),
    "--dump": (["corpus", "--dump", ""], "ValidationError", "cannot resolve group ''"),
    "--matrix-file": (
        ["detect", "c2", "--matrix-file", ""], "FileNotFound", "No such file or directory: ''"
    ),
}


@pytest.mark.parametrize("argv, error, message", EMPTY_VALUES.values(), ids=EMPTY_VALUES)
def test_an_empty_option_value_exits_1_with_its_own_error(argv, error, message):
    code, err = _main(argv)
    assert code == 1
    record = json.loads(err)
    assert record["error"] == error and message in record["message"]


def test_a_missing_file_keeps_its_record(tmp_path):
    missing = tmp_path / "missing.json"
    code, err = _main(["detect", "c2", "--matrix-file", str(missing)])
    assert code == 1
    assert err == (
        '{\n  "error": "FileNotFound",\n'
        f'  "message": "[Errno 2] No such file or directory: \'{missing}\'"\n}}\n'
    )


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


GROUP_FILES = {  # one valid group JSON of each form
    "generators": {"name": "s3", "order": 6, "degree": 3, "generators": [[1, 2, 0], [1, 0, 2]]},
    "table": {
        "name": "c2xc2",
        "labels": ["e", "a", "b", "ab"],
        "table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]],
    },
}
DELETE = object()  # stands for deleting the key


def _node_paths(node, path=()):
    """The path to every value below the root, inner nodes included."""
    if not isinstance(node, (dict, list)):
        return []
    items = node.items() if isinstance(node, dict) else enumerate(node)
    return [p for key, child in items for p in [path + (key,), *_node_paths(child, path + (key,))]]


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_group_file_with_one_mutated_field_exits_0_or_1(tmp_path, data):
    form = data.draw(st.sampled_from(sorted(GROUP_FILES)))
    doc = json.loads(json.dumps(GROUP_FILES[form]))
    path = data.draw(st.sampled_from(_node_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    value = data.draw(st.one_of(
        st.integers(-3, 8),
        st.integers(max_value=-1),
        st.just(10**12),
        st.floats(allow_nan=False),
        st.text(max_size=3),
        st.none(),
        st.lists(st.one_of(st.integers(-1, 4), st.lists(st.integers(-1, 4), max_size=4)), max_size=4),
        st.dictionaries(st.sampled_from(["degree", "generators", "table", "labels"]),
                        st.integers(0, 3), max_size=2),
        *([st.just(DELETE)] if isinstance(parent, dict) else []),
    ))
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    f = tmp_path / "g.json"
    f.write_text(json.dumps(doc))
    code, err = _main(["group", str(f)])
    assert code in (0, 1)
    if code == 1:
        record = json.loads(err)
        assert {"error", "message"} <= set(record), record


MATRIX_FILES = {  # valid matrix files of both modes, with their groups
    "exact": ("c2", {"mode": "exact", "matrices": [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]}),
    "fixed sign": ("c2", {"mode": "fixed", "matrices": [[[1.0]], [[-1.0]]]}),
    "fixed rotation": ("c3", {"mode": "fixed", "tolerance": 1e-4, "matrices": C3_ROTATION}),
}


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_matrix_file_with_one_mutated_field_exits_0_or_1(tmp_path, data):
    form = data.draw(st.sampled_from(sorted(MATRIX_FILES)))
    group, doc = MATRIX_FILES[form]
    doc = json.loads(json.dumps(doc))
    path = data.draw(st.sampled_from(_node_paths(doc)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    value = data.draw(st.one_of(
        st.integers(-3, 3),
        st.just(10**400),
        st.floats(),
        st.just(1e200),  # squares past the largest float
        st.sampled_from(["exact", "fixed", ""]),
        st.none(),
        st.lists(st.one_of(st.floats(), st.lists(st.floats(), max_size=3)), max_size=3),
        st.dictionaries(st.sampled_from(["mode", "tolerance", "matrices"]),
                        st.integers(0, 3), max_size=2),
        *([st.just(DELETE)] if isinstance(parent, dict) else []),
    ))
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    f = tmp_path / "m.json"
    f.write_text(json.dumps(doc))
    code, err = _main(["detect", group, "--matrix-file", str(f)])
    assert code in (0, 1)
    if code == 1:
        record = json.loads(err)
        assert {"error", "message"} <= set(record), record
    else:
        assert err == ""


def test_import_loads_neither_scipy_nor_sympy():
    code = (
        "import sys, orbicalc, orbicalc.cli; "
        "print(sorted(m for m in ('scipy', 'sympy') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def loaded_modules(tmp_path, *argv):
    """Run `orbicalc argv` the way `python -m orbicalc` does, in a fresh
    interpreter, and return the names in sys.modules when it ends."""
    listing = tmp_path / "modules.json"
    code = (
        "import json, runpy, sys\n"
        "try:\n"
        "    runpy.run_module('orbicalc', run_name='__main__', alter_sys=True)\n"
        "except SystemExit:\n"
        "    pass\n"
        f"open({str(listing)!r}, 'w').write(json.dumps(sorted(sys.modules)))\n"
    )
    subprocess.run([sys.executable, "-c", code, *argv], capture_output=True, check=True)
    return set(json.loads(listing.read_text()))


# No call loads `dataclasses`, or `inspect`, which it would bring; numpy does
# load `inspect`.
RECORD_MACHINERY = {"dataclasses", "inspect"}
# Matrices of either mode: only a matrix file needs the backend and its Fractions.
EXACT_BACKEND = {"fractions", "orbicalc._linalg"}


def test_import_and_early_refusals_load_no_numpy(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys, orbicalc; print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, check=True,
    )
    modules = set(json.loads(proc.stdout))
    assert "numpy" not in modules and not modules & RECORD_MACHINERY
    assert {m for m in modules if m.startswith("orbicalc")} == {"orbicalc"}
    category = tmp_path / "cat.json"
    category.write_text(json.dumps(_two_object_category()))
    not_json = tmp_path / "broken.json"
    not_json.write_text('{"name": "s3", "degree": 3, "gener')
    for argv in (
        ["--version"],
        ["localize", str(category), "--from", "a", "--to", "b"],
        ["stable-maps", "c2", "c2", "--variant", "nope"],
        ["group", "definitely-not-a-group"],
        ["group", str(not_json)],
        ["detect", "c2"],
    ):
        modules = loaded_modules(tmp_path, *argv)
        assert "numpy" not in modules and not modules & RECORD_MACHINERY, argv
    # An index past the classes is refused before a character table is built.
    modules = loaded_modules(tmp_path, "detect", "s3", "--char-index", "3")
    assert "orbicalc.groups" in modules
    assert "orbicalc.characters" not in modules and "numpy" not in modules
    assert not modules & RECORD_MACHINERY


def test_table_commands_load_the_group_core_and_no_numpy(tmp_path):
    # Hom groupoids, the nerve and the corpus need multiplication tables only.
    for argv in (
        ["group", "c2"],
        ["homs", "c2", "s3"],
        ["rstar", "--max-order", "4", "--max-dim", "2", "--census"],
        ["rstar", "--max-order", "4", "--max-dim", "-1"],
        ["corpus"],
    ):
        modules = loaded_modules(tmp_path, *argv)
        assert "orbicalc.groups" in modules and "numpy" not in modules, argv
        assert not modules & RECORD_MACHINERY, argv
    # Character tables and real irreps run on Python integers, and build no
    # exact matrix.
    for argv in (
        ["irreps", "s3"],
        ["irreps", "s4"],
        ["bundles", "c4"],
        ["bundles", "q8"],
        ["stable-maps", "c2", "s3"],
        ["stable-maps", "c4", "c2", "--variant", "orb"],
        ["detect", "c2", "--char-index", "1"],
        ["detect", "c12", "--char-index", "3"],
    ):
        modules = loaded_modules(tmp_path, *argv)
        assert "orbicalc.characters" in modules and "numpy" not in modules, argv
        assert not modules & (RECORD_MACHINERY | EXACT_BACKEND), argv
    # A matrix file loads the backend and its Fractions in both modes, so
    # the checks above are not vacuous; fixed precision runs on Python
    # floats and loads no numpy either.
    matrices = tmp_path / "c3.json"
    matrices.write_text(json.dumps({"matrices": [[[1]]] * 3}))
    modules = loaded_modules(tmp_path, "detect", "c3", "--matrix-file", str(matrices))
    assert EXACT_BACKEND <= modules and "numpy" not in modules
    assert not modules & RECORD_MACHINERY
    matrices.write_text(json.dumps({"matrices": C3_ROTATION, "mode": "fixed", "tolerance": 1e-4}))
    modules = loaded_modules(tmp_path, "detect", "c3", "--matrix-file", str(matrices))
    assert EXACT_BACKEND <= modules and "numpy" not in modules
    assert not modules & RECORD_MACHINERY


def test_package_exports_are_pinned():
    import types

    import orbicalc

    pinned = {
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
    # The names are exported lazily, so they are listed by dir() and
    # __all__; submodules show up in dir() once something imports them.
    public = {n for n in dir(orbicalc) if not n.startswith("_")}
    assert {n for n in public if not isinstance(getattr(orbicalc, n), types.ModuleType)} == pinned
    assert set(orbicalc.__all__) == pinned
    assert not any(isinstance(getattr(orbicalc, n), types.ModuleType) for n in pinned)
    assert pinned <= set(vars(orbicalc))



def test_the_library_and_the_command_line_read_a_float_alike(tmp_path):
    # 0.6 is read as 3/5 by both, so the reflection is a representation.
    from orbicalc.corpus import corpus_group
    from orbicalc.realreps import MatrixRep
    from orbicalc.transversality import derived_class_detector

    reflection = [[[1, 0], [0, 1]], [[0.6, 0.8], [0.8, -0.6]]]
    G = corpus_group("c2")
    verdict = derived_class_detector(G, MatrixRep(G, reflection, exact=True))
    f = tmp_path / "reflection.json"
    f.write_text(json.dumps({"matrices": reflection}))
    out = json.loads(run_cli("detect", "c2", "--matrix-file", str(f)).stdout)
    assert out == {"group": "c2", "fixed_dim": verdict.fixed_dim, "degree": verdict.degree,
                   "verdict": verdict.status}
    assert (out["fixed_dim"], out["degree"]) == (1, -2)


def test_bundles_counts_the_framings_it_does_not_build(tmp_path):
    # C2^5 on ten points: 32 irreps, all of type R, so 2^32 framings.
    f = tmp_path / "c2e5.json"
    gens = [[j ^ 1 if j // 2 == i else j for j in range(10)] for i in range(5)]
    f.write_text(json.dumps({"name": "c2e5", "degree": 10, "generators": gens}))
    out = json.loads(run_cli("bundles", str(f)).stdout)
    assert len(out["real_irreps"]) == 32
    assert out["framing_count"] == 4294967296
