"""The command line's surface: every subcommand's arguments and manifest as
the parser and `main` give them, the README's examples, the argument
ranges drawn off the subcommand table, and corpus names as bare names."""

import hashlib
import json
import os
import shlex
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from orbicalc import cli
from orbicalc.corpus import corpus_dir
from orbicalc.rstar import MAX_CELLS

from .test_cli import _main, _two_object_category

README = Path(__file__).resolve().parents[1] / "README.md"
OUT = (("--out",), "out", None, None, None, False, None)
MANIFEST = (("--manifest",), "manifest", None, None, None, False, None)

# subcommand -> one row per argument, in parser order: option strings, dest,
# default, choices, type, required and the dests of its mutually exclusive group
ARGUMENTS = {
    "group": [((), "group", None, None, None, True, None), OUT, MANIFEST],
    "irreps": [((), "group", None, None, None, True, None), OUT, MANIFEST],
    "homs": [
        ((), "source", None, None, None, True, None),
        ((), "target", None, None, None, True, None),
        (("--injective",), "injective", False, None, None, False, None),
        OUT, MANIFEST,
    ],
    "bundles": [((), "group", None, None, None, True, None), OUT, MANIFEST],
    "stable-maps": [
        ((), "source", None, None, None, True, None),
        ((), "target", None, None, None, True, None),
        (("--variant",), "variant", "rep", ["rep", "orb"], None, False, None),
        OUT, MANIFEST,
    ],
    "rstar": [
        (("--max-order",), "max_order", None, None, int, True, None),
        (("--max-dim",), "max_dim", None, None, int, True, None),
        (("--census",), "census", False, None, None, False, ("census", "homology")),
        (("--homology",), "homology", False, None, None, False, ("census", "homology")),
        (("--include-isos",), "include_isos", False, None, None, False, None),
        OUT, MANIFEST,
    ],
    "localize": [
        ((), "category", None, None, None, True, None),
        (("--from",), "source", None, None, None, True, None),
        (("--to",), "target", None, None, None, True, None),
        OUT, MANIFEST,
    ],
    "detect": [
        ((), "group", None, None, None, True, None),
        (("--char-index",), "char_index", None, None, int, False, ("char_index", "matrix_file")),
        (("--matrix-file",), "matrix_file", None, None, None, False, ("char_index", "matrix_file")),
        OUT, MANIFEST,
    ],
    "corpus": [(("--dump",), "dump", None, None, None, False, None), OUT, MANIFEST],
}


def _subparsers():
    parser = cli.build_parser()
    (action,) = [a for a in parser._actions if a.dest == "command"]
    return action.choices


def test_every_subcommand_keeps_its_arguments():
    subparsers = _subparsers()
    assert list(subparsers) == list(ARGUMENTS)
    for name, sub in subparsers.items():
        exclusive = {
            id(a): tuple(b.dest for b in g._group_actions)
            for g in sub._mutually_exclusive_groups
            for a in g._group_actions
        }
        rows = [
            (tuple(a.option_strings), a.dest, a.default, a.choices, a.type, a.required,
             exclusive.get(id(a)))
            for a in sub._actions
            if a.dest != "help"
        ]
        assert rows == ARGUMENTS[name], name


def _sha(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _files(tmp_path):
    category, matrix = tmp_path / "cat.json", tmp_path / "rep.json"
    category.write_text(json.dumps(_two_object_category()))
    matrix.write_text(json.dumps({"mode": "exact", "matrices": [[[1]], [[-1]]]}))
    return {"CATEGORY": str(category), "MATRIX": str(matrix)}


def _corpus(name):
    return _sha(corpus_dir() / f"{name}.json")


# argv -> (parameters, inputs) of its manifest; CATEGORY and MATRIX stand for
# the files of `_files`, a corpus name in inputs for that group's file
MANIFESTS = {
    "group": (["group", "s3"], {"group": "s3"}, {"group": "s3"}),
    "irreps": (["irreps", "c2"], {"group": "c2"}, {"group": "c2"}),
    "homs": (
        ["homs", "c2", "s3", "--injective"],
        {"source": "c2", "target": "s3", "injective": True},
        {"source": "c2", "target": "s3"},
    ),
    "bundles": (["bundles", "c3"], {"group": "c3"}, {"group": "c3"}),
    "stable-maps": (
        ["stable-maps", "c2", "c2"],
        {"source": "c2", "target": "c2", "variant": "rep"},
        {"source": "c2", "target": "c2"},
    ),
    "rstar": (
        ["rstar", "--max-order", "3", "--max-dim", "2", "--census"],
        {"max_order": 3, "max_dim": 2, "census": True, "homology": False, "include_isos": False},
        {},
    ),
    "localize": (
        ["localize", "CATEGORY", "--from", "b", "--to", "a"],
        {"category": "CATEGORY", "source": "b", "target": "a"},
        {"category": "CATEGORY"},
    ),
    "detect --char-index": (
        ["detect", "c2", "--char-index", "0"],
        {"group": "c2", "char_index": 0},
        {"group": "c2", "matrix": None},
    ),
    "detect --matrix-file": (
        ["detect", "c2", "--matrix-file", "MATRIX"],
        {"group": "c2", "matrix_file": "MATRIX"},
        {"group": "c2", "matrix": "MATRIX"},
    ),
    "corpus": (["corpus", "--dump", "c2"], {"dump": "c2"}, {}),
}


@pytest.mark.parametrize("argv, parameters, inputs", MANIFESTS.values(), ids=MANIFESTS)
def test_every_subcommand_keeps_its_manifest(tmp_path, argv, parameters, inputs):
    files = _files(tmp_path)
    m = tmp_path / "m.json"
    assert _main([files.get(a, a) for a in argv] + ["--manifest", str(m)]) == (0, "")
    manifest = json.loads(m.read_text())
    assert manifest["command"] == argv[0]
    assert manifest["parameters"] == {
        "command": argv[0], **{k: files.get(v, v) for k, v in parameters.items()}
    }
    assert manifest["inputs"] == {
        k: v if v is None else _sha(files[v]) if v in files else _corpus(v)
        for k, v in inputs.items()
    }


def _readme_commands():
    text = README.read_text()
    block = text[text.index("## Command line"):]
    block = block[block.index("```sh\n") + 6:]
    block = block[: block.index("```")]
    return [shlex.split(line.split("#")[0])[1:] for line in block.splitlines() if line.strip()]


def test_the_readme_examples_run(tmp_path):
    category = _files(tmp_path)["CATEGORY"]
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == set(_subparsers())
    for argv in commands:
        assert _main([category if a == "cat.json" else a for a in argv]) == (0, ""), argv


@pytest.mark.parametrize("command", [["group"], ["corpus", "--dump"]])
def test_a_corpus_name_is_a_bare_name(tmp_path, command):
    # a group file outside the corpus, and one inside, each reached by a
    # path relative to the corpus directory
    (tmp_path / "x.json").write_bytes((corpus_dir() / "c2.json").read_bytes())
    for name in [os.path.relpath(tmp_path / "x", corpus_dir()), "../corpus/c2", "/c2"]:
        argv = command + [name]
        code, err = _main(argv)
        assert code == 1, argv
        assert json.loads(err) == {
            "error": "ValidationError",
            "message": f"cannot resolve group '{name}' (no file, not in corpus)",
        }


GROUPS = ["c1", "c2", "s3", "q8", "nope", "../corpus/c2"]
NUM_CLASSES = {"c1": 1, "c2": 2, "s3": 3, "q8": 5}
VALUES = {  # first flag of an argument -> the values drawn for it
    "group": GROUPS,
    "source": GROUPS,
    "target": GROUPS,
    "category": ["CATEGORY", "MATRIX"],
    "--from": ["a", "b", "zz"],
    "--to": ["a", "b", "zz"],
    "--max-order": [-1, 0, 1, 12, 13, 10**30],
    # MAX_CELLS - 1 prints 10.5 MB of empty degrees: one value in eight
    "--max-dim": [-1, 0, 1, 2, 3, 4, MAX_CELLS - 1, MAX_CELLS],
    "--char-index": [-1, 0, "NUM_CLASSES", 10**30],
    "--matrix-file": ["MATRIX", "CATEGORY"],
    "--dump": ["c2", "", "nope", "../corpus/c2"],
}
# how often an option appears, by whether it is required: mostly as it
# should, sometimes twice or not at all, so a mutually exclusive pair comes
# together about one draw in four
REPEATS = {False: [0, 0, 0, 0, 1, 1, 1, 2], True: [1, 1, 1, 1, 1, 1, 2, 0]}


def _declared(arguments):
    """Each (flags, options) of a subcommand, mutually exclusive ones in place."""
    for argument in arguments:
        yield from argument if isinstance(argument, list) else [argument]


def _values(flags, options):
    if "choices" in options:
        return [*options["choices"], "nope"]
    return VALUES[flags[0]]


def test_every_argument_that_takes_a_value_has_values_to_draw():
    for _, arguments, _ in cli.COMMANDS.values():
        for flags, options in _declared(arguments):
            assert options.get("action") == "store_true" or _values(flags, options)


def _run(argv):
    """cli.main in process, argparse's usage error included: (exit code,
    stderr), with no traceback and, on exit 1, one error record."""
    try:
        code, err = _main(argv)
    except SystemExit as exc:
        code, err = exc.code, ""
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err, argv
    if code == 0:
        assert err == "", argv
    elif code == 1:
        assert set(json.loads(err)) == {"error", "message"}, argv
    return code


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_argument_ranges_exit_0_1_or_2(tmp_path, data):
    files = _files(tmp_path)
    name = data.draw(st.sampled_from(list(cli.COMMANDS)))
    argv, group = [name], None
    for flags, options in _declared(cli.COMMANDS[name][1]):
        positional = not flags[0].startswith("-")
        repeats = REPEATS[options.get("required", False)]
        for _ in range(1 if positional else data.draw(st.sampled_from(repeats))):
            if options.get("action") == "store_true":
                argv.append(flags[0])
                continue
            value = data.draw(st.sampled_from(_values(flags, options)))
            if value == "NUM_CLASSES":
                value = NUM_CLASSES.get(group, 0)
            group = value if flags[0] == "group" else group
            value = str(files.get(value, value))
            argv += [value] if positional else [flags[0], value]
    _run(argv)


# each integer at and past the edges of its range, every other argument valid
EDGES = [
    *[(["rstar", "--max-order", v, "--max-dim", "2"], 0 if 1 <= v <= 12 else 1)
      for v in VALUES["--max-order"]],
    *[(["rstar", "--max-order", "2", "--max-dim", v], 0 if 0 <= v < MAX_CELLS else 1)
      for v in VALUES["--max-dim"]],
    *[(["detect", "s3", "--char-index", v], 0 if 0 <= v < NUM_CLASSES["s3"] else 1)
      for v in [-1, 0, NUM_CLASSES["s3"], 10**30]],
]


@pytest.mark.parametrize("argv, code", EDGES, ids=[" ".join(map(str, a)) for a, _ in EDGES])
def test_each_integer_edge_exits_as_its_range_says(argv, code):
    assert _run([str(a) for a in argv]) == code
