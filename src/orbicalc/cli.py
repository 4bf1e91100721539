"""The orbicalc command line: one subcommand per module, JSON out.

Every command is deterministic: identical inputs and flags produce
byte-identical output.  Exit status is 0 on success, 1 on a domain error
or an input or output path that cannot be read or written (reported as a
structured JSON record on stderr), 2 on usage errors.

Each subcommand is declared once, by `_command` on its handler, and
`build_parser` reads its parser off those declarations.  A handler returns
its payload; `main` gives it the manifest inputs to fill (`_group` resolves
a group argument and records its file) and alone writes both.

Each subcommand imports the modules it runs inside its own function, so a
call loads only those, and a usage error loads none.  Nothing loads
numpy: character tables and real irreps run on Python integers, and
`detect --matrix-file` runs either mode on lists of Python numbers.  A
command that takes groups resolves them before it imports what computes,
so an unknown name or a non-JSON file is refused first, and `detect`
refuses a character index past the number of classes before it builds a
table.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import __version__
from .errors import OrbicalcError, ValidationError, read_json


def _dump(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _emit(args, payload: dict, inputs: dict[str, Path | None]) -> None:
    """Write the payload, then any manifest.  Both paths are opened, neither
    truncated, before the payload's first byte, and a file created here is
    removed if the other path cannot be opened: so a path that cannot be
    written leaves stdout empty and no new file behind.  The manifest is
    written last, so it is what a file that both options name holds."""
    text = _dump(payload)
    writes = [(Path(args.out), text)] if args.out is not None else []
    if args.manifest is not None:
        writes.append((Path(args.manifest), _dump(_manifest(args, text, inputs))))
    created = []
    try:
        for path, _ in writes:
            try:
                path.open("x").close()
                created.append(path)
            except FileExistsError:
                path.open("a").close()
    except OSError:
        for path in created:
            path.unlink()
        raise
    if args.out is None:
        sys.stdout.write(text)
    for path, data in writes:
        path.write_text(data)


def _manifest(args, text: str, inputs: dict[str, Path | None]) -> dict:
    import hashlib

    digests = {}
    for label, path in inputs.items():
        if path is not None and Path(path).exists():
            digests[label] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        else:
            digests[label] = None
    return {
        "command": args.command,
        "parameters": {
            k: v
            for k, v in sorted(vars(args).items())
            if k not in ("out", "manifest") and v is not None
        },
        "inputs": digests,
        "version": __version__,
        "output_sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


# -- subcommands --------------------------------------------------------------

COMMANDS: dict[str, tuple] = {}  # name -> (help, arguments, handler)


def _arg(*flags, **options):
    return flags, options


def _command(name: str, help: str, *arguments):
    """Declare a subcommand; each argument is an `_arg`, or a list of them
    for a mutually exclusive group.  The handler returns the payload."""

    def register(handler):
        COMMANDS[name] = (help, arguments, handler)
        return handler

    return register


def _group(args, inputs: dict[str, Path | None], dest: str):
    """The group that argument `dest` names; its file goes into `inputs`."""
    from .corpus import resolve_group

    G, inputs[dest] = resolve_group(getattr(args, dest))
    return G


@_command("group", "validate a group and report invariants",
          _arg("group", help="group JSON file or corpus name"))
def cmd_group(args, inputs) -> dict:
    G = _group(args, inputs, "group")
    from .groups import conjugacy_classes, subgroup_classes

    classes = conjugacy_classes(G)
    return {
        "name": G.name,
        "order": G.order,
        "abelian": G.is_abelian(),
        "exponent": G.exponent(),
        "center_order": len(G.center()),
        "num_classes": len(classes),
        "class_sizes": sorted(len(c) for c in classes),
        "subgroup_classes": [
            {
                "order": sc.order,
                "conjugates": sc.conjugates_count,
                "normalizer_order": sc.normalizer_order,
            }
            for sc in subgroup_classes(G)
        ],
    }


@_command("irreps", "real irreducible representation table", _arg("group"))
def cmd_irreps(args, inputs) -> dict:
    G = _group(args, inputs, "group")
    from .characters import character_table, frobenius_schur
    from .realreps import real_irreps

    ct = character_table(G)
    R = real_irreps(G)
    return {
        "group": G.name,
        "order": G.order,
        "entries": [
            {
                "id": e.index,
                "dim": e.real_dim,
                "end_type": e.end_type,
                "fs_indicators": [frobenius_schur(ct, t) for t in e.constituents],
            }
            for e in R.entries
        ],
        "complex_degrees": list(ct.degrees),
        "character_table_text": ct.text_table(),
    }


@_command("homs", "hom classes between two groups", _arg("source"), _arg("target"),
          _arg("--injective", action="store_true", help="representable classes only"))
def cmd_homs(args, inputs) -> dict:
    G, H = _group(args, inputs, "source"), _group(args, inputs, "target")
    from .homs import hom_classes, rep_hom_classes

    classes = rep_hom_classes(G, H) if args.injective else hom_classes(G, H)
    return {
        "source": G.name,
        "target": H.name,
        "injective_only": bool(args.injective),
        "classes": [
            {
                "rep": list(c.representative),
                "orbit": c.orbit_size,
                "centralizer": c.centralizer_order,
                "injective": c.injective,
            }
            for c in classes
        ],
    }


@_command("bundles", "stable bundle data over one group", _arg("group"))
def cmd_bundles(args, inputs) -> dict:
    G = _group(args, inputs, "group")
    from .bundles import StableBundle, aut_group, framings
    from .realreps import real_irreps

    R = real_irreps(G)
    zero = StableBundle(G, tuple([0] * len(R)))
    return {
        "group": G.name,
        "real_irreps": [
            {"id": e.index, "dim": e.real_dim, "end_type": e.end_type}
            for e in R.entries
        ],
        "stable_aut_contributors": list(aut_group(zero).contributors),
        "framing_count": len(framings(G)),
    }


@_command("stable-maps", "stable map group between two groups", _arg("source"), _arg("target"),
          _arg("--variant", choices=["rep", "orb"], default="rep"))
def cmd_stable_maps(args, inputs) -> dict:
    G, H = _group(args, inputs, "source"), _group(args, inputs, "target")
    from .stablemaps import map_group

    pres = map_group(G, H, args.variant)
    return {
        "source": G.name,
        "target": H.name,
        "variant": pres.variant,
        "rank": pres.rank,
        "num_classes": pres.num_classes,
        "basis": [
            {
                "subgroup_index": b.subgroup_index,
                "K_order": b.k_order,
                "g_rep": list(b.g_class),
                "framing_bits": list(b.framing_bits),
            }
            for b in pres.basis
        ],
    }


@_command("rstar", "cell census or homology of the terminal model",
          _arg("--max-order", type=int, required=True), _arg("--max-dim", type=int, required=True),
          [_arg("--census", action="store_true"), _arg("--homology", action="store_true")],
          _arg("--include-isos", action="store_true",
               help="admit chains through automorphism classes"))
def cmd_rstar(args, inputs) -> dict:
    from .rstar import (
        build_quotient_category,
        cell_census,
        check_max_dim,
        check_max_order,
        nerve_chain_complex,
    )
    from .snf import homology

    # The library's own range checks, before the category is built; the
    # order first, as building the category would check it.
    check_max_order(args.max_order)
    check_max_dim(args.max_dim)
    cat = build_quotient_category(args.max_order)
    shared = {
        "max_order": args.max_order,
        "max_dim": args.max_dim,
        "include_isos": bool(args.include_isos),
    }
    if args.census:
        census = cell_census(
            args.max_order, args.max_dim, args.include_isos, category=cat
        )
        return shared | {
            "objects": cat.object_names,
            "cells": [
                {
                    "dim": d,
                    "count": len(level),
                    "cells": [
                        {"objects": list(c.object_names), "isotropy": c.isotropy}
                        for c in level
                    ],
                }
                for d, level in enumerate(census.cells)
            ],
        }
    cc, census = nerve_chain_complex(cat, args.max_dim, args.include_isos)
    degrees = homology(cc, unreliable_from=args.max_dim)
    return shared | {
        "cell_counts": census.counts(),
        "homology": [
            {
                "degree": d.degree,
                "betti": d.betti,
                "torsion": list(d.torsion),
                "reliable": d.reliable,
            }
            for d in degrees
        ],
    }


@_command("localize", "localized hom-sets of a finite category",
          _arg("category", help="category JSON file"),
          _arg("--from", dest="source", required=True), _arg("--to", dest="target", required=True))
def cmd_localize(args, inputs) -> dict:
    from .localize import _localize_hom, category_from_json, check_right_multiplicative

    inputs["category"] = Path(args.category)
    cat, W = category_from_json(args.category)
    verdict = check_right_multiplicative(cat, W)
    payload = {
        "category": cat.name,
        "rms_ok": verdict.ok,
        "rms_failures": verdict.failures,
    }
    if verdict.ok:
        loc = _localize_hom(cat, W, args.source, args.target, verdict)
        payload["from"] = args.source
        payload["to"] = args.target
        payload["classes"] = [
            [{"w": s.w, "f": s.f} for s in cls] for cls in loc.classes
        ]
        payload["count"] = len(loc.classes)
    return payload


def _is_matrix_list(mats) -> bool:
    return isinstance(mats, list) and all(
        isinstance(m, list)
        and m
        and all(
            isinstance(row, list)
            and row
            and all(type(x) is int or (type(x) is float and math.isfinite(x)) for x in row)
            for row in m
        )
        for m in mats
    )


@_command("detect", "fixed-point detector for derived classes",
          _arg("group"), [_arg("--char-index", type=int), _arg("--matrix-file")])
def cmd_detect(args, inputs) -> dict:
    if args.matrix_file is None and args.char_index is None:
        raise ValidationError("need --char-index or --matrix-file")
    G = _group(args, inputs, "group")
    inputs["matrix"] = Path(args.matrix_file) if args.matrix_file is not None else None
    if args.matrix_file is None:
        from .groups import conjugacy_classes

        # One character per class: an index is refused before a table is built.
        if not 0 <= args.char_index < len(conjugacy_classes(G)):
            raise ValidationError("character index out of range")
        from .characters import character_table
        from .transversality import derived_class_detector

        verdict = derived_class_detector(G, list(character_table(G).values[args.char_index]))
    else:
        from fractions import Fraction

        from .realreps import MatrixRep
        from .transversality import derived_class_detector

        data = read_json(args.matrix_file)
        if not isinstance(data, dict) or not _is_matrix_list(data.get("matrices")):
            raise ValidationError(
                "matrix file needs 'matrices': a list of nonempty matrices of finite numbers"
            )
        mode = data.get("mode", "exact")
        if mode not in ("exact", "fixed"):
            raise ValidationError("'mode' must be \"exact\" or \"fixed\"")
        exact = mode == "exact"
        mats = data["matrices"]
        if exact:
            mats = [[[Fraction(str(x)) for x in row] for row in m] for m in mats]
        rep = MatrixRep(G, mats, exact=exact, tolerance=data.get("tolerance", 1e-9))
        verdict = derived_class_detector(G, rep)
    return {
        "group": G.name,
        "fixed_dim": verdict.fixed_dim,
        "degree": verdict.degree,
        "verdict": verdict.status,
    }


@_command("corpus", "list or dump bundled groups",
          _arg("--dump", help="print one bundled group as JSON"))
def cmd_corpus(args, inputs) -> dict:
    from .corpus import corpus_dir, corpus_group, corpus_names

    if args.dump is not None:
        G = corpus_group(args.dump)
        from .groups import group_to_json

        return group_to_json(G)
    return {
        "corpus_dir": str(corpus_dir()),
        "groups": [
            {"name": name, "order": corpus_group(name).order}
            for name in corpus_names()
        ],
    }


# -- argument parsing ------------------------------------------------------------


def _add_arguments(parser, arguments) -> None:
    for argument in arguments:
        if isinstance(argument, list):
            _add_arguments(parser.add_mutually_exclusive_group(), argument)
        else:
            flags, options = argument
            parser.add_argument(*flags, **options)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbicalc",
        description="Exact invariants of finite groups and their classifying objects.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help, arguments, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help)
        _add_arguments(p, arguments)
        p.add_argument("--out", help="write JSON here instead of stdout")
        p.add_argument("--manifest", help="write a run manifest to this path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    inputs: dict[str, Path | None] = {}
    try:
        _emit(args, COMMANDS[args.command][2](args, inputs), inputs)
    except (OrbicalcError, OSError) as exc:
        error = type(exc).__name__
        if isinstance(exc, OSError):
            # A path that is missing, a directory or unreadable:
            # FileNotFound, IsADirectory, Permission, ...
            error = error.removesuffix("Error")
        sys.stderr.write(_dump({"error": error, "message": str(exc)}))
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
