"""The orbicalc command line: one subcommand per module, JSON out.

Every command is deterministic: identical inputs and flags produce
byte-identical output.  Exit status is 0 on success, 1 on a domain error
(reported as a structured JSON record on stderr), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from . import __version__
from .bundles import StableBundle, aut_group, framings
from .characters import character_table, frobenius_schur
from .corpus import corpus_dir, corpus_names, corpus_group, resolve_group
from .errors import OrbicalcError, ValidationError, read_json
from .groups import conjugacy_classes, group_to_json, subgroup_classes
from .homs import hom_classes, rep_hom_classes
from .localize import category_from_json, check_right_multiplicative, localize_hom
from .realreps import MatrixRep, real_irreps
from .rstar import build_quotient_category, cell_census, nerve_chain_complex
from .snf import homology
from .stablemaps import map_group
from .transversality import derived_class_detector


def _dump(data: dict) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


def _emit(args, payload: dict, inputs: dict[str, Path | None]) -> None:
    text = _dump(payload)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if getattr(args, "manifest", None):
        digests = {}
        for label, path in inputs.items():
            if path is not None and Path(path).exists():
                digests[label] = hashlib.sha256(Path(path).read_bytes()).hexdigest()
            else:
                digests[label] = None
        manifest = {
            "command": args.command,
            "parameters": {
                k: v
                for k, v in sorted(vars(args).items())
                if k not in ("func", "out", "manifest") and v is not None
            },
            "inputs": digests,
            "version": __version__,
            "output_sha256": hashlib.sha256(text.encode()).hexdigest(),
        }
        Path(args.manifest).write_text(_dump(manifest))


# -- subcommands --------------------------------------------------------------


def cmd_group(args) -> None:
    G, group_file = resolve_group(args.group)
    classes = conjugacy_classes(G)
    payload = {
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
    _emit(args, payload, {"group": group_file})


def cmd_irreps(args) -> None:
    G, group_file = resolve_group(args.group)
    ct = character_table(G)
    R = real_irreps(G)
    payload = {
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
    _emit(args, payload, {"group": group_file})


def cmd_homs(args) -> None:
    G, source_file = resolve_group(args.source)
    H, target_file = resolve_group(args.target)
    classes = rep_hom_classes(G, H) if args.injective else hom_classes(G, H)
    payload = {
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
    _emit(args, payload, {"source": source_file, "target": target_file})


def cmd_bundles(args) -> None:
    G, group_file = resolve_group(args.group)
    R = real_irreps(G)
    zero = StableBundle(G, tuple([0] * len(R)))
    payload = {
        "group": G.name,
        "real_irreps": [
            {"id": e.index, "dim": e.real_dim, "end_type": e.end_type}
            for e in R.entries
        ],
        "stable_aut_contributors": list(aut_group(zero).contributors),
        "framing_count": len(framings(G)),
    }
    _emit(args, payload, {"group": group_file})


def cmd_stable_maps(args) -> None:
    G, source_file = resolve_group(args.source)
    H, target_file = resolve_group(args.target)
    pres = map_group(G, H, args.variant)
    payload = {
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
    _emit(args, payload, {"source": source_file, "target": target_file})


def cmd_rstar(args) -> None:
    cat = build_quotient_category(args.max_order)
    if args.census:
        census = cell_census(
            args.max_order, args.max_dim, args.include_isos, category=cat
        )
        payload = {
            "max_order": args.max_order,
            "max_dim": args.max_dim,
            "include_isos": bool(args.include_isos),
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
    else:
        cc, census = nerve_chain_complex(cat, args.max_dim, args.include_isos)
        degrees = homology(cc, unreliable_from=args.max_dim)
        payload = {
            "max_order": args.max_order,
            "max_dim": args.max_dim,
            "include_isos": bool(args.include_isos),
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
    _emit(args, payload, {})


def cmd_localize(args) -> None:
    cat, W = category_from_json(args.category)
    verdict = check_right_multiplicative(cat, W)
    payload = {
        "category": cat.name,
        "rms_ok": verdict.ok,
        "rms_failures": verdict.failures,
    }
    if verdict.ok:
        loc = localize_hom(cat, W, args.source, args.target)
        payload["from"] = args.source
        payload["to"] = args.target
        payload["classes"] = [
            [{"w": s.w, "f": s.f} for s in cls] for cls in loc.classes
        ]
        payload["count"] = len(loc.classes)
    _emit(args, payload, {"category": Path(args.category)})


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


def cmd_detect(args) -> None:
    G, group_file = resolve_group(args.group)
    if args.matrix_file:
        data = read_json(args.matrix_file)
        if not isinstance(data, dict) or not _is_matrix_list(data.get("matrices")):
            raise ValidationError(
                "matrix file needs 'matrices': a list of nonempty matrices of finite numbers"
            )
        mode = data.get("mode", "exact")
        if mode not in ("exact", "fixed"):
            raise ValidationError("'mode' must be \"exact\" or \"fixed\"")
        exact = mode == "exact"
        if exact:
            mats = [
                [[Fraction(str(x)) for x in row] for row in m]
                for m in data["matrices"]
            ]
        else:
            try:
                mats = [[[float(x) for x in row] for row in m] for m in data["matrices"]]
            except OverflowError:
                raise ValidationError("a matrix entry is too large for fixed mode") from None
        rep = MatrixRep(G, mats, exact=exact, tolerance=data.get("tolerance", 1e-9))
        verdict = derived_class_detector(G, rep)
    elif args.char_index is not None:
        ct = character_table(G)
        if not 0 <= args.char_index < ct.num_classes:
            raise ValidationError("character index out of range")
        verdict = derived_class_detector(G, list(ct.values[args.char_index]))
    else:
        raise ValidationError("need --char-index or --matrix-file")
    payload = {
        "group": G.name,
        "fixed_dim": verdict.fixed_dim,
        "degree": verdict.degree,
        "verdict": verdict.status,
    }
    _emit(
        args,
        payload,
        {
            "group": group_file,
            "matrix": Path(args.matrix_file) if args.matrix_file else None,
        },
    )


def cmd_corpus(args) -> None:
    if args.dump:
        G = corpus_group(args.dump)
        payload = group_to_json(G)
    else:
        payload = {
            "corpus_dir": str(corpus_dir()),
            "groups": [
                {"name": name, "order": corpus_group(name).order}
                for name in corpus_names()
            ],
        }
    _emit(args, payload, {})


# -- argument parsing ------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbicalc",
        description="Exact invariants of finite groups and their classifying objects.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write JSON here instead of stdout")
        p.add_argument("--manifest", help="write a run manifest to this path")

    p = sub.add_parser("group", help="validate a group and report invariants")
    p.add_argument("group", help="group JSON file or corpus name")
    common(p)
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("irreps", help="real irreducible representation table")
    p.add_argument("group")
    common(p)
    p.set_defaults(func=cmd_irreps)

    p = sub.add_parser("homs", help="hom classes between two groups")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--injective", action="store_true", help="representable classes only")
    common(p)
    p.set_defaults(func=cmd_homs)

    p = sub.add_parser("bundles", help="stable bundle data over one group")
    p.add_argument("group")
    common(p)
    p.set_defaults(func=cmd_bundles)

    p = sub.add_parser("stable-maps", help="stable map group between two groups")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--variant", choices=["rep", "orb"], default="rep")
    common(p)
    p.set_defaults(func=cmd_stable_maps)

    p = sub.add_parser("rstar", help="cell census or homology of the terminal model")
    p.add_argument("--max-order", type=int, required=True)
    p.add_argument("--max-dim", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--census", action="store_true")
    mode.add_argument("--homology", action="store_true")
    p.add_argument("--include-isos", action="store_true",
                   help="admit chains through automorphism classes")
    common(p)
    p.set_defaults(func=cmd_rstar)

    p = sub.add_parser("localize", help="localized hom-sets of a finite category")
    p.add_argument("category", help="category JSON file")
    p.add_argument("--from", dest="source", required=True)
    p.add_argument("--to", dest="target", required=True)
    common(p)
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("detect", help="fixed-point detector for derived classes")
    p.add_argument("group")
    p.add_argument("--char-index", type=int)
    p.add_argument("--matrix-file")
    common(p)
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("corpus", help="list or dump bundled groups")
    p.add_argument("--dump", help="print one bundled group as JSON")
    common(p)
    p.set_defaults(func=cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except OrbicalcError as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(_dump(record))
        return 1
    except FileNotFoundError as exc:
        record = {"error": "FileNotFound", "message": str(exc)}
        sys.stderr.write(_dump(record))
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
