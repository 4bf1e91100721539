"""Self-test of the benchmark's output checks.

    PYTHONPATH=src python3 bench/selftest.py

For every check it feeds a correct answer, computed by the program, and
shows it passes; then it corrupts that answer and shows the check
rejects it.  Exits 0 when every check behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import inputs  # noqa: E402

FAILURES = []


def expect(label, errors, should_fail, needle=""):
    hits = [e for e in errors if needle in e]
    ok = bool(errors) == should_fail and (not should_fail or bool(hits))
    print(f"{'ok  ' if ok else 'FAIL'} {label}" + (f": {hits[0]}" if should_fail and ok else ""))
    if not ok:
        FAILURES.append((label, errors))


def corrupted(answer, change):
    bad = copy.deepcopy(answer)
    change(bad)
    return bad


def test_independent_counts():
    s4 = checks.group_facts(*inputs.symmetric(4))
    expect("S4 facts", [] if s4 == {"order": 24, "class_sizes": [1, 3, 6, 6, 8], "classes": 5,
                                     "square_roots_of_one": 10} else [str(s4)], False)
    expect("hook lengths of S5", [] if checks.hook_degrees(5) == [1, 1, 4, 4, 5, 5, 6]
           else ["wrong"], False)
    homs = (checks.count_homs(inputs.cyclic(2), inputs.symmetric(3)),
            checks.count_homs(inputs.cyclic(2), inputs.symmetric(3), injective=True),
            checks.count_homs(inputs.symmetric(3), inputs.cyclic(2)))
    expect("brute-force hom counts", [] if homs == (4, 3, 2) else [str(homs)], False)
    expect("1'A^p1 on a 2-chain", [] if checks.walk_counts([[0, 1], [0, 0]], 2) == [2, 1, 0]
           else ["wrong"], False)


def test_groups():
    import orbicalc as oc

    for name, group in (("s4", inputs.symmetric(4)), ("c12", inputs.cyclic(12)),
                        ("q8", inputs.dicyclic(2))):
        G = oc.group_from_json(inputs.group_json(name, group))
        ct = oc.character_table(G)
        answer = {
            "order": G.order,
            "num_classes": len(oc.conjugacy_classes(G)),
            "degrees": list(ct.degrees),
            "fs": [oc.frobenius_schur(ct, t) for t in range(ct.num_classes)],
            "real": [(e.real_dim, e.end_type) for e in oc.real_irreps(G).entries],
            "subgroup_classes": len(oc.subgroup_classes(G)),
        }
        facts = checks.group_facts(*group)
        expect(f"groups {name} correct", checks.check_group(name, facts, answer), False)
        for label, change, needle in (
            ("missing irrep", lambda a: a["degrees"].pop(), "irreps"),
            ("degree off", lambda a: a["degrees"].__setitem__(-1, a["degrees"][-1] + 1),
             "squared degrees"),
            ("indicator flipped", lambda a: a["fs"].__setitem__(0, -a["fs"][0]), "nu(chi)"),
            ("real type", lambda a: a["real"].__setitem__(
                0, (a["real"][0][0], "C" if a["real"][0][1] == "R" else "R")), "end_dim"),
        ):
            expect(f"groups {name} {label}",
                   checks.check_group(name, facts, corrupted(answer, change)), True, needle)
        if name == "s4":
            bad = corrupted(answer, lambda a: a.update(degrees=[1, 1, 2, 2, 3]))
            expect("groups s4 hook", checks.check_group(name, facts, bad), True, "hook")
        if name == "c12":
            bad = corrupted(answer, lambda a: a.update(subgroup_classes=5))
            expect("groups c12 divisors", checks.check_group(name, facts, bad), True, "divisors")


def test_maps():
    import orbicalc as oc

    groups = {n: oc.group_from_json(inputs.group_json(n, g))
              for n, g in inputs.SMALL_GROUPS[:4] + [("s3", inputs.symmetric(3))]}
    results = {}
    for a in groups:
        for b in groups:
            for v in ("rep", "orb"):
                pres = oc.map_group(groups[a], groups[b], v)
                results[(a, b, v)] = (pres.rank, len({g for p in pres.orbit_table for g in p}))
    expect("maps correct", checks.check_maps(results), False)
    for label, key, value, needle in (
        ("asymmetric", ("c2", "s3", "rep"), None, "symmetry"),
        ("rep above orb", ("c3", "c2", "rep"), None, "exceeds"),
        ("c1 rank", ("c1", "c1", "rep"), (2, 4), "rank(c1"),
        ("class count", ("c2", "c2", "orb"), None, "generator classes"),
    ):
        bad = dict(results)
        rank, gens = bad[key]
        if label == "asymmetric":
            bad[key] = (rank + 1, gens + 2)
        elif label == "rep above orb":
            orb = bad[(key[0], key[1], "orb")][0]
            bad[key] = (orb + 1, 2 * orb + 2)
        elif label == "class count":
            bad[key] = (rank, gens + 1)
        else:
            bad[key] = value
        expect(f"maps {label}", checks.check_maps(bad), True, needle)


def test_nerve():
    import orbicalc as oc

    cat = oc.build_quotient_category(4)
    for isos in (False, True):
        cc, census = oc.nerve_chain_complex(cat, 3, isos)
        hom = [(d.betti, list(d.torsion)) for d in oc.homology(cc, unreliable_from=3)]
        arrows = [[0] * len(cat.objects) for _ in cat.objects]
        for a in cat.nonidentity_arrows(isos):
            arrows[a.src][a.dst] += 1
        counts = census.counts()
        label = f"nerve isos={isos}"
        expect(f"{label} correct", checks.check_nerve(label, 3, counts, hom, arrows), False)
        bad = corrupted(hom, lambda h: h.__setitem__(0, (2, [])))
        expect(f"{label} H0", checks.check_nerve(label, 3, counts, bad, arrows), True, "H_0")
        bad = corrupted(hom, lambda h: h.__setitem__(1, (0, [2])))
        expect(f"{label} torsion", checks.check_nerve(label, 3, counts, bad, arrows), True, "H_1")
        bad = corrupted(counts, lambda c: c.__setitem__(2, c[2] + 1))
        expect(f"{label} Euler", checks.check_nerve(label, 3, bad, hom, arrows), True, "Euler")
        bad = corrupted(arrows, lambda a: a[0].__setitem__(1, a[0][1] + 1))
        expect(f"{label} 1'A^p1", checks.check_nerve(label, 3, counts, hom, bad), True, "A^p")


CLI_CORRUPTIONS = {
    "group": lambda p: p["class_sizes"].__setitem__(-1, p["class_sizes"][-1] + 1),
    "irreps": lambda p: p["entries"][-1].update(end_type="C", fs_indicators=[0, 0]),
    "homs": lambda p: p["classes"][0].update(orbit=p["classes"][0]["orbit"] + 1),
    "bundles": lambda p: p.update(framing_count=2 * p["framing_count"]),
    "stable-maps": lambda p: p.update(rank=p["rank"] + 1),
    "rstar-homology": lambda p: p["homology"][1].update(betti=1),
    "rstar-census": lambda p: p["cells"][0].update(count=p["cells"][0]["count"] + 1),
    "localize": lambda p: p.update(count=2),
    "detect": lambda p: p.update(verdict="inconclusive" if p["fixed_dim"] == 0
                                 else "nonzero_certified"),
    "corpus": lambda p: p["groups"][0].update(order=p["groups"][0]["order"] + 1),
    "corpus-dump": lambda p: p["table"][0].reverse(),
}


def test_cli():
    from orbicalc.cli import main

    expect("structured error (exit 1)",
           [] if checks.is_structured_error(1, '{"error": "E", "message": "m"}') else ["no"],
           False)
    expect("usage error (exit 2)",
           [] if checks.is_structured_error(2, "usage: orbicalc ...\nerror: x") else ["no"],
           False)
    for code, text in ((1, "Traceback (most recent call last):\nKeyError: 'dst'"),
                       (0, ""), (1, "not json")):
        expect(f"unstructured error rejected (exit {code})",
               ["rejected"] if not checks.is_structured_error(code, text) else [], True)
    expect("repeat identical", checks.check_repeat("{}\n", "{}\n"), False)
    expect("repeat differs", checks.check_repeat("{}\n", "{ }\n"), True, "PYTHONHASHSEED")

    with tempfile.TemporaryDirectory() as tmp:
        data = inputs.cli_inputs(7, Path(tmp))
        facts = checks.cli_facts(data)
        payloads = []
        for call in data["calls"]:
            if call["kind"] != "ok":
                payloads.append(None)
                continue
            out = Path(tmp) / "out.json"
            if main(call["argv"] + ["--out", str(out)]) != 0:
                FAILURES.append((call["argv"][0], ["exit status"]))
                payloads.append(None)
                continue
            payload = json.loads(out.read_text())
            payloads.append(payload)
            label = f"cli {call['check']} ({call['argv'][0]})"
            expect(f"{label} correct", checks.check_cli_payload(call, payload, facts), False)
            bad = corrupted(payload, CLI_CORRUPTIONS[call["check"]])
            expect(f"{label} corrupted", checks.check_cli_payload(call, bad, facts), True)
        expect("cli two-leg symmetry", checks.check_cli_pairs(data["calls"], payloads), False)
        first = next(i for i, c in enumerate(data["calls"]) if c.get("pair"))
        bad = corrupted(payloads, lambda p: p[first].update(rank=p[first]["rank"] + 1))
        expect("cli two-leg symmetry broken", checks.check_cli_pairs(data["calls"], bad), True,
               "symmetry")


def main():
    test_independent_counts()
    test_groups()
    test_maps()
    test_nerve()
    test_cli()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
