"""Output checks for every workload.

Each check compares the program's answer with a property the
mathematics guarantees, or with a count this module makes itself from
the permutations it generated.  Nothing is compared with a stored copy
of earlier output.  Every check returns a list of error strings; an
empty list means the answer passed.  None of this runs inside a timed
region, and none of it imports the program.
"""

from __future__ import annotations

import json
import re
from math import factorial

END_DIM = {"R": 1, "C": 2, "H": 4}


# -- independent group computations ---------------------------------------------------


def _compose(p, q):
    return tuple(p[x] for x in q)


def closure(degree, gens):
    """Every element of the permutation group, by breadth-first search."""
    ident = tuple(range(degree))
    gens = [tuple(g) for g in gens]
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _compose(p, g)
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    return seen


def _inverse(p):
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def group_facts(degree, gens):
    """Order, conjugacy-class sizes and #{g : g^2 = 1}, from the permutations.

    Classes are the orbits of conjugation by the generators, which generate
    the whole group, so these orbits are the full conjugacy classes.
    """
    elements = closure(degree, gens)
    ident = tuple(range(degree))
    conj = [(tuple(g), _inverse(g)) for g in gens]
    unseen = set(elements)
    sizes = []
    while unseen:
        start = unseen.pop()
        orbit = [start]
        for x in orbit:
            for g, gi in conj:
                y = _compose(_compose(g, x), gi)
                if y in unseen:
                    unseen.remove(y)
                    orbit.append(y)
        sizes.append(len(orbit))
    return {
        "order": len(elements),
        "class_sizes": sorted(sizes),
        "classes": len(sizes),
        "square_roots_of_one": sum(1 for g in elements if _compose(g, g) == ident),
    }


def count_homs(source, target, injective=False):
    """|Hom(G, H)| (or the injective ones) by trying every image of the generators."""
    (dg, gg), (dh, gh) = source, target
    gg = [tuple(g) for g in gg]
    # Each element of G as a (parent element, generator index) step from the identity.
    ident = tuple(range(dg))
    order = [ident]
    step = {ident: None}
    for p in order:
        for i, g in enumerate(gg):
            q = _compose(p, g)
            if q not in step:
                step[q] = (p, i)
                order.append(q)
    h_elems = sorted(closure(dh, gh))
    h_ident = tuple(range(dh))
    total = 0

    def assignments(k):
        if k == 0:
            yield ()
            return
        for rest in assignments(k - 1):
            for h in h_elems:
                yield rest + (h,)

    for images in assignments(len(gg)):
        phi = {ident: h_ident}
        for p in order[1:]:
            parent, i = step[p]
            phi[p] = _compose(phi[parent], images[i])
        if all(
            phi[_compose(p, g)] == _compose(phi[p], images[i])
            for p in order
            for i, g in enumerate(gg)
        ):
            if not injective or len(set(phi.values())) == len(order):
                total += 1
    return total


def hook_degrees(n):
    """Irreducible degrees of S_n by the hook-length formula, sorted."""
    out = []

    def partitions(m, largest):
        if m == 0:
            yield []
            return
        for k in range(min(m, largest), 0, -1):
            for rest in partitions(m - k, k):
                yield [k] + rest

    for lam in partitions(n, n):
        conj = [sum(1 for part in lam if part > j) for j in range(lam[0])]
        hooks = 1
        for i, part in enumerate(lam):
            for j in range(part):
                hooks *= (part - j - 1) + (conj[j] - i - 1) + 1
        out.append(factorial(n) // hooks)
    return sorted(out)


def divisor_count(n):
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def _family(name):
    m = re.fullmatch(r"([a-z]+)(\d+)", name)
    return (m.group(1), int(m.group(2))) if m else (None, None)


# -- groups ---------------------------------------------------------------------------


def check_group(name, facts, ans):
    """ans: order, num_classes, degrees, fs, real [(real_dim, end_type)],
    subgroup_classes (a count, or None when not computed)."""
    err = []
    n = facts["order"]
    if ans["order"] != n:
        err.append(f"{name}: order {ans['order']} != {n}")
    if ans["num_classes"] != facts["classes"] or len(ans["degrees"]) != facts["classes"]:
        err.append(f"{name}: {len(ans['degrees'])} irreps, {facts['classes']} classes")
    if sum(d * d for d in ans["degrees"]) != n:
        err.append(f"{name}: sum of squared degrees != |G|")
    if any(n % d for d in ans["degrees"]):
        err.append(f"{name}: a degree does not divide |G|")
    if sum(nu * d for nu, d in zip(ans["fs"], ans["degrees"])) != facts["square_roots_of_one"]:
        err.append(f"{name}: sum of nu(chi) chi(1) != #{{g : g^2 = 1}}")
    if sum(d * d // END_DIM[t] for d, t in ans["real"]) != n or any(
        d * d % END_DIM[t] for d, t in ans["real"]
    ):
        err.append(f"{name}: sum of real_dim^2 / end_dim != |G|")
    family, k = _family(name)
    if family == "s" and sorted(ans["degrees"]) != hook_degrees(k):
        err.append(f"{name}: degrees differ from the hook-length formula")
    if family == "c" and ans["subgroup_classes"] is not None:
        if ans["subgroup_classes"] != divisor_count(k):
            err.append(f"{name}: {ans['subgroup_classes']} subgroup classes, "
                       f"{divisor_count(k)} divisors")
    return err


# -- maps -----------------------------------------------------------------------------


def check_maps(results):
    """results: {(source, target, variant): (rank, distinct generators in the pairing)}."""
    err = []
    for (a, b, v), (rank, gens) in results.items():
        if gens != 2 * rank:
            err.append(f"{a}->{b} {v}: {gens} generator classes for rank {rank}")
        if v == "rep":
            if (b, a, "rep") in results and results[(b, a, "rep")][0] != rank:
                err.append(f"{a}<->{b}: two-leg symmetry fails")
            if (a, b, "orb") in results and rank > results[(a, b, "orb")][0]:
                err.append(f"{a}->{b}: rep rank exceeds orb rank")
    if ("c1", "c1", "rep") in results and results[("c1", "c1", "rep")][0] != 1:
        err.append("rank(c1, c1, rep) != 1")
    return err


# -- nerve ----------------------------------------------------------------------------


def walk_counts(arrow_counts, max_dim):
    """1^T A^p 1 for p = 0..max_dim: chains of p composable arrows."""
    n = len(arrow_counts)
    ends = [1] * n  # chains of length p ending at each object
    out = [n]
    for _ in range(max_dim):
        ends = [sum(ends[i] * arrow_counts[i][j] for i in range(n)) for j in range(n)]
        out.append(sum(ends))
    return out


def check_nerve(label, max_dim, counts, homology, arrow_counts=None):
    """homology: [(betti, torsion)] per degree 0..max_dim."""
    err = []
    betti0, torsion0 = homology[0]
    if betti0 != 1 or torsion0:
        err.append(f"{label}: H_0 is not Z")
    for p in range(1, max_dim):
        if homology[p][0] or homology[p][1]:
            err.append(f"{label}: H_{p} is not 0")
    euler_cells = sum((-1) ** p * c for p, c in enumerate(counts))
    euler_betti = sum((-1) ** p * b for p, (b, _) in enumerate(homology))
    if euler_cells != euler_betti:
        err.append(f"{label}: Euler characteristic {euler_cells} != {euler_betti}")
    if arrow_counts is not None:
        expected = walk_counts(arrow_counts, max_dim)
        if list(counts) != expected:
            err.append(f"{label}: cell counts {list(counts)} != 1'A^p1 {expected}")
    return err


# -- cli ------------------------------------------------------------------------------


def corpus_order(name):
    """The order a corpus name promises: c12 -> 12, s4 -> 24, c2xa4 -> 24, ..."""
    if "x" in name:
        out = 1
        for part in name.split("x"):
            out *= corpus_order(part)
        return out
    if name == "v4":
        return 4
    family, k = _family(name)
    return {
        "c": k, "d": k, "q": k, "f": k, "dic": 4 * k,
        "s": factorial(k), "a": factorial(k) // 2,
    }[family]


def is_structured_error(code, stderr):
    """Exit 1 with a JSON error record, or exit 2 with an argparse usage message."""
    if "Traceback" in stderr:
        return False
    if code == 2:
        return "usage:" in stderr
    if code == 1:
        try:
            record = json.loads(stderr)
        except ValueError:
            return False
        return isinstance(record, dict) and "error" in record and "message" in record
    return False


def cli_facts(inputs):
    """Group facts for every generated group file, and |Hom| for every homs call."""
    perms = inputs["perms"]
    facts = {name: group_facts(d, g) for name, (d, g) in perms.items()}
    facts["homs"] = {}
    for call in inputs["calls"]:
        if call.get("check") == "homs":
            key = (call["source"], call["target"], call["injective"])
            facts["homs"][key] = count_homs(perms[key[0]], perms[key[1]], key[2])
    return facts


def check_cli_payload(call, payload, facts):
    """facts: from cli_facts."""
    kind = call["check"]
    err = []
    if kind in ("group", "irreps", "bundles", "detect"):
        f = facts[call["group"]]
        n = f["order"]
    if kind == "group":
        if payload["order"] != n or payload["num_classes"] != f["classes"]:
            err.append("group: order or class count wrong")
        if sorted(payload["class_sizes"]) != f["class_sizes"]:
            err.append("group: class sizes wrong")
        for sc in payload["subgroup_classes"]:
            if sc["conjugates"] * sc["normalizer_order"] != n or n % sc["order"]:
                err.append("group: subgroup class violates orbit-stabilizer or Lagrange")
        family, k = _family(call["group"])
        if family == "c" and len(payload["subgroup_classes"]) != divisor_count(k):
            err.append("group: cyclic subgroup classes != divisors")
    elif kind == "irreps":
        degrees = payload["complex_degrees"]
        entries = payload["entries"]
        if payload["order"] != n or len(degrees) != f["classes"]:
            err.append("irreps: order or irrep count wrong")
        if sum(d * d for d in degrees) != n or any(n % d for d in degrees):
            err.append("irreps: degrees do not fit |G|")
        if sum(e["dim"] ** 2 // END_DIM[e["end_type"]] for e in entries) != n:
            err.append("irreps: sum of real_dim^2 / end_dim != |G|")
        nu_sum = sum(e["dim"] for e in entries if e["end_type"] == "R") - sum(
            e["dim"] // 2 for e in entries if e["end_type"] == "H"
        )
        if nu_sum != f["square_roots_of_one"]:
            err.append("irreps: Frobenius-Schur count != #{g : g^2 = 1}")
        expected_nu = {"R": [1], "C": [0, 0], "H": [-1]}
        if any(e["fs_indicators"] != expected_nu[e["end_type"]] for e in entries):
            err.append("irreps: indicators disagree with the real types")
    elif kind == "homs":
        src, tgt = facts[call["source"]], facts[call["target"]]
        total = sum(c["orbit"] for c in payload["classes"])
        if total != facts["homs"][(call["source"], call["target"], call["injective"])]:
            err.append("homs: orbit sizes do not add up to |Hom|")
        if any(c["orbit"] * c["centralizer"] != tgt["order"] for c in payload["classes"]):
            err.append("homs: orbit-stabilizer fails")
        if any(c["injective"] != (len(set(c["rep"])) == src["order"])
               for c in payload["classes"]):
            err.append("homs: injective flag wrong")
    elif kind == "bundles":
        irreps = payload["real_irreps"]
        if sum(e["dim"] ** 2 // END_DIM[e["end_type"]] for e in irreps) != n:
            err.append("bundles: sum of real_dim^2 / end_dim != |G|")
        if payload["framing_count"] != 2 ** sum(e["end_type"] == "R" for e in irreps):
            err.append("bundles: framing count != 2^(#R-type irreps)")
    elif kind == "stable-maps":
        basis = {json.dumps(b, sort_keys=True) for b in payload["basis"]}
        if len(basis) != payload["rank"] or payload["num_classes"] != 2 * payload["rank"]:
            err.append("stable-maps: basis size or class count != rank")
    elif kind == "rstar-homology":
        homology = [(d["betti"], d["torsion"]) for d in payload["homology"]]
        err += check_nerve("rstar", call["max_dim"], payload["cell_counts"], homology)
    elif kind == "rstar-census":
        levels = payload["cells"]
        if [lv["dim"] for lv in levels] != list(range(call["max_dim"] + 1)):
            err.append("rstar census: wrong dimensions")
        if levels[0]["count"] != len(payload["objects"]):
            err.append("rstar census: 0-cells != objects")
        for lv in levels:
            if lv["count"] != len(lv["cells"]) or any(
                len(c["objects"]) != lv["dim"] + 1 for c in lv["cells"]
            ):
                err.append("rstar census: malformed level")
    elif kind == "localize":
        if not payload["rms_ok"] or payload["count"] != 1:
            err.append("localize: inverting a connected poset must leave one class")
    elif kind == "detect":
        fixed = payload["fixed_dim"]
        if fixed not in (0, 1) or payload["degree"] != -1:
            err.append("detect: an abelian irrep has degree 1 and 0 or 1 fixed dims")
        if (payload["verdict"] == "nonzero_certified") != (fixed == 0):
            err.append("detect: verdict disagrees with the fixed dimension")
    elif kind == "corpus":
        groups = payload["groups"]
        if not groups or any(g["order"] != corpus_order(g["name"]) for g in groups):
            err.append("corpus: an order disagrees with the group's name")
    elif kind == "corpus-dump":
        table = payload["table"]
        n = len(table)
        if n != payload["order"] or n != corpus_order(call["argv"][-1]):
            err.append("corpus --dump: wrong order")
        if any(sorted(row) != list(range(n)) for row in table) or any(
            sorted(col) != list(range(n)) for col in zip(*table)
        ):
            err.append("corpus --dump: table is not a Latin square")
    return err


def check_cli_pairs(calls, payloads):
    """Cross-call checks: two-leg symmetry of stable maps."""
    ranks = {c["pair"]: payloads[i]["rank"] for i, c in enumerate(calls)
             if c.get("pair") and payloads[i] is not None}
    if len(ranks) == 2 and len(set(ranks.values())) != 1:
        return ["stable-maps: two-leg symmetry fails"]
    return []


def check_repeat(first, again):
    """The same request under another PYTHONHASHSEED must print the same bytes."""
    return [] if first == again else ["output differs under another PYTHONHASHSEED"]
