"""Seeded inputs for the four workloads.

Every group is given as permutation generators, built here from first
principles (nothing is read from the program's corpus).  The seed only
relabels points and orders jobs: relabelling the points of a permutation
group conjugates every generator, which leaves the breadth-first element
order and so the multiplication table unchanged.  The amount of work is
therefore the same for every seed, while the bytes the program receives
differ.
"""

from __future__ import annotations

import json
import random
import string
from pathlib import Path

# -- permutation-group constructions ---------------------------------------------


def cyclic(n):
    return n, ([[(i + 1) % n for i in range(n)]] if n > 1 else [])


def product(a, b):
    da, ga = a
    db, gb = b
    gens = [list(p) + list(range(da, da + db)) for p in ga]
    gens += [list(range(da)) + [da + x for x in p] for p in gb]
    return da + db, gens


def dihedral(m):
    """Order 2m, acting on the vertices of an m-gon."""
    return m, [[(i + 1) % m for i in range(m)], [(m - i) % m for i in range(m)]]


def symmetric(n):
    return n, [[1, 0] + list(range(2, n)), [(i + 1) % n for i in range(n)]]


def alternating(n):
    three = [1, 2, 0] + list(range(3, n))
    if n % 2:
        long = [(i + 1) % n for i in range(n)]
    else:
        long = [0] + [1 + i % (n - 1) for i in range(1, n)]
    return n, [three, long]


def frobenius(p, a):
    """Z/p extended by multiplication with a."""
    return p, [[(i + 1) % p for i in range(p)], [(a * i) % p for i in range(p)]]


def dicyclic(n):
    """Order 4n, <a, b | a^2n = 1, b^2 = a^n, b a b^-1 = a^-1>, acting on itself."""
    m = 2 * n

    def idx(i, j):
        return i % m + m * (j % 2)

    def mul(x, y):
        i, j, k, l = x % m, x // m, y % m, y // m
        if j == 0:
            return idx(i + k, l)
        return idx(i - k, 1) if l == 0 else idx(i - k + n, 0)

    order = 4 * n
    return order, [[mul(g, x) for x in range(order)] for g in (1, m)]


def relabel(group, rng):
    """Conjugate every generator by one random permutation of the points."""
    degree, gens = group
    sigma = list(range(degree))
    rng.shuffle(sigma)
    out = []
    for g in gens:
        new = [0] * degree
        for i in range(degree):
            new[sigma[i]] = sigma[g[i]]
        out.append(new)
    return degree, out


def group_json(name, group):
    degree, gens = group
    return {"name": name, "degree": degree, "generators": gens}


# -- workload inputs ---------------------------------------------------------------

# (name, family, construction).  Families: "abelian" many-class abelian groups
# whose character table search runs over a large field; "large" groups above the
# program's 128-element associativity threshold; "corpus" corpus-sized groups;
# "classic" dihedral, dicyclic, Frobenius, symmetric, alternating and products.
GROUPS = [
    ("c59", "abelian", cyclic(59)),
    ("c36", "abelian", cyclic(36)),
    ("c24", "abelian", cyclic(24)),
    ("c5xc5", "abelian", product(cyclic(5), cyclic(5))),
    ("c3xc3xc3", "abelian", product(cyclic(3), product(cyclic(3), cyclic(3)))),
    ("c6xc6", "abelian", product(cyclic(6), cyclic(6))),
    ("c4xc8", "abelian", product(cyclic(4), cyclic(8))),
    ("s6", "large", symmetric(6)),
    ("c2xs5", "large", product(cyclic(2), symmetric(5))),
    ("q16", "corpus", dicyclic(4)),
    ("dic6", "corpus", dicyclic(6)),
    ("c2xa4", "corpus", product(cyclic(2), alternating(4))),
    ("d24", "corpus", dihedral(12)),
    ("f21", "corpus", frobenius(7, 2)),
    ("c4xc4", "corpus", product(cyclic(4), cyclic(4))),
    ("d20", "corpus", dihedral(10)),
    ("d10", "classic", dihedral(5)),
    ("d16", "classic", dihedral(8)),
    ("dic3", "classic", dicyclic(3)),
    ("dic5", "classic", dicyclic(5)),
    ("f20", "classic", frobenius(5, 2)),
    ("f55", "classic", frobenius(11, 3)),
    ("s3", "classic", symmetric(3)),
    ("s4", "classic", symmetric(4)),
    ("s5", "classic", symmetric(5)),
    ("a4", "classic", alternating(4)),
    ("a5", "classic", alternating(5)),
    ("s3xs3", "classic", product(symmetric(3), symmetric(3))),
    ("s3xc4", "classic", product(symmetric(3), cyclic(4))),
    ("d8xc2", "classic", product(dihedral(4), cyclic(2))),
    ("a4xc3", "classic", product(alternating(4), cyclic(3))),
    ("q8xc3", "classic", product(dicyclic(2), cyclic(3))),
]

# Every group of order <= 8, one per isomorphism type: 14 groups, 392 map jobs.
SMALL_GROUPS = [
    ("c1", (1, [])),
    ("c2", cyclic(2)),
    ("c3", cyclic(3)),
    ("c4", cyclic(4)),
    ("v4", product(cyclic(2), cyclic(2))),
    ("c5", cyclic(5)),
    ("c6", cyclic(6)),
    ("s3", symmetric(3)),
    ("c7", cyclic(7)),
    ("c8", cyclic(8)),
    ("c2xc4", product(cyclic(2), cyclic(4))),
    ("c2xc2xc2", product(cyclic(2), product(cyclic(2), cyclic(2)))),
    ("d8", dihedral(4)),
    ("q8", dicyclic(2)),
]

# (max_order, max_dim, include_isos).  Without isos the jobs reach N=12 in
# dimension 4 (whose top level is empty, so degree 3 is the last with
# cells); with isos N=6, d=4 (1,334 top cells).  N>=8 with isos in dimension
# >= 2 is left out: it takes minutes or exhausts memory.
#
# The median job is the median of NERVE_MIDDLE: five distinct specs that
# each take about 1.1-1.3 s once N=12 has warmed the caches, with as many
# jobs below them as above.  A single job's corrected time spreads by about
# 12 % across runs; the middle of five independent ones spreads far less.
NERVE_FIRST = (12, 4, False)
NERVE_BELOW = [(5, 3, True), (6, 3, True)]
NERVE_MIDDLE = [(8, 3, False), (9, 3, False), (10, 3, False), (11, 3, False),
                (12, 2, False)]
NERVE_ABOVE = [(6, 4, True)]
NERVE_SPECS = [NERVE_FIRST] + NERVE_BELOW + NERVE_MIDDLE + NERVE_ABOVE


def groups_inputs(seed):
    rng = random.Random(seed)
    jobs = [{"name": name, "group": group_json(name, relabel(g, rng))} for name, _, g in GROUPS]
    rng.shuffle(jobs)
    return jobs


def maps_inputs(seed):
    rng = random.Random(seed)
    groups = {name: group_json(name, relabel(g, rng)) for name, g in SMALL_GROUPS}
    names = [name for name, _ in SMALL_GROUPS]
    jobs = [(a, b, v) for a in names for b in names for v in ("rep", "orb")]
    rng.shuffle(jobs)
    return {"groups": groups, "jobs": jobs}


def nerve_inputs(seed):
    """The N=12 job first, the rest in seeded order.

    The first job builds every corpus group and injective hom class the
    later ones use, so the split of cold and warm costs between jobs, and
    with it the median job, is the same for every seed.
    """
    rest = NERVE_SPECS[1:]
    random.Random(seed).shuffle(rest)
    return NERVE_SPECS[:1] + rest


def _token(rng, n=8):
    return "".join(rng.choice(string.ascii_lowercase) for _ in range(n))


def _chain_category(names):
    """The poset 0 < 1 < ... < k as a category, every arrow inverted (W)."""
    arrows, compose = [], []
    pairs = [(a, b) for a in names for b in names if names.index(a) <= names.index(b)]
    for a, b in pairs:
        arrows.append({"name": f"{a}_{b}", "src": a, "dst": b})
    for a, b in pairs:
        for b2, c in pairs:
            if b2 == b:
                compose.append([f"{a}_{b}", f"{b}_{c}", f"{a}_{c}"])
    return {
        "name": "chain",
        "objects": list(names),
        "arrows": arrows,
        "compose": compose,
        "W": [a["name"] for a in arrows],
    }


def cli_inputs(seed, workdir: Path):
    """Write the input files and return the list of calls.

    Each call is a dict: argv, kind ("ok" or "error"), an optional
    "fault" naming a known defect, and the facts its check needs.
    Every seed yields the same calls in a seeded order with seeded
    labels, and exactly the same four known-fault requests.
    """
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)

    def write(stem, data):
        path = workdir / f"{stem}.json"
        path.write_text(json.dumps(data) if not isinstance(data, str) else data)
        return str(path)

    files = {}
    perms = {}
    for name, g in (
        ("s4", symmetric(4)),
        ("q8", dicyclic(2)),
        ("a4", alternating(4)),
        ("s3", symmetric(3)),
        ("d8", dihedral(4)),
        ("c4", cyclic(4)),
        ("c2", cyclic(2)),
        ("c12", cyclic(12)),
    ):
        data = group_json(name, relabel(g, rng))
        files[name] = write(f"{name}-{_token(rng, 4)}", data)
        perms[name] = (data["degree"], data["generators"])

    objects = [_token(rng, 3) + str(i) for i in range(4)]
    chain = write("chain", _chain_category(objects))
    no_dst = _chain_category(objects[:2])
    del no_dst["arrows"][rng.randrange(len(no_dst["arrows"]))]["dst"]
    no_dst_file = write("nodst", no_dst)
    truncated = json.dumps(group_json("s3", perms["s3"]))
    not_json = write("notjson", truncated[: rng.randrange(10, len(truncated) - 2)])

    calls = [
        {"argv": ["group", files["s4"]], "kind": "ok", "check": "group", "group": "s4"},
        {"argv": ["group", files["c12"]], "kind": "ok", "check": "group", "group": "c12"},
        {"argv": ["irreps", files["q8"]], "kind": "ok", "check": "irreps", "group": "q8",
         "repeat": True},
        {"argv": ["irreps", files["a4"]], "kind": "ok", "check": "irreps", "group": "a4"},
        {"argv": ["homs", files["s3"], files["d8"]], "kind": "ok", "check": "homs",
         "source": "s3", "target": "d8", "injective": False},
        {"argv": ["homs", files["c4"], files["d8"], "--injective"], "kind": "ok",
         "check": "homs", "source": "c4", "target": "d8", "injective": True},
        {"argv": ["bundles", files["q8"]], "kind": "ok", "check": "bundles", "group": "q8"},
        {"argv": ["stable-maps", files["c2"], files["s3"], "--variant", "rep"], "kind": "ok",
         "check": "stable-maps", "pair": "c2-s3"},
        {"argv": ["stable-maps", files["s3"], files["c2"], "--variant", "rep"], "kind": "ok",
         "check": "stable-maps", "pair": "s3-c2"},
        {"argv": ["stable-maps", files["c4"], files["c2"], "--variant", "orb"], "kind": "ok",
         "check": "stable-maps"},
        {"argv": ["rstar", "--max-order", "6", "--max-dim", "3", "--homology"], "kind": "ok",
         "check": "rstar-homology", "max_dim": 3},
        {"argv": ["rstar", "--max-order", "4", "--max-dim", "2", "--census"], "kind": "ok",
         "check": "rstar-census", "max_dim": 2},
        {"argv": ["localize", chain, "--from", objects[-1], "--to", objects[0]], "kind": "ok",
         "check": "localize"},
        {"argv": ["detect", files["c12"], "--char-index", str(rng.randrange(12))],
         "kind": "ok", "check": "detect", "group": "c12"},
        {"argv": ["corpus"], "kind": "ok", "check": "corpus"},
        {"argv": ["corpus", "--dump", rng.choice(["s4", "d24", "dic6", "c2xa4"])],
         "kind": "ok", "check": "corpus-dump"},
        # Malformed requests whose correct outcome is a structured error.
        {"argv": ["group", "g" + _token(rng)], "kind": "error"},
        {"argv": ["stable-maps", files["c2"], files["c2"], "--variant", _token(rng)],
         "kind": "error"},
        {"argv": ["detect", files["c4"], "--char-index", str(4 + rng.randrange(90))],
         "kind": "error"},
        {"argv": ["group", not_json], "kind": "error", "fault": "non-JSON group file"},
        {"argv": ["localize", no_dst_file, "--from", objects[0], "--to", objects[0]],
         "kind": "error", "fault": "category arrow without dst"},
        {"argv": ["rstar", "--max-order", "4", "--max-dim", "-1",
                  "--homology"], "kind": "error", "fault": "negative --max-dim"},
        {"argv": ["localize", chain, "--from", objects[0], "--to", "x" + _token(rng)],
         "kind": "error", "fault": "unknown --to object"},
    ]
    rng.shuffle(calls)
    return {"calls": calls, "perms": perms}


def make_inputs(workload, seed, workdir: Path):
    if workload == "groups":
        return groups_inputs(seed)
    if workload == "maps":
        return maps_inputs(seed)
    if workload == "nerve":
        return nerve_inputs(seed)
    return cli_inputs(seed, workdir)
