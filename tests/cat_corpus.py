"""Synthetic finite categories for the localization tests: posets,
monoids, and a handful of small shapes, built programmatically."""

from __future__ import annotations

from orbicalc.localize import ArrowData, FiniteCategory


def poset_category(name, elements, leq) -> FiniteCategory:
    objects = [str(e) for e in elements]
    arrows = []
    compose = {}
    pairs = [(a, b) for a in elements for b in elements if leq(a, b)]

    def nm(a, b):
        return f"f{a}_{b}"

    for a, b in pairs:
        arrows.append(ArrowData(nm(a, b), str(a), str(b)))
    for a, b in pairs:
        for b2, c in pairs:
            if b2 == b:
                compose[(nm(a, b), nm(b, c))] = nm(a, c)
    return FiniteCategory(objects, arrows, compose, name=name)


def chain_category(n: int) -> FiniteCategory:
    return poset_category(f"chain{n}", list(range(n + 1)), lambda a, b: a <= b)


def discrete_category(n: int) -> FiniteCategory:
    return poset_category(f"discrete{n}", list(range(n)), lambda a, b: a == b)


def monoid_category(name, elems, mult) -> FiniteCategory:
    arrows = [ArrowData(e, "*", "*") for e in elems]
    compose = {(a, b): mult(a, b) for a in elems for b in elems}
    return FiniteCategory(["*"], arrows, compose, name=name)


def cyclic_monoid(n: int) -> FiniteCategory:
    elems = [f"g{i}" for i in range(n)]
    return monoid_category(
        f"z{n}", elems, lambda a, b: f"g{(int(a[1:]) + int(b[1:])) % n}"
    )


def right_zero_monoid(n: int) -> FiniteCategory:
    """An identity and n - 1 right zeros z: a then z = z for every a."""
    elems = ["id"] + [f"z{i}" for i in range(1, n)]
    return monoid_category(f"rz{n}", elems, lambda a, b: a if b == "id" else b)


def transformations(degree: int, gens) -> set[tuple[int, ...]]:
    """The maps of range(degree) to itself that gens (tuples of images)
    generate, the identity included."""
    out, frontier = {tuple(range(degree))}, [tuple(range(degree))]
    for a in frontier:
        for g in gens:
            b = tuple(g[i] for i in a)
            if b not in out:
                out.add(b)
                frontier.append(b)
    return out


def transformation_monoid(maps) -> FiniteCategory:
    """A composition-closed set of maps as a monoid: "a then b" is i -> b[a[i]]."""

    def nm(a):
        return "t" + "".join(map(str, a))

    by_name = {nm(a): a for a in maps}
    return monoid_category(
        f"T{len(by_name)}", sorted(by_name),
        lambda a, b: nm(tuple(by_name[b][i] for i in by_name[a])),
    )


def parallel_pair() -> FiniteCategory:
    return FiniteCategory(
        ["x", "y"],
        [
            ArrowData("ix", "x", "x"),
            ArrowData("iy", "y", "y"),
            ArrowData("f", "x", "y"),
            ArrowData("g", "x", "y"),
        ],
        {
            ("ix", "ix"): "ix", ("iy", "iy"): "iy",
            ("ix", "f"): "f", ("f", "iy"): "f",
            ("ix", "g"): "g", ("g", "iy"): "g",
        },
        name="parallel",
    )


def walking_iso() -> FiniteCategory:
    return FiniteCategory(
        ["a", "b"],
        [
            ArrowData("ia", "a", "a"),
            ArrowData("ib", "b", "b"),
            ArrowData("u", "a", "b"),
            ArrowData("v", "b", "a"),
        ],
        {
            ("ia", "ia"): "ia", ("ib", "ib"): "ib",
            ("ia", "u"): "u", ("u", "ib"): "u",
            ("ib", "v"): "v", ("v", "ia"): "v",
            ("u", "v"): "ia", ("v", "u"): "ib",
        },
        name="walking_iso",
    )


def idempotent_monoid() -> FiniteCategory:
    return monoid_category(
        "idem", ["id", "e"], lambda a, b: "id" if a == b == "id" else "e"
    )


def idempotent_with_spectator() -> FiniteCategory:
    return FiniteCategory(
        ["a", "b"],
        [
            ArrowData("ia", "a", "a"),
            ArrowData("ib", "b", "b"),
            ArrowData("e", "a", "a"),
        ],
        {
            ("ia", "ia"): "ia", ("ib", "ib"): "ib",
            ("ia", "e"): "e", ("e", "ia"): "e", ("e", "e"): "e",
        },
        name="idem2",
    )


def grid_poset(rows: int, cols: int) -> FiniteCategory:
    elems = [(i, j) for i in range(rows) for j in range(cols)]
    return poset_category(
        f"grid{rows}x{cols}",
        [f"{i}{j}" for i, j in elems],
        lambda a, b: a[0] <= b[0] and a[1] <= b[1],
    )


def span_poset() -> FiniteCategory:
    order = {("c", "a"), ("c", "b")}
    return poset_category(
        "span", ["a", "b", "c"], lambda x, y: x == y or (x, y) in order
    )


def cospan_poset() -> FiniteCategory:
    order = {("a", "c"), ("b", "c")}
    return poset_category(
        "cospan", ["a", "b", "c"], lambda x, y: x == y or (x, y) in order
    )


def diamond_poset() -> FiniteCategory:
    order = {("0", "x"), ("0", "y"), ("0", "1"), ("x", "1"), ("y", "1")}
    return poset_category(
        "diamond", ["0", "x", "y", "1"], lambda a, b: a == b or (a, b) in order
    )


def single_inversion() -> FiniteCategory:
    """One non-identity arrow w: a -> b, to be inverted."""
    return FiniteCategory(
        ["a", "b"],
        [
            ArrowData("ia", "a", "a"),
            ArrowData("ib", "b", "b"),
            ArrowData("w", "a", "b"),
        ],
        {
            ("ia", "ia"): "ia", ("ib", "ib"): "ib",
            ("ia", "w"): "w", ("w", "ib"): "w",
        },
        name="one_arrow",
    )


def ore_counterexample() -> tuple[FiniteCategory, set[str]]:
    """u: x -> z against w: y -> z in W, with no way to complete: the only
    W-arrow into x is the identity and there is no arrow x -> y."""
    cat = FiniteCategory(
        ["x", "y", "z"],
        [
            ArrowData("ix", "x", "x"),
            ArrowData("iy", "y", "y"),
            ArrowData("iz", "z", "z"),
            ArrowData("u", "x", "z"),
            ArrowData("w", "y", "z"),
        ],
        {
            ("ix", "ix"): "ix", ("iy", "iy"): "iy", ("iz", "iz"): "iz",
            ("ix", "u"): "u", ("u", "iz"): "u",
            ("iy", "w"): "w", ("w", "iz"): "w",
        },
        name="ore_fail",
    )
    return cat, {"ix", "iy", "iz", "w"}


def synthetic_corpus() -> list[FiniteCategory]:
    """Exactly twenty small categories of assorted shapes."""
    cats = [
        chain_category(0),
        chain_category(1),
        chain_category(2),
        chain_category(3),
        chain_category(4),
        discrete_category(2),
        discrete_category(3),
        parallel_pair(),
        walking_iso(),
        cyclic_monoid(2),
        cyclic_monoid(3),
        cyclic_monoid(4),
        idempotent_monoid(),
        idempotent_with_spectator(),
        grid_poset(2, 2),
        grid_poset(2, 3),
        span_poset(),
        cospan_poset(),
        diamond_poset(),
        single_inversion(),
    ]
    assert len(cats) == 20
    return cats
