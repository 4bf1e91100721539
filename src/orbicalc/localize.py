"""Finite categories and localization at right multiplicative systems.

A right multiplicative system W must contain the identities, be closed
under composition, satisfy the right Ore condition (every cospan with a
W-leg completes to a commutative square whose new leg is in W), and right
cancellability (maps equalized after a W-arrow are equalized before one).
W is deliberately not saturated: it need not contain all isomorphisms.

Hom-sets of the localized category are computed as equivalence classes of
spans (Z -w-> X in W, Z -f-> Y), glued under precomposition over X; for a
right multiplicative system the index category of W-arrows into X is
filtered, making these classes the expected filtered colimit.

A category indexes its arrows once, when it is validated, by source, by
target and by (source, target); every search below reads that index.  The
Ore square over a cospan (u: C0 -> D, w: B -> D) needs f: A -> B and w': A
-> C0 in W with f then w = w' then u.  Both composites are named arrows
A -> D, and equal arrows share their source, so a square exists exactly
when {f then w : f into B} meets {w' then u : w' in W into C0}.
"""

from __future__ import annotations

from itertools import product
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import ValidationError, read_json

# Most arrows a category may have for the universal-property probe, which
# enumerates every functor into each test category.
MAX_PROBE_ARROWS = 12


class ArrowData(NamedTuple):
    name: str
    src: str
    dst: str


class FiniteCategory:
    """Objects, named arrows, and an explicit composition table.

    compose[(a, b)] = name of "a then b" for arrows a: X -> Y, b: Y -> Z.
    Identity arrows are inferred from the unit laws and must exist.
    """

    def __init__(
        self,
        objects: Sequence[str],
        arrows: Sequence[ArrowData],
        compose: dict[tuple[str, str], str],
        name: Optional[str] = None,
    ):
        self.objects = list(objects)
        if len(set(self.objects)) != len(self.objects):
            raise ValidationError("duplicate object names")
        self.arrows = {a.name: a for a in arrows}
        if len(self.arrows) != len(arrows):
            raise ValidationError("duplicate arrow names")
        self.compose_table = dict(compose)
        self.name = name
        self._validate()

    # -- structure ----------------------------------------------------------

    def arrows_from(self, x: str) -> list[ArrowData]:
        return list(self._from.get(x, ()))

    def arrows_into(self, x: str) -> list[ArrowData]:
        return list(self._into.get(x, ()))

    def hom(self, x: str, y: str) -> list[str]:
        return list(self._hom.get((x, y), ()))

    def compose(self, a: str, b: str) -> str:
        """a then b."""
        return self.compose_table[(a, b)]

    def identity(self, x: str) -> str:
        return self._identities[x]

    def inverse(self, a: str) -> Optional[str]:
        """The two-sided inverse of a, or None when a is not an isomorphism."""
        ar = self.arrows[a]
        for b in self.hom(ar.dst, ar.src):
            if (
                self.compose(a, b) == self.identity(ar.src)
                and self.compose(b, a) == self.identity(ar.dst)
            ):
                return b
        return None

    def _validate(self) -> None:
        # The index: arrows by source and by target in input order, and the
        # names of each hom-set sorted.
        self._from = {x: [] for x in self.objects}
        self._into = {x: [] for x in self.objects}
        self._hom: dict[tuple[str, str], list[str]] = {}
        for a in self.arrows.values():
            if a.src not in self._from or a.dst not in self._into:
                raise ValidationError(f"arrow {a.name} has unknown endpoints")
            self._from[a.src].append(a)
            self._into[a.dst].append(a)
            self._hom.setdefault((a.src, a.dst), []).append(a.name)
        for names in self._hom.values():
            names.sort()
        # Totality and typing of composition.
        for a, b in self.compose_table:
            if a not in self.arrows or b not in self.arrows:
                raise ValidationError(f"composite of unknown arrows {a!r} then {b!r}")
            if self.arrows[a].dst != self.arrows[b].src:
                raise ValidationError("composite of non-composable arrows")
        for a in self.arrows.values():
            for b in self._from[a.dst]:
                c = self.compose_table.get((a.name, b.name))
                if c is None:
                    raise ValidationError(f"missing composite {b.name} . {a.name}")
                cd = self.arrows.get(c)
                if cd is None or cd.src != a.src or cd.dst != b.dst:
                    raise ValidationError(f"ill-typed composite {b.name} . {a.name}")
        # Identities: for each object, an arrow neutral on both sides.
        self._identities = {}
        for x in self.objects:
            ident = next((
                cand for cand in self.hom(x, x)
                if all(self.compose(cand, a.name) == a.name for a in self._from[x])
                and all(self.compose(a.name, cand) == a.name for a in self._into[x])
            ), None)
            if ident is None:
                raise ValidationError(f"object {x} has no identity arrow")
            self._identities[x] = ident
        # Associativity.
        for a in self.arrows.values():
            for b in self._from[a.dst]:
                for c in self._from[b.dst]:
                    lhs = self.compose(self.compose(a.name, b.name), c.name)
                    rhs = self.compose(a.name, self.compose(b.name, c.name))
                    if lhs != rhs:
                        raise ValidationError(
                            f"associativity fails at ({a.name}, {b.name}, {c.name})"
                        )


def _is_string_list(items) -> bool:
    return isinstance(items, list) and all(isinstance(x, str) for x in items)


def category_from_json(data: dict | str | Path) -> tuple[FiniteCategory, set[str]]:
    """Load {objects, arrows, compose, W} JSON; returns (category, W)."""
    if not isinstance(data, dict):
        data = read_json(data)
    if not isinstance(data, dict):
        raise ValidationError("category JSON must be an object")
    for key in ("objects", "arrows"):
        if not isinstance(data.get(key), list):
            raise ValidationError(f"category JSON needs a list '{key}'")
    for key in ("objects", "W"):
        if not _is_string_list(data.get(key, [])):
            raise ValidationError(f"'{key}' must be a list of strings")
    for a in data["arrows"]:
        if not isinstance(a, dict):
            raise ValidationError(f"arrow {a!r} is not an object")
        missing = [k for k in ("name", "src", "dst") if not isinstance(a.get(k), str)]
        if missing:
            raise ValidationError(
                f"arrow {a.get('name', a)!r} lacks a string {', '.join(missing)}"
            )
    entries = data.get("compose", [])
    if not isinstance(entries, list):
        raise ValidationError("'compose' must be a list")
    for entry in entries:
        if not (_is_string_list(entry) and len(entry) == 3):
            raise ValidationError(f"compose entry {entry!r} is not [first, then, composite]")
    arrows = [ArrowData(a["name"], a["src"], a["dst"]) for a in data["arrows"]]
    compose = {}
    for a, b, c in entries:
        if compose.setdefault((a, b), c) != c:
            raise ValidationError(f"compose entries disagree on {a} then {b}")
    cat = FiniteCategory(data["objects"], arrows, compose, name=data.get("name"))
    return cat, set(data.get("W", []))


# -- the right multiplicative system checker -------------------------------------


class RMSVerdict(NamedTuple):
    ok: bool
    failures: list[dict]

    def __bool__(self) -> bool:
        return self.ok


def check_right_multiplicative(C: FiniteCategory, W: Iterable[str]) -> RMSVerdict:
    """Exhaustively verify the three axioms; report every violation found."""
    W = set(W)
    unknown = W - set(C.arrows)
    if unknown:
        raise ValidationError(f"W contains unknown arrows: {sorted(unknown)}")
    W_sorted = sorted(W)
    failures = [{"axiom": "identities", "object": x} for x in C.objects if C.identity(x) not in W]
    failures += [
        {"axiom": "closure", "first": a, "then": b, "composite": C.compose(a, b)}
        for a in W_sorted
        for b in W_sorted
        if C.arrows[a].dst == C.arrows[b].src and C.compose(a, b) not in W
    ]

    # W-arrows into each object, sorted by name: the order failures name them in.
    w_into = {x: sorted(a.name for a in C.arrows_into(x) if a.name in W) for x in C.objects}

    # Right Ore: for u: C0 -> D and w: B -> D in W, find f: A -> B and
    # w': A -> C0 in W with f then w = w' then u (the module docstring says
    # why one intersection decides it).
    completions = {
        w: {C.compose(f.name, w) for f in C.arrows_into(C.arrows[w].src)}
        for w in W_sorted
    }
    for u in C.arrows.values():
        lifted = {C.compose(wp, u.name) for wp in w_into[u.src]}
        for w in w_into[u.dst]:
            if lifted.isdisjoint(completions[w]):
                failures.append({"axiom": "ore", "cospan": {"map": u.name, "w": w}})

    # Right cancellability: f then w = g then w with w in W forces
    # w' then f = w' then g for some w' in W.
    for w_name in W_sorted:
        w = C.arrows[w_name]
        for x in C.objects:
            homs = C.hom(x, w.src)
            for i, f in enumerate(homs):
                for g in homs[i + 1 :]:
                    if C.compose(f, w_name) == C.compose(g, w_name) and not any(
                        C.compose(wp, f) == C.compose(wp, g) for wp in w_into[x]
                    ):
                        failures.append(
                            {"axiom": "cancellability",
                             "parallel": [f, g], "w": w_name}
                        )

    return RMSVerdict(ok=not failures, failures=failures)


# -- localized hom-sets ------------------------------------------------------------


class Span(NamedTuple):
    """(w: Z -> X in W, f: Z -> Y), one candidate localized arrow X -> Y."""

    w: str
    f: str


class LocalizedHom(NamedTuple):
    source: str
    target: str
    classes: list[list[Span]]  # each class sorted, classes sorted by min


def localize_hom(C: FiniteCategory, W: Iterable[str], x: str, y: str) -> LocalizedHom:
    """Morphisms x -> y in the localization, as glued span classes."""
    return _localize_hom(C, set(W), x, y, None)


def _localize_hom(C: FiniteCategory, W: set[str], x: str, y: str, verdict) -> LocalizedHom:
    """localize_hom, given the RMSVerdict on W when the caller has it already, or None."""
    for obj in (x, y):
        if obj not in C.objects:
            raise ValidationError(f"unknown object {obj!r}")
    if verdict is None:
        verdict = check_right_multiplicative(C, W)
    if not verdict.ok:
        raise ValidationError(
            f"W is not a right multiplicative system: {verdict.failures[:3]}"
        )
    spans = [
        Span(w.name, f)
        for w in C.arrows_into(x)
        if w.name in W
        for f in C.hom(w.src, y)
    ]
    parent = {s: s for s in spans}

    def find(s: Span) -> Span:
        while parent[s] != s:
            parent[s] = parent[parent[s]]
            s = parent[s]
        return s

    def union(a: Span, b: Span) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    # Glue (w', f') with (z then w', z then f') for every refining arrow z.
    # A Span is the tuple (w, f), so tuples order spans by w, then f.
    for sp in spans:
        for z in C.arrows_into(C.arrows[sp.w].src):
            w2 = C.compose(z.name, sp.w)
            if w2 in W:
                union(sp, Span(w2, C.compose(z.name, sp.f)))

    groups: dict[Span, list[Span]] = {}
    for s in spans:
        groups.setdefault(find(s), []).append(s)
    # Classes are disjoint, so their first spans order them.
    classes = sorted(map(sorted, groups.values()))
    return LocalizedHom(source=x, target=y, classes=classes)


# -- universal property, by brute force --------------------------------------------


def _test_categories() -> list[FiniteCategory]:
    """A fixed battery of tiny targets for functor enumeration."""
    terminal = FiniteCategory(["*"], [ArrowData("id", "*", "*")], {("id", "id"): "id"})
    walking_iso = FiniteCategory(
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
    )
    flip = FiniteCategory(
        ["*"],
        [ArrowData("id", "*", "*"), ArrowData("s", "*", "*")],
        {("id", "id"): "id", ("id", "s"): "s", ("s", "id"): "s", ("s", "s"): "id"},
    )
    return [terminal, walking_iso, flip]


def _functors(C: FiniteCategory, T: FiniteCategory):
    """All functors C -> T, as (object map, arrow map) pairs."""
    objs = C.objects
    arrows = sorted(C.arrows.values(), key=lambda a: a.name)
    for obj_images in product(T.objects, repeat=len(objs)):
        omap = dict(zip(objs, obj_images))
        # An arrow with no candidate image leaves the product empty.
        choices = [
            [T.identity(omap[a.src])] if a.name == C.identity(a.src)
            else T.hom(omap[a.src], omap[a.dst])
            for a in arrows
        ]
        for arrow_images in product(*choices):
            amap = {a.name: img for a, img in zip(arrows, arrow_images)}
            if all(
                amap[C.compose(a.name, b.name)] == T.compose(amap[a.name], amap[b.name])
                for a in arrows
                for b in C.arrows_from(a.dst)
            ):
                yield omap, amap


def verify_universal_property(C: FiniteCategory, W: Iterable[str], x: str, y: str) -> bool:
    """Factorization through the localized hom-set, on a probe battery.

    For every functor F into a small test category sending W to
    isomorphisms, F(f) . F(w)^-1 must be constant on each localized class
    (existence of the factorization) and is forced by F (uniqueness), so
    constancy is the whole check at the hom-set level.  Categories with
    more than MAX_PROBE_ARROWS arrows are refused.
    """
    W = set(W)
    if len(C.arrows) > MAX_PROBE_ARROWS:
        raise ValidationError("category too large for functor enumeration")
    loc = localize_hom(C, W, x, y)
    for T in _test_categories():
        for omap, amap in _functors(C, T):
            if any(T.inverse(amap[w]) is None for w in W):
                continue
            for cls in loc.classes:
                values = {T.compose(T.inverse(amap[sp.w]), amap[sp.f]) for sp in cls}
                if len(values) != 1:
                    return False
    return True
