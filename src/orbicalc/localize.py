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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .errors import ValidationError, read_json

# Most arrows a category may have for the universal-property probe, which
# enumerates every functor into each test category.
MAX_PROBE_ARROWS = 12


@dataclass(frozen=True)
class ArrowData:
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
        self.arrows = {a.name: a for a in arrows}
        if len(self.arrows) != len(arrows):
            raise ValidationError("duplicate arrow names")
        self.compose_table = dict(compose)
        self.name = name
        self._validate()

    # -- structure ----------------------------------------------------------

    def arrows_from(self, x: str) -> list[ArrowData]:
        return [a for a in self.arrows.values() if a.src == x]

    def arrows_into(self, x: str) -> list[ArrowData]:
        return [a for a in self.arrows.values() if a.dst == x]

    def hom(self, x: str, y: str) -> list[str]:
        return sorted(
            a.name for a in self.arrows.values() if a.src == x and a.dst == y
        )

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
        for a in self.arrows.values():
            if a.src not in self.objects or a.dst not in self.objects:
                raise ValidationError(f"arrow {a.name} has unknown endpoints")
        # Totality and typing of composition.
        for a in self.arrows.values():
            for b in self.arrows.values():
                if a.dst != b.src:
                    if (a.name, b.name) in self.compose_table:
                        raise ValidationError("composite of non-composable arrows")
                    continue
                c = self.compose_table.get((a.name, b.name))
                if c is None:
                    raise ValidationError(f"missing composite {b.name} . {a.name}")
                cd = self.arrows.get(c)
                if cd is None or cd.src != a.src or cd.dst != b.dst:
                    raise ValidationError(f"ill-typed composite {b.name} . {a.name}")
        # Identities: for each object, an arrow neutral on both sides.
        self._identities = {}
        for x in self.objects:
            ident = None
            for cand in self.hom(x, x):
                left = all(
                    self.compose(cand, a.name) == a.name for a in self.arrows_from(x)
                )
                right = all(
                    self.compose(a.name, cand) == a.name for a in self.arrows_into(x)
                )
                if left and right:
                    ident = cand
                    break
            if ident is None:
                raise ValidationError(f"object {x} has no identity arrow")
            self._identities[x] = ident
        # Associativity.
        for a in self.arrows.values():
            for b in self.arrows_from(a.dst):
                for c in self.arrows_from(b.dst):
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
    compose = {(a, b): c for a, b, c in entries}
    cat = FiniteCategory(data["objects"], arrows, compose, name=data.get("name"))
    W = set(data.get("W", []))
    unknown = W - set(cat.arrows)
    if unknown:
        raise ValidationError(f"W contains unknown arrows: {sorted(unknown)}")
    return cat, W


# -- the right multiplicative system checker -------------------------------------


@dataclass
class RMSVerdict:
    ok: bool
    failures: list[dict] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def check_right_multiplicative(C: FiniteCategory, W: Iterable[str]) -> RMSVerdict:
    """Exhaustively verify the three axioms; report every violation found."""
    W = set(W)
    unknown = W - set(C.arrows)
    if unknown:
        raise ValidationError(f"W contains unknown arrows: {sorted(unknown)}")
    failures = []

    W_sorted = sorted(W)
    for x in C.objects:
        if C.identity(x) not in W:
            failures.append({"axiom": "identities", "object": x})
    for a in W_sorted:
        for b in W_sorted:
            if C.arrows[a].dst == C.arrows[b].src:
                if C.compose(a, b) not in W:
                    failures.append(
                        {"axiom": "closure", "first": a, "then": b,
                         "composite": C.compose(a, b)}
                    )

    # Right Ore: for u: C0 -> D and w: B -> D in W, find A, f: A -> B and
    # w': A -> C0 in W with w . f = u . w'.
    for u in C.arrows.values():
        for w_name in W_sorted:
            w = C.arrows[w_name]
            if w.dst != u.dst:
                continue
            found = False
            for a_obj in C.objects:
                for f in C.hom(a_obj, w.src):
                    for wp in C.hom(a_obj, u.src):
                        if wp not in W:
                            continue
                        if C.compose(f, w_name) == C.compose(wp, u.name):
                            found = True
                            break
                    if found:
                        break
                if found:
                    break
            if not found:
                failures.append(
                    {"axiom": "ore", "cospan": {"map": u.name, "w": w_name}}
                )

    # Right cancellability: w . f = w . g with w in W forces f w' = g w'
    # for some w' in W.
    for w_name in W_sorted:
        w = C.arrows[w_name]
        for x in C.objects:
            homs = C.hom(x, w.src)
            for i, f in enumerate(homs):
                for g in homs[i + 1 :]:
                    if C.compose(f, w_name) != C.compose(g, w_name):
                        continue
                    found = False
                    for a_obj in C.objects:
                        for wp in C.hom(a_obj, x):
                            if wp in W and C.compose(wp, f) == C.compose(wp, g):
                                found = True
                                break
                        if found:
                            break
                    if not found:
                        failures.append(
                            {"axiom": "cancellability",
                             "parallel": [f, g], "w": w_name}
                        )

    return RMSVerdict(ok=not failures, failures=failures)


# -- localized hom-sets ------------------------------------------------------------


@dataclass(frozen=True)
class Span:
    """(w: Z -> X in W, f: Z -> Y), one candidate localized arrow X -> Y."""

    w: str
    f: str


@dataclass
class LocalizedHom:
    source: str
    target: str
    classes: list[list[Span]]  # each class sorted, classes sorted by min


def localize_hom(C: FiniteCategory, W: Iterable[str], x: str, y: str) -> LocalizedHom:
    """Morphisms x -> y in the localization, as glued span classes."""
    for obj in (x, y):
        if obj not in C.objects:
            raise ValidationError(f"unknown object {obj!r}")
    W = set(W)
    verdict = check_right_multiplicative(C, W)
    if not verdict.ok:
        raise ValidationError(
            f"W is not a right multiplicative system: {verdict.failures[:3]}"
        )
    spans = [
        Span(w.name, f)
        for w in C.arrows.values()
        if w.dst == x and w.name in W
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
            parent[max(ra, rb, key=lambda s: (s.w, s.f))] = min(
                ra, rb, key=lambda s: (s.w, s.f)
            )

    # Glue (w', f') with (w' . z, f' . z) for every refining arrow z.
    for sp in spans:
        zsrc = C.arrows[sp.w].src
        for z in C.arrows.values():
            if z.dst != zsrc:
                continue
            w2 = C.compose(z.name, sp.w)
            if w2 not in W:
                continue
            union(sp, Span(w2, C.compose(z.name, sp.f)))

    groups: dict[Span, list[Span]] = {}
    for s in spans:
        groups.setdefault(find(s), []).append(s)
    classes = sorted(
        (sorted(v, key=lambda s: (s.w, s.f)) for v in groups.values()),
        key=lambda cls: (cls[0].w, cls[0].f),
    )
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
        choices = []
        feasible = True
        for a in arrows:
            cand = T.hom(omap[a.src], omap[a.dst])
            if a.name == C.identity(a.src):
                cand = [T.identity(omap[a.src])]
            if not cand:
                feasible = False
                break
            choices.append(cand)
        if not feasible:
            continue
        for arrow_images in product(*choices):
            amap = {a.name: img for a, img in zip(arrows, arrow_images)}
            ok = True
            for a in arrows:
                for b in arrows:
                    if a.dst != b.src:
                        continue
                    if amap[C.compose(a.name, b.name)] != T.compose(amap[a.name], amap[b.name]):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
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
