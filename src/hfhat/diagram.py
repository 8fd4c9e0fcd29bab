"""Combinatorial pointed Heegaard diagrams.

A diagram is stored with no geometry at all: each curve is the cyclic
sequence of intersection points met along a chosen orientation, and each
elementary region records its genus together with its boundary cycles.
A boundary cycle is an alternating sequence of oriented arc references,
where arc ``k`` of a curve is the segment from its ``k``-th to its
``(k+1)``-th point (cyclically), and regions are traversed with the
region on the left.

From this the module derives the quadrant structure at every point (the
four local cells used by point measures), validates the long list of
consistency invariants a genuine diagram must satisfy, and implements
stabilization and connected sum at the basepoints.  The layout is
decided here alone: the arc walk lists every point once, sorted, with
its curves and its row, and every arc once, alpha first, with its label
and its two ends, then walks the arc references once, looking each one
up; it gives each point's corners and each arc's sides.  Validation is
local counting (points, arcs, corners, quadrants, Euler totals) plus
gluing, all read off the walk: a union-find over the sides of given
arcs says whether the regions glued along them form one piece, which
decides that the surface is connected and that each curve family has
connected complement, so spans rank g in H1.  No other module reads
the curves to find a point's curves or row, or the references to find
an arc: generators read the points' curves, the boundary system the
rows, arcs and sides, and ``floer.classify_rigid`` glues a domain's
support with the same union-find.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import wraps
from typing import Callable, Iterable, NamedTuple, TypeVar

from .exactla import InternalError

ALPHA = "a"
BETA = "b"

# Quadrant slots in cyclic order around a point.  ``in``/``out`` refer
# to the half-edges of the two curves at the point: slot 0 sits between
# the outgoing alpha and outgoing beta half-edges, and the remaining
# slots follow one another around the point.
SLOT_ORDER = (("out", "out"), ("in", "out"), ("in", "in"), ("out", "in"))
_SLOT_OF = {halves: s for s, halves in enumerate(SLOT_ORDER)}
_ALL_SLOTS = set(range(len(SLOT_ORDER)))

T = TypeVar("T")


class HFDFormatError(ValueError):
    """Raised when an HFD document is malformed."""


class ArcRef(NamedTuple):
    """Oriented reference to one arc inside a region boundary cycle."""

    curve: str  # "a" or "b"
    index: int  # which curve of that family
    arc: int  # arc k runs from point k to point k+1 of the curve
    dir: int  # +1 along the curve orientation, -1 against it


class Region(NamedTuple):
    genus: int
    cycles: tuple[tuple[ArcRef, ...], ...]

    @property
    def corner_count(self) -> int:
        return sum(len(c) for c in self.cycles)

    @property
    def euler_char(self) -> int:
        return 2 - 2 * self.genus - len(self.cycles)


class HeegaardDiagram:
    """A pointed Heegaard diagram: its genus, the alpha and beta curves
    as cyclic point lists, the regions, and the basepoint region.

    Immutable: assigning an attribute raises AttributeError.  Equality,
    hashing and ``repr`` read the five fields alone.  ``_derived`` holds
    the results of ``derived`` functions, keyed by function; it is not
    part of the diagram's value, so equal but distinct objects each keep
    their own, and ``_replace`` gives a diagram with an empty one.
    """

    __slots__ = ("genus", "alpha", "beta", "regions", "basepoint", "_derived", "__weakref__")
    _fields = ("genus", "alpha", "beta", "regions", "basepoint")

    genus: int
    alpha: tuple[tuple[str, ...], ...]
    beta: tuple[tuple[str, ...], ...]
    regions: tuple[Region, ...]
    basepoint: int
    _derived: dict

    def __init__(self, genus, alpha, beta, regions, basepoint) -> None:
        for name, value in zip(self._fields, (genus, alpha, beta, regions, basepoint)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_derived", {})

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _value(self) -> tuple:
        return (self.genus, self.alpha, self.beta, self.regions, self.basepoint)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._value() == other._value()

    def __hash__(self) -> int:
        return hash(self._value())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._value()))
        return f"{type(self).__qualname__}({fields})"

    def _replace(self, **changes) -> HeegaardDiagram:
        """A new diagram with ``changes`` to its fields, and an empty store."""
        return HeegaardDiagram(**{**dict(zip(self._fields, self._value())), **changes})

    @property
    def points(self) -> tuple[str, ...]:
        """All point identifiers in canonical (lexicographic) order."""
        seen = sorted({p for curve in self.alpha for p in curve})
        return tuple(seen)


def derived(build: Callable[..., T]) -> Callable[..., T]:
    """Decorator: ``build(d, *key)`` runs at most once per diagram object
    and key.

    The key is whatever hashable arguments follow ``d``; most derived
    data takes none.  The result is stored on ``d`` and freed with it;
    a call that raises stores nothing.  This is how the validation
    report, the arc walk (corner slots and arc sides), quadrant map,
    factored boundary system, periodic lattice, weak witness and Spin^c
    partition are kept, and, keyed, the reduction and the domain phi_g
    per generator, the positive lattice points per starting domain and
    the admissibility verdicts and certificates per Chern pairing vector.
    """

    @wraps(build)
    def get(d: HeegaardDiagram, *key) -> T:
        slot = (build, *key) if key else build
        try:
            return d._derived[slot]
        except KeyError:
            value = d._derived[slot] = build(d, *key)
            return value

    return get


class ValidationReport(NamedTuple):
    violations: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(f"{name}: {detail}" for name, detail in self.violations)


# ---------------------------------------------------------------------------
# HFD file format.
# ---------------------------------------------------------------------------

_TOP_KEYS = {"genus", "alpha", "beta", "regions", "basepoint_region"}
_REGION_KEYS = {"genus", "boundary"}
_REF_KEYS = {"curve", "index", "arc", "dir"}


def _is_int(value: object) -> bool:
    """A JSON integer; ``true``/``false`` parse as ``bool``, a subclass of ``int``."""
    return isinstance(value, int) and not isinstance(value, bool)


def parse_hfd(text: str) -> HeegaardDiagram:
    """Parse an HFD (JSON) document; rejects unknown fields."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise HFDFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise HFDFormatError("top level must be an object")
    unknown = set(doc) - _TOP_KEYS
    if unknown:
        raise HFDFormatError(f"unknown top-level fields: {sorted(unknown)}")
    missing = _TOP_KEYS - set(doc)
    if missing:
        raise HFDFormatError(f"missing top-level fields: {sorted(missing)}")
    genus = doc["genus"]
    if not _is_int(genus) or genus < 1:
        raise HFDFormatError("genus must be an integer >= 1")
    alpha = _parse_curves(doc["alpha"], "alpha")
    beta = _parse_curves(doc["beta"], "beta")
    if not isinstance(doc["regions"], list):
        raise HFDFormatError("regions must be a list")
    regions = tuple(_parse_region(r, i) for i, r in enumerate(doc["regions"]))
    bp = doc["basepoint_region"]
    if not _is_int(bp) or not (0 <= bp < len(regions)):
        raise HFDFormatError("basepoint_region out of range")
    return HeegaardDiagram(genus, alpha, beta, regions, bp)


def _parse_curves(raw: object, label: str) -> tuple[tuple[str, ...], ...]:
    if not isinstance(raw, list):
        raise HFDFormatError(f"{label} must be a list of curves")
    out = []
    for i, curve in enumerate(raw):
        if not isinstance(curve, list) or not curve:
            raise HFDFormatError(f"{label}[{i}] must be a nonempty list of point ids")
        for p in curve:
            if not isinstance(p, str):
                raise HFDFormatError(f"{label}[{i}] contains a non-string point id")
        out.append(tuple(curve))
    return tuple(out)


def _parse_region(raw: object, i: int) -> Region:
    if not isinstance(raw, dict):
        raise HFDFormatError(f"regions[{i}] must be an object")
    unknown = set(raw) - _REGION_KEYS
    if unknown:
        raise HFDFormatError(f"regions[{i}] unknown fields: {sorted(unknown)}")
    if set(raw) != _REGION_KEYS:
        raise HFDFormatError(f"regions[{i}] must have fields genus and boundary")
    g = raw["genus"]
    if not _is_int(g) or g < 0:
        raise HFDFormatError(f"regions[{i}].genus must be an integer >= 0")
    if not isinstance(raw["boundary"], list):
        raise HFDFormatError(f"regions[{i}].boundary must be a list of cycles")
    cycles = []
    for c, cyc in enumerate(raw["boundary"]):
        if not isinstance(cyc, list) or not cyc:
            raise HFDFormatError(f"regions[{i}].boundary[{c}] must be a nonempty list")
        refs = []
        for ref in cyc:
            if not isinstance(ref, dict) or set(ref) != _REF_KEYS:
                raise HFDFormatError(
                    f"regions[{i}].boundary[{c}] arc refs need fields "
                    f"curve/index/arc/dir"
                )
            if ref["curve"] not in (ALPHA, BETA):
                raise HFDFormatError(f"regions[{i}]: curve must be 'a' or 'b'")
            if not _is_int(ref["dir"]) or ref["dir"] not in (1, -1):
                raise HFDFormatError(f"regions[{i}]: dir must be +1 or -1")
            if not _is_int(ref["index"]) or not _is_int(ref["arc"]):
                raise HFDFormatError(f"regions[{i}]: index and arc must be integers")
            refs.append(ArcRef(ref["curve"], ref["index"], ref["arc"], ref["dir"]))
        cycles.append(tuple(refs))
    return Region(g, tuple(cycles))


def serialize_hfd(d: HeegaardDiagram) -> str:
    """Deterministic HFD serialization (byte-stable for equal diagrams)."""
    doc = {
        "genus": d.genus,
        "alpha": [list(c) for c in d.alpha],
        "beta": [list(c) for c in d.beta],
        "regions": [
            {
                "genus": r.genus,
                "boundary": [
                    [
                        {"curve": a.curve, "index": a.index, "arc": a.arc, "dir": a.dir}
                        for a in cyc
                    ]
                    for cyc in r.cycles
                ],
            }
            for r in d.regions
        ],
        "basepoint_region": d.basepoint,
    }
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


# ---------------------------------------------------------------------------
# Validation.
# ---------------------------------------------------------------------------


def _structural_violations(d: HeegaardDiagram) -> list[tuple[str, str]]:
    """Checks that must pass before any derived structure makes sense."""
    bad: list[tuple[str, str]] = []
    if d.genus < 1:
        bad.append(("genus", f"genus {d.genus} < 1"))
    if len(d.alpha) != d.genus or len(d.beta) != d.genus:
        bad.append(
            (
                "curve_count",
                f"expected {d.genus} curves per family, "
                f"got {len(d.alpha)} alpha / {len(d.beta)} beta",
            )
        )
    if not (0 <= d.basepoint < len(d.regions)):
        bad.append(("basepoint", f"basepoint region {d.basepoint} out of range"))
    for ri, region in enumerate(d.regions):
        if region.genus < 0:
            bad.append(("region_genus", f"region {ri} has negative genus"))
        for ci, cyc in enumerate(region.cycles):
            for t, ref in enumerate(cyc):
                if ref.curve not in (ALPHA, BETA):
                    bad.append(("arc_ref", f"region {ri} cycle {ci}: bad curve tag"))
                    continue
                family = d.alpha if ref.curve == ALPHA else d.beta
                if not (0 <= ref.index < len(family)):
                    bad.append(
                        ("arc_ref", f"region {ri} cycle {ci}: curve index out of range")
                    )
                elif not (0 <= ref.arc < len(family[ref.index])):
                    bad.append(
                        ("arc_ref", f"region {ri} cycle {ci}: arc index out of range")
                    )
                if ref.dir not in (1, -1):
                    bad.append(("arc_ref", f"region {ri} cycle {ci}: dir not +-1"))
            for t, ref in enumerate(cyc):
                nxt = cyc[(t + 1) % len(cyc)]
                if ref.curve == nxt.curve:
                    bad.append(
                        (
                            "alternation",
                            f"region {ri} cycle {ci}: consecutive refs on the "
                            f"same curve family at position {t}",
                        )
                    )
    return bad


# The quadrant slot of the corner where ``ref`` arrives and ``nxt``
# departs, keyed by (ref's family, ref.dir, nxt.dir); nxt is on the other
# family.  Arriving along the orientation uses the head half-edge
# ("in"), against it the tail half-edge ("out"); departing along it uses
# the tail half-edge ("out"), against it the head ("in").
_CORNER_SLOT: dict[tuple[str, int, int], int] = {}
for _arrive, _arrival_half in ((1, "in"), (-1, "out")):
    for _depart, _departure_half in ((1, "out"), (-1, "in")):
        _CORNER_SLOT[ALPHA, _arrive, _depart] = _SLOT_OF[_arrival_half, _departure_half]
        _CORNER_SLOT[BETA, _arrive, _depart] = _SLOT_OF[_departure_half, _arrival_half]


class _ArcWalk(NamedTuple):
    """The point and arc tables, and what one walk over every region's
    arc references reads off them.

    ``curves``: every point once, sorted, with the alpha and the beta
    curves through it (one of each on a valid diagram), and ``rows``:
    its row in that order, the point's entry in a 0-chain.
    ``arcs``: every arc once, alpha first, curve by curve, arc k of a
    curve running from its point k to its point k+1, as (label, tail,
    head); the first ``alpha_arcs`` are the alpha arcs.  ``sides``: for
    each arc in that order, the (region index, dir) of every reference
    to it; on a valid diagram every arc has two.  ``slots``: corner
    incidences per point as (slot, region index) pairs, in walk order.
    ``breaks``: the cycle-connectivity violations, in walk order.
    """

    curves: dict[str, tuple[list[int], list[int]]]
    rows: dict[str, int]
    arcs: list[tuple[str, str, str]]
    alpha_arcs: int
    sides: list[list[tuple[int, int]]]
    slots: dict[str, list[tuple[int, int]]]
    breaks: list[tuple[str, str]]


@derived
def _arc_walk(d: HeegaardDiagram) -> _ArcWalk:
    """List every point and every arc once, then walk each boundary
    cycle once, looking up each reference's endpoints in the arc list.
    Consecutive references must share the point where one arrives and
    the next departs; that point is a corner of the region.  Needs
    every reference to name an existing arc."""
    arcs: list[tuple[str, str, str]] = []
    first_arc: dict[tuple[str, int], int] = {}
    on: dict[str, tuple[list[int], list[int]]] = {}
    for f, (family, curves) in enumerate(((ALPHA, d.alpha), (BETA, d.beta))):
        for i, curve in enumerate(curves):
            first_arc[family, i] = len(arcs)
            ends = zip(curve, curve[1:] + curve[:1])
            arcs.extend((f"{family}{i}[{k}]", tail, head) for k, (tail, head) in enumerate(ends))
            for p in curve:
                on.setdefault(p, ([], []))[f].append(i)
    point_curves = dict(sorted(on.items()))
    rows = {p: row for row, p in enumerate(point_curves)}
    sides: list[list[tuple[int, int]]] = [[] for _ in arcs]
    slots: dict[str, list[tuple[int, int]]] = {}
    breaks: list[tuple[str, str]] = []
    for ri, region in enumerate(d.regions):
        for ci, cyc in enumerate(region.cycles):
            arrivals, departures = [], []
            for ref in cyc:
                arc = first_arc[ref.curve, ref.index] + ref.arc
                _, tail, head = arcs[arc]
                if ref.dir == 1:
                    arrivals.append(head)
                    departures.append(tail)
                else:
                    arrivals.append(tail)
                    departures.append(head)
                sides[arc].append((ri, ref.dir))
            for t, ref in enumerate(cyc):
                s = (t + 1) % len(cyc)
                p = arrivals[t]
                if p != departures[s]:
                    breaks.append(
                        (
                            "cycle_connectivity",
                            f"region {ri} cycle {ci}: ref {t} arrives at "
                            f"{p} but ref {s} departs from {departures[s]}",
                        )
                    )
                slot = _CORNER_SLOT[ref.curve, ref.dir, cyc[s].dir]
                slots.setdefault(p, []).append((slot, ri))
    return _ArcWalk(point_curves, rows, arcs, sum(map(len, d.alpha)), sides, slots, breaks)


@derived
def validate(d: HeegaardDiagram) -> ValidationReport:
    """Check every diagram invariant; collects all violations.

    In order: structure and point membership; arc coverage and cycle
    connectivity; corner count and quadrant closure at every point;
    the Euler totals.  Once arcs, corners and quadrants pass, the
    regions glue into a closed surface, and it must be one piece
    (``surface_connectivity``); on a connected surface, Sigma minus
    alpha (the regions glued along beta arcs) and Sigma minus beta must
    each be one piece too (``curve_homology_rank``).  After the checks
    on structure, the arc walk (``_arc_walk``) gives the points with
    the curves they lie on, the arcs, the corners, the sides of every
    arc and the connectivity breaks; point membership is read from the
    points' curves, the arc coverage and the three gluings from the
    arcs and their sides, and the Euler measure is summed in quarters.
    """
    bad = _structural_violations(d)
    if bad:
        return ValidationReport(tuple(bad))

    # Point membership: each id on exactly one alpha and one beta curve.
    walk = _arc_walk(d)  # every ref names an existing arc: see above
    for f, label in enumerate((ALPHA, BETA)):
        for p, on in walk.curves.items():
            if len(on[f]) > 1:
                bad.append(("point_membership", f"point {p} occurs {len(on[f])} times on {label} curves"))
    lone = [p for p, (on_alpha, on_beta) in walk.curves.items() if not on_alpha or not on_beta]
    if lone:
        bad.append(("point_membership", f"alpha/beta point sets differ: {lone}"))
    if bad:
        return ValidationReport(tuple(bad))

    # Arc coverage: every arc referenced exactly twice, once per side.
    for (label, _, _), arc_sides in zip(walk.arcs, walk.sides):
        dirs = [direction for _, direction in arc_sides]
        if len(dirs) != 2 or dirs[0] + dirs[1]:
            bad.append(
                (
                    "arc_coverage",
                    f"arc {label} referenced with dirs {sorted(dirs)}, "
                    f"expected one +1 and one -1",
                )
            )

    # Cycle connectivity: consecutive refs share the point where one
    # arrives and the next departs.
    if walk.breaks:
        return ValidationReport(tuple(bad + walk.breaks))

    # Corner count and quadrant closure at every point.
    for p in walk.curves:
        incidences = walk.slots.get(p, [])
        if len(incidences) != 4:
            bad.append(
                ("corner_count", f"point {p} has {len(incidences)} corners, expected 4")
            )
            continue
        if {slot for slot, _ in incidences} != _ALL_SLOTS:
            seen = sorted(slot for slot, _ in incidences)
            bad.append(
                (
                    "quadrant_closure",
                    f"quadrant closure at point {p}: slots {seen} "
                    f"do not cover all four quadrants",
                )
            )

    # Euler characteristic of the glued surface; the Euler measure
    # e(D_i) = chi(D_i) - corners(D_i) / 4 in quarters.
    v = len(walk.curves)
    e = 2 * v
    chi_sum = sum(r.euler_char for r in d.regions)
    if chi_sum + v - e != 2 - 2 * d.genus:
        bad.append(
            (
                "euler_characteristic",
                f"sum chi + V - E = {chi_sum + v - e}, expected {2 - 2 * d.genus}",
            )
        )
    quarters = 4 * chi_sum - sum(r.corner_count for r in d.regions)
    if quarters != 4 * (2 - 2 * d.genus):
        bad.append(
            (
                "euler_measure",
                f"sum e(D_i) = {Fraction(quarters, 4)}, expected {2 - 2 * d.genus}",
            )
        )

    # Connectivity means something only once the regions glue into a
    # closed surface: every arc with two sides, every point with four
    # quadrants.
    if not any(name in ("arc_coverage", "corner_count", "quadrant_closure") for name, _ in bad):
        bad.extend(_connectivity_violations(d, walk))
    return ValidationReport(tuple(bad))


def _connectivity_violations(d: HeegaardDiagram, walk: _ArcWalk) -> list[tuple[str, str]]:
    """The closed surface must be connected.  Then g disjoint curves on
    it span rank g in H1 exactly when their complement is connected,
    and the complement of one family is the regions glued along the
    other family's arcs alone."""
    sides, alpha_arcs = walk.sides, walk.alpha_arcs
    everything = range(len(d.regions))
    if not _one_piece(everything, sides):
        return [("surface_connectivity", "the regions do not glue into one connected surface")]
    return [
        ("curve_homology_rank", f"{label} curve classes do not have rank {d.genus} in H1")
        for label, arcs in (("alpha", sides[alpha_arcs:]), ("beta", sides[:alpha_arcs]))
        if not _one_piece(everything, arcs)
    ]


def _one_piece(regions: Iterable[int], arcs: Iterable[list[tuple[int, int]]]) -> bool:
    """Do ``regions``, glued where both sides of one of ``arcs`` are
    among them, form one piece?  A union-find over the two sides of each
    arc (``_arc_walk``'s sides, after arc coverage has passed), counting
    the pieces down on each merge."""
    parent = {ri: ri for ri in regions}
    pieces = len(parent)

    def root(ri: int) -> int:
        while parent[ri] != ri:
            parent[ri] = parent[parent[ri]]
            ri = parent[ri]
        return ri

    for (ri, _), (rj, _) in arcs:
        if ri in parent and rj in parent:
            ri, rj = root(ri), root(rj)
            if ri != rj:
                parent[ri] = rj
                pieces -= 1
    return pieces <= 1


# ---------------------------------------------------------------------------
# Quadrant structure.
# ---------------------------------------------------------------------------


class QuadrantStructure(NamedTuple):
    """The 4-quadrant incidence map at each point."""

    corners: dict[str, tuple[int, int, int, int]]

    def quadrant_regions(self, p: str) -> tuple[int, int, int, int]:
        """Region index occupying each of the 4 slots at point p."""
        return self.corners[p]


@derived
def quadrants(d: HeegaardDiagram) -> QuadrantStructure:
    """Build the quadrant structure of a valid diagram."""
    report = validate(d)
    if not report.ok:
        raise ValueError(f"quadrants() requires a valid diagram:\n{report}")
    corners = {}
    for p, incidences in _arc_walk(d).slots.items():
        by_slot = dict(incidences)
        corners[p] = tuple(by_slot[s] for s in range(4))
    return QuadrantStructure(corners)


# ---------------------------------------------------------------------------
# Diagram transforms.
# ---------------------------------------------------------------------------


def _shift_region(region: Region, curve_shift: int) -> Region:
    cycles = tuple(
        tuple(
            ArcRef(ref.curve, ref.index + curve_shift, ref.arc, ref.dir) for ref in cyc
        )
        for cyc in region.cycles
    )
    return Region(region.genus, cycles)


def _relabel(d: HeegaardDiagram, mapping: dict[str, str]) -> HeegaardDiagram:
    ren = lambda c: tuple(mapping.get(p, p) for p in c)
    return HeegaardDiagram(
        d.genus,
        tuple(ren(c) for c in d.alpha),
        tuple(ren(c) for c in d.beta),
        d.regions,
        d.basepoint,
    )


def connected_sum(d1: HeegaardDiagram, d2: HeegaardDiagram) -> HeegaardDiagram:
    """Connected sum at the basepoints.

    The two z-regions are joined by a tube into a single region whose
    genus adds and whose boundary cycles are pooled; the new basepoint
    is the merged region.  Point labels of ``d2`` are prefixed with
    ``r.`` as often as needed to stay disjoint from ``d1``.
    """
    for d in (d1, d2):
        report = validate(d)
        if not report.ok:
            raise ValueError(f"connected_sum() requires valid diagrams:\n{report}")
    taken = set(d1.points)
    pts2 = d2.points
    prefix = ""
    while any((prefix + p) in taken for p in pts2):
        prefix = "r." + prefix
    if prefix:
        d2 = _relabel(d2, {p: prefix + p for p in pts2})

    alpha = d1.alpha + d2.alpha
    beta = d1.beta + d2.beta
    z1 = d1.regions[d1.basepoint]
    z2 = d2.regions[d2.basepoint]
    kept1 = [r for i, r in enumerate(d1.regions) if i != d1.basepoint]
    kept2 = [
        _shift_region(r, d1.genus)
        for i, r in enumerate(d2.regions)
        if i != d2.basepoint
    ]
    z2s = _shift_region(z2, d1.genus)
    merged = Region(z1.genus + z2s.genus, z1.cycles + z2s.cycles)
    regions = tuple(kept1 + kept2 + [merged])
    out = HeegaardDiagram(
        d1.genus + d2.genus, alpha, beta, regions, len(regions) - 1
    )
    report = validate(out)
    if not report.ok:
        raise InternalError(f"connected sum produced an invalid diagram:\n{report}")
    return out


def _torus_piece(point: str) -> HeegaardDiagram:
    """Genus-one diagram with a single intersection point.

    One alpha and one beta circle meeting once on the torus; the
    complement is a single square region with all four corners at the
    point.
    """
    a0 = lambda s: ArcRef(ALPHA, 0, 0, s)
    b0 = lambda s: ArcRef(BETA, 0, 0, s)
    region = Region(0, ((a0(1), b0(1), a0(-1), b0(-1)),))
    return HeegaardDiagram(1, ((point,),), ((point,),), (region,), 0)


def stabilize(d: HeegaardDiagram) -> HeegaardDiagram:
    """Stabilization: connected sum with the standard genus-one piece.

    Adds one curve to each family and one new intersection point; the
    generator set is unchanged up to appending the new point.
    """
    taken = set(d.points)
    label = "c"
    k = 0
    while label in taken:
        k += 1
        label = f"c{k}"
    return connected_sum(d, _torus_piece(label))
