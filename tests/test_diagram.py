"""Diagram model: HFD round trips, validation, sums, stabilization."""

import dataclasses
import inspect
import json
import random
from fractions import Fraction
from itertools import combinations

import pytest
import sympy

import hfhat
from hfhat import (
    ArcRef,
    HeegaardDiagram,
    HFDFormatError,
    Region,
    boundary_system,
    connected_sum,
    enumerate_generators,
    homology,
    parse_hfd,
    quadrants,
    serialize_hfd,
    stabilize,
    validate,
)
from hfhat.cli import run
from hfhat.corpus import build
from hfhat.diagram import (
    ALPHA,
    BETA,
    SLOT_ORDER,
    ValidationReport,
    _arc_walk,
    _one_piece,
    _structural_violations,
)

from conftest import (
    SMALL_NAMES,
    arc_endpoints,
    curve,
    grid_diagram,
    point_measure,
    rectangle_diagram,
    reference_one_piece,
)


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_hfd_round_trip(name, corpus_small):
    d = corpus_small[name]
    text = serialize_hfd(d)
    assert parse_hfd(text) == d
    # byte-for-byte stable
    assert serialize_hfd(parse_hfd(text)) == text


def test_hfd_rejects_unknown_top_level_field():
    d = build("s3_g1")
    doc = json.loads(serialize_hfd(d))
    doc["color"] = "blue"
    with pytest.raises(HFDFormatError):
        parse_hfd(json.dumps(doc))


def test_hfd_rejects_unknown_ref_field():
    d = build("s3_g1")
    doc = json.loads(serialize_hfd(d))
    doc["regions"][0]["boundary"][0][0]["speed"] = 9
    with pytest.raises(HFDFormatError):
        parse_hfd(json.dumps(doc))


def test_hfd_rejects_bad_dir():
    d = build("s3_g1")
    doc = json.loads(serialize_hfd(d))
    doc["regions"][0]["boundary"][0][0]["dir"] = 2
    with pytest.raises(HFDFormatError):
        parse_hfd(json.dumps(doc))


@pytest.mark.parametrize(
    "path",
    [
        ("genus",),
        ("basepoint_region",),
        ("regions", 0, "genus"),
        ("regions", 0, "boundary", 0, 0, "index"),
        ("regions", 0, "boundary", 0, 0, "arc"),
        ("regions", 0, "boundary", 0, 0, "dir"),
    ],
    ids=lambda path: ".".join(map(str, path)),
)
@pytest.mark.parametrize("value", [True, False])
def test_hfd_rejects_booleans_as_integers(path, value):
    doc = json.loads(serialize_hfd(build("s3_g1")))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    with pytest.raises(HFDFormatError):
        parse_hfd(json.dumps(doc))


def test_hfd_rejects_truncated_text():
    with pytest.raises(HFDFormatError):
        parse_hfd('{"genus": 1')


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_corpus_validates(name, corpus_small):
    assert validate(corpus_small[name]).ok


def test_validate_flags_missing_region():
    d = build("s1s2_g1")
    broken = dataclasses.replace(d, regions=d.regions[:-1], basepoint=0)
    report = validate(broken)
    assert not report.ok


def test_validate_flags_flipped_dir():
    d = build("s1s2_g1")
    cyc = d.regions[0].cycles[0]
    flipped = tuple(
        dataclasses.replace(r, dir=-r.dir) if i == 0 else r for i, r in enumerate(cyc)
    )
    regions = (Region(0, (flipped,)),) + d.regions[1:]
    report = validate(dataclasses.replace(d, regions=regions))
    assert not report.ok


def test_validate_flags_bad_basepoint():
    d = build("s3_g1")
    report = validate(dataclasses.replace(d, basepoint=5))
    assert not report.ok
    assert any("basepoint" in v for v in report.violations)


def test_validate_flags_point_on_two_alpha_curves():
    d = build("gsph(2)")
    alpha = (d.alpha[0], d.alpha[0])
    report = validate(dataclasses.replace(d, alpha=alpha))
    assert not report.ok


def test_validate_flags_wrong_genus_budget():
    d = build("s1s2_g1")
    regions = (Region(1, d.regions[0].cycles),) + d.regions[1:]
    report = validate(dataclasses.replace(d, regions=regions))
    assert not report.ok


def test_validate_flags_nullhomologous_curve_system():
    """A beta cycle that closes up but bounds in the surface is rejected.

    The local combinatorics (arc coverage, corners, Euler counts) all
    pass here; only the curve check sees that beta is trivial: Sigma
    minus beta, the regions glued along alpha arcs, is in two pieces.
    """
    a = lambda arc, dir: ArcRef("a", 0, arc, dir)
    b = lambda arc, dir: ArcRef("b", 0, arc, dir)
    bigon1 = Region(0, ((a(1, 1), b(0, 1)),))
    bigon2 = Region(0, ((a(1, -1), b(1, 1)),))
    rest = Region(
        0,
        (
            (a(0, 1), b(0, -1)),
            (a(0, -1), b(1, -1)),
        ),
    )
    d = HeegaardDiagram(1, (("x", "y"),), (("x", "y"),), (bigon1, bigon2, rest), 2)
    report = validate(d)
    assert not report.ok
    assert any("rank" in str(v) for v in report.violations)


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_quadrant_closure(name, corpus_small):
    d = corpus_small[name]
    qs = quadrants(d)
    ones = [1] * len(d.regions)
    for p in d.points:
        regions = qs.quadrant_regions(p)
        assert len(regions) == 4
        assert point_measure(d, ones, p) == 1


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_euler_measure_totals(name, corpus_small):
    d = corpus_small[name]
    total = sum(r.euler_char - Fraction(r.corner_count, 4) for r in d.regions)
    assert total == 2 - 2 * d.genus


def test_connected_sum_genus_and_validity():
    d1 = build("lens(3,1)")
    d2 = build("s1s2_g1")
    d = connected_sum(d1, d2)
    assert d.genus == d1.genus + d2.genus
    assert validate(d).ok
    assert len(d.regions) == len(d1.regions) + len(d2.regions) - 1


def test_connected_sum_renames_clashing_points():
    d = connected_sum(build("s1s2_g1"), build("s1s2_g1"))
    assert len(set(d.points)) == 4


def test_stabilize_adds_torus():
    d = build("lens(2,1)")
    s = stabilize(d)
    assert s.genus == d.genus + 1
    assert validate(s).ok
    s2 = stabilize(s)
    assert s2.genus == d.genus + 2
    assert validate(s2).ok


def test_rectangle_diagram_fixture_is_valid():
    assert validate(rectangle_diagram()).ok


def _with_first_ref(d, **changes):
    """``d`` with the first arc reference of region 0 changed."""
    cycle = d.regions[0].cycles[0]
    cycle = (dataclasses.replace(cycle[0], **changes),) + cycle[1:]
    return dataclasses.replace(d, regions=(Region(d.regions[0].genus, (cycle,)),) + d.regions[1:])


_S3 = build("s3_g1")


@pytest.mark.parametrize(
    "broken,violations",
    [
        (
            dataclasses.replace(_S3, genus=0),
            [
                ("genus", "genus 0 < 1"),
                ("curve_count", "expected 0 curves per family, got 1 alpha / 1 beta"),
            ],
        ),
        (
            dataclasses.replace(_S3, genus=2),
            [("curve_count", "expected 2 curves per family, got 1 alpha / 1 beta")],
        ),
        (
            dataclasses.replace(_S3, regions=(Region(-1, _S3.regions[0].cycles),)),
            [("region_genus", "region 0 has negative genus")],
        ),
        (_with_first_ref(_S3, curve="c"), [("arc_ref", "region 0 cycle 0: bad curve tag")]),
        (
            _with_first_ref(_S3, index=1),
            [("arc_ref", "region 0 cycle 0: curve index out of range")],
        ),
        (
            _with_first_ref(_S3, arc=1),
            [("arc_ref", "region 0 cycle 0: arc index out of range")],
        ),
        (_with_first_ref(_S3, dir=2), [("arc_ref", "region 0 cycle 0: dir not +-1")]),
        (
            _with_first_ref(_S3, curve="b"),
            [
                (
                    "alternation",
                    "region 0 cycle 0: consecutive refs on the same curve family at position 0",
                ),
                (
                    "alternation",
                    "region 0 cycle 0: consecutive refs on the same curve family at position 3",
                ),
            ],
        ),
    ],
    ids=[
        "genus",
        "curve_count",
        "region_genus",
        "curve_tag",
        "curve_index",
        "arc_index",
        "dir",
        "alternation",
    ],
)
def test_structural_violations_are_reported_alone(broken, violations):
    """Each structural fault is reported exactly, and validation stops
    there: an arc index out of range is an arc_ref line, never an
    arc_coverage line about an arc that does not exist."""
    assert list(validate(broken).violations) == violations


@pytest.mark.parametrize(
    "function",
    [boundary_system, quadrants, enumerate_generators],
    ids=lambda f: f.__name__,
)
def test_derived_data_refuses_an_invalid_diagram(function):
    broken = dataclasses.replace(build("s3_g1"), basepoint=5)
    want = f"{function.__name__}() requires a valid diagram:\nbasepoint: basepoint region 5 out of range"
    with pytest.raises(ValueError) as exc:
        function(broken)
    assert str(exc.value) == want


@pytest.mark.parametrize("broken_first", [True, False])
def test_connected_sum_refuses_an_invalid_summand(broken_first):
    broken = dataclasses.replace(build("s3_g1"), basepoint=5)
    pair = (broken, build("lens(3,1)")) if broken_first else (build("lens(3,1)"), broken)
    with pytest.raises(ValueError) as exc:
        connected_sum(*pair)
    want = "connected_sum() requires valid diagrams:\nbasepoint: basepoint region 5 out of range"
    assert str(exc.value) == want


# validate and serialize_hfd take any diagram, valid or not.
_TAKES_ANY_DIAGRAM = ("validate", "serialize_hfd")
_TAKES_A_DIAGRAM = [
    name
    for name in hfhat.__all__
    if inspect.isfunction(getattr(hfhat, name))
    and next(iter(inspect.signature(getattr(hfhat, name)).parameters.values())).annotation
    == "HeegaardDiagram"
    and name not in _TAKES_ANY_DIAGRAM
]


def _with_genus_bumped(d):
    first, *rest = d.regions
    bumped = dataclasses.replace(first, genus=first.genus + 1)
    return dataclasses.replace(d, regions=(bumped, *rest))


@pytest.mark.parametrize("fault", ["basepoint", "region_genus"])
@pytest.mark.parametrize("name", _TAKES_A_DIAGRAM)
def test_every_function_refuses_an_invalid_diagram(name, fault):
    """Every exported function that takes a diagram, apart from validate
    and serialize_hfd, raises ValueError on an invalid one before it
    reads anything off it.  Its other arguments come from the valid
    diagram; the domain is a counted bigon, so that classify_rigid gets
    past its check of the domain."""
    valid = build("gsph(2)")
    if fault == "basepoint":
        broken = dataclasses.replace(valid, basepoint=99)
    else:
        broken = _with_genus_bumped(valid)
    assert not validate(broken).ok
    (c,) = hfhat.spinc_partition(valid)
    x, y, bigon, _ = hfhat.differential(valid, c).audit[0]
    arguments = {
        "d2": valid,
        "x": x,
        "y": y,
        "c": c,
        "D": bigon,
        "P": hfhat.periodic_lattice(valid).basis[0],
        "p": x.points[0],
        "mode": "weak",
        "target_index": 1,
        "nz": 0,
    }
    function = getattr(hfhat, name)
    _, *rest = inspect.signature(function).parameters.values()
    required = [arguments[p.name] for p in rest if p.default is inspect.Parameter.empty]
    with pytest.raises(ValueError) as exc:
        function(broken, *required)
    # The transforms check both summands and say so.
    transform = name in ("connected_sum", "stabilize")
    assert ("requires valid diagrams" if transform else "requires a valid diagram") in str(exc.value)


def test_refusal_test_reaches_every_exported_function():
    """Every exported function is in the refusal test above, except the
    two that take any diagram and the two that take none."""
    functions = {name for name in hfhat.__all__ if inspect.isfunction(getattr(hfhat, name))}
    assert functions - set(_TAKES_A_DIAGRAM) == {*_TAKES_ANY_DIAGRAM, "parse_hfd", "build"}


def _edit(doc, path, value):
    """Set (or, for ``value is None``, delete) the field at ``path``."""
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


@pytest.mark.parametrize(
    "edit,message",
    [
        (lambda doc: [doc], "top level must be an object"),
        (lambda doc: _edit(doc, ("regions",), None), "missing top-level fields: ['regions']"),
        (lambda doc: _edit(doc, ("regions",), {}), "regions must be a list"),
        (lambda doc: _edit(doc, ("alpha",), "x0"), "alpha must be a list of curves"),
        (lambda doc: _edit(doc, ("beta", 0), "x0"), "beta[0] must be a nonempty list of point ids"),
        (lambda doc: _edit(doc, ("alpha", 0), []), "alpha[0] must be a nonempty list of point ids"),
        (lambda doc: _edit(doc, ("beta", 0, 0), 0), "beta[0] contains a non-string point id"),
        (lambda doc: _edit(doc, ("regions", 0), 3), "regions[0] must be an object"),
        (
            lambda doc: _edit(doc, ("regions", 0, "color"), "blue"),
            "regions[0] unknown fields: ['color']",
        ),
        (
            lambda doc: _edit(doc, ("regions", 0, "boundary"), None),
            "regions[0] must have fields genus and boundary",
        ),
        (
            lambda doc: _edit(doc, ("regions", 0, "boundary"), {}),
            "regions[0].boundary must be a list of cycles",
        ),
        (
            lambda doc: _edit(doc, ("regions", 0, "boundary", 0), []),
            "regions[0].boundary[0] must be a nonempty list",
        ),
        (
            lambda doc: _edit(doc, ("regions", 0, "boundary", 0, 0, "curve"), "c"),
            "regions[0]: curve must be 'a' or 'b'",
        ),
    ],
    ids=[
        "top_level",
        "missing_field",
        "regions",
        "curve_family",
        "curve",
        "empty_curve",
        "point_id",
        "region",
        "region_unknown_field",
        "region_missing_field",
        "boundary",
        "empty_cycle",
        "curve_tag",
    ],
)
def test_validate_refuses_malformed_hfd(edit, message, tmp_path, capsys):
    """``hf validate`` exits 1 on a malformed document and names the fault."""
    path = tmp_path / "bad.hfd"
    path.write_text(json.dumps(edit(json.loads(serialize_hfd(build("s3_g1"))))))
    assert run(["validate", str(path), "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == {"ok": False, "violations": [message]}
    assert run(["validate", str(path)]) == 1
    assert capsys.readouterr().out == f"invalid: {message}\n"


def _split_basepoint_region(d):
    """``d`` with its basepoint region cut in two: a genus-1 region with
    the first two boundary cycles and a genus-0 region with the rest.
    The Euler totals do not change."""
    z = d.regions[d.basepoint]
    regions = list(d.regions)
    regions[d.basepoint] = Region(1, z.cycles[:2])
    regions.append(Region(0, z.cycles[2:]))
    return dataclasses.replace(d, regions=tuple(regions))


def test_validate_flags_disconnected_surface(tmp_path, capsys):
    """gsph(2) with its four-cycle basepoint region split glues into a
    genus-2 piece and a torus; every local count still passes."""
    split = _split_basepoint_region(build("gsph(2)"))
    report = validate(split)
    assert [name for name, _ in report.violations] == ["surface_connectivity"]
    # With a region doubled the complex is no closed surface, and no
    # connectivity line is reported, although it is still in pieces.
    doubled = dataclasses.replace(split, regions=split.regions + split.regions[-1:])
    names = {name for name, _ in validate(doubled).violations}
    assert "arc_coverage" in names and "surface_connectivity" not in names
    with pytest.raises(ValueError):
        homology(split)
    path = tmp_path / "split.hfd"
    path.write_text(serialize_hfd(split))
    assert run(["validate", str(path), "--json"]) == 1
    assert "surface_connectivity" in capsys.readouterr().out


def _mutate(d, rng):
    """One random edit of ``d``: flip a dir, re-point an arc, merge two
    regions, move a boundary cycle (possibly into a new region), shuffle
    a curve, or change a region genus."""
    regions = [list(r.cycles) for r in d.regions]
    genera = [r.genus for r in d.regions]
    alpha, beta = list(d.alpha), list(d.beta)
    kind = rng.choice(["dir", "arc", "merge", "move", "shuffle", "genus"])
    ri = rng.randrange(len(regions))
    if kind in ("dir", "arc") and regions[ri]:
        ci = rng.randrange(len(regions[ri]))
        cyc = list(regions[ri][ci])
        t = rng.randrange(len(cyc))
        ref = cyc[t]
        if kind == "dir":
            cyc[t] = dataclasses.replace(ref, dir=-ref.dir)
        else:
            length = len(curve(d, ref.curve, ref.index))
            cyc[t] = dataclasses.replace(ref, arc=rng.randrange(length))
        regions[ri][ci] = tuple(cyc)
    elif kind == "merge" and len(regions) > 1:
        rj = rng.choice([k for k in range(len(regions)) if k != ri])
        regions[ri] += regions[rj]
        genera[ri] += genera[rj]
        del regions[rj], genera[rj]
    elif kind == "move" and regions[ri]:
        cyc = regions[ri].pop(rng.randrange(len(regions[ri])))
        rj = rng.randrange(len(regions) + 1)
        if rj == len(regions):
            regions.append([])
            genera.append(rng.randrange(2))
        regions[rj].append(cyc)
    elif kind == "shuffle":
        family = rng.choice([alpha, beta])
        i = rng.randrange(len(family))
        family[i] = tuple(rng.sample(family[i], len(family[i])))
    elif kind == "genus":
        genera[ri] = max(0, genera[ri] + rng.choice([-1, 1]))
    new = tuple(Region(g, tuple(c)) for g, c in zip(genera, regions))
    return HeegaardDiagram(
        d.genus, tuple(alpha), tuple(beta), new, min(d.basepoint, len(new) - 1)
    )


def _glued_pieces(d):
    """Number of pieces of the regions glued along all shared arcs, by a
    breadth-first walk."""
    owners = {}
    for ri, region in enumerate(d.regions):
        for cyc in region.cycles:
            for ref in cyc:
                owners.setdefault((ref.curve, ref.index, ref.arc), set()).add(ri)
    unseen, pieces = set(range(len(d.regions))), 0
    while unseen:
        pieces += 1
        frontier = [unseen.pop()]
        while frontier:
            ri = frontier.pop()
            for cyc in d.regions[ri].cycles:
                for ref in cyc:
                    for rj in owners[(ref.curve, ref.index, ref.arc)] & unseen:
                        unseen.discard(rj)
                        frontier.append(rj)
    return pieces


def _rank_criterion_fails(d):
    """For alpha and beta: does rank([region boundaries; curves]) -
    rank(region boundaries) over Q differ from g?  The curve classes
    live in the cycle space of the graph modulo the region boundaries."""
    arcs = {}
    for fam, curves in (("a", d.alpha), ("b", d.beta)):
        for i, curve in enumerate(curves):
            for k in range(len(curve)):
                arcs[(fam, i, k)] = len(arcs)
    boundaries = []
    for region in d.regions:
        row = [0] * len(arcs)
        for cyc in region.cycles:
            for ref in cyc:
                row[arcs[(ref.curve, ref.index, ref.arc)]] += ref.dir
        boundaries.append(row)
    base = sympy.Matrix(boundaries).rank() if boundaries else 0
    out = []
    for fam, curves in (("a", d.alpha), ("b", d.beta)):
        rows = [
            [1 if key[:2] == (fam, i) else 0 for key in arcs] for i in range(len(curves))
        ]
        out.append(sympy.Matrix(boundaries + rows).rank() - base != d.genus)
    return tuple(out)


# Violations that leave the glued complex a closed surface, so that the
# connectivity checks run.
_CLOSED_SURFACE_NAMES = {
    "euler_characteristic",
    "euler_measure",
    "surface_connectivity",
    "curve_homology_rank",
}


def test_connectivity_checks_match_rank_criterion():
    """On seeded mutants of corpus diagrams that pass arc coverage,
    corners and quadrant closure, the curve lines appear exactly where
    the Q-rank criterion fails, and the surface line exactly where the
    regions are not one piece (then in place of the curve lines)."""
    rng = random.Random(20261020)
    bases = [build(name) for name in SMALL_NAMES + ["lens(7,3)", "gsph(3)"]]
    bases.append(rectangle_diagram())
    seen = {"curve_ok": 0, "curve_bad": 0, "disconnected": 0}
    for _ in range(1000):
        m = rng.choice(bases)
        for _ in range(rng.randint(1, 2)):
            m = _mutate(m, rng)
        report = validate(m)
        names = {name for name, _ in report.violations}
        if not names <= _CLOSED_SURFACE_NAMES:
            assert not names & {"surface_connectivity", "curve_homology_rank"}
            continue
        details = [detail for name, detail in report.violations if name == "curve_homology_rank"]
        if _glued_pieces(m) > 1:
            assert "surface_connectivity" in names and not details
            seen["disconnected"] += 1
            continue
        assert "surface_connectivity" not in names
        alpha_bad, beta_bad = _rank_criterion_fails(m)
        assert any(s.startswith("alpha ") for s in details) == alpha_bad
        assert any(s.startswith("beta ") for s in details) == beta_bad
        seen["curve_bad" if details else "curve_ok"] += 1
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# Reference validation: the walks that validate's one walk over the arc
# references replaced, one per check, with the Euler measure in Fractions.
# ---------------------------------------------------------------------------


def _reference_arrival(d, ref):
    tail, head = arc_endpoints(d, ref)
    return head if ref.dir == 1 else tail


def _reference_departure(d, ref):
    tail, head = arc_endpoints(d, ref)
    return tail if ref.dir == 1 else head


def _reference_corner_slots(d):
    out = {}
    for ri, region in enumerate(d.regions):
        for cyc in region.cycles:
            for t, ref in enumerate(cyc):
                nxt = cyc[(t + 1) % len(cyc)]
                p = _reference_arrival(d, ref)
                halves = {
                    ref.curve: "in" if ref.dir == 1 else "out",
                    nxt.curve: "out" if nxt.dir == 1 else "in",
                }
                slot = SLOT_ORDER.index((halves[ALPHA], halves[BETA]))
                out.setdefault(p, []).append((slot, ri))
    return out


def _reference_validate(d):
    bad = _structural_violations(d)
    if bad:
        return ValidationReport(tuple(bad))
    for label, family in ((ALPHA, d.alpha), (BETA, d.beta)):
        counts = {}
        for curve in family:
            for p in curve:
                counts[p] = counts.get(p, 0) + 1
        for p, c in sorted(counts.items()):
            if c != 1:
                bad.append(("point_membership", f"point {p} occurs {c} times on {label} curves"))
    apts = {p for curve in d.alpha for p in curve}
    bpts = {p for curve in d.beta for p in curve}
    if apts != bpts:
        bad.append(("point_membership", f"alpha/beta point sets differ: {sorted(apts ^ bpts)}"))
    if bad:
        return ValidationReport(tuple(bad))
    usage = {}
    for region in d.regions:
        for cyc in region.cycles:
            for ref in cyc:
                usage.setdefault((ref.curve, ref.index, ref.arc), []).append(ref.dir)
    for fam, family in ((ALPHA, d.alpha), (BETA, d.beta)):
        for i, curve in enumerate(family):
            for k in range(len(curve)):
                dirs = sorted(usage.get((fam, i, k), []))
                if dirs != [-1, 1]:
                    bad.append(
                        (
                            "arc_coverage",
                            f"arc {fam}{i}[{k}] referenced with dirs {dirs}, "
                            f"expected one +1 and one -1",
                        )
                    )
    for ri, region in enumerate(d.regions):
        for ci, cyc in enumerate(region.cycles):
            for t, ref in enumerate(cyc):
                nxt = cyc[(t + 1) % len(cyc)]
                if _reference_arrival(d, ref) != _reference_departure(d, nxt):
                    bad.append(
                        (
                            "cycle_connectivity",
                            f"region {ri} cycle {ci}: ref {t} arrives at "
                            f"{_reference_arrival(d, ref)} but ref {(t + 1) % len(cyc)} "
                            f"departs from {_reference_departure(d, nxt)}",
                        )
                    )
    if any(name == "cycle_connectivity" for name, _ in bad):
        return ValidationReport(tuple(bad))
    slots = _reference_corner_slots(d)
    for p in d.points:
        incidences = slots.get(p, [])
        if len(incidences) != 4:
            bad.append(("corner_count", f"point {p} has {len(incidences)} corners, expected 4"))
            continue
        seen = sorted(slot for slot, _ in incidences)
        if seen != [0, 1, 2, 3]:
            bad.append(
                (
                    "quadrant_closure",
                    f"quadrant closure at point {p}: slots {seen} "
                    f"do not cover all four quadrants",
                )
            )
    v = len(d.points)
    e = 2 * v
    chi_sum = sum(r.euler_char for r in d.regions)
    if chi_sum + v - e != 2 - 2 * d.genus:
        bad.append(
            (
                "euler_characteristic",
                f"sum chi + V - E = {chi_sum + v - e}, expected {2 - 2 * d.genus}",
            )
        )
    em = sum((r.euler_char - Fraction(r.corner_count, 4) for r in d.regions), Fraction(0))
    if em != 2 - 2 * d.genus:
        bad.append(("euler_measure", f"sum e(D_i) = {em}, expected {2 - 2 * d.genus}"))
    if not any(name in ("arc_coverage", "corner_count", "quadrant_closure") for name, _ in bad):
        everything = range(len(d.regions))
        if not reference_one_piece(d, everything, (ALPHA, BETA)):
            bad.append(
                ("surface_connectivity", "the regions do not glue into one connected surface")
            )
        else:
            bad.extend(
                ("curve_homology_rank", f"{label} curve classes do not have rank {d.genus} in H1")
                for label, other in (("alpha", BETA), ("beta", ALPHA))
                if not reference_one_piece(d, everything, (other,))
            )
    return ValidationReport(tuple(bad))


def _oracle_mutant(d, rng):
    """One seeded edit of ``d``: drop a ref (alone, with its successor so
    the families still alternate, or with its whole cycle), flip a dir,
    swap the arc indices of two refs to one curve, rename a point on one
    curve, bump a region's genus, split a region's boundary in two (a
    cycle at a point it passes twice when it does, else at two refs, or
    the region's cycles), or break the structure (genus, a curve, the
    basepoint, a ref's arc or curve).  A split-off piece stays, goes to
    a new region or joins another one."""
    regions = [list(r.cycles) for r in d.regions]
    genera = [r.genus for r in d.regions]
    alpha, beta = list(d.alpha), list(d.beta)
    genus, basepoint = d.genus, d.basepoint
    refs = [
        (ri, ci, t)
        for ri, r in enumerate(regions)
        for ci, c in enumerate(r)
        for t in range(len(c))
    ]
    if not refs:
        return d
    kind = rng.choice(["drop", "flip", "swap", "rename", "genus", "split", "structure"])
    ri, ci, t = rng.choice(refs)
    cyc = list(regions[ri][ci])
    if kind == "drop":
        how = rng.choice(["ref", "pair", "cycle"])
        if how == "cycle":
            cyc = []
        elif how == "pair" and len(cyc) > 2:
            cyc = [ref for k, ref in enumerate(cyc) if k not in (t, (t + 1) % len(cyc))]
        elif len(cyc) > 1:
            del cyc[t]
    elif kind == "flip":
        cyc[t] = dataclasses.replace(cyc[t], dir=-cyc[t].dir)
    elif kind == "swap":
        ref = cyc[t]
        same = [
            k for k in refs
            if (regions[k[0]][k[1]][k[2]].curve, regions[k[0]][k[1]][k[2]].index)
            == (ref.curve, ref.index)
        ]
        rj, cj, u = rng.choice(same)
        other = regions[rj][cj][u]
        cyc[t] = dataclasses.replace(ref, arc=other.arc)
        regions[ri][ci] = tuple(cyc)
        moved = list(regions[rj][cj])
        moved[u] = dataclasses.replace(other, arc=ref.arc)
        cyc = moved
        ri, ci = rj, cj
    elif kind == "rename":
        family = rng.choice([alpha, beta])
        i = rng.randrange(len(family))
        curve = list(family[i])
        k = rng.randrange(len(curve))
        curve[k] = rng.choice(["fresh"] + [p for p in d.points if p != curve[k]])
        family[i] = tuple(curve)
    elif kind == "genus":
        genera[ri] += rng.choice([-1, 1])
    elif kind == "split":
        if len(cyc) > 1 and rng.random() < 0.6:
            arrivals = [arc_endpoints(d, ref)[ref.dir == 1] for ref in cyc]
            repeats = [
                (a, b)
                for a in range(len(cyc))
                for b in range(a + 1, len(cyc))
                if arrivals[a] == arrivals[b]
            ]
            a, b = rng.choice(repeats) if repeats else sorted(rng.sample(range(len(cyc)), 2))
            piece = tuple(cyc[a + 1 : b + 1])
            cyc = cyc[: a + 1] + cyc[b + 1 :]
            where = rng.choice(["same", "new", "other"])
        else:
            piece, cyc = tuple(cyc), []
            where = rng.choice(["new", "other"])
        if where == "same":
            regions[ri].append(piece)
        elif where == "new" or len(regions) == 1:
            regions.append([piece])
            genera.append(rng.randrange(2))
        else:
            regions[rng.choice([k for k in range(len(regions)) if k != ri])].append(piece)
    elif kind == "structure":
        fault = rng.choice(["genus", "curve", "basepoint", "arc", "index", "tag"])
        if fault == "genus":
            genus = 0
        elif fault == "curve":
            del beta[-1]
        elif fault == "basepoint":
            basepoint = len(regions)
        else:
            change = {"arc": {"arc": 99}, "index": {"index": 99}, "tag": {"curve": "c"}}[fault]
            cyc[t] = dataclasses.replace(cyc[t], **change)
    regions[ri][ci] = tuple(cyc)
    new = tuple(Region(g, tuple(c for c in cycles if c)) for g, cycles in zip(genera, regions))
    return HeegaardDiagram(genus, tuple(alpha), tuple(beta), new, basepoint)


def _oracle_bases():
    """Corpus singles, seeded sums of two of them, and their stabilizations."""
    names = SMALL_NAMES + ["lens(7,3)", "lens(11,3)", "gsph(3)"]
    bases = [build(name) for name in names] + [rectangle_diagram()]
    rng = random.Random("validate oracle sums")
    for _ in range(5):
        first, second = rng.sample(names, 2)
        bases.append(connected_sum(build(first), build(second)))
    bases += [stabilize(d) for d in bases[:: 3]]
    return bases


def _early_return(report):
    names = {name for name, _ in report.violations}
    if names and names <= _STRUCTURAL_NAMES:
        return "structure"
    if names == {"point_membership"}:
        return "point_membership"
    if "cycle_connectivity" in names:
        return "cycle_connectivity"
    return "full"


_STRUCTURAL_NAMES = {"genus", "curve_count", "basepoint", "region_genus", "arc_ref", "alternation"}


def test_one_walk_validate_matches_reference():
    """On valid diagrams and on seeded mutants of them, validate gives
    the reference's report (same violations, same order) and the walk's
    corner slots are the reference's.  The mutants reach every
    violation kind and every early return."""
    rng = random.Random(20261019)
    bases = _oracle_bases()
    kinds, returns = set(), set()
    for i in range(1600):
        m = bases[i] if i < len(bases) else rng.choice(bases)
        if i >= len(bases):
            for _ in range(rng.randint(1, 2)):
                m = _oracle_mutant(m, rng)
                if _structural_violations(m):
                    break
        want = _reference_validate(m)
        assert validate(m) == want, m
        if not _structural_violations(m):
            assert _arc_walk(m).slots == _reference_corner_slots(m)
        kinds |= {name for name, _ in want.violations}
        returns.add(_early_return(want))
    assert kinds == _STRUCTURAL_NAMES | {
        "point_membership",
        "arc_coverage",
        "cycle_connectivity",
        "corner_count",
        "quadrant_closure",
        "euler_characteristic",
        "euler_measure",
        "surface_connectivity",
        "curve_homology_rank",
    }
    assert returns == {"structure", "point_membership", "cycle_connectivity", "full"}


def test_one_piece_matches_reference_union_find():
    """The union-find over the arc walk's sides (all arcs, the alpha
    arcs, the beta arcs) says what the union-find over the regions' own
    arc references says: on every non-empty region subset of the small
    corpus, the rectangle diagram and grid(3), and on seeded subsets of
    gsph(3) and grid(5)."""
    rng = random.Random("one piece")
    cases = []
    for d in [build(name) for name in SMALL_NAMES] + [rectangle_diagram(), grid_diagram(3)]:
        everything = range(len(d.regions))
        cases += [(d, s) for k in range(1, len(d.regions) + 1) for s in combinations(everything, k)]
    for d in (build("gsph(3)"), grid_diagram(5)):
        for _ in range(300):
            subset = [ri for ri in range(len(d.regions)) if rng.random() < 0.6]
            cases.append((d, subset or [rng.randrange(len(d.regions))]))
    seen = set()
    for d, subset in cases:
        sides = _arc_walk(d).sides
        alpha_arcs = sum(len(curve) for curve in d.alpha)
        for families, arcs in (
            ((ALPHA, BETA), sides),
            ((ALPHA,), sides[:alpha_arcs]),
            ((BETA,), sides[alpha_arcs:]),
        ):
            want = reference_one_piece(d, subset, families)
            assert _one_piece(subset, arcs) == want, (d, subset, families)
            seen.add((families, want))
    assert len(seen) == 6
