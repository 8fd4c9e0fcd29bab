"""Diagram model: HFD round trips, validation, sums, stabilization."""

import dataclasses
import json

import pytest

from hfhat import (
    ArcRef,
    HeegaardDiagram,
    HFDFormatError,
    Region,
    connected_sum,
    parse_hfd,
    quadrants,
    serialize_hfd,
    stabilize,
    validate,
)
from hfhat.corpus import build

from conftest import SMALL_NAMES, rectangle_diagram


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
    pass here; only the homology-rank check sees that beta is trivial.
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
        assert qs.point_measure(ones, p) == 1


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_euler_measure_totals(name, corpus_small):
    d = corpus_small[name]
    total = sum(r.euler_measure for r in d.regions)
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
