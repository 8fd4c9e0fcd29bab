"""Rigid-shape classification, the F2 differential, and homology."""

import pytest

from hfhat import (
    NotCombinatorial,
    UnboundedEnumeration,
    classify_rigid,
    differential,
    enumerate_generators,
    homology,
    positive_domains,
    spinc_partition,
    stabilize,
)
from hfhat.corpus import build
from hfhat.floer import BIGON, RECTANGLE

from conftest import gen, rectangle_diagram


def test_s1s2_g1_bigons():
    d = build("s1s2_g1")
    theta, eta = gen("theta"), gen("eta")
    doms = positive_domains(d, theta, eta, 1, 0)
    assert len(doms) == 2
    for dom in doms:
        shape = classify_rigid(d, dom)
        assert shape.tag == BIGON
        assert len(shape.corners) == 2
    # no positive index-1 domains the other way
    assert positive_domains(d, eta, theta, 1, 0) == []


def test_s1s2_g1_differential_cancels():
    d = build("s1s2_g1")
    (c,) = spinc_partition(d)
    cx = differential(d, c)
    assert all(v == 0 for row in cx.matrix for v in row)
    assert len(cx.audit) == 2
    assert {tag for *_, tag in cx.audit} == {BIGON}


def test_s1s2_g1_homology_rank_two_adjacent_gradings():
    d = build("s1s2_g1")
    (rep,) = homology(d)
    assert rep.total == 2
    gradings = [k for k, v in rep.ranks if v]
    assert len(gradings) == 2 and abs(gradings[0] - gradings[1]) == 1


def test_rectangle_classification_and_cancellation():
    d = rectangle_diagram()
    x, y = enumerate_generators(d)
    doms = positive_domains(d, x, y, 1, 0)
    assert len(doms) == 2
    for dom in doms:
        assert classify_rigid(d, dom).tag == RECTANGLE
    (rep,) = homology(d)
    assert rep.total == 2


def test_strict_rectangles_flag():
    d = rectangle_diagram()
    (c,) = spinc_partition(d)
    # default: rectangles counted, they cancel mod 2
    cx = differential(d, c)
    assert all(v == 0 for row in cx.matrix for v in row)
    assert {tag for *_, tag in cx.audit} == {RECTANGLE}
    with pytest.raises(NotCombinatorial) as exc:
        differential(d, c, strict_rectangles=True)
    assert len(exc.value.offenders) == 2


def test_support_topology_helpers():
    """Disconnected or non-disk supports are what flags a shape Other."""
    from hfhat.floer import _support_chi, _support_connected

    d = build("s1s2_g1")
    bigons = {0, 1}
    assert not _support_connected(d, bigons)
    assert _support_chi(d, {0}) == 1
    # annulus whose two boundary circles meet at both points
    assert _support_chi(d, {2}) == -2
    assert _support_chi(d, {0, 1, 2}) == 2 - 2 * d.genus


@pytest.mark.parametrize("p,q", [(2, 1), (3, 1), (3, 2), (5, 2), (7, 4), (64, 27)])
def test_lens_zero_differential(p, q):
    d = build("lens", p=p, q=q)
    for c in spinc_partition(d):
        cx = differential(d, c)
        assert cx.matrix == ((0,),)
    reps = homology(d)
    assert len(reps) == p
    assert all(r.ranks == ((0, 1),) for r in reps)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_gsph_homology(g):
    from math import comb

    d = build("gsph", g=g)
    (rep,) = homology(d)
    assert rep.total == 2 ** g
    assert [v for _, v in rep.ranks] == [comb(g, k) for k in range(g + 1)]


def test_homology_requires_valid_diagram():
    import dataclasses

    d = build("s3_g1")
    with pytest.raises(ValueError):
        homology(dataclasses.replace(d, basepoint=3))


def test_homology_raises_on_inadmissible_diagram():
    with pytest.raises(UnboundedEnumeration):
        homology(build("s1s2_bad"))
    with pytest.raises(UnboundedEnumeration):
        homology(build("s1s2_wind"))


def test_threads_agree_with_serial():
    d = build("gsph(2)")
    (c,) = spinc_partition(d)
    serial = differential(d, c, threads=1)
    parallel = differential(d, c, threads=4)
    assert serial.matrix == parallel.matrix
    assert serial.audit == parallel.audit


def test_stabilize_preserves_homology():
    for name in ["s3_g1", "s1s2_g1", "lens(3,2)"]:
        d = build(name)
        base = [(r.ranks, r.total) for r in homology(d)]
        once = stabilize(d)
        assert [(r.ranks, r.total) for r in homology(once)] == base
