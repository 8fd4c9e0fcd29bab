"""Spin^c partition and grading divisors, against a Smith-form oracle."""

import pytest

import hfhat.domains
import hfhat.measures
import hfhat.spinc
from hfhat import (
    boundary_system,
    connecting_domain,
    enumerate_generators,
    spinc_partition,
)
from hfhat.corpus import build

from conftest import SMALL_NAMES, connecting_rhs, smith_solvability


def test_class_counts():
    expected = {
        "s3_g1": 1,
        "s1s2_g1": 1,
        "s1s2_bad": 1,
        "s1s2_wind": 1,
        "lens(2,1)": 2,
        "lens(3,1)": 3,
        "lens(5,2)": 5,
        "gsph(2)": 1,
        "gsph(3)": 1,
    }
    for name, count in expected.items():
        assert len(spinc_partition(build(name))) == count, name


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_partition_is_a_partition(name, corpus_small):
    d = corpus_small[name]
    classes = spinc_partition(d)
    members = [g for c in classes for g in c.members]
    assert sorted(members) == enumerate_generators(d)
    assert len(set(members)) == len(members)


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_partition_matches_connectivity(name, corpus_small):
    d = corpus_small[name]
    classes = spinc_partition(d)
    where = {}
    for i, c in enumerate(classes):
        for g in c.members:
            where[g] = i
    gens = enumerate_generators(d)
    for x in gens:
        for y in gens:
            connected = connecting_domain(d, x, y) is not None
            assert connected == (where[x] == where[y])


@pytest.mark.parametrize("name", SMALL_NAMES + ["lens(11,3)"])
def test_epsilon_vanishes_iff_connected(name):
    """The obstruction epsilon(x, y) vanishes exactly when the boundary
    system is solvable over Z, which sympy's Smith form decides
    independently of the Hermite form hfhat uses."""
    d = build(name)
    where = {g: i for i, c in enumerate(spinc_partition(d)) for g in c.members}
    solvable = smith_solvability(boundary_system(d).l_alpha)
    gens = enumerate_generators(d)
    for x in gens:
        for y in gens:
            vanishes = solvable(connecting_rhs(d, x, y))
            connected = connecting_domain(d, x, y) is not None
            assert vanishes == connected == (where[x] == where[y])


def test_divisors():
    expected = {
        "s3_g1": 0,
        "s1s2_g1": 0,
        "s1s2_bad": 2,
        "s1s2_wind": 2,
        "lens(5,2)": 0,
        "gsph(3)": 0,
    }
    for name, div in expected.items():
        for c in spinc_partition(build(name)):
            assert c.divisor == div, name


def test_gradings_normalized():
    for name in SMALL_NAMES:
        d = build(name)
        for c in spinc_partition(d):
            values = [v for _, v in c.gradings]
            assert min(values) == 0
            if c.divisor > 0:
                assert all(0 <= v < c.divisor for v in values)


def test_wind_gradings_mod_two():
    d = build("s1s2_wind")
    (c,) = spinc_partition(d)
    assert c.divisor == 2
    assert sorted(v for _, v in c.gradings) == [0, 0, 1, 1]


def test_grading_difference_is_connecting_index():
    d = build("gsph(2)")
    (c,) = spinc_partition(d)
    grade = dict(c.gradings)
    from hfhat import maslov_index

    for x in c.members:
        for y in c.members:
            dom = connecting_domain(d, x, y)
            assert grade[x] - grade[y] == maslov_index(d, dom)


@pytest.mark.parametrize("name", ["lens(2,1)", "lens(5,2)", "lens(11,3)", "lens(20,9)"])
def test_lens_partition_builds_no_domain(name, monkeypatch):
    """Every class of lens(p,q) has one generator, graded 0 by
    normalization: no connecting domain and no Maslov index is built."""
    calls = []

    def refuse(*args):
        calls.append(args)
        raise AssertionError("not needed for a one-generator class")

    for module in (hfhat.spinc, hfhat.domains):
        monkeypatch.setattr(module, "connecting_domain", refuse)
    for module in (hfhat.spinc, hfhat.measures):
        monkeypatch.setattr(module, "maslov_index", refuse)
    d = build(name)
    classes = spinc_partition(d)
    assert calls == []
    assert len(classes) == len(enumerate_generators(d))
    for c in classes:
        assert c.gradings == ((c.members[0], 0),)
        assert c.divisor == 0
