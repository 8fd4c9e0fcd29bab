"""Generator enumeration against a direct product-and-filter oracle."""

import itertools
import sys
from math import factorial

import pytest

from hfhat import ArcRef, Generator, HeegaardDiagram, Region, enumerate_generators, homology, validate
from hfhat.corpus import build

from conftest import SMALL_NAMES, grid_diagram


def oracle_generators(d):
    """Pick one point per alpha curve; keep tuples hitting each beta once."""
    out = []
    for combo in itertools.product(*d.alpha):
        if len(set(combo)) != len(combo):
            continue
        hits = [0] * len(d.beta)
        ok = True
        for p in combo:
            for bi, curve in enumerate(d.beta):
                if p in curve:
                    hits[bi] += 1
                    break
            else:
                ok = False
        if ok and all(h == 1 for h in hits):
            out.append(Generator(tuple(sorted(combo))))
    return sorted(set(out))


@pytest.mark.parametrize("name", SMALL_NAMES + ["lens(7,3)", "gsph(3)"])
def test_matches_oracle(name):
    d = build(name)
    assert enumerate_generators(d) == oracle_generators(d)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_matches_oracle_on_grids(n):
    """Every alpha curve of grid(n) meets every beta curve, so a point
    must be refused when its beta curve is taken: n! generators."""
    d = grid_diagram(n)
    gens = enumerate_generators(d)
    assert gens == oracle_generators(d)
    assert len(gens) == factorial(n)


def test_generator_counts():
    assert len(enumerate_generators(build("s3_g1"))) == 1
    assert len(enumerate_generators(build("s1s2_g1"))) == 2
    for p, q in [(2, 1), (5, 2), (7, 4)]:
        assert len(enumerate_generators(build("lens", p=p, q=q))) == p
    for g in (1, 2, 3):
        assert len(enumerate_generators(build("gsph", g=g))) == 2 ** g


def test_output_sorted_and_unique():
    gens = enumerate_generators(build("gsph(3)"))
    assert gens == sorted(set(gens))


def test_points_sorted_within_generator():
    for g in enumerate_generators(build("gsph(2)")):
        assert list(g.points) == sorted(g.points)


def test_genus_past_the_recursion_limit():
    """S^3 as one-point tori joined at the basepoint, more of them than
    the interpreter's recursion limit: one genus-0 region with one
    boundary cycle per torus, one generator, total rank 1."""
    n = sys.getrecursionlimit() + 200
    points = tuple((f"p{i}",) for i in range(n))
    cycles = tuple(
        (ArcRef("a", i, 0, 1), ArcRef("b", i, 0, 1), ArcRef("a", i, 0, -1), ArcRef("b", i, 0, -1))
        for i in range(n)
    )
    d = HeegaardDiagram(n, points, points, (Region(0, cycles),), 0)
    assert validate(d).ok
    assert enumerate_generators(d) == [Generator(tuple(sorted(p for (p,) in points)))]
    assert [report.total for report in homology(d)] == [1]
