"""Seeded fuzz of the library calls.

Every exported function that takes a coefficient vector, a generator,
a ``Domain`` or a ``SpincClass`` is called on the corpus diagrams with
one argument of the wrong shape: a vector that is short, long, a dict
or has an entry that is not an int; a generator with a point too few
or too many, a foreign point or a point twice; an index or n_z that is
not an int; and forged classes.  Each call must raise ``ValueError``,
never ``KeyError`` or ``IndexError``, and never answer.  The arguments
are drawn from fixed seeds, in process.
"""

from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from hfhat import (
    Domain,
    Generator,
    SpincClass,
    area_certificate,
    basepoint_multiplicity,
    build,
    chern_pairing,
    classify_rigid,
    connecting_domain,
    differential,
    embedded_euler_char,
    enumerate_generators,
    euler_measure,
    maslov_index,
    periodic_index,
    positive_domains,
    spinc_partition,
    strong_admissible,
    weak_admissible,
)

from conftest import SMALL_NAMES

ROUNDS = 6
_NOT_INTS = [0.5, 1.0, -2.0, Fraction(1, 2), Fraction(3), Decimal(1), "1", None, [0], ()]
_FOREIGN = ["nope", "", "zz.r"]


def _vectors(d, rng):
    """``(kind, vector)``, each vector wrong in one way."""
    n = len(d.regions)

    def ints(k):
        return rng.choice([list, tuple])(rng.randint(-3, 3) for _ in range(k))

    yield "short vector", ints(rng.randrange(n))
    yield "long vector", ints(n + rng.randint(1, 3))
    entries = list(ints(n))
    entries[rng.randrange(n)] = rng.choice(_NOT_INTS)
    yield "entry not an int", rng.choice([list, tuple])(entries)
    yield "dict", dict(enumerate(ints(n)))


def _generators(d, rng):
    """``(kind, generator)``, each not a generator of d."""
    points = list(rng.choice(enumerate_generators(d)).points)
    yield "point too few", Generator(tuple(points[:-1]))
    yield "point too many", Generator(tuple(points + [rng.choice(d.points)]))
    foreign = list(points)
    foreign[rng.randrange(len(points))] = rng.choice(_FOREIGN)
    yield "foreign point", Generator(tuple(foreign))
    if len(points) > 1:
        i, j = rng.sample(range(len(points)), 2)
        points[i] = points[j]
        yield "point twice", Generator(tuple(points))


def _classes(d, rng):
    """``(kind, class)``, each a forgery of one of d's classes."""
    classes = spinc_partition(d)
    c = rng.choice(classes)
    members, levels = c.members, [k for _, k in c.gradings]
    yield "no members", c._replace(members=(), gradings=())
    for kind, g in _generators(d, rng):
        i = rng.randrange(len(members))
        forged = members[:i] + (g,) + members[i + 1 :]
        yield f"member with {kind}", SpincClass(forged, c.divisor, tuple(zip(forged, levels)))
    yield "grading dropped", c._replace(gradings=c.gradings[:-1])
    yield "grading added", c._replace(gradings=c.gradings + c.gradings[:1])
    i = rng.randrange(len(members))
    levels[i] = rng.choice(_NOT_INTS)
    yield "grading not an int", c._replace(gradings=tuple(zip(members, levels)))
    yield "member twice", SpincClass(members + members[:1], c.divisor, c.gradings + c.gradings[:1])
    if len(members) > 1:
        yield "gradings reordered", c._replace(gradings=c.gradings[::-1])
    if len(classes) > 1:
        other = rng.choice([o for o in classes if o is not c])
        mixed = (members[0], other.members[0])
        yield "two structures", SpincClass(mixed, c.divisor, tuple((g, 0) for g in mixed))


def _refused(call, kind, d, *args):
    """Fail unless ``call(d, *args)`` raises ValueError."""
    try:
        result = call(d, *args)
    except ValueError:
        return
    except Exception as exc:
        pytest.fail(f"{call.__name__} raised {exc!r} for {kind!r}: {args}")
    pytest.fail(f"{call.__name__} answered {result!r} for {kind!r}: {args}")


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_library_calls_refuse_wrong_shapes(name):
    d = build(name)
    rng = random.Random(f"library fuzz {name}")
    gens = enumerate_generators(d)
    assert not set(_FOREIGN) & set(d.points)
    n = len(d.regions)
    for _ in range(ROUNDS):
        x, y = rng.choice(gens), rng.choice(gens)
        good = tuple(rng.randint(-3, 3) for _ in range(n))
        for kind, vec in _vectors(d, rng):
            for call in (euler_measure, basepoint_multiplicity):
                _refused(call, kind, d, vec)
            for call in (chern_pairing, periodic_index):
                _refused(call, kind, d, x, vec)
            for call in (maslov_index, embedded_euler_char, classify_rigid):
                _refused(call, kind, d, Domain(vec, x, y))
        for kind, g in _generators(d, rng):
            for call in (connecting_domain, positive_domains):
                extra = (1, 0) if call is positive_domains else ()
                _refused(call, kind, d, g, y, *extra)
                _refused(call, kind, d, x, g, *extra)
            for call in (chern_pairing, periodic_index):
                _refused(call, kind, d, g, good)
            for call in (maslov_index, embedded_euler_char, classify_rigid):
                _refused(call, kind, d, Domain(good, g, y))
                _refused(call, kind, d, Domain(good, x, g))
        bad = rng.choice(_NOT_INTS)
        _refused(positive_domains, "non-int index", d, x, y, bad, 0)
        _refused(positive_domains, "non-int n_z", d, x, y, 1, bad)
        for kind, c in _classes(d, rng):
            for call in (weak_admissible, strong_admissible, differential):
                _refused(call, kind, d, c)
            for mode in ("weak", "strong"):
                _refused(area_certificate, kind, d, mode, c)
