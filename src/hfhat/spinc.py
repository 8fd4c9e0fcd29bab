"""Spin^c decomposition of the generator set and relative gradings.

Two generators lie in the same Spin^c class exactly when a connecting
domain exists, that is when their point chains ``chi_x`` and ``chi_y``
differ by an element of the column lattice of ``l_alpha`` (the beta
boundary is the negated alpha one, so it adds no condition).  The
classes are the groups of equal remainders of the per-generator
reductions stored by ``domains._reduction``, the same reductions that
every connecting domain is read from.  Gradings inside a class are
relative: gr(x) - gr(y) is the Maslov index of any n_z = 0 domain from
x to y, read mod the divisor gcd |<c_1, P>| over the periodic basis
when that is nonzero.  A class of one generator has grading 0 by
normalization, so it needs no connecting domain and no index.  The
partition is built once per diagram object and kept as a tuple, so no
caller can change what the next one reads.  A class's Chern pairings
on the periodic basis are computed once per diagram object and class,
after the stored check that its first member is a generator of the
diagram; the divisor and the admissibility questions both read them.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .diagram import HeegaardDiagram, derived
from .domains import _reduction, connecting_domain, periodic_lattice
from .exactla import InternalError
from .generators import Generator, enumerate_generators
from .measures import chern_pairing, maslov_index


class SpincClass(NamedTuple):
    members: tuple[Generator, ...]
    divisor: int
    gradings: tuple[tuple[Generator, int], ...]


@derived
def spinc_partition(d: HeegaardDiagram) -> tuple[SpincClass, ...]:
    """Partition the generators by Spin^c structure.

    Classes are sorted by their canonical representative; each comes
    with its grading divisor and normalized relative gradings.  Built
    once per diagram object.
    """
    groups: dict[tuple[int, ...], list[Generator]] = {}
    for g in enumerate_generators(d):
        groups.setdefault(_reduction(d, g)[0], []).append(g)
    classes = []
    for group in sorted(groups.values(), key=lambda grp: grp[0]):
        members = tuple(sorted(group))
        divisor = gcd(*_pairing_vector(d, members[0]))
        classes.append(SpincClass(members, divisor, _gradings(d, members, divisor)))
    return tuple(classes)


def _check_class(d: HeegaardDiagram, c: SpincClass) -> None:
    """Raise ValueError unless c has members, each a generator of d (the
    stored check of ``_reduction``) and all of one Spin^c structure, and
    gradings that give each member once, in member order, an int."""
    if not c.members:
        raise ValueError("a Spin^c class needs at least one member")
    if len({_reduction(d, g)[0] for g in c.members}) != 1:
        raise ValueError("the members of a Spin^c class lie in more than one Spin^c structure")
    graded = tuple(g for g, k in c.gradings if isinstance(k, int))
    if graded != c.members or len(set(graded)) != len(graded):
        raise ValueError("the gradings of a Spin^c class must give each member once, in member order, an int")


@derived
def _pairing_vector(d: HeegaardDiagram, x: Generator) -> tuple[int, ...]:
    """``<c_1(s), P>`` for each periodic basis vector P, s the class of x.
    Refuses an x not of d with ValueError, also with no basis vector."""
    _reduction(d, x)
    return tuple(chern_pairing(d, x, vec) for vec in periodic_lattice(d).basis)


def _gradings(
    d: HeegaardDiagram, members: tuple[Generator, ...], divisor: int
) -> tuple[tuple[Generator, int], ...]:
    if len(members) == 1:
        return ((members[0], 0),)
    base = members[0]
    raw = {}
    for x in members:
        dom = connecting_domain(d, x, base)
        if dom is None:
            raise InternalError(f"no connecting domain inside a Spin^c class, from {x} to {base}")
        raw[x] = maslov_index(d, dom)
    low = min(raw.values())
    out = []
    for x in members:
        value = raw[x] - low
        if divisor > 0:
            value %= divisor
        out.append((x, value))
    return tuple(out)
