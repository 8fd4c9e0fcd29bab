"""Generator enumeration.

A generator is an unordered g-tuple of intersection points with exactly
one point on each alpha curve and one on each beta curve; since every
point lies on exactly one curve of each family, generators correspond
to systems of distinct representatives, enumerated here one alpha curve
at a time, with no recursion, so that any genus fits the stack.  Each
point's curves are read off ``diagram``'s arc walk, which also checks
a given tuple in O(g).
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import HeegaardDiagram, _arc_walk, validate


@dataclass(frozen=True, order=True)
class Generator:
    """Canonical form: the sorted tuple of its point identifiers."""

    points: tuple[str, ...]

    def __str__(self) -> str:
        return "{" + ",".join(self.points) + "}"


def enumerate_generators(d: HeegaardDiagram) -> list[Generator]:
    """All generators of a valid diagram, sorted by canonical id."""
    report = validate(d)
    if not report.ok:
        raise ValueError(f"enumerate_generators() requires a valid diagram:\n{report}")
    beta_bit = {p: 1 << j for p, (_, (j,)) in _arc_walk(d).curves.items()}
    # Extend partial generators (points, bit set of used beta curves) one
    # alpha curve at a time, curves with fewest points first to prune early.
    partial: list[tuple[tuple[str, ...], int]] = [((), 0)]
    for i in sorted(range(d.genus), key=lambda i: (len(d.alpha[i]), i)):
        partial = [
            (points + (p,), used | beta_bit[p])
            for points, used in partial
            for p in d.alpha[i]
            if not used & beta_bit[p]
        ]
    return sorted(Generator(tuple(sorted(points))) for points, _ in partial)


def _check_generator(d: HeegaardDiagram, g: Generator) -> None:
    """Raise ValueError unless g is a generator of the valid diagram d:
    ``genus`` points of d, one on each alpha and one on each beta curve."""
    curves = [_arc_walk(d).curves.get(p, ([-1], [-1])) for p in g.points]
    every = set(range(d.genus))
    if len(curves) != d.genus or {a for (a,), _ in curves} != every or {b for _, (b,) in curves} != every:
        raise ValueError(f"{g} is not a generator of the diagram")
