"""Euler measure, Maslov index, embedded chi, and Chern pairings.

All quantities are exact rationals with denominator dividing 4; the
combinatorial formulas are

* ``e(D)  = sum_i n_i (chi(D_i) - corners(D_i)/4)``
* ``n_p(D)`` = average of the four quadrant coefficients at p
* ``ind(D) = e(D) + n_from(D) + n_to(D)``
* ``chi_emb(D) = g - n_from(D) - n_to(D) + e(D)``
* ``<c_1, P> = e(P0) + 2 n_x(P0)`` with ``P0 = P - n_z(P) [Sigma]``
* ``ind(P) = <c_1, P> + 2 n_z(P)`` for kernel elements.

The integer-valued ones (index, embedded chi, Chern pairing) are summed
in integers, four times over: ``4 e(D_i) = 4 chi(D_i) - corners(D_i)``
and ``4 n_p(D)`` is the sum of the quadrant coefficients at p.
Integrality is checked, never rounded: a sum that 4 does not divide
raises ``NonIntegralMeasure``.  Of the ``Fraction`` measures only
``euler_measure`` stays public; the point measures live in the tests
as the reference.  Every measure refuses, with ``ValueError`` and
before reading a coefficient, a vector that does not have one
coefficient per region.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .diagram import HeegaardDiagram, derived, quadrants
from .domains import Domain
from .exactla import InternalError
from .generators import Generator


class NonIntegralMeasure(Exception):
    """An integer-valued measure came out non-integral (corrupt data)."""


CoeffsLike = Union[Domain, Sequence[int]]


def _coefficients(d: HeegaardDiagram, D: CoeffsLike) -> Sequence[int]:
    """D's coefficients, refused with ValueError unless there is one
    per region of d.  Callers refuse an invalid d first."""
    coeffs = D.coefficients if isinstance(D, Domain) else D
    if len(coeffs) != len(d.regions):
        raise ValueError(f"{len(coeffs)} coefficients given for the {len(d.regions)} regions of the diagram")
    return coeffs


def euler_measure(d: HeegaardDiagram, D: CoeffsLike) -> Fraction:
    quadrants(d)  # refuses an invalid diagram, as every measure does
    return sum(
        (Fraction(n) * r.euler_measure for n, r in zip(_coefficients(d, D), d.regions)),
        Fraction(0),
    )


def basepoint_multiplicity(d: HeegaardDiagram, D: CoeffsLike) -> int:
    quadrants(d)  # refuses an invalid diagram before reading d.basepoint
    return _coefficients(d, D)[d.basepoint]


@derived
def _quarter_euler(d: HeegaardDiagram) -> tuple[int, ...]:
    """``4 e(D_i) = 4 chi(D_i) - corners(D_i)`` for each region."""
    return tuple(4 * r.euler_char - r.corner_count for r in d.regions)


def _quarters(d: HeegaardDiagram, D: CoeffsLike, points: Sequence[str]) -> int:
    """``4 (e(D) + sum of n_p(D) over points)``, a point listed twice counting twice."""
    corners = quadrants(d).corners
    coeffs = _coefficients(d, D)
    total = sum(n * w for n, w in zip(coeffs, _quarter_euler(d)))
    for p in points:
        q0, q1, q2, q3 = corners[p]
        total += coeffs[q0] + coeffs[q1] + coeffs[q2] + coeffs[q3]
    return total


def _whole(quarters: int, what: str) -> int:
    if quarters % 4:
        raise NonIntegralMeasure(f"{what} = {Fraction(quarters, 4)} is not an integer")
    return quarters // 4


def maslov_index(d: HeegaardDiagram, D: Domain) -> int:
    """e + n_from + n_to; raises NonIntegralMeasure on corrupt data."""
    points = D.from_gen.points + D.to_gen.points
    return _whole(_quarters(d, D, points), "maslov index")


def embedded_euler_char(d: HeegaardDiagram, D: Domain) -> int:
    """Euler characteristic of the embedded surface representative,
    g + e - n_from - n_to, that is g + 2e - ind."""
    points = D.from_gen.points + D.to_gen.points
    quarters = 4 * d.genus + 2 * _quarters(d, D, ()) - _quarters(d, D, points)
    return _whole(quarters, "embedded euler characteristic")


def chern_pairing(d: HeegaardDiagram, x: Generator, P: CoeffsLike) -> int:
    """<c_1(s), P> for a kernel element P, evaluated at a generator of s.

    The pairing only reads the n_z = 0 part of P, so [Sigma] pairs to
    zero and the value is e(P0) + 2 n_x(P0) with P0 = P - n_z [Sigma].
    """
    nz = basepoint_multiplicity(d, P)
    p0 = [c - nz for c in _coefficients(d, P)]
    return _whole(_quarters(d, p0, x.points + x.points), "chern pairing")


def periodic_index(d: HeegaardDiagram, x: Generator, P: CoeffsLike) -> int:
    """ind(P) = <c_1, P> + 2 n_z(P); agrees with the Maslov index of P
    viewed as a domain from x to itself."""
    value = chern_pairing(d, x, P) + 2 * basepoint_multiplicity(d, P)
    index = maslov_index(d, Domain(tuple(_coefficients(d, P)), x, x))
    if value != index:
        raise InternalError(f"periodic index {value} differs from the Maslov index {index}")
    return value
