"""Euler measure, point measures, Maslov index, and Chern pairings.

All quantities are exact rationals with denominator dividing 4; the
combinatorial formulas are

* ``e(D)  = sum_i n_i (chi(D_i) - corners(D_i)/4)``
* ``n_p(D)`` = average of the four quadrant coefficients at p
* ``ind(D) = e(D) + n_from(D) + n_to(D)``
* ``chi_emb(D) = g - n_from(D) - n_to(D) + e(D)``
* ``<c_1, P> = e(P0) + 2 n_x(P0)`` with ``P0 = P - n_z(P) [Sigma]``
* ``ind(P) = <c_1, P> + 2 n_z(P)`` for kernel elements.

Integrality of the integer-valued ones is asserted, never rounded.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

from .diagram import HeegaardDiagram, derived, quadrants
from .domains import Domain
from .generators import Generator


class NonIntegralMeasure(Exception):
    """An integer-valued measure came out non-integral (corrupt data)."""


CoeffsLike = Union[Domain, Sequence[int]]


def _coeffs(D: CoeffsLike) -> Sequence[int]:
    return D.coefficients if isinstance(D, Domain) else D


def _as_int(value: Fraction, what: str) -> int:
    if value.denominator != 1:
        raise NonIntegralMeasure(f"{what} = {value} is not an integer")
    return int(value)


def euler_measure(d: HeegaardDiagram, D: CoeffsLike) -> Fraction:
    coeffs = _coeffs(D)
    return sum(
        (Fraction(n) * r.euler_measure for n, r in zip(coeffs, d.regions)),
        Fraction(0),
    )


def point_measure(d: HeegaardDiagram, D: CoeffsLike, p: str) -> Fraction:
    """Average of the four quadrant coefficients of D at point p."""
    return quadrants(d).point_measure(_coeffs(D), p)


def generator_measure(d: HeegaardDiagram, D: CoeffsLike, x: Generator) -> Fraction:
    qs = quadrants(d)
    coeffs = list(_coeffs(D))
    return sum((qs.point_measure(coeffs, p) for p in x.points), Fraction(0))


def basepoint_multiplicity(d: HeegaardDiagram, D: CoeffsLike) -> int:
    return _coeffs(D)[d.basepoint]


@derived
def _quarter_euler(d: HeegaardDiagram) -> tuple[int, ...]:
    """``4 e(D_i) = 4 chi(D_i) - corners(D_i)`` for each region."""
    return tuple(4 * r.euler_char - r.corner_count for r in d.regions)


def maslov_index(d: HeegaardDiagram, D: Domain) -> int:
    """e + n_from + n_to; raises NonIntegralMeasure on corrupt data.

    Summed in integers as ``4 ind = sum_i n_i (4 chi(D_i) - corners(D_i))``
    plus the four quadrant coefficients at each point of from and to.
    """
    coeffs = D.coefficients
    corners = quadrants(d).corners
    total = sum(n * w for n, w in zip(coeffs, _quarter_euler(d)))
    for p in D.from_gen.points + D.to_gen.points:
        q0, q1, q2, q3 = corners[p]
        total += coeffs[q0] + coeffs[q1] + coeffs[q2] + coeffs[q3]
    if total % 4:
        raise NonIntegralMeasure(f"maslov index = {Fraction(total, 4)} is not an integer")
    return total // 4


def embedded_euler_char(d: HeegaardDiagram, D: Domain) -> int:
    """Euler characteristic of the embedded surface representative."""
    value = (
        Fraction(d.genus)
        - generator_measure(d, D, D.from_gen)
        - generator_measure(d, D, D.to_gen)
        + euler_measure(d, D)
    )
    return _as_int(value, "embedded euler characteristic")


def chern_pairing(d: HeegaardDiagram, x: Generator, P: CoeffsLike) -> int:
    """<c_1(s), P> for a kernel element P, evaluated at a generator of s.

    The pairing only reads the n_z = 0 part of P, so [Sigma] pairs to
    zero and the value is e(P0) + 2 n_x(P0) with P0 = P - n_z [Sigma].
    """
    coeffs = list(_coeffs(P))
    nz = coeffs[d.basepoint]
    p0 = [c - nz for c in coeffs]
    value = euler_measure(d, p0) + 2 * generator_measure(d, p0, x)
    out = _as_int(value, "chern pairing")
    return out


def periodic_index(d: HeegaardDiagram, x: Generator, P: CoeffsLike) -> int:
    """ind(P) = <c_1, P> + 2 n_z(P); agrees with the Maslov index of P
    viewed as a domain from x to itself."""
    value = chern_pairing(d, x, P) + 2 * basepoint_multiplicity(d, P)
    as_domain = Domain(tuple(_coeffs(P)), x, x)
    assert value == maslov_index(d, as_domain)
    return value
