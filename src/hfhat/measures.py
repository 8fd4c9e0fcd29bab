"""Euler measure, Maslov index, embedded chi, and Chern pairings.

All quantities are exact rationals with denominator dividing 4; the
combinatorial formulas are

* ``e(D)  = sum_i n_i (chi(D_i) - corners(D_i)/4)``
* ``n_p(D)`` = average of the four quadrant coefficients at p
* ``ind(D) = e(D) + n_from(D) + n_to(D)``
* ``chi_emb(D) = g - n_from(D) - n_to(D) + e(D)``
* ``<c_1, P> = e(P0) + 2 n_x(P0)`` with ``P0 = P - n_z(P) [Sigma]``
* ``ind(P) = <c_1, P> + 2 n_z(P)`` for kernel elements.

Every measure is summed in integers, four times over: ``4 e(D_i) =
4 chi(D_i) - corners(D_i)`` and ``4 n_p(D)`` is the sum of the
quadrant coefficients at p.  ``euler_measure`` divides that sum by 4
as a ``Fraction``; for the integer-valued ones (index, embedded chi,
Chern pairing) integrality is checked, never rounded: a sum that 4
does not divide raises ``NonIntegralMeasure``.  The ``Fraction`` point
measures live in the tests as the reference.  Every measure refuses,
with ``ValueError`` and before reading a coefficient, a vector that is
not a tuple or list of one int per region; the index and embedded chi
also refuse a domain whose ends are not generators of the diagram.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Sequence, Union

from .diagram import HeegaardDiagram, derived, quadrants
from .domains import Domain, _reduction
from .exactla import InternalError
from .generators import Generator


class NonIntegralMeasure(Exception):
    """An integer-valued measure came out non-integral (corrupt data)."""


CoeffsLike = Union[Domain, Sequence[int]]


def _coefficients(d: HeegaardDiagram, D: CoeffsLike) -> Sequence[int]:
    """D's coefficients, refused with ValueError on an invalid d, or unless they are a tuple or
    list of one int per region; the entries are ints (or bools) exactly when their sum is an int."""
    quadrants(d)  # refuses an invalid diagram before reading d.regions
    coeffs = D.coefficients if isinstance(D, Domain) else D
    try:
        whole = isinstance(coeffs, (tuple, list)) and type(sum(coeffs)) is int
    except TypeError:  # a str, None or sequence entry
        whole = False
    if not whole:
        raise ValueError(f"coefficients must be a tuple or list of ints, not {coeffs!r}")
    if len(coeffs) != len(d.regions):
        raise ValueError(f"{len(coeffs)} coefficients given for the {len(d.regions)} regions of the diagram")
    return coeffs


def euler_measure(d: HeegaardDiagram, D: CoeffsLike) -> Fraction:
    return Fraction(_quarters(d, _coefficients(d, D), ())[0], 4)


def basepoint_multiplicity(d: HeegaardDiagram, D: CoeffsLike) -> int:
    return _coefficients(d, D)[d.basepoint]


@derived
def _quarter_euler(d: HeegaardDiagram) -> tuple[int, ...]:
    """``4 e(D_i) = 4 chi(D_i) - corners(D_i)`` for each region."""
    return tuple(4 * r.euler_char - r.corner_count for r in d.regions)


def _quarters(d: HeegaardDiagram, coeffs: Sequence[int], points: Sequence[str]) -> tuple[int, int]:
    """``4 e(D)`` and ``4 n_p(D)`` summed over points (a point listed twice
    counting twice), for coefficients that ``_coefficients`` passed."""
    corners = quadrants(d).corners
    at_points = 0
    for p in points:
        q0, q1, q2, q3 = corners[p]
        at_points += coeffs[q0] + coeffs[q1] + coeffs[q2] + coeffs[q3]
    return sum(map(mul, coeffs, _quarter_euler(d))), at_points


def _whole(quarters: int, what: str) -> int:
    if quarters % 4:
        raise NonIntegralMeasure(f"{what} = {Fraction(quarters, 4)} is not an integer")
    return quarters // 4


def maslov_index(d: HeegaardDiagram, D: Domain) -> int:
    """e + n_from + n_to; raises NonIntegralMeasure on corrupt data."""
    coeffs = _coefficients(d, D)
    _reduction(d, D.from_gen)  # refuses an end that is not a generator of d
    _reduction(d, D.to_gen)
    return _whole(sum(_quarters(d, coeffs, D.from_gen.points + D.to_gen.points)), "maslov index")


def embedded_euler_char(d: HeegaardDiagram, D: Domain) -> int:
    """Euler characteristic of the embedded surface representative,
    g + e - n_from - n_to, that is g + 2e - ind."""
    coeffs = _coefficients(d, D)
    _reduction(d, D.from_gen)  # refuses an end that is not a generator of d
    _reduction(d, D.to_gen)
    e, n = _quarters(d, coeffs, D.from_gen.points + D.to_gen.points)
    return _whole(4 * d.genus + e - n, "embedded euler characteristic")


def chern_pairing(d: HeegaardDiagram, x: Generator, P: CoeffsLike) -> int:
    """<c_1(s), P> for a kernel element P, evaluated at a generator of s.

    The pairing only reads the n_z = 0 part of P, so [Sigma] pairs to
    zero and the value is e(P0) + 2 n_x(P0) with P0 = P - n_z [Sigma].
    Refuses, with ValueError, an x that is not a generator of d; the
    check is stored per generator, with its reduction.
    """
    nz = basepoint_multiplicity(d, P)
    p0 = [c - nz for c in _coefficients(d, P)]
    _reduction(d, x)  # refuses x unless it is a generator of d
    e, n = _quarters(d, p0, x.points)
    return _whole(e + 2 * n, "chern pairing")


def periodic_index(d: HeegaardDiagram, x: Generator, P: CoeffsLike) -> int:
    """ind(P) = <c_1, P> + 2 n_z(P); agrees with the Maslov index of P
    viewed as a domain from x to itself."""
    value = chern_pairing(d, x, P) + 2 * basepoint_multiplicity(d, P)
    index = maslov_index(d, Domain(tuple(_coefficients(d, P)), x, x))
    if value != index:
        raise InternalError(f"periodic index {value} differs from the Maslov index {index}")
    return value
