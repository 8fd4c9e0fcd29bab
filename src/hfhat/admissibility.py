"""Weak and strong admissibility with certificates.

Both criteria quantify over real multiples of periodic domains, so they
are decided completely by exact rational LP over the periodic basis:

* weak fails iff some nonzero element of the (possibly class-restricted)
  periodic span is componentwise nonnegative;
* strong fails iff some element of the span has Chern pairing 2 and all
  coefficients at most 1 (the homogeneous normalization of "every P
  with pairing 2n > 0 has a coefficient above n").

On success an area certificate can be produced: a strictly positive
rational area vector giving every basis element zero signed area (weak)
or signed area equal to half its Chern pairing with total area one
(strong).  Certificates and witnesses are verified exactly before being
returned.

Both criteria see a Spin^c class only through its Chern pairings on the
periodic basis, so every verdict and certificate is built once per
diagram object and pairing vector, and classes with equal pairings
share it.  A torsion class (every pairing 0) restricts nothing, so it
shares the class-free weak verdict and certificate.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .diagram import HeegaardDiagram, derived
from .domains import _integer_direction, _weak_witness, periodic_lattice, recession_direction
from .exactla import EQ, GE, LE, InternalError, _scaled, lp_optimize, vanishing_sublattice
from .spinc import SpincClass, _check_class, _pairing_vector


class NotAdmissible(Exception):
    """Requested an area certificate for a non-admissible diagram."""

    def __init__(self, witness: tuple[int, ...]):
        self.witness = witness
        super().__init__(f"no area certificate: witness {witness}")


class AdmissibilityReport(NamedTuple):
    kind: str  # "weak" | "strong"
    verdict: bool
    witness: Optional[tuple[int, ...]] = None


def _pairings(
    d: HeegaardDiagram, c: Optional[SpincClass]
) -> Optional[tuple[int, ...]]:
    """What the admissibility questions see of a class: its Chern
    pairings on the periodic basis (``None`` for the class-free weak
    question).  A class that is not one of d's is refused with
    ValueError first."""
    if c is None:
        return None
    _check_class(d, c)
    return _pairing_vector(d, c.members[0])


@derived
def _chern_zero_basis(
    d: HeegaardDiagram, pairings: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """Basis of the sublattice of periodic domains with zero pairing."""
    basis = periodic_lattice(d).basis
    return tuple(tuple(v) for v in vanishing_sublattice(basis, pairings))


def weak_admissible(
    d: HeegaardDiagram, c: Optional[SpincClass] = None
) -> AdmissibilityReport:
    """No nonzero all-nonnegative element in the periodic span.

    Without a class the whole n_z = 0 lattice is constrained (weak
    admissibility for every Spin^c structure at once); with a class
    only the zero-pairing sublattice is.  Decided once per diagram
    object and pairing vector.
    """
    return _weak_report(d, _pairings(d, c))


@derived
def _weak_report(
    d: HeegaardDiagram, pairings: Optional[tuple[int, ...]]
) -> AdmissibilityReport:
    if pairings is not None and not any(pairings):
        return _weak_report(d, None)  # a torsion class: the class-free report
    if pairings is None:
        witness = _weak_witness(d)
    else:
        witness = recession_direction(_chern_zero_basis(d, pairings))
    if witness is None:
        return AdmissibilityReport("weak", True)
    return AdmissibilityReport("weak", False, witness=witness)


def strong_admissible(d: HeegaardDiagram, c: SpincClass) -> AdmissibilityReport:
    """Every P with pairing 2n > 0 must have a coefficient above n.

    Scale-normalized to pairing exactly 2 and coefficients <= 1 over
    the real span; the zero-pairing sublattice is additionally held to
    the weak criterion, and a failure of either yields the witness.
    Decided once per diagram object and pairing vector.
    """
    return _strong_report(d, _pairings(d, c))


@derived
def _strong_report(d: HeegaardDiagram, pairings: tuple[int, ...]) -> AdmissibilityReport:
    weak_part = _weak_report(d, pairings)
    if not weak_part.verdict:
        return AdmissibilityReport("strong", False, witness=weak_part.witness)
    basis = periodic_lattice(d).basis
    if not basis:
        return AdmissibilityReport("strong", True)
    n = len(basis[0])
    r = len(basis)
    constraints = [(pairings, EQ, 2)]
    for i in range(n):
        constraints.append(([vec[i] for vec in basis], LE, 1))
    res = lp_optimize([0] * r, constraints)
    if not res.optimal:
        return AdmissibilityReport("strong", True)
    # The pairing rides along as one more coordinate, so clearing
    # denominators scales it with the witness and keeps the violation:
    # the witness has pairing 2m with every coefficient <= m.
    augmented = [vec + (p,) for vec, p in zip(basis, pairings)]
    *coefficients, pairing = _integer_direction(augmented, res.point)
    witness = tuple(coefficients)
    if pairing <= 0 or pairing % 2 or max(witness) > pairing // 2:
        raise InternalError(f"strong witness {witness} with pairing {pairing} is no violation")
    return AdmissibilityReport("strong", False, witness=witness)


def area_certificate(
    d: HeegaardDiagram, mode: str, c: Optional[SpincClass] = None
) -> tuple[Fraction, ...]:
    """Strictly positive area vector certifying admissibility.

    mode "weak": a . P = 0 for every (class-restricted) basis element.
    mode "strong" (requires a class): a . P = <c_1, P>/2 for every basis
    element and a . [Sigma] = 1.  Raises NotAdmissible when the verdict
    is false.  Built and verified once per diagram object, mode and
    pairing vector.
    """
    if mode not in ("weak", "strong"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "strong" and c is None:
        raise ValueError("strong certificates require a Spin^c class")
    return _certificate(d, mode, _pairings(d, c))


@derived
def _certificate(
    d: HeegaardDiagram, mode: str, pairings: Optional[tuple[int, ...]]
) -> tuple[Fraction, ...]:
    if mode == "weak":
        if pairings is not None and not any(pairings):
            return _certificate(d, mode, None)  # a torsion class: the class-free one
        report = _weak_report(d, pairings)
    else:
        report = _strong_report(d, pairings)
    if not report.verdict:
        raise NotAdmissible(report.witness)
    n = len(d.regions)
    if mode == "weak":
        basis: Sequence[Sequence[int]] = (
            _chern_zero_basis(d, pairings) if pairings is not None else periodic_lattice(d).basis
        )
        equalities = [(vec, EQ, 0) for vec in basis]
    else:
        equalities = [
            (vec, EQ, Fraction(p, 2)) for vec, p in zip(periodic_lattice(d).basis, pairings)
        ]
        equalities.append(([1] * n, EQ, 1))
    # Variables: areas a_0..a_{n-1} and the margin m; maximize m with
    # m <= a_i <= 1 so a strictly positive solution surfaces as m > 0.
    def widen(row: Sequence[int | Fraction]) -> list[Fraction | int]:
        return list(row) + [0]

    constraints = [(widen(row), rel, rhs) for row, rel, rhs in equalities]
    for i in range(n):
        gap = [0] * (n + 1)
        gap[i] = 1
        gap[n] = -1
        constraints.append((gap, GE, 0))  # a_i >= m
        cap = [0] * (n + 1)
        cap[i] = 1
        constraints.append((cap, LE, 1))  # a_i <= 1
    objective = [0] * n + [1]
    res = lp_optimize(objective, constraints)
    if not res.optimal or res.value <= 0:
        # By a theorem of the alternative, a true verdict means a
        # strictly positive area exists: this is a fault, not a refusal.
        raise InternalError(f"{mode} verdict is true but no area vector is strictly positive")
    areas = tuple(res.point[:n])
    if any(a <= 0 for a in areas):
        raise InternalError(f"area certificate {areas} is not strictly positive")
    # Checked in integers: row . (L a) against L rhs, with L the lcm
    # of the area denominators.
    scale = lcm(*(a.denominator for a in areas))
    scaled = _scaled(areas, scale)
    for row, _, rhs in equalities:
        if sum(cf * a for cf, a in zip(row, scaled)) != rhs * scale:
            raise InternalError(f"area certificate {areas} gives {row} an area other than {rhs}")
    return areas
