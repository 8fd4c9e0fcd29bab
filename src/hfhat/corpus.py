"""Programmatic builders for the standard test diagrams.

Available names:

* ``s3_g1`` -- the genus-one diagram with a single intersection point
  (the three-sphere).
* ``s1s2_g1`` -- alpha and a disjoint-pushoff beta on the torus: two
  points, two bigons and one annulus region, basepoint in the annulus.
* ``s1s2_bad`` -- same curves with the basepoint moved into a bigon;
  deliberately not weakly admissible.
* ``s1s2_wind`` -- connected sum of two copies of ``s1s2_bad``.  Its
  rank-2 periodic lattice contains all-nonnegative elements whose sum
  has Chern pairing 4 with every coefficient at most 2, so strong
  admissibility fails with a verified witness while the grading divisor
  is 2.  (No genus-one diagram can fail the strong criterion: with
  intersecting curves the pushoff's periodic domain always carries a
  coefficient-2 region, which satisfies it.)
* ``lens(p, q)`` -- the flat-torus lens space diagram: p points, p
  square regions with corners x_k, x_{k+1}, x_{k+q}, x_{k+q+1}.
* ``gsph(g)`` -- g-fold connected sum of ``s1s2_g1``.
"""

from __future__ import annotations

import re
from math import gcd

from .diagram import ALPHA, BETA, ArcRef, HeegaardDiagram, Region, _torus_piece, connected_sum, validate
from .exactla import InternalError

NAMES = ("s3_g1", "s1s2_g1", "s1s2_bad", "s1s2_wind", "lens", "gsph")


def build(name: str, p: int | None = None, q: int | None = None, g: int | None = None) -> HeegaardDiagram:
    """Build a corpus diagram by name.

    Parametrized families accept either ``build("lens", p=5, q=1)`` or
    the literal spelling ``build("lens(5,1)")``; same for ``gsph``.
    """
    m = re.fullmatch(r"lens\((\d+),(\d+)\)", name)
    if m:
        name, p, q = "lens", int(m.group(1)), int(m.group(2))
    m = re.fullmatch(r"gsph\((\d+)\)", name)
    if m:
        name, g = "gsph", int(m.group(1))
    if name == "s3_g1":
        d = _torus_piece("x0")
    elif name == "s1s2_g1":
        d = _s1s2(basepoint=2)
    elif name == "s1s2_bad":
        d = _s1s2(basepoint=0)
    elif name == "s1s2_wind":
        d = _s1s2_wind()
    elif name == "lens":
        if p is None or q is None:
            raise ValueError("lens requires parameters p and q")
        d = _lens(p, q)
    elif name == "gsph":
        if g is None:
            raise ValueError("gsph requires parameter g")
        d = _gsph(g)
    else:
        raise ValueError(f"unknown corpus name {name!r}")
    report = validate(d)
    if not report.ok:
        raise InternalError(f"corpus diagram {name} failed validation:\n{report}")
    return d


def _a(index: int, arc: int, dir: int) -> ArcRef:
    return ArcRef(ALPHA, index, arc, dir)


def _b(index: int, arc: int, dir: int) -> ArcRef:
    return ArcRef(BETA, index, arc, dir)


def _s1s2(basepoint: int) -> HeegaardDiagram:
    """Torus with beta a pushoff of alpha perturbed to meet it twice.

    Points eta, theta in curve order on both circles.  Arc 0 of each
    curve runs eta -> theta, arc 1 runs theta -> eta.  The complement
    is two bigons (both connecting theta to eta) and one annulus.
    """
    bigon1 = Region(0, ((_b(0, 0, 1), _a(0, 0, -1)),))
    bigon2 = Region(0, ((_a(0, 1, 1), _b(0, 1, -1)),))
    annulus = Region(
        0,
        (
            (_a(0, 0, 1), _b(0, 1, 1)),
            (_b(0, 0, -1), _a(0, 1, -1)),
        ),
    )
    return HeegaardDiagram(
        1,
        (("eta", "theta"),),
        (("eta", "theta"),),
        (bigon1, bigon2, annulus),
        basepoint,
    )


def _s1s2_wind() -> HeegaardDiagram:
    """Connected sum of two basepoint-in-bigon pushoff diagrams.

    Each factor contributes an all-nonnegative periodic domain with
    Chern pairing 2 and a coefficient-2 region; their sum has pairing
    4 = 2n with every coefficient at most n = 2, the exact strong
    admissibility violation.
    """
    return connected_sum(_s1s2(basepoint=0), _s1s2(basepoint=0))


def _lens(p: int, q: int) -> HeegaardDiagram:
    if not (2 <= p <= 64):
        raise ValueError(f"lens parameter p={p} out of range 2..64")
    if not (1 <= q < p) or gcd(p, q) != 1:
        raise ValueError(f"lens parameter q={q} must be in 1..{p - 1} and coprime to p")
    points = tuple(f"x{i:02d}" for i in range(p))
    alpha = (points,)
    beta = (tuple(points[(i * q) % p] for i in range(p)),)
    qinv = pow(q, -1, p)
    # Beta arc j runs from x_{jq} to x_{(j+1)q}; the beta arc leaving
    # point x_m is arc m * q^{-1} mod p.
    regions = []
    for k in range(p):
        cycle = (
            _a(0, k, 1),
            _b(0, ((k + 1) * qinv) % p, 1),
            _a(0, (k + q) % p, -1),
            _b(0, (k * qinv) % p, -1),
        )
        regions.append(Region(0, (cycle,)))
    return HeegaardDiagram(1, alpha, beta, tuple(regions), 0)


def _gsph(g: int) -> HeegaardDiagram:
    if not (1 <= g <= 5):
        raise ValueError(f"gsph parameter g={g} out of range 1..5")
    d = _s1s2(basepoint=2)
    for _ in range(g - 1):
        d = connected_sum(d, _s1s2(basepoint=2))
    return d
