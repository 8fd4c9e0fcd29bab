"""Hat-flavor chain complex over F2 for rigid domains.

An index-1 positive domain with n_z = 0 contributes a count of 1 mod 2
when it is a rigid embedded disk: a bigon (two corners) or a rectangle
(four corners).  The support S is a disk when it is one piece, its
covered quadrants at each point are contiguous, and chi(S) = 1, read
off the corners as 4 e(D) + #acute - #obtuse = 4 (the support covers
one quadrant at an acute corner, three at an obtuse one).  Bigons are
certified by the Riemann mapping theorem;
rectangles are the standard extension adopted by the combinatorial
literature and can be disabled with ``strict_rectangles`` (they then
count as offenders).  Any Other domain aborts the computation with a
NotCombinatorial error listing the offenders, rather than guessing a
count the combinatorics cannot certify (annuli in particular).

The differential is stored once, as the bit columns of GradedComplex;
the d^2 check and the ranks read them, and ``matrix`` is derived.
"""

from __future__ import annotations

from typing import NamedTuple

from .diagram import HeegaardDiagram, _arc_walk, _one_piece, derived, quadrants, validate
from .domains import Domain, UnboundedEnumeration, _moving, _weak_witness, positive_domains
from .exactla import InternalError
from .generators import Generator
from .measures import _quarter_euler, embedded_euler_char, maslov_index
from .spinc import SpincClass, _check_class, spinc_partition

BIGON = "Bigon"
RECTANGLE = "Rectangle"
OTHER = "Other"

# Cyclically contiguous nonempty subsets of the 4 quadrant slots.
_CONTIGUOUS = {
    frozenset((s + i) % 4 for i in range(w)) for w in (1, 2, 3) for s in range(4)
} | {frozenset(range(4))}


class RigidShape(NamedTuple):
    tag: str
    support: tuple[int, ...]
    corners: tuple[str, ...]


class GradedComplex(NamedTuple):
    """Differential data of one Spin^c class: ``columns[j]`` is
    d(order[j]) as an int whose bit i is the coefficient on order[i]."""

    spinc: SpincClass
    order: tuple[Generator, ...]
    columns: tuple[int, ...]
    audit: tuple[tuple[Generator, Generator, Domain, str], ...]

    @property
    def matrix(self) -> tuple[tuple[int, ...], ...]:
        """``matrix[iy][ix]``, bit iy of ``columns[ix]``, built on each access."""
        return tuple(tuple(c >> i & 1 for c in self.columns) for i in range(len(self.order)))


class NotCombinatorial(Exception):
    """Some counted moduli space is not a rigid bigon/rectangle."""

    def __init__(self, offenders: list[tuple[Generator, Generator, Domain, RigidShape]]):
        self.offenders = offenders
        lines = [
            f"  {x} -> {y}: coefficients {dom.coefficients}"
            for x, y, dom, _ in offenders
        ]
        super().__init__(
            "index-1 domains without a certified count:\n" + "\n".join(lines)
        )


@derived
def _region_points(d: HeegaardDiagram) -> tuple[frozenset[str], ...]:
    """Per region, the points where it fills at least one quadrant."""
    points: list[set[str]] = [set() for _ in d.regions]
    for p, regions in quadrants(d).corners.items():
        for ri in regions:
            points[ri].add(p)
    return tuple(frozenset(ps) for ps in points)


def classify_rigid(d: HeegaardDiagram, D: Domain) -> RigidShape:
    """Classify an index-1 nonnegative n_z = 0 domain.

    Bigon and Rectangle require coefficients in {0,1}, connected disk
    support with locally contiguous quadrants, and a corner census
    matching the moving points of the generator pair; everything else
    is Other.  One pass over the corner points of the support's regions
    finds the acute and obtuse corners and any pinched point; a point
    off those regions covers no quadrant of the support.  A Bigon must
    have the paper's embedded Euler characteristic g + e - n_x - n_y
    equal to g, a Rectangle g - 1; otherwise InternalError is raised,
    as it is for a domain that is negative somewhere, covers the
    basepoint or does not have index 1.  A domain whose ends are not
    generators of d is refused with ValueError.
    """
    index = maslov_index(d, D)  # refuses, with ValueError, a D of the wrong shape first
    coeffs = D.coefficients
    if any(c < 0 for c in coeffs) or coeffs[d.basepoint] != 0 or index != 1:
        raise InternalError(f"classify_rigid needs an index-1 positive n_z = 0 domain, got {coeffs}")
    return _classify_rigid(d, D)


def _classify_rigid(d: HeegaardDiagram, D: Domain) -> RigidShape:
    """``classify_rigid`` past its precondition checks.  It reads the
    pair only through its moving points, except for embedded chi."""
    qs = quadrants(d)
    coeffs = D.coefficients
    if any(c not in (0, 1) for c in coeffs):
        return RigidShape(OTHER, (), ())
    support = {i for i, c in enumerate(coeffs) if c == 1}
    if not support:
        return RigidShape(OTHER, (), ())
    sup = tuple(sorted(support))
    corner_pts = []
    obtuse = 0
    region_points = _region_points(d)
    for p in sorted({p for ri in sup for p in region_points[ri]}):
        covered = frozenset(
            s for s, ri in enumerate(qs.quadrant_regions(p)) if ri in support
        )
        if covered and covered not in _CONTIGUOUS:
            return RigidShape(OTHER, sup, ())  # pinched point
        if len(covered) == 1:
            corner_pts.append(p)
        elif len(covered) == 3:
            obtuse += 1
    if not _one_piece(support, _arc_walk(d).sides):
        return RigidShape(OTHER, sup, tuple(corner_pts))
    # Gauss-Bonnet: 4 chi(S) = 4 e(D) + #acute - #obtuse.
    quarter_euler = _quarter_euler(d)
    if sum(quarter_euler[ri] for ri in support) + len(corner_pts) - obtuse != 4:
        return RigidShape(OTHER, sup, tuple(corner_pts))
    moving_from = set(D.from_gen.points) - set(D.to_gen.points)
    moving_to = set(D.to_gen.points) - set(D.from_gen.points)
    if set(corner_pts) != moving_from | moving_to:
        return RigidShape(OTHER, sup, tuple(corner_pts))
    if len(moving_from) == 1 and len(moving_to) == 1:
        tag, chi = BIGON, d.genus
    elif len(moving_from) == 2 and len(moving_to) == 2:
        tag, chi = RECTANGLE, d.genus - 1
    else:
        return RigidShape(OTHER, sup, tuple(corner_pts))
    # The embedded surface of a disk is the disk plus one trivial strip
    # per fixed point: g - 1 strips for a bigon, g - 2 for a rectangle.
    embedded = embedded_euler_char(d, D)
    if embedded != chi:
        raise InternalError(f"{tag} {coeffs} has embedded chi {embedded}, expected {chi}")
    return RigidShape(tag, sup, tuple(sorted(corner_pts)))


def differential(
    d: HeegaardDiagram,
    c: SpincClass,
    strict_rectangles: bool = False,
    threads: int = 1,
) -> GradedComplex:
    """F2 differential of one Spin^c class with its audit trail.

    Bit y of column x counts the rigid index-1 positive n_z = 0 domains from
    x to y mod 2.  Only pairs with gr(x) - gr(y) = 1 (mod the divisor)
    are enumerated: such a domain has index 1, and gradings are
    relative Maslov indices, so every other pair has none.  The members
    are bucketed by grading, in member order, and each x is paired with
    the bucket at gr(x) - 1 only.  Raises NotCombinatorial when any
    such domain is not rigid.  A class with two or more generators on a
    diagram that is not weakly admissible raises UnboundedEnumeration
    with the periodic witness, before any pair is enumerated.  A class
    that is not one of d's (no members, a member that is not a
    generator of d, members of two classes, or gradings that do not
    give each member once an int) is refused with ValueError before that.
    ``threads`` is accepted for compatibility and ignored: the work is
    pure Python, so worker threads only added contention.

    Each shape is kept per diagram object under ``(coefficients,
    from-only points, to-only points)`` and built on first use by the
    exported ``classify_rigid``.  A shape reads the pair only through
    its moving points, except for the embedded chi that it checks,
    g + e - n_x - n_y.  ``positive_domains`` checked the index e + n_x
    + n_y = 1 for this pair, so that chi is g + 2e - 1 for every pair
    sharing the key: a function of the coefficients alone, checked on
    the first pair for all of them.
    """
    _check_class(d, c)
    order = c.members
    idx = {g: i for i, g in enumerate(order)}
    gradings = dict(c.gradings)
    level = (lambda k: k % c.divisor) if c.divisor > 0 else (lambda k: k)
    by_level: dict[int, list[Generator]] = {}
    for g in order:
        by_level.setdefault(level(gradings[g]), []).append(g)
    counted_tags = (BIGON,) if strict_rectangles else (BIGON, RECTANGLE)
    columns = [0] * len(order)
    audit = []
    offenders = []
    if len(order) > 1:
        witness = _weak_witness(d)
        if witness is not None:
            raise UnboundedEnumeration(witness)
    pairs = ((x, y) for x in order for y in by_level.get(level(gradings[x] - 1), ()) if y is not x)
    for x, y in pairs:
        for dom in positive_domains(d, x, y, 1, 0):
            slot = (RigidShape, dom.coefficients, *_moving(d, x, y))
            shape = d._derived.get(slot)
            if shape is None:
                shape = d._derived[slot] = classify_rigid(d, dom)
            if shape.tag in counted_tags:
                columns[idx[x]] ^= 1 << idx[y]
                audit.append((x, y, dom, shape.tag))
            else:
                offenders.append((x, y, dom, shape))
    if offenders:
        raise NotCombinatorial(offenders)
    cols = tuple(columns)
    _assert_d_squared_zero(cols)
    return GradedComplex(c, order, cols, tuple(audit))


def _assert_d_squared_zero(columns: tuple[int, ...]) -> None:
    """Raise InternalError unless d^2 = 0: one XOR per non-zero entry."""
    for j, col in enumerate(columns):
        acc = 0
        while col:
            low = col & -col
            acc ^= columns[low.bit_length() - 1]
            col ^= low
        if acc:
            i = (acc & -acc).bit_length() - 1
            raise InternalError(f"d^2 != 0 over F2 at entry ({i}, {j})")


def _gf2_rank(vectors) -> int:
    """Rank over F2 of int bit vectors, by an XOR basis.

    Each basis vector is zero at the top bit of every earlier one, so
    ``min(v, v ^ b)`` in insertion order clears each of those bits."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            v = min(v, v ^ b)
        if v:
            basis.append(v)
    return len(basis)


class HomologyClassReport(NamedTuple):
    spinc: SpincClass
    ranks: tuple[tuple[int, int], ...]  # (grading, rank), sorted

    @property
    def total(self) -> int:
        return sum(r for _, r in self.ranks)


def homology(
    d: HeegaardDiagram, strict_rectangles: bool = False, threads: int = 1
) -> list[HomologyClassReport]:
    """Graded F2 homology ranks per Spin^c class (``threads`` is ignored)."""
    report = validate(d)
    if not report.ok:
        raise ValueError(f"homology() requires a valid diagram:\n{report}")
    return [
        HomologyClassReport(c, _graded_ranks(differential(d, c, strict_rectangles, threads)))
        for c in spinc_partition(d)
    ]


def _graded_ranks(complex_: GradedComplex) -> tuple[tuple[int, int], ...]:
    """(grading k, rank of H_k) for each grading, sorted.

    The differential lowers the grading by one (mod the divisor), so
    the part landing in grading k is the part leaving grading k + 1,
    and H_k = dim_k - r(k) - r(k + 1) with r(k) the F2 rank of the
    stored columns at grading k.  Each grading is ranked once."""
    divisor = complex_.spinc.divisor
    gradings = dict(complex_.spinc.gradings)
    columns: dict[int, list[int]] = {}
    for g, col in zip(complex_.order, complex_.columns):
        columns.setdefault(gradings[g], []).append(col)
    rank = {k: _gf2_rank(cols) for k, cols in columns.items()}
    ranks = []
    for k in sorted(columns):
        above = (k + 1) % divisor if divisor > 0 else k + 1
        ranks.append((k, len(columns[k]) - rank[k] - rank.get(above, 0)))
    return tuple(ranks)
