"""Connecting domains, the periodic lattice, and positive enumeration.

A domain is an integer vector of region coefficients.  Its alpha
boundary, pushed to a 0-chain on the intersection points, must equal
``to - from``: ``l_alpha n = chi_y - chi_x``, where ``chi_g`` is the
0-chain of g's points.  The boundary matrices are read off
``diagram``'s arc walk: each point's row, from its point table (in
canonical order), each arc's two ends, from its arc table (alpha arcs
first), and the regions on its two sides.  Each region's boundary
is a closed cycle, so its beta boundary is the negated alpha boundary
(``l_beta = -l_alpha``), and the beta condition ``from - to`` holds
exactly when the alpha one does.  That invariant is checked once per
diagram object, where ``l_alpha`` alone is brought to a column echelon
form ``l_alpha u = h`` with positive pivots; the canonical (reduced)
Hermite form is not needed, since no answer reads ``h`` or the pivot
columns of ``u`` directly.  Each generator's chain is reduced against
``h`` once per diagram object: the remainder, canonical modulo the
column lattice of ``l_alpha`` for any such echelon form, names the
generator's Spin^c class, and the quotient q_g gives a domain phi_g =
u q_g, built only when a connecting domain needs it; the domain from x
to y is phi_y - phi_x.  Another echelon form changes ``h`` and ``u``
by a unimodular change V of the pivot columns and q_g by V^-1, so
phi_g does not change.
Every matrix here is the list of its columns, so the factorization is
one record per diagram object: the walk's point rows, the columns of
``l_alpha`` as sparse ``(row, value)`` pairs, one per region (a region
touches a handful of points), and the columns of ``h`` and ``u``.
phi_g adds only the columns of ``u`` at the nonzero quotient entries,
and a domain's alpha boundary, checked on every connecting, positive
and periodic domain, adds only the columns of ``l_alpha`` at its
nonzero coefficients.

The columns of ``u`` past the pivots span the kernel of ``l_alpha``:
the periodic lattice (n_z = 0) plus [Sigma] (all coefficients 1).
Less n_z [Sigma] each, as for phi_g, they span the lattice.  Positive
domains of a prescribed index and n_z are enumerated by walking the
integer points of the polytope D0 + lattice >= 0 (once per diagram
object and D0), one lattice coordinate at a time: the walk carries the
residual of the coordinates already fixed, and exact LPs over the free
ones bound the next, which certifies completeness.  From the first
coordinate whose free basis vectors have pairwise disjoint supports
(found once per diagram object) the fiber is a box, and each remaining
coordinate is read off its own vector's rows with no LP; on a sum of
S^1 x S^2 summands that is every coordinate.  An unbounded polytope is
reported as an error naming a recession direction, which is precisely
a failure of weak admissibility.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .diagram import HeegaardDiagram, _arc_walk, derived, validate
from .exactla import GE, InternalError, canonical_basis, column_echelon, combine, hermite_reduce
from .exactla import _scaled, lp_optimize
from .generators import Generator, _check_generator


class UnboundedEnumeration(Exception):
    """Positive-domain polytope has a recession direction.

    Carries an all-nonnegative nonzero integer kernel direction as
    ``witness``; its existence means the diagram is not weakly
    admissible.
    """

    def __init__(self, witness: tuple[int, ...]):
        self.witness = witness
        super().__init__(
            f"positive domains are unbounded along the periodic direction {witness}"
        )


class Domain(NamedTuple):
    """Integer region vector connecting ``from_gen`` to ``to_gen``."""

    coefficients: tuple[int, ...]
    from_gen: Generator
    to_gen: Generator


class PeriodicLattice(NamedTuple):
    """Basis of the n_z = 0 kernel plus the fundamental class."""

    basis: tuple[tuple[int, ...], ...]
    sigma: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.basis)


class BoundarySystem(NamedTuple):
    """Matrices sending region vectors to point 0-chains.

    ``l_alpha @ n`` is the alpha boundary of the domain ``n`` as a
    0-chain over ``points`` (in canonical order); ``l_beta`` the beta
    one.  ``D`` connects x to y exactly when ``l_alpha @ n = y - x``
    and ``l_beta @ n = x - y``.  On a valid diagram ``l_beta =
    -l_alpha``, so the first condition implies the second.
    """

    points: tuple[str, ...]
    l_alpha: tuple[tuple[int, ...], ...]
    l_beta: tuple[tuple[int, ...], ...]


@derived
def boundary_system(d: HeegaardDiagram) -> BoundarySystem:
    report = validate(d)
    if not report.ok:
        raise ValueError(f"boundary_system() requires a valid diagram:\n{report}")
    walk = _arc_walk(d)
    index = walk.rows
    n_regions = len(d.regions)
    la = [[0] * n_regions for _ in index]
    lb = [[0] * n_regions for _ in index]
    for arc, ((_, tail, head), arc_sides) in enumerate(zip(walk.arcs, walk.sides)):
        target = la if arc < walk.alpha_arcs else lb
        tail_row, head_row = target[index[tail]], target[index[head]]
        for ri, direction in arc_sides:
            head_row[ri] += direction
            tail_row[ri] -= direction
    return BoundarySystem(
        tuple(index),
        tuple(tuple(row) for row in la),
        tuple(tuple(row) for row in lb),
    )


@derived
def _factored(d: HeegaardDiagram) -> tuple:
    """``(index, a_columns, h, u, pivots)``: each point's row in a chain
    (the arc walk's rows), the columns of ``a = l_alpha`` as ``(row,
    value)`` pairs of their nonzero entries, and its column echelon form
    ``a u = h``, with ``h`` and ``u`` as lists of columns (``u`` is
    dense on lens spaces).

    Raises InternalError unless ``l_beta == -l_alpha``, the invariant
    that lets the alpha rows stand for the whole boundary system.  With
    the alpha rows first, the beta rows of the stacked system would
    give no pivot, so ``u``, the pivots and these rows of ``h`` are
    those of the stacked echelon form.
    """
    sys = boundary_system(d)
    for p, alpha_row, beta_row in zip(sys.points, sys.l_alpha, sys.l_beta):
        if any(a + b for a, b in zip(alpha_row, beta_row)):
            raise InternalError(f"the beta boundary at {p} is not the negated alpha boundary")
    a = [[row[j] for row in sys.l_alpha] for j in range(len(d.regions))]
    a_columns = tuple(tuple((i, v) for i, v in enumerate(col) if v) for col in a)
    return (_arc_walk(d).rows, a_columns, *column_echelon(a))


def _chain(d: HeegaardDiagram, g: Generator) -> list[int]:
    """``chi_g``, g's points as a 0-chain, so that ``b(x, y)`` is
    ``chi_y - chi_x``."""
    index = _factored(d)[0]
    b = [0] * len(index)
    for p in g.points:
        b[index[p]] += 1
    return b


def _alpha_boundary(d: HeegaardDiagram, coeffs: Sequence[int]) -> list[int]:
    """``l_alpha coeffs``, one entry per point of ``_factored``'s index.
    Sums only the sparse columns of the nonzero coefficients, so it
    costs O(nonzeros)."""
    index, a_columns = _factored(d)[:2]
    boundary = [0] * len(index)
    for c, column in zip(coeffs, a_columns):
        if c:
            for row, v in column:
                boundary[row] += c * v
    return boundary


def _assert_mirror(d: HeegaardDiagram, dom: Domain) -> None:
    """Raise InternalError unless ``dom``'s alpha boundary is ``to - from``
    (its beta boundary is then ``from - to``, since ``l_beta = -l_alpha``).
    Takes ``to - from`` off the alpha boundary by point index."""
    index = _factored(d)[0]
    left = _alpha_boundary(d, dom.coefficients)
    for p in dom.to_gen.points:
        left[index[p]] -= 1
    for p in dom.from_gen.points:
        left[index[p]] += 1
    if any(left):
        raise InternalError(f"domain {dom.coefficients} has the wrong boundary")


@derived
def _reduction(d: HeegaardDiagram, g: Generator) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(remainder, quotient)`` for g's chain ``chi_g = h q + remainder``.
    The remainder names g's Spin^c class; the quotient gives ``_phi``.
    Every connecting and positive domain reads it, so a generator not of
    d is refused here, with ValueError, once per diagram object."""
    _, _, h, _, pivots = _factored(d)
    _check_generator(d, g)
    quotient, remainder = hermite_reduce(h, pivots, _chain(d, g))
    return tuple(remainder), tuple(quotient)


@derived
def _phi(d: HeegaardDiagram, g: Generator) -> tuple[int, ...]:
    """``phi_g = u q_g`` with n_z made 0.  Within a class ``chi_y - chi_x
    = h (q_y - q_x)``, so ``phi_y - phi_x`` is the domain that reducing
    ``b(x, y)`` itself would give.  Adds up the columns of ``u`` at the
    nonzero entries of ``q_g`` only."""
    phi = combine(_factored(d)[3], _reduction(d, g)[1])
    nz = phi[d.basepoint]
    return tuple(c - nz for c in phi)


def connecting_domain(
    d: HeegaardDiagram, x: Generator, y: Generator
) -> Optional[Domain]:
    """A domain from x to y with n_z = 0, or None when none exists.

    One exists exactly when x and y reduce to the same remainder, that
    is when they lie in the same Spin^c class; it is then
    ``phi_y - phi_x`` from their stored domains.
    """
    if _reduction(d, x)[0] != _reduction(d, y)[0]:
        return None
    dom = Domain(tuple(b - a for a, b in zip(_phi(d, x), _phi(d, y))), x, y)
    _assert_mirror(d, dom)
    return dom


@derived
def periodic_lattice(d: HeegaardDiagram) -> PeriodicLattice:
    """Canonical Hermite basis of the kernel columns of ``u``, less n_z
    [Sigma] each as in ``_phi`` (empty on a lens space: kernel span [Sigma])."""
    _, _, _, u, pivots = _factored(d)
    z = d.basepoint
    basis = canonical_basis([[c - col[z] for c in col] for col in u[len(pivots):]])
    for vec in basis:
        boundary = _alpha_boundary(d, vec)
        if vec[z] or any(boundary):
            raise InternalError(f"periodic vector {vec}: n_z {vec[z]}, boundary {boundary}")
    return PeriodicLattice(tuple(tuple(v) for v in basis), tuple([1] * len(d.regions)))


def _integer_direction(
    basis: Sequence[Sequence[int]], t: Sequence[Fraction]
) -> tuple[int, ...]:
    """Clear denominators of P.t and return the integer region vector."""
    scale = lcm(*(c.denominator for c in t)) if t else 1
    return tuple(combine(basis, _scaled(t, scale)))


def recession_direction(
    basis: Sequence[Sequence[int]],
) -> Optional[tuple[int, ...]]:
    """All-nonnegative nonzero direction in the span of ``basis``, if any."""
    if not basis:
        return None
    n = len(basis[0])
    r = len(basis)
    constraints = []
    for i in range(n):
        constraints.append(([vec[i] for vec in basis], GE, 0))
    total = [sum(vec[i] for i in range(n)) for vec in basis]
    constraints.append((total, GE, 1))
    res = lp_optimize([0] * r, constraints)
    if not res.optimal:
        return None
    witness = _integer_direction(basis, res.point)
    if any(w < 0 for w in witness) or not any(witness):
        raise InternalError(f"recession direction {witness} is not nonnegative and nonzero")
    return witness


@derived
def _weak_witness(d: HeegaardDiagram) -> Optional[tuple[int, ...]]:
    """Recession direction of the full periodic lattice, if any."""
    return recession_direction(periodic_lattice(d).basis)


def _positive_solutions(
    d: HeegaardDiagram, x: Generator, y: Generator, nz: int
) -> tuple[tuple[int, ...], ...]:
    """All nonnegative coefficient vectors connecting x to y at n_z."""
    dom = connecting_domain(d, x, y)
    if dom is None:
        return ()
    return _lattice_points(d, tuple(c + nz for c in dom.coefficients))


@derived
def _box_split(d: HeegaardDiagram) -> tuple:
    """``(split, columns, outside)``: the first coordinate k* from which
    the periodic basis vectors P_k*..P_{r-1} have pairwise disjoint
    supports (k* <= r - 1 when r > 0), those vectors as ``(row, value)``
    pairs of their nonzero entries, and the rows outside every one of
    their supports."""
    basis = periodic_lattice(d).basis
    supports = [{i for i, v in enumerate(vec) if v} for vec in basis]
    split, covered = len(basis), set()
    while split and not supports[split - 1] & covered:
        split -= 1
        covered |= supports[split]
    columns = tuple(
        tuple((i, vec[i]) for i in sorted(support))
        for vec, support in zip(basis[split:], supports[split:])
    )
    outside = tuple(i for i in range(len(d.regions)) if i not in covered)
    return split, columns, outside


@derived
def _lattice_points(
    d: HeegaardDiagram, d0: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """All nonnegative points of ``d0 + span(periodic basis)``, sorted.

    The sweep fixes ``t_0, t_1, ...`` in turn and carries the residual
    ``base = d0 + sum_{j < k} t_j P_j`` down to coordinate k.  Below the
    split k* (see ``_box_split``) two exact LPs over the free
    ``t_k..t_{r-1}`` alone, with rows ``sum_{j >= k} P_j[i] t_j >=
    -base[i]``, bound ``t_k``.  From k* on the free vectors have
    disjoint supports, so the fiber is a box: each ``t_j`` is read off
    the rows of P_j's support, and a row outside every free support
    needs ``base[i] >= 0``; this is exactly what those LPs would give.
    Each point of the box gives the leaf ``base + sum_{j >= k*} t_j
    P_j``, kept when nonnegative.  The points depend on the pair
    (x, y) only through ``d0``, so pairs whose connecting domains
    coincide share one sweep.
    """
    basis = periodic_lattice(d).basis
    witness = _weak_witness(d)
    if witness is not None:
        raise UnboundedEnumeration(witness)

    split, columns, outside = _box_split(d)
    results: list[tuple[int, ...]] = []

    def box_bounds(base: list[int]) -> Optional[list[tuple[int, int]]]:
        """Integer ranges of t_split..t_{r-1} over the fiber above ``base``."""
        if any(base[i] < 0 for i in outside):
            return None
        box = []
        for j, column in enumerate(columns, split):
            low, high = None, None
            for i, coef in column:
                # base[i] + coef t_j >= 0
                if coef > 0:
                    cand = -(base[i] // coef)
                    low = cand if low is None else max(low, cand)
                else:
                    cand = base[i] // -coef
                    high = cand if high is None else min(high, cand)
            if low is None or high is None:
                raise InternalError(f"positive-domain polytope is unbounded along basis vector {j}")
            if low > high:
                return None
            box.append((low, high))
        return box

    def lp_bounds(base: list[int], coord: int) -> Optional[tuple[int, int]]:
        """Integer range of t_coord over the fiber above ``base``."""
        free = basis[coord:]
        constraints = [([vec[i] for vec in free], GE, -b) for i, b in enumerate(base)]
        obj = [0] * len(free)
        obj[0] = 1
        hi = lp_optimize(obj, constraints)
        if hi.status == "infeasible":
            return None
        if not hi.optimal:
            raise InternalError(f"bounding LP is {hi.status} with no recession direction")
        obj[0] = -1
        lo = lp_optimize(obj, constraints)
        if not lo.optimal:
            raise InternalError(f"bounding LP is {lo.status} with no recession direction")
        return math.ceil(-lo.value), math.floor(hi.value)

    # Depth first, children in increasing t: an explicit stack rather
    # than a recursive closure, which would refer to itself and leave
    # ``results`` to the cyclic garbage collector.
    stack = [(0, list(d0))]
    while stack:
        coord, base = stack.pop()
        if coord == split:
            box = box_bounds(base)
            if box is None:
                continue
            for ts in product(*(range(low, high + 1) for low, high in box)):
                leaf = list(base)
                for t, column in zip(ts, columns):
                    for i, coef in column:
                        leaf[i] += t * coef
                if all(c >= 0 for c in leaf):
                    results.append(tuple(leaf))
            continue
        rng = lp_bounds(base, coord)
        if rng is None:
            continue
        low, high = rng
        vec = basis[coord]
        stack.extend(
            (coord + 1, [b + val * v for b, v in zip(base, vec)])
            for val in range(high, low - 1, -1)
        )

    results.sort()
    return tuple(results)


def positive_domains(
    d: HeegaardDiagram,
    x: Generator,
    y: Generator,
    target_index: int,
    nz: int,
) -> list[Domain]:
    """All domains x -> y with coefficients >= 0, given n_z and index.

    Complete by the bounded-polytope argument: absence of a recession
    direction (checked first, by one exact LP per diagram) makes the
    positive polytope compact, and per-coordinate bounds (exact LPs, or
    a box read off the rows once the free vectors split) with
    depth-first re-tightening sweep every integer point.  Raises
    UnboundedEnumeration otherwise.  The sweep runs once per diagram
    object and starting domain ``D0 + n_z [Sigma]``.  Each point's index
    is the exported, checked ``maslov_index``, imported at call time
    since ``measures`` imports this module.  A target index or n_z that
    is not an int is refused with ValueError.
    """
    from .measures import maslov_index

    if type(target_index) is not int or type(nz) is not int:
        raise ValueError(f"target index {target_index!r} and n_z {nz!r} must be ints")
    results = []
    for coeffs in _positive_solutions(d, x, y, nz):
        dom = Domain(coeffs, x, y)
        if maslov_index(d, dom) == target_index:
            _assert_mirror(d, dom)
            results.append(dom)
    return results
