"""Exact integer and rational linear algebra.

Provides the arithmetic backbone for the rest of the package: column
echelon and Hermite normal forms over the integers (arbitrary
precision), integer linear system solving with kernel bases, and an
exact simplex for linear programs with rational data.  No floating
point appears anywhere; rationals are ``fractions.Fraction`` (always
stored in lowest terms with positive denominator, which matches the
Rational contract used throughout).

A matrix is the list of its columns, each a list of Python ints: a
column of ``l_alpha`` is one region's boundary, and a column of an
echelon transform ``u`` is a domain.  ``mat_vec`` and ``hermite_solve``
take their matrix as its rows instead.  All functions are pure and
deterministic: the Hermite form is the canonical column-style one with
nonnegative pivots, the echelon form is the Hermite form's loop without
its reduction step (enough wherever only a coset or some solution is
read), and the simplex uses Bland's rule so results are reproducible.
The simplex starts on the slack basis: a row whose slack is a feasible
unit column starts on it, and only the other rows get an artificial
column, so phase 1 runs only when some row needs one.  The tableau is
a list of rows of Python ints, each over its own positive denominator,
updated by fraction-free pivots (Bareiss, Math. Comp. 22 (1968), in
the Gauss-Jordan form of Edmonds, J. Res. NBS 71B (1967)) that touch
only the entries a pivot changes: a free variable is split as u - w,
but the w columns, always the negated u columns, are not stored; a
row with a zero in the pivot column keeps its integers and its
denominator; and a row already over the pivot changes only where the
pivot row is nonzero.  Every division is checked to be exact.  Failed
internal checks raise ``InternalError``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, compress
from math import lcm
from typing import NamedTuple, Optional, Sequence


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a: Sequence[Sequence[int]], x: Sequence[int]) -> list[int]:
    """``a x`` for ``a`` given as its rows."""
    return [sum(r * v for r, v in zip(row, x)) for row in a]


def combine(columns: Sequence[Sequence[int]], coeffs: Sequence[int]) -> list[int]:
    """``sum_j coeffs[j] columns[j]``, adding only the columns at nonzero
    coefficients."""
    out = [0] * (len(columns[0]) if columns else 0)
    for c, column in zip(coeffs, columns):
        if c:
            out = [o + c * v for o, v in zip(out, column)]
    return out


def column_echelon(
    a: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[tuple[int, int]]]:
    """Column echelon form with positive pivots of ``a``, given as its columns.

    Returns the columns of ``h`` and ``u`` and ``pivots``, with ``a . u
    == h``, ``u`` unimodular and ``h`` in column echelon form with
    positive pivots; the entries to the left of each pivot are not
    reduced.  ``pivots`` is the list of (row, column) pivot positions in
    order, and the columns of ``u`` past the pivot columns span the
    kernel of ``a``.
    """
    h = [list(col) for col in a]
    n = len(h)
    m = len(h[0]) if n else 0
    u = identity_matrix(n)
    pivots: list[tuple[int, int]] = []
    c = 0
    for i in range(m):
        if c >= n:
            break
        # Clear row i across columns c..n-1 down to a single gcd entry.
        while True:
            nz = [j for j in range(c, n) if h[j][i] != 0]
            if not nz:
                break
            j = nz[0] if len(nz) == 1 else min(nz, key=lambda k: (abs(h[k][i]), k))
            if j != c:
                h[j], h[c] = h[c], h[j]
                u[j], u[c] = u[c], u[j]
            if len(nz) == 1:
                break
            for k in range(c + 1, n):
                if h[k][i] != 0:
                    _add_col(h, u, k, c, -(h[k][i] // h[c][i]))
        if h[c][i] == 0:
            continue
        if h[c][i] < 0:
            h[c] = [-v for v in h[c]]
            u[c] = [-v for v in u[c]]
        pivots.append((i, c))
        c += 1
    return h, u, pivots


def hermite_normal_form(
    a: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[tuple[int, int]]]:
    """Column-style Hermite normal form of ``a``, given as its columns.

    Returns the columns of ``h`` and ``u`` and ``pivots``, with ``a . u
    == h``, ``u`` unimodular, ``h`` in column echelon form with positive
    pivots and the entries to the left of each pivot reduced into ``[0,
    pivot)``.  ``pivots`` is the list of (row, column) pivot positions
    in order.

    ``column_echelon``, then one top-down pass over the pivots.  The
    pass adds pivot column c to columns left of it only, which no later
    echelon step touches, so it gives the form that reducing at each
    pivot as it is found would give.
    """
    h, u, pivots = column_echelon(a)
    for i, c in pivots:
        for k in range(c):
            q = h[k][i] // h[c][i]
            if q != 0:
                _add_col(h, u, k, c, -q)
    return h, u, pivots


def _add_col(h: list[list[int]], u: list[list[int]], dst: int, src: int, q: int) -> None:
    """Add ``q`` times column ``src`` to column ``dst`` of ``h`` and ``u``, in place."""
    for cols in (h, u):
        target, source = cols[dst], cols[src]
        for i in compress(range(len(source)), source):
            target[i] += q * source[i]


def hermite_reduce(
    h: Sequence[Sequence[int]], pivots: Sequence[tuple[int, int]], b: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Floor-reduce ``b`` against the pivots of ``h``, the columns of any
    column echelon form with positive pivots (``column_echelon`` or the
    Hermite form).

    Returns ``(y, r)`` with ``b == h y + r`` and ``0 <= r[row] < pivot``
    at every pivot row.  ``r`` depends only on the class of ``b`` modulo
    the column lattice of ``h``, not on which echelon basis of that
    lattice ``h`` is, so ``b`` lies in the lattice exactly when ``r`` is
    zero.  A pivot column whose quotient is 0 leaves ``r`` as it is, so
    the rows are updated only for nonzero quotients, and then only at
    the column's nonzero entries, all at or below the pivot row.
    """
    r = list(b)
    y = [0] * len(h)
    rows = range(len(r))
    for row, col in pivots:
        column = h[col]
        q = y[col] = r[row] // column[row]
        if q:
            for i in compress(rows, column):
                r[i] -= q * column[i]
    return y, r


def hermite_solve(
    a: Sequence[Sequence[int]], b: Sequence[int]
) -> Optional[tuple[list[int], list[list[int]]]]:
    """Solve ``a x = b`` over the integers, for ``a`` given as its rows.

    Returns ``None`` when no integer solution exists, otherwise a pair
    of (particular solution, kernel basis).  The kernel basis is in
    canonical Hermite form so the output is deterministic.  ``a`` is
    only brought to column echelon form: reducing the entries left of
    its pivots would change ``u`` and ``y`` only by a unimodular change
    of the pivot columns, which leaves ``u y`` and the kernel columns
    as they are.
    """
    if len(b) != len(a):
        raise ValueError("dimension mismatch")
    h, u, pivots = column_echelon(list(zip(*a)))
    y, r = hermite_reduce(h, pivots, b)
    if any(r):
        return None
    particular = combine(u, y)
    # The columns of u past the pivot columns span the kernel.
    kernel = canonical_basis(u[len(pivots):])
    if mat_vec(a, particular) != list(b):
        raise InternalError("Hermite solve returned a non-solution")
    if any(any(mat_vec(a, vec)) for vec in kernel):
        raise InternalError("Hermite solve returned a non-kernel vector")
    return particular, kernel


def vanishing_sublattice(
    basis: Sequence[Sequence[int]], values: Sequence[int]
) -> list[list[int]]:
    """Canonical basis of the sublattice of ``span(basis)`` where a functional vanishes.

    ``values[j]`` is the functional evaluated on ``basis[j]``.  The raw kernel
    columns of its echelon transform are combined, then canonicalized once.
    """
    _, u, pivots = column_echelon([[v] for v in values])
    return canonical_basis([combine(basis, combo) for combo in u[len(pivots):]])


def canonical_basis(vectors: Sequence[Sequence[int]]) -> list[list[int]]:
    """Canonical (Hermite-reduced) basis of the lattice spanned by ``vectors``:
    the pivot columns of the Hermite form whose columns they are."""
    h, _, pivots = hermite_normal_form([v for v in vectors if any(v)])
    return [h[c] for _, c in pivots]


# ---------------------------------------------------------------------------
# Exact linear programming on an integer tableau.
# ---------------------------------------------------------------------------

LE = "<="
GE = ">="
EQ = "=="


class InternalError(Exception):
    """A check that carries one of hfhat's guarantees failed.

    Raised explicitly, so the check also runs under ``python -O``.  It
    is not a ``ValueError``: it reports a fault in hfhat, never bad
    input, so the command line does not turn it into an exit code.
    """


class LpResult(NamedTuple):
    """Outcome of ``lp_optimize``: exactly one of the three variants."""

    status: str  # "optimal" | "unbounded" | "infeasible"
    value: Optional[Fraction] = None
    point: Optional[tuple[Fraction, ...]] = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _scaled(values: Sequence[Fraction | int], scale: int) -> list[int]:
    """``scale * v`` for each ``v``; ``scale`` is a multiple of every denominator."""
    return [v.numerator * (scale // v.denominator) for v in values]


def lp_optimize(
    objective: Sequence[Fraction | int],
    constraints: Sequence[tuple[Sequence[Fraction | int], str, Fraction | int]],
) -> LpResult:
    """Maximize ``objective . x`` over free variables, exactly.

    ``constraints`` is a list of ``(coefficients, relation, rhs)`` with
    relation one of ``"<="``, ``">="``, ``"=="``.  Two-phase primal
    simplex with Bland's rule (termination guaranteed with exact
    arithmetic).  Each variable is split as ``x = u - w`` with ``u, w
    >= 0``; the initial basis is the slacks plus one artificial per
    remaining row: a ``<=`` row with rhs >= 0 and a ``>=`` row with rhs
    <= 0 start on their own slacks; equality rows and inequality rows
    with a rhs of the other sign start on an artificial, and phase 1
    (minimize their sum) runs only if there is one.

    Every constraint is multiplied by the lcm ``L`` of all denominators
    in the data, so the tableau starts as integers.  Its columns are
    indexed in the order u, w, slacks, artificials (Bland's rule, the
    basis and the ratio test's tie-break read that order), but only the
    u, slack and artificial columns and the rhs are stored: every row
    operation is linear, so each w column stays the negated u column.
    Row ``i`` is kept as integers ``N_i`` over its own denominator
    ``den_i > 0`` (the row is ``N_i / den_i``); see ``_pivot``.  Slack
    and artificial variables are measured in units of ``1/L``, which
    changes no pivot choice, so the vertices visited are those of the
    rational tableau.  Returns Optimal(value, point), Unbounded or
    Infeasible; an optimal point is verified against every constraint.
    """
    n = len(objective)
    scale = 1
    for coeffs, rel, b in constraints:
        if len(coeffs) != n:
            raise ValueError("constraint dimension mismatch")
        if rel not in (LE, GE, EQ):
            raise ValueError(f"unknown relation {rel!r}")
        scale = lcm(scale, b.denominator, *(c.denominator for c in coeffs))
    # The constraints times L, kept for the final verification.
    system = [
        (_scaled(coeffs, scale), rel, b.numerator * (scale // b.denominator))
        for coeffs, rel, b in constraints
    ]

    # Stored columns: u (n), one slack per inequality, one artificial
    # per row that does not start on its slack, then the right-hand
    # side.  Stored column k >= n is column k + n of the u, w, slack,
    # artificial order.  GE rows are negated into LE rows first; a row
    # that starts on an artificial is negated to rhs >= 0.
    m = len(system)
    flipped = [
        ([-c for c in coeffs], LE, -b) if rel == GE else (coeffs, rel, b)
        for coeffs, rel, b in system
    ]
    art_at = n + sum(1 for _, rel, _ in flipped if rel == LE)
    width = art_at + sum(1 for _, rel, b in flipped if rel == EQ or b < 0)
    rows: list[list[int]] = []
    basis: list[int] = []
    si, ai = n, art_at
    for coeffs, rel, b in flipped:
        row = coeffs + [0] * (width - n) + [b]
        if rel == LE:
            row[si] = 1
            si += 1
        if rel == LE and b >= 0:
            basis.append(n + si - 1)
        else:
            if b < 0:
                row = [-c for c in row]
            row[ai] = 1
            basis.append(n + ai)
            ai += 1
        rows.append(row)
    basic = [False] * (n + width)
    for j in basis:
        basic[j] = True
    dens = [1] * (m + 1)
    d = 1

    if width > art_at:
        # Phase 1: maximize -(sum of artificials).  The last row holds
        # the reduced costs; at the starting basis that is the sum of
        # the artificial rows, less 1 in every artificial column.
        art_rows = [row for row, bj in zip(rows, basis) if bj >= n + art_at]
        phase1 = [sum(col) for col in zip(*art_rows)]
        for k in range(art_at, width):
            phase1[k] -= 1
        rows.append(phase1)
        status, d = _simplex(rows, dens, basis, basic, n, d)
        if status != "optimal":
            raise InternalError("phase 1 of the simplex is unbounded")
        # Every rhs is >= 0, so the artificials sum to 0 only if each is 0.
        if any(rows[i][-1] for i in range(m) if basis[i] >= n + art_at):
            return LpResult("infeasible")
        # Pivot remaining artificials out of the basis where possible.
        # A w column is nonzero only where its u column is, so the first
        # nonzero stored column is the first nonzero column of the order.
        for i in range(m):
            if basis[i] >= n + art_at:
                k = next((k for k in range(art_at) if rows[i][k] != 0), None)
                if k is not None:
                    d = _pivot(rows, dens, basis, basic, n, d, i, k if k < n else k + n)

    # Phase 2: drop the artificial columns (they stay at zero) and the
    # phase-1 cost row; the new cost row, over d, is d * c - c_B . N,
    # with the objective c scaled to integers (c_w = -c_u).
    obj_scale = lcm(1, *(o.denominator for o in objective))
    cost = _scaled(objective, obj_scale)
    rows = [row[:art_at] + row[-1:] for row in rows[:m]]
    del dens[m:]
    phase2 = [d * c for c in cost] + [0] * (art_at - n + 1)
    for row, den, bj in zip(rows, dens, basis):
        cb = cost[bj] if bj < n else -cost[bj - n] if bj < 2 * n else 0
        if cb:
            phase2 = [z - cb * a for z, a in zip(phase2, _rescaled(row, den, d))]
    rows.append(phase2)
    dens.append(d)
    status, d = _simplex(rows, dens, basis, basic, n, d)
    if status == "unbounded":
        return LpResult("unbounded")

    values = [0] * (2 * n)
    for row, den, bj in zip(rows, dens, basis):
        if bj < 2 * n:
            values[bj] = _rescaled(row[-1:], den, d)[0]
    x = [values[j] - values[n + j] for j in range(n)]
    # Exactness check, in integers: (L a) . (d x) against (L b) d.
    for coeffs, rel, b in system:
        lhs = sum(c * v for c, v in zip(coeffs, x))
        rhs = b * d
        if not (lhs <= rhs if rel == LE else lhs >= rhs if rel == GE else lhs == rhs):
            raise InternalError(f"simplex point violates a constraint {rel} {Fraction(b, scale)}")
    value = Fraction(sum(c * v for c, v in zip(cost, x)), obj_scale * d)
    return LpResult("optimal", value, tuple(Fraction(v, d) for v in x))


def _simplex(
    rows: list[list[int]], dens: list[int], basis: list[int], basic: list[bool], n: int, d: int
) -> tuple[str, int]:
    """Primal simplex with Bland's rule on ``lp_optimize``'s tableau.

    ``n`` is the number of u columns and ``d`` the current common
    denominator (the last pivot, or 1).  The last row is the
    reduced-cost row over its own denominator; only its signs are read,
    and w's reduced costs are the negated u's.  A row's denominator
    cancels from its ratio, so the ratio test compares stored integers.
    Returns the status and the final common denominator.
    """
    m = len(rows) - 1
    width = len(rows[0]) - 1
    while True:
        reduced = rows[m]
        entering = next(
            chain(
                (j for j in range(n) if reduced[j] > 0 and not basic[j]),
                (n + j for j in range(n) if reduced[j] < 0 and not basic[n + j]),
                (n + k for k in range(n, width) if reduced[k] > 0 and not basic[n + k]),
            ),
            -1,
        )
        if entering < 0:
            return "optimal", d
        k, sign = _stored(entering, n)
        # Ratio test by cross-multiplication (every compared entry is
        # positive); ties go to the smaller basis index.
        leaving = -1
        for i in range(m):
            a = sign * rows[i][k]
            if a > 0:
                v = rows[i][-1]
                if leaving < 0:
                    leaving, best_v, best_a = i, v, a
                    continue
                lhs, rhs = v * best_a, best_v * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving, best_v, best_a = i, v, a
        if leaving < 0:
            return "unbounded", d
        d = _pivot(rows, dens, basis, basic, n, d, leaving, entering)


def _stored(col: int, n: int) -> tuple[int, int]:
    """Stored column and sign of column ``col`` of the u, w, slack,
    artificial order: w_j is the negated u_j."""
    if col < n:
        return col, 1
    return col - n, -1 if col < 2 * n else 1


def _rescaled(row: list[int], den: int, d: int) -> list[int]:
    """``row`` over ``den`` as integers over ``d``; every division is
    checked to be exact."""
    if den == d:
        return row
    new = [v * d // den for v in row]
    # Each floor division leaves a remainder in [0, den), so the sums
    # agree exactly when every division was exact.
    if den * sum(new) != d * sum(row):
        raise InternalError("inexact division in rescaling a tableau row")
    return new


def _pivot(
    rows: list[list[int]],
    dens: list[int],
    basis: list[int],
    basic: list[bool],
    n: int,
    d: int,
    row: int,
    col: int,
) -> int:
    """Fraction-free Gauss-Jordan pivot on column ``col`` of the u, w,
    slack, artificial order; returns the new common denominator.

    In Edmonds' form of Bareiss elimination every row is kept over the
    common denominator ``d`` and becomes ``(a * p - f * r) / d``, exact
    because every entry is, up to sign, a minor of the starting matrix;
    the pivot entry ``p`` becomes the common denominator.  Here a row
    whose entry ``f`` in the pivot column is 0 is left as it is, over
    its own denominator ``den``: it is the same rational row.  The pivot
    row is first brought to ``d``; then a row with ``f != 0`` becomes
    ``(a * p - f * r) / den`` over ``p``, which is Edmonds' integer row
    exactly.  When ``den == p`` that is ``a - f * r / p``, so only the
    columns where the pivot row is nonzero change.  A negative pivot
    negates its row first, so every denominator stays positive.  Every
    division is checked to be exact.
    """
    k, sign = _stored(col, n)
    pr = _rescaled(rows[row], dens[row], d)
    if sign * pr[k] < 0:
        pr = [-v for v in pr]
    rows[row] = pr
    p = sign * pr[k]
    support = [(j, v) for j, v in enumerate(pr) if v]
    pr_sum = sum(pr)
    for i, r in enumerate(rows):
        f = sign * r[k]
        if not f or i == row:
            continue
        den = dens[i]
        if den != p:
            new = [(a * p - f * b) // den for a, b in zip(r, pr)]
            if den * sum(new) != p * sum(r) - f * pr_sum:
                raise InternalError("inexact division in a fraction-free pivot")
            rows[i] = new
            dens[i] = p
        elif p == 1:
            for j, b in support:
                r[j] -= f * b
        else:
            # As in _rescaled, the floors sum to f * pr_sum / p exactly
            # when every division was exact.
            total = 0
            for j, b in support:
                q = f * b // p
                r[j] -= q
                total += q
            if p * total != f * pr_sum:
                raise InternalError("inexact division in a fraction-free pivot")
    dens[row] = p
    basic[basis[row]] = False
    basic[col] = True
    basis[row] = col
    return p
