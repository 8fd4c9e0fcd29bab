"""Exact integer and rational linear algebra.

Provides the arithmetic backbone for the rest of the package: Hermite
and Smith normal forms over the integers (arbitrary precision), integer
linear system solving with kernel bases, and an exact rational simplex
for linear programs.  No floating point appears anywhere; rationals are
``fractions.Fraction`` (always stored in lowest terms with positive
denominator, which matches the Rational contract used throughout).

Matrices are plain lists of rows of Python ints or Fractions.  All
functions are pure and deterministic: the Hermite form is the canonical
column-style one with nonnegative pivots, and the simplex uses Bland's
rule so results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence


def _copy_matrix(a: Sequence[Sequence[int]]) -> list[list[int]]:
    return [list(row) for row in a]


def identity_matrix(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a: Sequence[Sequence[int]], x: Sequence[int]) -> list[int]:
    return [sum(r * v for r, v in zip(row, x)) for row in a]


def mat_mul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    cols = len(b[0]) if b else 0
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
        for i in range(len(a))
    ]


def hermite_normal_form(
    a: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[tuple[int, int]]]:
    """Column-style Hermite normal form.

    Returns ``(h, u, pivots)`` with ``a . u == h``, ``u`` unimodular,
    ``h`` in column echelon form with positive pivots and the entries to
    the left of each pivot reduced into ``[0, pivot)``.  ``pivots`` is
    the list of (row, column) pivot positions in order.
    """
    h = _copy_matrix(a)
    m = len(h)
    n = len(h[0]) if m else 0
    u = identity_matrix(n)
    pivots: list[tuple[int, int]] = []
    c = 0
    for i in range(m):
        if c >= n:
            break
        # Clear row i across columns c..n-1 down to a single gcd entry.
        while True:
            nz = [j for j in range(c, n) if h[i][j] != 0]
            if not nz:
                break
            if len(nz) == 1:
                j = nz[0]
                if j != c:
                    _swap_cols(h, u, j, c)
                break
            j = min(nz, key=lambda k: (abs(h[i][k]), k))
            if j != c:
                _swap_cols(h, u, j, c)
            for k in range(c + 1, n):
                if h[i][k] != 0:
                    q = h[i][k] // h[i][c]
                    _add_col(h, u, k, c, -q)
        if h[i][c] == 0:
            continue
        if h[i][c] < 0:
            _scale_col(h, u, c, -1)
        for k in range(c):
            q = h[i][k] // h[i][c]
            if q != 0:
                _add_col(h, u, k, c, -q)
        pivots.append((i, c))
        c += 1
    return h, u, pivots


def _swap_cols(h: list[list[int]], u: list[list[int]], j: int, k: int) -> None:
    for row in h:
        row[j], row[k] = row[k], row[j]
    for row in u:
        row[j], row[k] = row[k], row[j]


def _add_col(h: list[list[int]], u: list[list[int]], dst: int, src: int, q: int) -> None:
    for row in h:
        row[dst] += q * row[src]
    for row in u:
        row[dst] += q * row[src]


def _scale_col(h: list[list[int]], u: list[list[int]], j: int, s: int) -> None:
    for row in h:
        row[j] *= s
    for row in u:
        row[j] *= s


def hermite_reduce(
    h: Sequence[Sequence[int]], pivots: Sequence[tuple[int, int]], b: Sequence[int]
) -> tuple[list[int], list[int]]:
    """Floor-reduce ``b`` against the pivots of a Hermite form ``h``.

    Returns ``(y, r)`` with ``b == h y + r`` and ``0 <= r[row] < pivot``
    at every pivot row.  ``r`` depends only on the class of ``b`` modulo
    the column lattice of ``h``, so ``b`` lies in that lattice exactly
    when ``r`` is zero.
    """
    m = len(h)
    r = list(b)
    y = [0] * (len(h[0]) if m else 0)
    for row, col in pivots:
        q = y[col] = r[row] // h[row][col]
        # Column echelon form: h[i][col] == 0 above the pivot row.
        for i in range(row, m):
            r[i] -= q * h[i][col]
    return y, r


def kernel_basis(u: Sequence[Sequence[int]], rank: int) -> list[list[int]]:
    """Canonical kernel basis from the transform ``u`` of a Hermite form.

    The columns of ``u`` past the ``rank`` pivot columns span the kernel.
    """
    n = len(u)
    return canonical_basis([[u[i][j] for i in range(n)] for j in range(rank, n)])


def hermite_solve(
    a: Sequence[Sequence[int]], b: Sequence[int]
) -> Optional[tuple[list[int], list[list[int]]]]:
    """Solve ``a x = b`` over the integers.

    Returns ``None`` when no integer solution exists, otherwise a pair
    of (particular solution, kernel basis).  The kernel basis is in
    canonical Hermite form so the output is deterministic.
    """
    m = len(a)
    if len(b) != m:
        raise ValueError("dimension mismatch")
    h, u, pivots = hermite_normal_form(a)
    y, r = hermite_reduce(h, pivots, b)
    if any(r):
        return None
    particular = mat_vec(u, y)
    kernel = kernel_basis(u, len(pivots))
    # Sanity: the solve must be exact and the kernel genuine.
    assert mat_vec(a, particular) == list(b)
    for vec in kernel:
        assert all(v == 0 for v in mat_vec(a, vec))
    return particular, kernel


def vanishing_sublattice(
    basis: Sequence[Sequence[int]], values: Sequence[int]
) -> list[list[int]]:
    """Canonical basis of the sublattice of ``span(basis)`` where a functional vanishes.

    ``values[j]`` is the functional evaluated on ``basis[j]``.
    """
    if not basis:
        return []
    solved = hermite_solve([list(values)], [0])
    assert solved is not None  # 0 always solves
    _, combos = solved
    n = len(basis[0])
    vectors = [
        [sum(c * vec[i] for c, vec in zip(combo, basis)) for i in range(n)]
        for combo in combos
    ]
    return canonical_basis(vectors)


def canonical_basis(vectors: Sequence[Sequence[int]]) -> list[list[int]]:
    """Canonical (Hermite-reduced) basis of the lattice spanned by ``vectors``."""
    vecs = [v for v in vectors if any(x != 0 for x in v)]
    if not vecs:
        return []
    n = len(vecs[0])
    # Arrange the vectors as columns and column-reduce.
    mat = [[vecs[j][i] for j in range(len(vecs))] for i in range(n)]
    h, _, pivots = hermite_normal_form(mat)
    return [[h[i][c] for i in range(n)] for _, c in pivots]


def smith_normal_form(
    a: Sequence[Sequence[int]],
) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Smith normal form: returns ``(u, s, v)`` with ``u a v = s`` diagonal.

    Diagonal entries are nonnegative and each divides the next.
    """
    s = _copy_matrix(a)
    m = len(s)
    n = len(s[0]) if m else 0
    u = identity_matrix(m)
    v = identity_matrix(n)
    t = 0
    while t < m and t < n:
        pos = _smallest_nonzero(s, t)
        if pos is None:
            break
        i, j = pos
        _swap_rows_snf(s, u, i, t)
        _swap_cols_snf(s, v, j, t)
        clean = False
        while not clean:
            clean = True
            for i in range(t + 1, m):
                if s[i][t] != 0:
                    q = s[i][t] // s[t][t]
                    _add_row_snf(s, u, i, t, -q)
                    if s[i][t] != 0:
                        _swap_rows_snf(s, u, i, t)
                        clean = False
            for j in range(t + 1, n):
                if s[t][j] != 0:
                    q = s[t][j] // s[t][t]
                    _add_col_snf(s, v, j, t, -q)
                    if s[t][j] != 0:
                        _swap_cols_snf(s, v, j, t)
                        clean = False
        t += 1
    for t in range(min(m, n)):
        if s[t][t] < 0:
            _scale_row_snf(s, u, t, -1)
    # Enforce the divisibility chain d_t | d_{t+1}.
    changed = True
    while changed:
        changed = False
        for t in range(min(m, n) - 1):
            d0, d1 = s[t][t], s[t + 1][t + 1]
            if d0 != 0 and d1 % d0 != 0:
                _add_col_snf(s, v, t, t + 1, 1)
                # Re-diagonalize the 2x2 block.
                while s[t + 1][t] != 0 or s[t][t + 1] != 0:
                    if s[t + 1][t] != 0:
                        q = s[t + 1][t] // s[t][t]
                        _add_row_snf(s, u, t + 1, t, -q)
                        if s[t + 1][t] != 0:
                            _swap_rows_snf(s, u, t + 1, t)
                    if s[t][t + 1] != 0:
                        q = s[t][t + 1] // s[t][t]
                        _add_col_snf(s, v, t + 1, t, -q)
                        if s[t][t + 1] != 0:
                            _swap_cols_snf(s, v, t + 1, t)
                if s[t][t] < 0:
                    _scale_row_snf(s, u, t, -1)
                if s[t + 1][t + 1] < 0:
                    _scale_row_snf(s, u, t + 1, -1)
                changed = True
    return u, s, v


def _smallest_nonzero(s: list[list[int]], t: int) -> Optional[tuple[int, int]]:
    best = None
    for i in range(t, len(s)):
        for j in range(t, len(s[0])):
            if s[i][j] != 0:
                if best is None or abs(s[i][j]) < abs(s[best[0]][best[1]]):
                    best = (i, j)
    return best


def _swap_rows_snf(s, u, i, j):
    if i != j:
        s[i], s[j] = s[j], s[i]
        u[i], u[j] = u[j], u[i]


def _swap_cols_snf(s, v, i, j):
    if i != j:
        for row in s:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]


def _add_row_snf(s, u, dst, src, q):
    s[dst] = [x + q * y for x, y in zip(s[dst], s[src])]
    u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]


def _add_col_snf(s, v, dst, src, q):
    for row in s:
        row[dst] += q * row[src]
    for row in v:
        row[dst] += q * row[src]


def _scale_row_snf(s, u, i, c):
    s[i] = [c * x for x in s[i]]
    u[i] = [c * x for x in u[i]]


def matrix_rank(a: Sequence[Sequence[int]]) -> int:
    """Rank over Q (equivalently over Z): the pivot count of the Hermite form."""
    if not a or not a[0]:
        return 0
    return len(hermite_normal_form(a)[2])


# ---------------------------------------------------------------------------
# Exact rational linear programming.
# ---------------------------------------------------------------------------

LE = "<="
GE = ">="
EQ = "=="


@dataclass(frozen=True)
class LpResult:
    """Outcome of ``lp_optimize``: exactly one of the three variants."""

    status: str  # "optimal" | "unbounded" | "infeasible"
    value: Optional[Fraction] = None
    point: Optional[tuple[Fraction, ...]] = None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def lp_optimize(
    objective: Sequence[Fraction | int],
    constraints: Sequence[tuple[Sequence[Fraction | int], str, Fraction | int]],
) -> LpResult:
    """Maximize ``objective . x`` over free variables, exactly.

    ``constraints`` is a list of ``(coefficients, relation, rhs)`` with
    relation one of ``"<="``, ``">="``, ``"=="``.  Two-phase primal
    simplex with Bland's rule (termination guaranteed with exact
    arithmetic).  Returns Optimal(value, point), Unbounded or
    Infeasible.
    """
    n = len(objective)
    obj = [Fraction(c) for c in objective]
    # Free variables are split x = u - w with u, w >= 0.
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    slack_signs: list[int] = []  # +1 for <=, -1 for >=, 0 for ==
    for coeffs, rel, b in constraints:
        if len(coeffs) != n:
            raise ValueError("constraint dimension mismatch")
        row = [Fraction(c) for c in coeffs]
        bb = Fraction(b)
        if rel == GE:
            row = [-c for c in row]
            bb = -bb
            rel = LE
        if rel == LE:
            slack_signs.append(1)
        elif rel == EQ:
            slack_signs.append(0)
        else:
            raise ValueError(f"unknown relation {rel!r}")
        rows.append(row)
        rhs.append(bb)

    m = len(rows)
    num_slack = sum(1 for s in slack_signs if s != 0)
    total = 2 * n + num_slack + m  # split vars, slacks, artificials
    tableau: list[list[Fraction]] = []
    slack_at = 2 * n
    art_at = 2 * n + num_slack
    basis: list[int] = []
    si = 0
    for i in range(m):
        row = [Fraction(0)] * (total + 1)
        for j in range(n):
            row[j] = rows[i][j]
            row[n + j] = -rows[i][j]
        if slack_signs[i] != 0:
            row[slack_at + si] = Fraction(1)
            si += 1
        row[art_at + i] = Fraction(1)
        row[total] = rhs[i]
        if rhs[i] < 0:
            row = [-c for c in row]
            row[art_at + i] = Fraction(1)  # keep the artificial usable
        tableau.append(row)
        basis.append(art_at + i)

    # Phase 1: minimize the sum of artificials.
    cost1 = [Fraction(0)] * total
    for i in range(m):
        cost1[art_at + i] = Fraction(-1)  # maximize -(sum of artificials)
    status = _simplex(tableau, basis, cost1, total)
    assert status == "optimal"  # phase 1 is always bounded
    phase1 = sum(tableau[i][total] for i in range(m) if basis[i] >= art_at)
    if phase1 != 0:
        return LpResult("infeasible")
    # Pivot remaining artificials out of the basis where possible.
    for i in range(m):
        if basis[i] >= art_at:
            for j in range(art_at):
                if tableau[i][j] != 0:
                    _pivot(tableau, basis, i, j)
                    break
    # Phase 2: the artificials are frozen at zero.
    cost2 = [Fraction(0)] * total
    for j in range(n):
        cost2[j] = obj[j]
        cost2[n + j] = -obj[j]
    status = _simplex(tableau, basis, cost2, total, forbidden_from=art_at)
    if status == "unbounded":
        return LpResult("unbounded")
    solution = [Fraction(0)] * total
    for i, bj in enumerate(basis):
        solution[bj] = tableau[i][total]
    point = tuple(solution[j] - solution[n + j] for j in range(n))
    value = sum(o * p for o, p in zip(obj, point))
    # Exactness check: the point satisfies every constraint.
    for coeffs, rel, b in constraints:
        lhs = sum(Fraction(c) * p for c, p in zip(coeffs, point))
        bb = Fraction(b)
        if rel == LE:
            assert lhs <= bb
        elif rel == GE:
            assert lhs >= bb
        else:
            assert lhs == bb
    return LpResult("optimal", value, point)


def _simplex(
    tableau: list[list[Fraction]],
    basis: list[int],
    cost: list[Fraction],
    total: int,
    forbidden_from: Optional[int] = None,
) -> str:
    """Primal simplex on a tableau in canonical form; Bland's rule."""
    m = len(tableau)
    while True:
        # Reduced costs.
        reduced = list(cost)
        shift = Fraction(0)
        for i, bj in enumerate(basis):
            cb = cost[bj]
            if cb != 0:
                for j in range(total):
                    reduced[j] -= cb * tableau[i][j]
                shift += cb * tableau[i][total]
        entering = -1
        for j in range(total):
            if forbidden_from is not None and j >= forbidden_from:
                continue
            if j in basis:
                continue
            if reduced[j] > 0:
                entering = j
                break
        if entering < 0:
            return "optimal"
        leaving = -1
        best = None
        for i in range(m):
            if tableau[i][entering] > 0:
                ratio = tableau[i][total] / tableau[i][entering]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving < 0:
            return "unbounded"
        _pivot(tableau, basis, leaving, entering)


def _pivot(tableau: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tableau[row][col]
    tableau[row] = [c / piv for c in tableau[row]]
    for i in range(len(tableau)):
        if i != row and tableau[i][col] != 0:
            f = tableau[i][col]
            tableau[i] = [c - f * r for c, r in zip(tableau[i], tableau[row])]
    basis[row] = col
