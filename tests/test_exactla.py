"""Exact linear algebra against independent oracles (sympy, scipy)."""

import random
from fractions import Fraction

import pytest
import sympy
from scipy.optimize import linprog

from hfhat.exactla import (
    EQ,
    GE,
    LE,
    canonical_basis,
    column_echelon,
    combine,
    hermite_normal_form,
    hermite_reduce,
    hermite_solve,
    identity_matrix,
    lp_optimize,
    mat_vec,
    vanishing_sublattice,
)

from conftest import SMALL_NAMES, smith_solvability

RNG = random.Random(20260824)
# Draws for the back-substitution cases, kept apart so RNG's sequence is unchanged.
REDUCE_RNG = random.Random(20261017)
# Draws for already-reduced right-hand sides, kept apart from both.
REDUCED_RNG = random.Random(20261018)


def random_matrix(rows, cols, lo=-4, hi=4):
    return [[RNG.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def T(a):
    """The transpose: rows to columns, or columns to rows."""
    return [list(col) for col in zip(*a)]


def det(a):
    return int(sympy.Matrix(a).det())


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (3, 2), (3, 3), (4, 5), (5, 4)])
def test_hnf_properties(shape):
    rows, cols = shape
    for _ in range(20):
        a = random_matrix(rows, cols)
        h_columns, u_columns, pivots = hermite_normal_form(T(a))
        h, u = T(h_columns), T(u_columns)
        assert mat_mul(a, u) == h
        assert abs(det(u)) == 1
        for r, c in pivots:
            assert h[r][c] > 0
            # entries left of a pivot are reduced mod the pivot
            for cc in range(c):
                assert 0 <= h[r][cc] < h[r][c]
        b = [REDUCE_RNG.randint(-9, 9) for _ in range(rows)]
        y, rem = hermite_reduce(h_columns, pivots, b)
        assert [hy + r for hy, r in zip(mat_vec(h, y), rem)] == b
        for r, c in pivots:
            assert 0 <= rem[r] < h[r][c]
        z = [REDUCE_RNG.randint(-3, 3) for _ in range(cols)]
        shifted = [v + w for v, w in zip(b, mat_vec(a, z))]
        assert hermite_reduce(h_columns, pivots, shifted)[1] == rem
        # Already reduced: every quotient is 0 and nothing moves.
        pivot_of = {r: h[r][c] for r, c in pivots}
        reduced = [
            REDUCED_RNG.randrange(pivot_of[i]) if i in pivot_of else REDUCED_RNG.randint(-9, 9)
            for i in range(rows)
        ]
        for vec in (rem, reduced):
            assert hermite_reduce(h_columns, pivots, vec) == ([0] * cols, vec)


def test_hermite_solve_constructed_solutions():
    for _ in range(40):
        rows, cols = RNG.randint(1, 4), RNG.randint(1, 5)
        a = random_matrix(rows, cols)
        x0 = [RNG.randint(-3, 3) for _ in range(cols)]
        b = mat_vec(a, x0)
        solved = hermite_solve(a, b)
        assert solved is not None
        particular, kernel = solved
        assert mat_vec(a, particular) == b
        for k in kernel:
            assert mat_vec(a, k) == [0] * rows
        # the difference x0 - particular must lie in the kernel lattice
        diff = [p - q for p, q in zip(x0, particular)]
        if kernel:
            sub = hermite_solve([[k[i] for k in kernel] for i in range(cols)], diff)
            assert sub is not None
        else:
            assert diff == [0] * cols


def test_hermite_solve_matches_snf_solvability():
    agree_solvable = agree_unsolvable = 0
    for _ in range(60):
        rows, cols = RNG.randint(1, 3), RNG.randint(1, 4)
        a = random_matrix(rows, cols, -3, 3)
        b = [RNG.randint(-5, 5) for _ in range(rows)]
        got = hermite_solve(a, b) is not None
        want = smith_solvability(a)(b)
        assert got == want
        h, _, pivots = hermite_normal_form(T(a))
        assert (not any(hermite_reduce(h, pivots, b)[1])) == got
        if got:
            agree_solvable += 1
        else:
            agree_unsolvable += 1
    assert agree_solvable and agree_unsolvable


def test_canonical_basis_is_canonical():
    vecs = [[2, 4, 0], [0, 6, 0], [2, 10, 0]]
    b1 = canonical_basis(vecs)
    b2 = canonical_basis(list(reversed(vecs)) + [[4, 14, 0]])
    assert b1 == b2
    assert len(b1) == 2


# ---------------------------------------------------------------------------
# Reference Hermite form: the loop that reduces the entries left of each
# pivot as soon as the pivot is found, which hermite_normal_form split
# into column_echelon and one pass over the pivots afterwards.
# ---------------------------------------------------------------------------


def _reference_hnf(a):
    h = [list(row) for row in a]
    m = len(h)
    n = len(h[0]) if m else 0
    u = identity_matrix(n)

    def swap(j, k):
        for rows in (h, u):
            for row in rows:
                row[j], row[k] = row[k], row[j]

    def add(dst, src, q):
        for rows in (h, u):
            for row in rows:
                row[dst] += q * row[src]

    pivots = []
    c = 0
    for i in range(m):
        if c >= n:
            break
        while True:
            nz = [j for j in range(c, n) if h[i][j] != 0]
            if not nz:
                break
            if len(nz) == 1:
                if nz[0] != c:
                    swap(nz[0], c)
                break
            j = min(nz, key=lambda k: (abs(h[i][k]), k))
            if j != c:
                swap(j, c)
            for k in range(c + 1, n):
                if h[i][k] != 0:
                    add(k, c, -(h[i][k] // h[i][c]))
        if h[i][c] == 0:
            continue
        if h[i][c] < 0:
            for rows in (h, u):
                for row in rows:
                    row[c] = -row[c]
        for k in range(c):
            q = h[i][k] // h[i][c]
            if q != 0:
                add(k, c, -q)
        pivots.append((i, c))
        c += 1
    return h, u, pivots


def _oracle_matrix(rng):
    """A seeded integer matrix of 1..7 rows and columns: entries in
    [-5, 5], sometimes scaled so no pivot is a unit, sometimes with zero
    rows or columns, sometimes with rows that combine earlier rows."""
    rows, cols = rng.randint(1, 7), rng.randint(1, 7)
    a = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
    kind = rng.randrange(5)
    if kind == 1:
        scale = rng.choice((2, 3, -2, 6))
        a = [[scale * v for v in row] for row in a]
    elif kind == 2:
        for i in rng.sample(range(rows), rng.randint(1, rows)):
            a[i] = [0] * cols
        for j in rng.sample(range(cols), rng.randint(0, cols - 1)):
            for row in a:
                row[j] = 0
    elif kind == 3 and rows > 1:
        for i in range(1, rows):
            if rng.random() < 0.6:
                f, g = rng.randint(-2, 2), rng.randint(-2, 2)
                k = rng.randrange(i)
                a[i] = [f * x + g * y for x, y in zip(a[k], a[0])]
    elif kind == 4:
        a = [[v if rng.random() < 0.3 else 0 for v in row] for row in a]
    return a


def test_hnf_and_echelon_match_the_interleaved_loop():
    """hermite_normal_form returns exactly the interleaved loop's
    (h, u, pivots); column_echelon has its pivots and kernel columns,
    reduces every right-hand side to the same remainder, and its
    quotient gives the same u y."""
    rng = random.Random(20261019)
    ranks, unit_free, deficient = set(), 0, 0
    for _ in range(2400):
        a = _oracle_matrix(rng)
        rows, cols = len(a), len(a[0])
        want = _reference_hnf(a)
        h, u, pivots = hermite_normal_form(T(a))
        assert (T(h), T(u), pivots) == want, a
        h_ref, u_ref, pivots = want
        h_columns, u_columns, echelon_pivots = column_echelon(T(a))
        h, u = T(h_columns), T(u_columns)
        assert echelon_pivots == pivots, a
        assert mat_mul(a, u) == h
        for r, c in pivots:
            assert h[r][c] > 0
            assert all(h[i][c] == 0 for i in range(r))
        rank = len(pivots)
        assert [row[rank:] for row in u] == [row[rank:] for row in u_ref], a
        for _ in range(3):
            b = [rng.randint(-12, 12) for _ in range(rows)]
            y_ref, r_ref = hermite_reduce(T(h_ref), pivots, b)
            y, r = hermite_reduce(h_columns, pivots, b)
            assert r == r_ref, (a, b)
            assert mat_vec(u, y) == mat_vec(u_ref, y_ref), (a, b)
        ranks.add(rank)
        unit_free += bool(pivots) and all(h[r][c] > 1 for r, c in pivots)
        deficient += rank < min(rows, cols)
    assert ranks == set(range(8))
    assert unit_free > 100 and deficient > 500


def _two_step_vanishing_sublattice(basis, values):
    """The route vanishing_sublattice took before it read the kernel off
    the echelon transform: the canonical kernel basis from hermite_solve,
    combined with ``basis``, then canonicalized again."""
    if not basis:
        return []
    _, combos = hermite_solve([list(values)], [0])
    n = len(basis[0])
    return canonical_basis(
        [[sum(c * vec[i] for c, vec in zip(combo, basis)) for i in range(n)] for combo in combos]
    )


def test_vanishing_sublattice_matches_two_step_route():
    """One canonicalization gives the two-step route's basis: the
    canonical basis of a lattice is unique.  Seeded bases, dependent and
    zero vectors included, with integer functionals f that vanish on
    some, all or none of them; every vector returned lies in the span
    and has f = 0 on it."""
    rng = random.Random(20261020)
    kinds = set()
    for _ in range(600):
        k, n = rng.randint(0, 5), rng.randint(1, 5)
        basis = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(k)]
        if k >= 2 and rng.random() < 0.3:
            basis[-1] = [x + 2 * y for x, y in zip(basis[0], basis[1])]
        f = [rng.randint(-3, 3) if rng.random() < 0.8 else 0 for _ in range(n)]
        values = [sum(a * b for a, b in zip(f, vec)) for vec in basis]
        got = vanishing_sublattice(basis, values)
        assert got == _two_step_vanishing_sublattice(basis, values), (basis, values)
        for vec in got:
            assert sum(a * b for a, b in zip(f, vec)) == 0
            assert hermite_solve([list(col) for col in zip(*basis)], vec) is not None
        kinds.add((bool(basis), any(values), len(got)))
    assert {(False, False, 0), (True, False, 1), (True, True, 1), (True, True, 3)} <= kinds


def test_combine_matches_mat_vec_on_the_transpose():
    """``combine(columns, coeffs)`` is ``mat_vec`` of the matrix whose
    columns they are, also when every coefficient (or every column
    entry) is zero."""
    rng = random.Random(20261021)
    zero_coeffs = 0
    for _ in range(500):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        columns = [
            [rng.randint(-5, 5) if rng.random() < 0.6 else 0 for _ in range(rows)] for _ in range(cols)
        ]
        coeffs = [rng.randint(-3, 3) if rng.random() < 0.5 else 0 for _ in range(cols)]
        assert combine(columns, coeffs) == mat_vec(T(columns), coeffs), (columns, coeffs)
        zero_coeffs += not any(coeffs)
    assert zero_coeffs > 10
    assert combine([[0, 0], [0, 0]], [1, -1]) == [0, 0]
    assert combine([], []) == []


def test_identity_and_mat_ops():
    a = [[1, 2], [3, 4]]
    assert mat_mul(a, identity_matrix(2)) == a
    assert mat_vec(a, [1, -1]) == [-1, -1]


def test_lp_simple_bounded():
    # maximize x + y with x <= 2, y <= 3, x + y <= 4
    res = lp_optimize(
        [1, 1],
        [([1, 0], LE, 2), ([0, 1], LE, 3), ([1, 1], LE, 4), ([1, 0], GE, 0), ([0, 1], GE, 0)],
    )
    assert res.optimal and res.value == 4


def test_lp_infeasible():
    res = lp_optimize([1], [([1], GE, 2), ([1], LE, 1)])
    assert res.status == "infeasible"


def test_lp_unbounded():
    res = lp_optimize([1], [([1], GE, 0)])
    assert res.status == "unbounded"


def test_lp_equality_and_fractions():
    # maximize y subject to 2x + 3y == 6, y <= 1, x free
    res = lp_optimize([0, 1], [([2, 3], EQ, 6), ([0, 1], LE, 1)])
    assert res.optimal and res.value == 1
    x, y = res.point
    assert 2 * x + 3 * y == 6 and y == 1


def test_lp_random_against_scipy():
    checked = 0
    for _ in range(60):
        n = RNG.randint(1, 3)
        m = RNG.randint(1, 4)
        obj = [RNG.randint(-3, 3) for _ in range(n)]
        cons = []
        for _ in range(m):
            row = [RNG.randint(-3, 3) for _ in range(n)]
            cons.append((row, RNG.choice([LE, GE]), RNG.randint(-4, 4)))
        # box the problem so scipy and we agree on boundedness
        for i in range(n):
            unit = [0] * n
            unit[i] = 1
            cons.append((unit, LE, 10))
            cons.append((unit, GE, -10))
        res = lp_optimize(obj, cons)
        a_ub, b_ub = [], []
        for row, rel, rhs in cons:
            if rel == LE:
                a_ub.append(row)
                b_ub.append(rhs)
            else:
                a_ub.append([-c for c in row])
                b_ub.append(-rhs)
        ref = linprog([-c for c in obj], A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * n)
        if ref.status == 2:
            assert res.status == "infeasible"
        else:
            assert ref.status == 0 and res.optimal
            assert abs(float(res.value) + ref.fun) < 1e-7
            # exactness of the returned point
            for row, rel, rhs in cons:
                lhs = sum(Fraction(c) * p for c, p in zip(row, res.point))
                assert lhs <= rhs if rel == LE else lhs >= rhs
            checked += 1
    assert checked > 10


# ---------------------------------------------------------------------------
# Reference simplex: the rational tableau that lp_optimize's integer tableau
# replaced.  Same two phases, same Bland's rule, Fraction arithmetic.
# ---------------------------------------------------------------------------


def _reference_lp(objective, constraints, start="slack", pivots=None):
    """``start="slack"`` is lp_optimize's initial basis: a row whose slack
    enters with +1 at a nonnegative rhs starts on it, every other row on
    an artificial.  ``start="artificial"`` gives every row an artificial,
    a different path to the same optimal value.  ``pivots``, when given,
    gets every pivot as ``(row, entering)``, with the columns in the
    order u, w, slacks, artificials."""
    if pivots is None:
        pivots = []
    n = len(objective)
    obj = [Fraction(c) for c in objective]
    rows, rhs, slack_signs = [], [], []
    for coeffs, rel, b in constraints:
        row = [Fraction(c) for c in coeffs]
        bb = Fraction(b)
        if rel == GE:
            row, bb, rel = [-c for c in row], -bb, LE
        slack_signs.append(1 if rel == LE else 0)
        rows.append(row)
        rhs.append(bb)
    m = len(rows)
    if start == "slack":
        needs_art = [not s or b < 0 for s, b in zip(slack_signs, rhs)]
    else:
        needs_art = [True] * m
    num_slack = sum(slack_signs)
    slack_at, art_at = 2 * n, 2 * n + num_slack
    total = art_at + sum(needs_art)
    tableau, basis, si, ai = [], [], 0, 0
    for i in range(m):
        row = [Fraction(0)] * (total + 1)
        for j in range(n):
            row[j] = rows[i][j]
            row[n + j] = -rows[i][j]
        if slack_signs[i]:
            row[slack_at + si] = Fraction(1)
            si += 1
        row[total] = rhs[i]
        if needs_art[i]:
            if rhs[i] < 0:
                row = [-c for c in row]
            row[art_at + ai] = Fraction(1)
            basis.append(art_at + ai)
            ai += 1
        else:
            basis.append(slack_at + si - 1)
        tableau.append(row)
    if total > art_at:
        cost1 = [Fraction(0)] * art_at + [Fraction(-1)] * (total - art_at)
        assert _reference_simplex(tableau, basis, cost1, total, pivots) == "optimal"
        if sum(tableau[i][total] for i in range(m) if basis[i] >= art_at) != 0:
            return "infeasible", None, None
        for i in range(m):
            if basis[i] >= art_at:
                for j in range(art_at):
                    if tableau[i][j] != 0:
                        _reference_pivot(tableau, basis, i, j, pivots)
                        break
    cost2 = obj + [-c for c in obj] + [Fraction(0)] * (total - 2 * n)
    if _reference_simplex(tableau, basis, cost2, total, pivots, art_at) == "unbounded":
        return "unbounded", None, None
    solution = [Fraction(0)] * total
    for i, bj in enumerate(basis):
        solution[bj] = tableau[i][total]
    point = tuple(solution[j] - solution[n + j] for j in range(n))
    return "optimal", sum(o * p for o, p in zip(obj, point)), point


def _reference_simplex(tableau, basis, cost, total, pivots, forbidden_from=None):
    m = len(tableau)
    while True:
        reduced = list(cost)
        for i, bj in enumerate(basis):
            if cost[bj] != 0:
                for j in range(total):
                    reduced[j] -= cost[bj] * tableau[i][j]
        entering = next(
            (
                j
                for j in range(total if forbidden_from is None else forbidden_from)
                if j not in basis and reduced[j] > 0
            ),
            -1,
        )
        if entering < 0:
            return "optimal"
        leaving, best = -1, None
        for i in range(m):
            if tableau[i][entering] > 0:
                ratio = tableau[i][total] / tableau[i][entering]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best, leaving = ratio, i
        if leaving < 0:
            return "unbounded"
        _reference_pivot(tableau, basis, leaving, entering, pivots)


def _reference_pivot(tableau, basis, row, col, pivots):
    pivots.append((row, col))
    piv = tableau[row][col]
    tableau[row] = [c / piv for c in tableau[row]]
    for i in range(len(tableau)):
        if i != row and tableau[i][col] != 0:
            f = tableau[i][col]
            tableau[i] = [c - f * r for c, r in zip(tableau[i], tableau[row])]
    basis[row] = col


# Draws for the reference-simplex cases, kept apart so RNG's sequence is unchanged.
LP_RNG = random.Random(20261018)


# Draws for the pivot-path cases, kept apart from LP_RNG.
PATH_RNG = random.Random(20261020)


def _lp_entry(rng, zero=0.3):
    if rng.random() < zero:
        return 0
    v = rng.randint(-4, 4)
    return Fraction(v, rng.randint(1, 6)) if rng.random() < 0.4 else v


def _random_lp(rng, max_vars, max_rows):
    """An LP with fractional data, equality rows (duplicated, so an
    artificial is pivoted out), zero right-hand sides, and boxed or free
    variables."""
    n = rng.randint(1, max_vars)
    obj = [_lp_entry(rng) for _ in range(n)]
    cons = []
    while len(cons) < rng.randint(1, max_rows):
        rel = rng.choice([LE, GE, EQ])
        row = [_lp_entry(rng) for _ in range(n)]
        b = 0 if rng.random() < 0.3 else _lp_entry(rng, 0)
        cons.append((row, rel, b))
        if rel == EQ and rng.random() < 0.3:
            cons.append((row, EQ, b))
    if rng.random() < 0.5:
        for i in range(n):
            unit = [0] * n
            unit[i] = 1
            cons += [(unit, LE, rng.randint(0, 5)), (unit, GE, -rng.randint(0, 5))]
    return obj, cons


@pytest.mark.parametrize("size", [(3, 5), (6, 12), (10, 21)])
def test_lp_matches_reference_simplex(size):
    """Same status, value and point as the rational tableau, on
    ``_random_lp``'s LPs."""
    statuses = set()
    for _ in range(40):
        obj, cons = _random_lp(LP_RNG, *size)
        res = lp_optimize(obj, cons)
        want = _reference_lp(obj, cons)
        assert (res.status, res.value, res.point) == want
        # The optimal value does not depend on the starting basis.
        assert _reference_lp(obj, cons, start="artificial")[:2] == want[:2]
        statuses.add(res.status)
    assert statuses == {"optimal", "unbounded", "infeasible"}


def test_lp_certificate_shape_matches_reference():
    """An area-certificate LP: equalities with a half-integer right-hand
    side, one total-area row, and the margin variable m <= a_i <= 1."""
    for _ in range(3):
        regions = 9
        cons = []
        for _ in range(LP_RNG.randint(1, 3)):
            vec = [LP_RNG.randint(-2, 2) for _ in range(regions)]
            cons.append((vec + [0], EQ, Fraction(LP_RNG.randint(-3, 3), 2)))
        cons.append(([1] * regions + [0], EQ, 1))
        for i in range(regions):
            gap = [0] * (regions + 1)
            gap[i], gap[regions] = 1, -1
            cap = [0] * (regions + 1)
            cap[i] = 1
            cons += [(gap, GE, 0), (cap, LE, 1)]
        obj = [0] * regions + [1]
        res = lp_optimize(obj, cons)
        want = _reference_lp(obj, cons)
        assert (res.status, res.value, res.point) == want
        assert _reference_lp(obj, cons, start="artificial")[:2] == want[:2]


def test_lp_on_slack_basis_runs_phase_two_only(simplex_runs):
    """LE rows with b >= 0 and GE rows with b <= 0 start on their slacks,
    so there is no phase 1; one EQ row brings it back."""
    boxed = [([1, 0], LE, 2), ([0, 1], LE, 3), ([1, 1], LE, 4), ([1, 0], GE, 0), ([0, 1], GE, -1)]
    res = lp_optimize([1, 1], boxed)
    assert res.optimal and res.value == 4 and res.point == (2, 2)
    assert simplex_runs == [5]
    res = lp_optimize([1, 1], boxed + [([1, -1], EQ, -1)])
    assert res.optimal and res.value == 4 and res.point == (Fraction(3, 2), Fraction(5, 2))
    assert simplex_runs == [5, 6, 6]


def test_phase_two_only_lp_still_checks_pivot_division(monkeypatch):
    """Hand the slack-basis LP's only simplex run, on a tableau with no
    artificial column, a wrong denominator on its cost row: its first
    pivot updates that row, divides inexactly and must raise."""
    from hfhat import exactla
    from hfhat.exactla import InternalError

    runs = []
    real = exactla._simplex

    def wrong_denominator(rows, dens, basis, basic, n, d):
        runs.append((d, len(rows[0]) - 1))
        dens[-1] *= 3
        return real(rows, dens, basis, basic, n, d)

    monkeypatch.setattr(exactla, "_simplex", wrong_denominator)
    with pytest.raises(InternalError, match="inexact division"):
        lp_optimize([1, 1], [([1, 0], LE, 2), ([0, 1], LE, 3)])
    # d = 1, and the stored columns are u and the two slacks.
    assert runs == [(1, 4)]


def test_pivot_rejects_inexact_division():
    from hfhat.exactla import InternalError, _pivot

    # Over d = 3 these rows are no tableau of integer minors: 1 * 1 - 1 * 0
    # is not divisible by 3.
    rows = [[1, 0], [1, 1], [0, 0]]
    with pytest.raises(InternalError, match="inexact division"):
        _pivot(rows, [3, 3, 3], [0, 1], [True, True], 0, 3, 0, 0)


def test_pivot_rejects_inexact_division_on_the_pivot_row_support():
    """A row over the pivot p itself (p != 1) changes only where the
    pivot row is nonzero, and those divisions are checked too."""
    from hfhat.exactla import InternalError, _pivot

    # Row 1 is over den == p == 2: 3 - 1 * 1 / 2 is no integer.
    rows = [[2, 0, 1], [1, 2, 3], [0, 0, 0]]
    with pytest.raises(InternalError, match="inexact division"):
        _pivot(rows, [2, 2, 2], [0, 1], [True, True], 0, 2, 0, 0)


def _record_pivots(monkeypatch):
    """``(pivots, cases)``: lp_optimize's pivots as ``(row, entering)``,
    with the columns in the order u, w, slacks, artificials, and the
    cases of its tableau that they met."""
    from hfhat import exactla

    pivots, cases, depth = [], set(), []
    real_simplex, real_pivot = exactla._simplex, exactla._pivot

    def simplex(*args):
        depth.append(True)
        try:
            return real_simplex(*args)
        finally:
            depth.pop()

    def pivot(rows, dens, basis, basic, n, d, row, col):
        k = col if col < n else col - n
        p = abs(rows[row][k]) * d // dens[row]
        if n <= col < 2 * n:
            cases.add("w enters")
        if n <= basis[row] < 2 * n:
            cases.add("w leaves")
        if dens[row] != d:
            cases.add("stale pivot row")
        if p != 1 and any(
            i != row and r[k] and den == p for i, (r, den) in enumerate(zip(rows, dens))
        ):
            cases.add("den == p != 1")
        if not depth:
            cases.add("artificial pivoted out")
        pivots.append((row, col))
        return real_pivot(rows, dens, basis, basic, n, d, row, col)

    monkeypatch.setattr(exactla, "_simplex", simplex)
    monkeypatch.setattr(exactla, "_pivot", pivot)
    return pivots, cases


def test_lp_pivots_match_reference_simplex(monkeypatch):
    """Not only the answer: lp_optimize makes the rational tableau's
    pivots, in order, on seeded LPs that between them meet every case of
    its stored tableau."""
    pivots, cases = _record_pivots(monkeypatch)
    for _ in range(150):
        obj, cons = _random_lp(PATH_RNG, 8, 16)
        want = []
        pivots.clear()
        assert lp_optimize(obj, cons) == _reference_lp(obj, cons, pivots=want)
        assert pivots == want
    assert cases == {
        "w enters",
        "w leaves",
        "stale pivot row",
        "den == p != 1",
        "artificial pivoted out",
    }


@pytest.mark.parametrize("name", [*SMALL_NAMES, "lens(7,2)", "gsph(3)", "grid(3)", "grid(4)"])
def test_lp_pivots_match_reference_on_diagrams(monkeypatch, name):
    """Every LP that ``homology`` and ``admissible --strong`` make on a
    diagram pivots as the rational tableau does."""
    from hfhat import admissibility, domains
    from hfhat import (
        NotAdmissible,
        UnboundedEnumeration,
        area_certificate,
        build,
        homology,
        spinc_partition,
        strong_admissible,
    )

    from conftest import grid_diagram

    pivots, _ = _record_pivots(monkeypatch)
    lps = []

    def recorded(objective, constraints):
        pivots.clear()
        res = lp_optimize(objective, constraints)
        lps.append((list(objective), constraints, res, list(pivots)))
        return res

    monkeypatch.setattr(domains, "lp_optimize", recorded)
    monkeypatch.setattr(admissibility, "lp_optimize", recorded)
    d = grid_diagram(int(name[5])) if name.startswith("grid") else build(name)
    try:
        homology(d)
    except (NotAdmissible, UnboundedEnumeration):
        pass
    for c in spinc_partition(d):
        if strong_admissible(d, c).verdict:
            area_certificate(d, "strong", c)
    assert lps
    for obj, cons, res, got in lps:
        want = []
        assert res == _reference_lp(obj, cons, pivots=want)
        assert got == want
