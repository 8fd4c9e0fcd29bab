"""Shared fixtures: an empty CLI slot before each test, corpus access,
a brute-force domain oracle, a hand-frozen genus-2 diagram whose
differential counts rectangles, and the grid diagrams whose
differentials count empty rectangles."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
import sympy
from sympy.matrices.normalforms import smith_normal_decomp

from hfhat import (
    ArcRef,
    Domain,
    Generator,
    HeegaardDiagram,
    Region,
    boundary_system,
    maslov_index,
    validate,
)
from hfhat.corpus import build

SMALL_NAMES = [
    "s3_g1",
    "s1s2_g1",
    "s1s2_bad",
    "s1s2_wind",
    "lens(2,1)",
    "lens(3,1)",
    "lens(3,2)",
    "lens(5,2)",
    "gsph(2)",
]

ADMISSIBLE_NAMES = [n for n in SMALL_NAMES if n not in ("s1s2_bad", "s1s2_wind")]


@pytest.fixture(autouse=True)
def empty_cli_slot():
    """Each test starts with nothing held by ``hfhat.cli._load``, so
    that counts of parses, LPs and partitions made through ``run`` do
    not depend on which test loaded the same file text before."""
    import hfhat.cli

    hfhat.cli._held = None


@pytest.fixture(scope="session")
def corpus_small():
    return {name: build(name) for name in SMALL_NAMES}


_GRID_CACHE = {}


@pytest.fixture
def simplex_runs(monkeypatch):
    """Count ``exactla._simplex`` runs: the list gets each run's row count."""
    from hfhat import exactla

    runs = []
    real = exactla._simplex

    def counted(rows, basis, basic, d):
        runs.append(len(rows) - 1)
        return real(rows, basis, basic, d)

    monkeypatch.setattr(exactla, "_simplex", counted)
    return runs


def _grid_images(d, cap):
    key = (d, cap)
    if key not in _GRID_CACHE:
        sys_ = boundary_system(d)
        a = np.array(
            [list(r) for r in sys_.l_alpha] + [list(r) for r in sys_.l_beta],
            dtype=np.int64,
        )
        f = len(d.regions)
        grid = np.array(
            list(itertools.product(range(cap + 1), repeat=f)), dtype=np.int64
        )
        _GRID_CACHE[key] = (grid, a @ grid.T)
    return _GRID_CACHE[key]


def brute_force_domains(d, x, y, target_index, nz, cap=3):
    """All domains x -> y with coefficients in 0..cap, given index and n_z.

    Independent oracle: enumerate the full coefficient grid and test the
    boundary equations directly.
    """
    sys_ = boundary_system(d)
    pts = {p: i for i, p in enumerate(sys_.points)}
    cx = np.zeros(len(sys_.points), dtype=np.int64)
    cy = np.zeros(len(sys_.points), dtype=np.int64)
    for p in x.points:
        cx[pts[p]] += 1
    for p in y.points:
        cy[pts[p]] += 1
    rhs = np.concatenate([cy - cx, cx - cy])
    grid, images = _grid_images(d, cap)
    match = np.all(images == rhs[:, None], axis=0)
    out = []
    for vec in grid[match]:
        coeffs = tuple(int(c) for c in vec)
        if coeffs[d.basepoint] != nz:
            continue
        dom = Domain(coeffs, x, y)
        if maslov_index(d, dom) == target_index:
            out.append(dom)
    out.sort(key=lambda dom: dom.coefficients)
    return out


def smith_solvability(a):
    """Oracle for integer solvability of ``a x = b``, from sympy's Smith
    form ``s = u a v``: returns a test of ``b``, which passes exactly
    when each entry of ``u b`` is a multiple of its invariant factor
    (zero past the rank)."""
    s, u, _ = smith_normal_decomp(sympy.Matrix(a), sympy.ZZ)
    factors = [s[i, i] if i < s.cols else 0 for i in range(s.rows)]

    def solvable(b):
        y = u * sympy.Matrix(b)
        return all(v % f == 0 if f else v == 0 for v, f in zip(y, factors))

    return solvable


def connecting_rhs(d, x, y):
    """``chi_y - chi_x`` over ``boundary_system(d).points``: the right-hand
    side ``b(x, y)`` of ``l_alpha n = b`` for domains from x to y."""
    index = {p: i for i, p in enumerate(boundary_system(d).points)}
    b = [0] * len(index)
    for p in y.points:
        b[index[p]] += 1
    for p in x.points:
        b[index[p]] -= 1
    return b


def curve(d, family, index):
    """The points of curve ``index`` of ``family`` ("a" or "b"), in order."""
    return (d.alpha if family == "a" else d.beta)[index]


def arc_endpoints(d, ref):
    """(tail, head) of the arc ``ref`` names, ignoring ``ref.dir``: an
    oracle read off the curve, apart from the arc walk's table."""
    points = curve(d, ref.curve, ref.index)
    return points[ref.arc], points[(ref.arc + 1) % len(points)]


def reference_one_piece(d, regions, families):
    """Do ``regions``, glued where two of them share an arc of a curve in
    ``families``, form one piece?  A union-find over the regions' own arc
    references, apart from the arc walk that hfhat glues over."""
    parent = {ri: ri for ri in regions}

    def root(ri):
        while parent[ri] != ri:
            parent[ri] = parent[parent[ri]]
            ri = parent[ri]
        return ri

    first_side = {}
    for ri in parent:
        for cyc in d.regions[ri].cycles:
            for ref in cyc:
                if ref.curve in families:
                    other = first_side.setdefault((ref.curve, ref.index, ref.arc), ri)
                    parent[root(ri)] = root(other)
    return len({root(ri) for ri in parent}) <= 1


def _a(index, arc, dir):
    return ArcRef("a", index, arc, dir)


def _b(index, arc, dir):
    return ArcRef("b", index, arc, dir)


def rectangle_diagram() -> HeegaardDiagram:
    """Genus-2 diagram: each alpha_i meets each beta_j once (points p_ij).

    Two generators {p00,p11} and {p01,p10} in one class; the two square
    regions off the basepoint are both index-1 rectangles between them,
    so the differential cancels mod 2.
    """
    r0 = Region(0, ((_a(0, 0, 1), _b(1, 0, 1), _a(1, 1, 1), _b(0, 1, 1)),))
    r1 = Region(
        0,
        (
            (_a(0, 0, -1), _b(0, 0, 1), _a(1, 1, -1), _b(1, 1, 1)),
            (_a(0, 1, 1), _b(0, 1, -1), _a(1, 0, 1), _b(1, 0, -1)),
        ),
    )
    r2 = Region(0, ((_a(0, 1, -1), _b(1, 1, -1), _a(1, 0, -1), _b(0, 0, -1)),))
    d = HeegaardDiagram(
        2,
        (("p00", "p01"), ("p10", "p11")),
        (("p00", "p10"), ("p01", "p11")),
        (r0, r1, r2),
        1,
    )
    assert validate(d).ok
    return d


def grid_diagram(n: int) -> HeegaardDiagram:
    """The n x n grid on the torus, made genus n by joining its diagonal
    squares into one basepoint region (Manolescu-Ozsvath-Sarkar,
    arXiv:math/0607691, with every O on the diagonal).

    alpha_i meets beta_j at p_ij; square (i, j) is bounded by alpha_i,
    beta_{j+1}, alpha_{i+1} and beta_j (indices mod n).  Each
    off-diagonal square is a region; the n diagonal squares together are
    one genus-0 region with n boundary cycles.  HF-hat is that of
    #^{n-1}(S^1 x S^2).
    """
    points = [[f"p{i}{j}" for j in range(n)] for i in range(n)]

    def square(i, j):
        up, right = (i + 1) % n, (j + 1) % n
        return (_a(i, j, 1), _b(right, i, 1), _a(up, j, -1), _b(j, i, -1))

    off = [Region(0, (square(i, j),)) for i in range(n) for j in range(n) if i != j]
    diagonal = Region(0, tuple(square(i, i) for i in range(n)))
    alpha = tuple(tuple(row) for row in points)
    beta = tuple(tuple(points[i][j] for i in range(n)) for j in range(n))
    return HeegaardDiagram(n, alpha, beta, (*off, diagonal), len(off))


def gen(*points) -> Generator:
    return Generator(tuple(points))
