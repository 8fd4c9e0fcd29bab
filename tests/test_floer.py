"""Rigid-shape classification, the F2 differential, and homology."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, permutations
from math import comb, factorial, gcd
from pathlib import Path

import pytest

from hfhat import (
    Domain,
    Generator,
    GradedComplex,
    InternalError,
    NotCombinatorial,
    SpincClass,
    UnboundedEnumeration,
    classify_rigid,
    connected_sum,
    connecting_domain,
    differential,
    enumerate_generators,
    homology,
    positive_domains,
    spinc_partition,
    stabilize,
)
from hfhat.corpus import build
from hfhat.domains import _weak_witness
from hfhat.diagram import ALPHA, BETA, _arc_walk, _one_piece, quadrants
from hfhat.floer import (
    _CONTIGUOUS,
    BIGON,
    OTHER,
    RECTANGLE,
    RigidShape,
    _assert_d_squared_zero,
    _graded_ranks,
)
from hfhat.measures import _quarter_euler

from conftest import SMALL_NAMES, curve, gen, grid_diagram, rectangle_diagram, reference_one_piece


def test_s1s2_g1_bigons():
    d = build("s1s2_g1")
    theta, eta = gen("theta"), gen("eta")
    doms = positive_domains(d, theta, eta, 1, 0)
    assert len(doms) == 2
    for dom in doms:
        shape = classify_rigid(d, dom)
        assert shape.tag == BIGON
        assert len(shape.corners) == 2
    # no positive index-1 domains the other way
    assert positive_domains(d, eta, theta, 1, 0) == []


def test_s1s2_g1_differential_cancels():
    d = build("s1s2_g1")
    (c,) = spinc_partition(d)
    cx = differential(d, c)
    assert all(v == 0 for row in cx.matrix for v in row)
    assert len(cx.audit) == 2
    assert {tag for *_, tag in cx.audit} == {BIGON}


def test_s1s2_g1_homology_rank_two_adjacent_gradings():
    d = build("s1s2_g1")
    (rep,) = homology(d)
    assert rep.total == 2
    gradings = [k for k, v in rep.ranks if v]
    assert len(gradings) == 2 and abs(gradings[0] - gradings[1]) == 1


def test_rectangle_classification_and_cancellation():
    d = rectangle_diagram()
    x, y = enumerate_generators(d)
    doms = positive_domains(d, x, y, 1, 0)
    assert len(doms) == 2
    for dom in doms:
        assert classify_rigid(d, dom).tag == RECTANGLE
    (rep,) = homology(d)
    assert rep.total == 2


def test_strict_rectangles_flag():
    d = rectangle_diagram()
    (c,) = spinc_partition(d)
    # default: rectangles counted, they cancel mod 2
    cx = differential(d, c)
    assert all(v == 0 for row in cx.matrix for v in row)
    assert {tag for *_, tag in cx.audit} == {RECTANGLE}
    with pytest.raises(NotCombinatorial) as exc:
        differential(d, c, strict_rectangles=True)
    assert len(exc.value.offenders) == 2


def _glue_chi(d, support):
    """Euler characteristic of the closed support surface, by gluing the
    closures of the support regions along shared arcs: chi = sum
    chi(region) + #points on used arcs - #used arcs.  An oracle for the
    corner census that classify_rigid reads chi off."""
    arcs = set()
    for ri in support:
        for cyc in d.regions[ri].cycles:
            for ref in cyc:
                arcs.add((ref.curve, ref.index, ref.arc))
    pts = set()
    for curve_tag, index, k in arcs:
        points = curve(d, curve_tag, index)
        pts.add(points[k])
        pts.add(points[(k + 1) % len(points)])
    chi = sum(d.regions[ri].euler_char for ri in support)
    return chi + len(pts) - len(arcs)


def test_support_topology_helpers():
    """Disconnected or non-disk supports are what flags a shape Other."""
    d = build("s1s2_g1")
    bigons = {0, 1}
    assert not reference_one_piece(d, bigons, (ALPHA, BETA))
    assert not _one_piece(bigons, _arc_walk(d).sides)
    assert _glue_chi(d, {0}) == 1
    # annulus whose two boundary circles meet at both points
    assert _glue_chi(d, {2}) == -2
    assert _glue_chi(d, {0, 1, 2}) == 2 - 2 * d.genus


def _census_diagrams():
    names = SMALL_NAMES + ["lens(8,3)", "gsph(3)", "gsph(4)"]
    return [build(n) for n in names] + [
        rectangle_diagram(),
        connected_sum(build("lens(5,2)"), build("gsph(2)")),
        stabilize(build("lens(3,1)")),
    ]


def test_census_chi_matches_glue_walk():
    """On every support whose covered quadrants are contiguous at each
    point, 4 e(D) + #acute - #obtuse, the census classify_rigid tests,
    is 4 chi(S) of the glued support surface."""
    compared, pinched, chis, obtuse_seen = 0, 0, set(), 0
    for d in _census_diagrams():
        qs = quadrants(d)
        quarter_euler = _quarter_euler(d)
        for size in range(1, len(d.regions) + 1):
            for support in map(set, combinations(range(len(d.regions)), size)):
                census = [
                    frozenset(s for s, ri in enumerate(qs.quadrant_regions(p)) if ri in support)
                    for p in d.points
                ]
                if any(c and c not in _CONTIGUOUS for c in census):
                    pinched += 1
                    continue
                acute = sum(len(c) == 1 for c in census)
                obtuse = sum(len(c) == 3 for c in census)
                chi = _glue_chi(d, support)
                assert sum(quarter_euler[ri] for ri in support) + acute - obtuse == 4 * chi, (
                    d, support
                )
                compared += 1
                chis.add(chi)
                obtuse_seen += obtuse
    assert compared >= 200 and pinched >= 200
    assert obtuse_seen and {1, 0} <= chis and min(chis) < 0


def test_classify_rigid_disk_test_matches_glue_walk(monkeypatch):
    """classify_rigid's own census: on every support with contiguous
    quadrants and two or four acute corners, made a domain between
    point tuples that move exactly at those corners (embedded chi
    stubbed to a disk's), the shape is a Bigon or Rectangle exactly
    when the glued support is one piece of Euler characteristic 1.
    The tuples are not generators, which exported ``classify_rigid``
    refuses, so the census is read from its shape routine."""
    import hfhat.floer

    monkeypatch.setattr(
        hfhat.floer,
        "embedded_euler_char",
        lambda d, D: d.genus - len(D.from_gen.points) + 1,
    )
    checked, disks, obtuse_seen = 0, 0, 0
    for d in _census_diagrams():
        qs = quadrants(d)
        regions = [ri for ri in range(len(d.regions)) if ri != d.basepoint]
        for size in range(1, len(regions) + 1):
            for support in map(set, combinations(regions, size)):
                census = [
                    frozenset(s for s, ri in enumerate(qs.quadrant_regions(p)) if ri in support)
                    for p in d.points
                ]
                if any(c and c not in _CONTIGUOUS for c in census):
                    continue
                corners = [p for p, c in zip(d.points, census) if len(c) == 1]
                if len(corners) not in (2, 4):
                    continue
                half = len(corners) // 2
                coeffs = tuple(int(ri in support) for ri in range(len(d.regions)))
                dom = Domain(coeffs, Generator(tuple(corners[:half])), Generator(tuple(corners[half:])))
                disk = reference_one_piece(d, support, (ALPHA, BETA)) and _glue_chi(d, support) == 1
                assert (hfhat.floer._classify_rigid(d, dom).tag in (BIGON, RECTANGLE)) == disk, (d, support)
                checked += 1
                disks += disk
                obtuse_seen += sum(len(c) == 3 for c in census)
    assert checked > disks > 0 and obtuse_seen


def _classify_all_points(d, D):
    """classify_rigid past its preconditions, with the corner census over
    every point of the diagram: the oracle for the census over the
    support's corner points only."""
    import hfhat.floer

    coeffs = D.coefficients
    if any(c not in (0, 1) for c in coeffs):
        return RigidShape(OTHER, (), ())
    support = {i for i, c in enumerate(coeffs) if c == 1}
    if not support:
        return RigidShape(OTHER, (), ())
    sup = tuple(sorted(support))
    qs = quadrants(d)
    corner_pts = []
    obtuse = 0
    for p in d.points:
        covered = frozenset(s for s, ri in enumerate(qs.quadrant_regions(p)) if ri in support)
        if covered and covered not in _CONTIGUOUS:
            return RigidShape(OTHER, sup, ())
        if len(covered) == 1:
            corner_pts.append(p)
        elif len(covered) == 3:
            obtuse += 1
    if not reference_one_piece(d, support, (ALPHA, BETA)):
        return RigidShape(OTHER, sup, tuple(corner_pts))
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
    assert hfhat.floer.embedded_euler_char(d, D) == chi
    return RigidShape(tag, sup, tuple(sorted(corner_pts)))


def test_support_census_matches_all_points_census(monkeypatch):
    """On every 0/1 support away from the basepoint, pinched ones
    included, made a domain between point tuples that move at its acute
    corners (embedded chi stubbed to a disk's), classify_rigid's shape
    routine gives the shape and corners that a census over every point
    gives."""
    import hfhat.floer

    monkeypatch.setattr(
        hfhat.floer,
        "embedded_euler_char",
        lambda d, D: d.genus - len(D.from_gen.points) + 1,
    )
    diagrams = [build(n) for n in SMALL_NAMES + ["lens(8,3)", "gsph(3)"]] + [rectangle_diagram()]
    tags, pinched, listed = set(), 0, 0
    for d in diagrams:
        qs = quadrants(d)
        regions = [ri for ri in range(len(d.regions)) if ri != d.basepoint]
        for size in range(len(regions) + 1):
            for support in map(set, combinations(regions, size)):
                corners = [
                    p
                    for p in d.points
                    if sum(ri in support for ri in qs.quadrant_regions(p)) == 1
                ]
                half = len(corners) // 2
                coeffs = tuple(int(ri in support) for ri in range(len(d.regions)))
                dom = Domain(coeffs, Generator(tuple(corners[:half])), Generator(tuple(corners[half:])))
                shape = hfhat.floer._classify_rigid(d, dom)
                assert shape == _classify_all_points(d, dom), (d, support)
                tags.add(shape.tag)
                pinched += bool(shape.support) and not shape.corners
                listed += bool(shape.corners) and shape.tag == OTHER
    assert tags == {BIGON, RECTANGLE, OTHER} and pinched and listed


def test_differential_computes_the_index_again_once_per_distinct_shape(monkeypatch):
    """differential classifies each distinct (coefficients, moving
    points) once, by the exported classify_rigid, which computes the
    index again and refuses a domain whose index is not 1; a shape
    already stored on the diagram is not classified again."""
    import hfhat.floer

    d = rectangle_diagram()
    x, y = enumerate_generators(d)
    doms = positive_domains(d, x, y, 1, 0)
    indices = []
    real = hfhat.floer.maslov_index
    monkeypatch.setattr(hfhat.floer, "maslov_index", lambda d, D: indices.append(D) or real(d, D))
    (c,) = spinc_partition(d)
    assert [tag for *_, tag in differential(d, c).audit] == [RECTANGLE, RECTANGLE]
    assert indices == doms and len(set(doms)) == 2
    assert [tag for *_, tag in differential(d, c).audit] == [RECTANGLE, RECTANGLE]
    assert indices == doms
    dom = doms[0]
    assert classify_rigid(d, dom).tag == RECTANGLE
    assert indices == doms + [dom]
    shifted = Domain(tuple(n + 1 if i != d.basepoint else n for i, n in enumerate(dom.coefficients)), x, y)
    with pytest.raises(InternalError, match="index-1"):
        classify_rigid(d, shifted)


def test_classify_rigid_checks_embedded_euler_char(monkeypatch):
    """The paper's chi(S) = g + e - n_x - n_y must be g on a bigon and
    g - 1 on a rectangle; an embedded_euler_char off by one is a fault."""
    import hfhat.floer

    s1s2, rect = build("s1s2_g1"), rectangle_diagram()
    cases = [
        (s1s2, positive_domains(s1s2, gen("theta"), gen("eta"), 1, 0)[0], BIGON),
        (rect, positive_domains(rect, *enumerate_generators(rect), 1, 0)[0], RECTANGLE),
    ]
    for d, dom, tag in cases:
        assert classify_rigid(d, dom).tag == tag
    true_chi = hfhat.floer.embedded_euler_char
    monkeypatch.setattr(hfhat.floer, "embedded_euler_char", lambda d, D: true_chi(d, D) + 1)
    for d, dom, _ in cases:
        with pytest.raises(InternalError):
            classify_rigid(d, dom)


@pytest.mark.parametrize("p,q", [(2, 1), (3, 1), (3, 2), (5, 2), (7, 4), (64, 27)])
def test_lens_zero_differential(p, q):
    d = build("lens", p=p, q=q)
    for c in spinc_partition(d):
        cx = differential(d, c)
        assert cx.matrix == ((0,),)
    reps = homology(d)
    assert len(reps) == p
    assert all(r.ranks == ((0, 1),) for r in reps)


@pytest.mark.parametrize("g", [1, 2, 3])
def test_gsph_homology(g):
    from math import comb

    d = build("gsph", g=g)
    (rep,) = homology(d)
    assert rep.total == 2 ** g
    assert [v for _, v in rep.ranks] == [comb(g, k) for k in range(g + 1)]


def test_homology_requires_valid_diagram():
    d = build("s3_g1")
    with pytest.raises(ValueError):
        homology(d._replace(basepoint=3))


def test_homology_raises_on_inadmissible_diagram():
    with pytest.raises(UnboundedEnumeration):
        homology(build("s1s2_bad"))
    with pytest.raises(UnboundedEnumeration):
        homology(build("s1s2_wind"))


def test_threads_agree_with_serial():
    d = build("gsph(2)")
    (c,) = spinc_partition(d)
    serial = differential(d, c, threads=1)
    parallel = differential(d, c, threads=4)
    assert serial.matrix == parallel.matrix
    assert serial.audit == parallel.audit


def test_stabilize_preserves_homology():
    for name in ["s3_g1", "s1s2_g1", "lens(3,2)"]:
        d = build(name)
        base = [(r.ranks, r.total) for r in homology(d)]
        once = stabilize(d)
        assert [(r.ranks, r.total) for r in homology(once)] == base


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_grading_prune_skips_only_empty_pairs(name, corpus_small):
    """differential enumerates only pairs with gr(x) - gr(y) = 1 (mod the
    divisor); every pair it skips has no index-1, n_z = 0 positive domain."""
    d = corpus_small[name]
    witness = _weak_witness(d)
    for c in spinc_partition(d):
        gradings = dict(c.gradings)
        for x, y in permutations(c.members, 2):
            drop = gradings[x] - gradings[y] - 1
            if (drop % c.divisor if c.divisor > 0 else drop) == 0:
                continue
            if witness is None:
                assert positive_domains(d, x, y, 1, 0) == []
            else:
                with pytest.raises(UnboundedEnumeration):
                    positive_domains(d, x, y, 1, 0)


@pytest.mark.parametrize("divisor", [0, 1, 2, 3])
def test_grading_buckets_keep_the_pair_order(divisor, monkeypatch):
    """differential enumerates exactly the ordered pairs with gr(x) -
    gr(y) = 1 (mod the divisor), in permutation order, also for
    gradings given unreduced."""
    import hfhat.floer

    d = build("gsph(4)")
    rng = random.Random(divisor)
    (c,) = spinc_partition(d)
    c = c._replace(
        divisor=divisor, gradings=tuple((g, rng.randrange(-2, 3)) for g in c.members)
    )
    gradings = dict(c.gradings)
    drops = {(x, y): gradings[x] - gradings[y] - 1 for x, y in permutations(c.members, 2)}
    want = [pair for pair, drop in drops.items() if (drop % divisor if divisor else drop) == 0]
    seen = []
    monkeypatch.setattr(
        hfhat.floer, "positive_domains", lambda d, x, y, index, nz: seen.append((x, y)) or []
    )
    differential(d, c)
    assert seen == want and len(want) > len(c.members)


@pytest.mark.parametrize("name", ["s1s2_bad", "s1s2_wind"])
def test_inadmissible_class_raises_before_pruning(name):
    """A class of two or more generators refuses with the diagram's weak
    witness, also when flattened gradings make the prune skip every pair."""
    d = build(name)
    for c in spinc_partition(d):
        assert len(c.members) >= 2
        flat = c._replace(gradings=tuple((g, 0) for g in c.members))
        for cls in (c, flat):
            with pytest.raises(UnboundedEnumeration) as exc:
                differential(d, cls)
            assert exc.value.witness == _weak_witness(d)


def test_d_squared_check_survives_optimize():
    """Under python -O the d^2 = 0 check still raises."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "from hfhat.floer import _assert_d_squared_zero\n"
        "from hfhat import InternalError\n"
        "try:\n"
        "    _assert_d_squared_zero((2, 1))\n"
        "except InternalError:\n"
        "    raise SystemExit(7)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True)
    assert proc.returncode == 7, proc.stderr.decode()


def test_classify_rigid_preconditions_survive_optimize():
    """Under python -O classify_rigid still refuses a domain with a
    negative coefficient."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "from hfhat import Domain, InternalError, build, classify_rigid, enumerate_generators\n"
        "d = build('s1s2_g1')\n"
        "x, y = enumerate_generators(d)\n"
        "try:\n"
        "    classify_rigid(d, Domain((-1, 1, 0), x, y))\n"
        "except InternalError:\n"
        "    raise SystemExit(7)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True)
    assert proc.returncode == 7, proc.stderr.decode()


def _random_complex(rng, divisor, pieces=(3, 9)):
    """A direct sum of single generators and of pairs x -> y with
    gr(x) = gr(y) + 1 (mod ``divisor`` when it is positive), in a random
    order and a random basis of each grading; the number of summands is
    drawn from the range ``pieces``.  Returns the complex and the number
    of single generators at each grading, which is the homology of the
    sum."""
    levels = range(divisor) if divisor else range(4)
    count = rng.randint(*pieces)
    pieces = []
    for _ in range(count):
        low = rng.choice(levels)
        if rng.random() < 0.4:
            pieces.append((low,))
        else:
            pieces.append((low, (low + 1) % divisor if divisor else low + 1))
    n = sum(len(piece) for piece in pieces)
    slots = rng.sample(range(n), n)
    grading = [0] * n
    matrix = [[0] * n for _ in range(n)]
    singles = {}
    for piece in pieces:
        if len(piece) == 1:
            singles[piece[0]] = singles.get(piece[0], 0) + 1
        spots = [slots.pop() for _ in piece]
        for spot, level in zip(spots, piece):
            grading[spot] = level
        if len(piece) == 2:
            y, x = spots
            matrix[y][x] = 1  # matrix[iy][ix]: d x = y
    # Change of basis e_i -> e_i + e_j inside one grading: conjugate by
    # E = I + E_ji, which is its own inverse over F2.
    for _ in range(4 * n):
        i, j = rng.sample(range(n), 2)
        if grading[i] != grading[j]:
            continue
        for row in matrix:
            row[i] ^= row[j]
        matrix[j] = [a ^ b for a, b in zip(matrix[j], matrix[i])]
    order = tuple(Generator((f"g{k:02d}",)) for k in range(n))
    gradings = tuple(zip(order, grading))
    spinc = SpincClass(order, divisor, gradings)
    columns = tuple(sum(matrix[i][j] << i for i in range(n)) for j in range(n))
    complex_ = GradedComplex(spinc, order, columns, ())
    assert complex_.matrix == tuple(map(tuple, matrix))
    return complex_, singles


def _brute_force_homology(complex_, divisor):
    """dim ker - dim im at each grading, by listing every chain over F2."""
    gradings = dict(complex_.spinc.gradings)
    order = complex_.order
    columns = [
        sum(complex_.matrix[i][j] << i for i in range(len(order))) for j in range(len(order))
    ]

    def images(level):
        cols = [columns[j] for j, g in enumerate(order) if gradings[g] == level]
        out = []
        for subset in range(1 << len(cols)):
            v = 0
            for k, col in enumerate(cols):
                if subset >> k & 1:
                    v ^= col
            out.append(v)
        return out

    ranks = {}
    for level in sorted(set(gradings.values())):
        kernel = images(level).count(0)
        src = (level + 1) % divisor if divisor else level + 1
        image = len(set(images(src))) if src in gradings.values() else 1
        ranks[level] = kernel.bit_length() - image.bit_length()
    return ranks


@pytest.mark.parametrize("divisor", [0, 2])
def test_f2_ranks_on_nonzero_differentials(divisor):
    """The rank code against a brute-force count, on seeded complexes
    with non-zero differentials: Z-graded, and with a Z/2 wrap."""
    rng = random.Random(20261018 + divisor)
    nonzero = 0
    for _ in range(40):
        complex_, singles = _random_complex(rng, divisor)
        _assert_d_squared_zero(complex_.columns)
        nonzero += any(any(row) for row in complex_.matrix)
        brute = _brute_force_homology(complex_, divisor)
        assert brute == {k: singles.get(k, 0) for k in brute}
        assert _graded_ranks(complex_) == tuple(sorted(brute.items())), complex_.matrix
    assert nonzero >= 30


@pytest.mark.parametrize("divisor", [0, 2])
def test_f2_ranks_past_64_generators(divisor):
    """Seeded complexes of 80 or more generators, so that the bit columns
    are wider than a machine word: the ranks give the singles of the
    construction, and flipping one entry makes the d^2 check raise."""
    rng = random.Random(20261019 + divisor)
    for _ in range(3):
        complex_, singles = _random_complex(rng, divisor, pieces=(80, 100))
        order, columns = complex_.order, complex_.columns
        assert len(order) >= 80
        _assert_d_squared_zero(columns)
        levels = sorted(set(dict(complex_.spinc.gradings).values()))
        assert _graded_ranks(complex_) == tuple((k, singles.get(k, 0)) for k in levels)
        # Flip (i, j) where d e_i != 0: then d'^2 e_j = d e_i, since the
        # diagonal of a graded differential is zero.
        i = next(k for k in range(len(order)) if columns[k])
        j = next(k for k in range(len(order)) if k != i)
        flipped = list(columns)
        flipped[j] ^= 1 << i
        with pytest.raises(InternalError):
            _assert_d_squared_zero(tuple(flipped))


@pytest.fixture(scope="module")
def grid_complex():
    """``grid_complex(n)``: the one class's complex of ``grid_diagram(n)``,
    computed once per module."""
    complexes = {}

    def get(n):
        if n not in complexes:
            d = grid_diagram(n)
            (c,) = spinc_partition(d)
            complexes[n] = differential(d, c)
        return complexes[n]

    return get


def _empty_rectangle_matrix(n, order):
    """``matrix[iy][ix]``: the empty rectangles from x to y on the n x n
    torus grid, mod 2, from grid coordinates alone.  A generator is the
    permutation sigma with points p_{i sigma(i)}.  x's points a and b are
    the lower-left and upper-right corners of a rectangle over rows
    a..b-1 and columns sigma(a)..sigma(b)-1, both cyclic; y has the other
    two corners.  The rectangle counts when it covers no diagonal square
    (the basepoint region) and no point of x lies strictly inside it."""
    index = {g: k for k, g in enumerate(order)}
    matrix = [[0] * len(order) for _ in order]
    for x in order:
        sigma = [int(p[2]) for p in sorted(x.points)]
        for a, b in permutations(range(n), 2):
            rows = [(a + k) % n for k in range((b - a) % n)]
            cols = [(sigma[a] + k) % n for k in range((sigma[b] - sigma[a]) % n)]
            if set(rows) & set(cols) or any(sigma[r] in cols[1:] for r in rows[1:]):
                continue
            tau = list(sigma)
            tau[a], tau[b] = sigma[b], sigma[a]
            y = Generator(tuple(f"p{i}{tau[i]}" for i in range(n)))
            matrix[index[y]][index[x]] ^= 1
    return tuple(map(tuple, matrix))


@pytest.mark.parametrize("n,nonzero", [(3, 6), (4, 56), (5, 460)])
def test_grid_matrix_counts_empty_rectangles(n, nonzero, grid_complex):
    """On grid diagrams every entry of d is the count of empty rectangles
    mod 2 (Manolescu-Ozsvath-Sarkar), and every counted domain is one."""
    cx = grid_complex(n)
    assert cx.matrix == _empty_rectangle_matrix(n, cx.order)
    assert sum(map(sum, cx.matrix)) == sum(bin(col).count("1") for col in cx.columns) == nonzero
    assert {tag for *_, tag in cx.audit} == {RECTANGLE}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_grid_ranks_are_binomial(n):
    """HF-hat of #^{n-1}(S^1 x S^2): rank C(n-1, k) at grading k, and
    zero at every other grading of a generator."""
    (rep,) = homology(grid_diagram(n))
    low = rep.ranks[0][0]
    assert [(k - low, r) for k, r in rep.ranks if r] == [(k, comb(n - 1, k)) for k in range(n)]


def test_grid_kunneth_on_sums():
    """Connected sums multiply the ranks: per class for grid(3)#lens(5,2),
    and as a convolution of graded ranks on the one-class sums."""
    reps = homology(connected_sum(grid_diagram(3), build("lens(5,2)")))
    assert len(reps) == 5 and all(r.total == 4 for r in reps)
    assert sum(r.total for r in reps) == 20
    for d, want in [
        (connected_sum(build("gsph(2)"), grid_diagram(4)), [1, 5, 10, 10, 5, 1]),
        (connected_sum(grid_diagram(3), grid_diagram(3)), [1, 4, 6, 4, 1]),
    ]:
        (rep,) = homology(d)
        assert [r for _, r in rep.ranks if r] == want and rep.total == sum(want)


def _mos_maslov(n, x):
    """Manolescu-Ozsvath-Sarkar's Maslov grading of x on the n x n grid,
    from coordinates alone: p_ij sits at (j, i) and the O's at the
    centres (i + 1/2, i + 1/2) of the diagonal squares.  With I(P, Q) the
    number of pairs p in P, q in Q with p to the lower left of q, and
    J(P, Q) = (I(P, Q) + I(Q, P)) / 2, M(x) = J(x, x) - 2 J(x, O) +
    J(O, O) + 1."""
    points = [(Fraction(int(p[2])), Fraction(int(p[1]))) for p in x.points]
    o = [(Fraction(2 * i + 1, 2),) * 2 for i in range(n)]

    def i(a, b):
        return sum(p[0] < q[0] and p[1] < q[1] for p in a for q in b)

    def j(a, b):
        return Fraction(i(a, b) + i(b, a), 2)

    return j(points, points) - 2 * j(points, o) + j(o, o) + 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_grid_gradings_match_mos_maslov_grading(n):
    """hfhat's relative grading is MOS's Maslov grading shifted by n - 1
    on every generator of grid(n)."""
    (c,) = spinc_partition(grid_diagram(n))
    assert len(c.gradings) == factorial(n)
    assert {gr - _mos_maslov(n, x) for x, gr in c.gradings} == {n - 1}


def _seeded_grid_sums():
    """Six connected sums of grid(n), two for each 2 <= n <= 4, with a
    seeded small corpus diagram, in a seeded order."""
    rng = random.Random("grid kunneth sums")
    pool = ["s3_g1", "s1s2_g1", "gsph(1)", "gsph(2)"]
    pool += [f"lens({p},{q})" for p in range(2, 10) for q in range(1, p) if gcd(p, q) == 1]
    return [(2 + k % 3, rng.choice(pool), rng.random() < 0.5) for k in range(6)]


@pytest.mark.parametrize("n,name,grid_first", _seeded_grid_sums())
def test_grid_kunneth_on_seeded_sums(n, name, grid_first):
    """HF-hat of grid(n) # Y has 2^(n-1) times the total rank of Y's."""
    parts = (grid_diagram(n), build(name))
    d = connected_sum(*(parts if grid_first else parts[::-1]))
    want = 2 ** (n - 1) * sum(r.total for r in homology(build(name)))
    assert sum(r.total for r in homology(d)) == want


def test_grid_d_squared_check_catches_one_flipped_entry(grid_complex):
    """Flipping entry (i, j) where d e_i != 0 leaves d'^2 e_j = d e_i."""
    columns = grid_complex(4).columns
    _assert_d_squared_zero(columns)
    i = next(k for k, col in enumerate(columns) if col)
    j = next(k for k in range(len(columns)) if k != i)
    flipped = list(columns)
    flipped[j] ^= 1 << i
    with pytest.raises(InternalError):
        _assert_d_squared_zero(tuple(flipped))


def test_grid_strict_rectangles_refuses():
    """grid(3)'s differential counts only rectangles, so
    ``strict_rectangles`` refuses all 12 of them by name."""
    d = grid_diagram(3)
    (c,) = spinc_partition(d)
    with pytest.raises(NotCombinatorial) as exc:
        differential(d, c, strict_rectangles=True)
    assert len(exc.value.offenders) == 12
    assert {shape.tag for *_, shape in exc.value.offenders} == {RECTANGLE}


def _oracle_diagram(name):
    """A corpus diagram, ``grid(n)``, or a connected sum of them by ``#``."""
    parts = [grid_diagram(int(p[5:-1])) if p.startswith("grid(") else build(p) for p in name.split("#")]
    d = parts[0]
    for part in parts[1:]:
        d = connected_sum(d, part)
    return d


def _seeded_lens_gsph_sums():
    """Four sums of a seeded lens(p, q) and gsph(k), in a seeded order."""
    rng = random.Random("differential oracle sums")
    out = []
    for _ in range(4):
        p = rng.randrange(2, 8)
        q = rng.choice([q for q in range(1, p) if gcd(p, q) == 1])
        parts = [f"lens({p},{q})", f"gsph({rng.randrange(1, 4)})"]
        rng.shuffle(parts)
        out.append("#".join(parts))
    return out


def _reference_differential(d, c, strict_rectangles):
    """``(columns, audit)`` of one class with no stores: per pair,
    connecting_domain, the lattice points swept afresh, the index, and
    the shape from ``_classify_rigid`` per domain.  Refusals come back
    as values: the witness, or the offenders."""
    from hfhat.domains import _lattice_points
    from hfhat.floer import _classify_rigid
    from hfhat.measures import maslov_index

    gradings = dict(c.gradings)
    level = (lambda k: k % c.divisor) if c.divisor > 0 else (lambda k: k)
    counted = (BIGON,) if strict_rectangles else (BIGON, RECTANGLE)
    columns = [0] * len(c.members)
    audit, offenders = [], []
    try:
        for ix, x in enumerate(c.members):
            for iy, y in enumerate(c.members):
                if y is x or level(gradings[x] - 1) != level(gradings[y]):
                    continue
                dom = connecting_domain(d, x, y)
                if dom is None:
                    continue
                for coeffs in _lattice_points(d, dom.coefficients):
                    found = Domain(coeffs, x, y)
                    if maslov_index(d, found) != 1:
                        continue
                    shape = _classify_rigid(d, found)
                    if shape.tag in counted:
                        columns[ix] ^= 1 << iy
                        audit.append((x, y, found, shape.tag))
                    else:
                        offenders.append((x, y, found, shape))
    except UnboundedEnumeration as exc:
        return "unbounded", exc.witness
    if offenders:
        return "offenders", offenders
    return tuple(columns), tuple(audit)


def _stored_differential(d, c, strict_rectangles):
    try:
        cx = differential(d, c, strict_rectangles)
    except UnboundedEnumeration as exc:
        return "unbounded", exc.witness
    except NotCombinatorial as exc:
        return "offenders", exc.offenders
    return cx.columns, cx.audit


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize(
    "name", SMALL_NAMES + ["gsph(4)#gsph(4)", "grid(3)", "grid(4)"] + _seeded_lens_gsph_sums()
)
def test_differential_matches_a_reference_with_no_stores(name, strict):
    """The stored enumeration per point difference and the stored shapes
    give the columns, audit trail and refusals of a per-pair reference
    that stores nothing, run on a separate copy of the diagram."""
    d = _oracle_diagram(name)
    fresh = d._replace()
    for c in spinc_partition(d):
        assert _stored_differential(d, c, strict) == _reference_differential(fresh, c, strict)


def test_embedded_chi_fault_is_caught_on_a_fresh_diagram(monkeypatch):
    """The shape store does not hide the embedded-chi check: with
    ``embedded_euler_char`` off by one, homology of a fresh diagram
    raises InternalError on bigons and on rectangles."""
    import hfhat.floer

    true_chi = hfhat.floer.embedded_euler_char
    monkeypatch.setattr(hfhat.floer, "embedded_euler_char", lambda d, D: true_chi(d, D) + 1)
    for d in (build("s1s2_g1"), _oracle_diagram("gsph(2)#gsph(2)"), rectangle_diagram(), grid_diagram(3)):
        with pytest.raises(InternalError, match="embedded chi"):
            homology(d)


def test_each_check_runs_once_per_input_that_decides_it(monkeypatch):
    """On gsph(3)#gsph(2), where the same bigons recur for many pairs,
    differential computes the index for every (pair, lattice point), the
    lattice-point sweep once per distinct point difference, the mirror
    check once per distinct (point difference, coefficients), and the
    shape once per distinct (coefficients, moving points)."""
    import hfhat.domains
    import hfhat.floer
    import hfhat.measures
    from hfhat.domains import _moving, _positive_solutions

    d = _oracle_diagram("gsph(3)#gsph(2)")
    (c,) = spinc_partition(d)
    gradings = dict(c.gradings)
    pairs = [(x, y) for x in c.members for y in c.members if gradings[x] - gradings[y] == 1]
    fresh = d._replace()
    points = {pair: _positive_solutions(fresh, *pair, 0) for pair in pairs}
    differences = {_moving(fresh, *pair): points[pair] for pair in pairs}

    calls = {"connecting": [], "sweep": [], "mirror": [], "index": [], "shape": []}

    def record(module, name, key):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda d, *args: calls[key].append(args) or real(d, *args))

    record(hfhat.domains, "connecting_domain", "connecting")
    record(hfhat.domains, "_lattice_points", "sweep")
    record(hfhat.domains, "_assert_mirror", "mirror")
    record(hfhat.measures, "maslov_index", "index")
    record(hfhat.floer, "classify_rigid", "shape")
    audit = differential(d, c).audit

    assert sorted((dom.from_gen, dom.to_gen, dom.coefficients) for (dom,) in calls["index"]) == sorted(
        (x, y, coeffs) for (x, y), found in points.items() for coeffs in found
    )
    assert len(calls["connecting"]) == len(calls["sweep"]) == len(differences)
    assert len(calls["mirror"]) == len(differences) + sum(map(len, differences.values()))
    assert {(_moving(d, dom.from_gen, dom.to_gen), dom.coefficients) for (dom,) in calls["mirror"]} >= {
        (moving, coeffs) for moving, found in differences.items() for coeffs in found
    }
    shapes = [(dom.coefficients, *_moving(d, x, y)) for x, y, dom, _ in audit]
    assert sorted(dom.coefficients for (dom,) in calls["shape"]) == sorted(s[0] for s in set(shapes))
    assert len(set(shapes)) < len(audit)


@pytest.mark.parametrize("name", ["grid(4)", "gsph(3)#gsph(2)"])
def test_homology_stores_points_once_per_examined_difference(name, monkeypatch):
    """After homology, the diagram holds one point slot per distinct
    (from-only, to-only, n_z) of the pairs the differential examined,
    and no other store of positive points."""
    import hfhat.floer
    from hfhat.domains import _moving, _positive_solutions

    d = _oracle_diagram(name)
    examined = set()
    real = hfhat.floer.positive_domains

    def record(d, x, y, index, nz):
        examined.add((_positive_solutions, *_moving(d, x, y), nz))
        return real(d, x, y, index, nz)

    monkeypatch.setattr(hfhat.floer, "positive_domains", record)
    homology(d)
    slots = [slot for slot in d._derived if type(slot) is tuple]
    assert not any(getattr(slot[0], "__name__", None) == "_lattice_points" for slot in slots)
    assert examined and {slot for slot in slots if slot[0] is _positive_solutions} == examined
