"""Domain equation, periodic lattice, and positive enumeration."""

import os
import random
import re
import subprocess
import sys
from math import gcd
from pathlib import Path

import pytest

import hfhat.domains
from hfhat import (
    Domain,
    Generator,
    PeriodicLattice,
    UnboundedEnumeration,
    boundary_system,
    chern_pairing,
    connected_sum,
    connecting_domain,
    enumerate_generators,
    homology,
    periodic_index,
    periodic_lattice,
    positive_domains,
    spinc_partition,
    stabilize,
)
from hfhat.corpus import build
from hfhat.domains import _assert_mirror, _factored, _phi, _reduction
from hfhat.exactla import GE, InternalError, canonical_basis, column_echelon, hermite_normal_form
from hfhat.exactla import hermite_reduce, mat_vec, vanishing_sublattice

from conftest import (
    ADMISSIBLE_NAMES,
    SMALL_NAMES,
    arc_endpoints,
    brute_force_domains,
    connecting_rhs,
    grid_diagram,
)

RNG = random.Random(7)


def T(a):
    """The transpose: rows to columns, or columns to rows."""
    return [list(col) for col in zip(*a)]


def sparse_columns(a):
    """The columns of the rows ``a`` as ``(row, value)`` pairs of their
    nonzero entries."""
    return tuple(tuple((i, v) for i, v in enumerate(col) if v) for col in T(a))


def boundary_images(d, coeffs):
    sys_ = boundary_system(d)
    la = [sum(r * c for r, c in zip(row, coeffs)) for row in sys_.l_alpha]
    lb = [sum(r * c for r, c in zip(row, coeffs)) for row in sys_.l_beta]
    return la, lb


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_connecting_domain_solves_boundary_equation(name, corpus_small):
    d = corpus_small[name]
    sys_ = boundary_system(d)
    idx = {p: i for i, p in enumerate(sys_.points)}
    gens = enumerate_generators(d)
    for x in gens:
        for y in gens:
            dom = connecting_domain(d, x, y)
            if dom is None:
                continue
            assert dom.coefficients[d.basepoint] == 0
            la, lb = boundary_images(d, dom.coefficients)
            want = [0] * len(sys_.points)
            for p in y.points:
                want[idx[p]] += 1
            for p in x.points:
                want[idx[p]] -= 1
            assert la == want
            assert lb == [-v for v in want]


def _lens_sum():
    return connected_sum(build("gsph(2)"), build("lens(5,2)"))


@pytest.mark.parametrize("name", SMALL_NAMES + ["lens(11,3)", "gsph(2)#lens(5,2)"])
def test_connecting_domain_equals_per_pair_reduction(name):
    """Differences of per-generator reductions give, coefficient for
    coefficient, the domain that reducing b(x, y) for the pair gives."""
    d = _lens_sum() if name == "gsph(2)#lens(5,2)" else build(name)
    _, _, h, u, pivots = _factored(d)
    gens = enumerate_generators(d)
    for x in gens:
        for y in gens:
            quotient, remainder = hermite_reduce(h, pivots, connecting_rhs(d, x, y))
            dom = connecting_domain(d, x, y)
            if any(remainder):
                assert dom is None, (x, y)
                continue
            particular = mat_vec(T(u), quotient)
            nz = particular[d.basepoint]
            assert dom == Domain(tuple(c - nz for c in particular), x, y)


def _boundary_by_references(d):
    """``l_alpha`` and ``l_beta`` built one arc reference at a time: each
    reference adds its dir at the arc's head and takes it off at its tail."""
    index = {p: i for i, p in enumerate(d.points)}
    rows = {fam: [[0] * len(d.regions) for _ in index] for fam in ("a", "b")}
    for ri, region in enumerate(d.regions):
        for cyc in region.cycles:
            for ref in cyc:
                tail, head = arc_endpoints(d, ref)
                rows[ref.curve][index[head]][ri] += ref.dir
                rows[ref.curve][index[tail]][ri] -= ref.dir
    return rows["a"], rows["b"]


def test_boundary_system_matches_per_reference_construction():
    """The boundary system read off the arc walk's sides is the one
    built from each region's arc references, on the small corpus,
    grid(2..5), two sums and a stabilization."""
    diagrams = [build(name) for name in SMALL_NAMES]
    diagrams += [grid_diagram(n) for n in range(2, 6)]
    diagrams += [_lens_sum(), connected_sum(grid_diagram(3), build("lens(7,3)"))]
    diagrams.append(stabilize(build("lens(3,1)")))
    for d in diagrams:
        sys_ = boundary_system(d)
        l_alpha, l_beta = _boundary_by_references(d)
        assert sys_.points == d.points
        assert [list(row) for row in sys_.l_alpha] == l_alpha, d
        assert [list(row) for row in sys_.l_beta] == l_beta, d


def _seeded_sums():
    """Four seeded connected sums of two small corpus diagrams."""
    rng = random.Random("alpha factorization sums")
    pool = ["s1s2_g1", "s1s2_wind", "lens(3,1)", "lens(5,2)", "lens(7,3)", "gsph(2)"]
    return [tuple(rng.sample(pool, 2)) for _ in range(4)]


@pytest.mark.parametrize(
    "name",
    SMALL_NAMES + ["lens(11,3)", "lens(9,5)", "gsph(3)", "gsph(4)"]
    + ["#".join(pair) for pair in _seeded_sums()],
)
def test_alpha_factorization_matches_stacked(name):
    """Factoring l_alpha alone gives the stacked system's echelon
    transform u, its pivots and its alpha rows of h (the beta rows add
    no pivot, so the echelon steps are the same); per-generator
    remainders are the alpha half of the stacked ones (the beta half is
    their negation), so the Spin^c grouping is the stacked one."""
    d = connected_sum(*map(build, name.split("#"))) if "#" in name else build(name)
    sys_ = boundary_system(d)
    m = len(sys_.points)
    stacked = [list(r) for r in sys_.l_alpha] + [list(r) for r in sys_.l_beta]
    h, u, pivots = column_echelon(T(stacked))
    _, a_columns, h_alpha, u_alpha, pivots_alpha = _factored(d)
    assert a_columns == sparse_columns(stacked[:m])
    assert u_alpha == u
    assert pivots_alpha == pivots
    assert T(h_alpha) == T(h)[:m]
    groups = {}
    index = {p: i for i, p in enumerate(sys_.points)}
    for g in enumerate_generators(d):
        chain = [0] * (2 * m)
        for p in g.points:
            chain[index[p]] += 1
            chain[m + index[p]] -= 1
        _, remainder = hermite_reduce(h, pivots, chain)
        alpha_remainder = _reduction(d, g)[0]
        assert tuple(remainder) == alpha_remainder + tuple(-r for r in alpha_remainder)
        groups.setdefault(tuple(remainder), []).append(g)
    want = sorted(tuple(sorted(group)) for group in groups.values())
    assert [c.members for c in spinc_partition(d)] == want


def _canonical_route_diagrams():
    """The corpus singles, gsph(1..4) and the seeded sums."""
    names = ["s3_g1", "s1s2_g1", "s1s2_bad", "s1s2_wind"]
    names += [f"lens({p},{q})" for p in range(2, 8) for q in range(1, p) if gcd(p, q) == 1]
    names += ["lens(11,3)", "lens(29,12)"] + [f"gsph({g})" for g in range(1, 5)]
    diagrams = {name: build(name) for name in names}
    for pair in _seeded_sums():
        diagrams["#".join(pair)] = connected_sum(*map(build, pair))
    return diagrams


def test_echelon_factorization_matches_canonical_route():
    """Factoring l_alpha to an echelon form only gives, for every
    generator, the remainder and the domain u q that the canonical
    Hermite form gives, hence the same phi_g, and the same periodic
    lattice."""
    non_canonical = 0
    for name, d in _canonical_route_diagrams().items():
        a = [list(r) for r in boundary_system(d).l_alpha]
        h, u, pivots = hermite_normal_form(T(a))
        assert _factored(d)[1] == sparse_columns(a)
        non_canonical += _factored(d)[2] != h
        z = d.basepoint
        index = {p: i for i, p in enumerate(boundary_system(d).points)}
        for g in enumerate_generators(d):
            chain = [0] * len(a)
            for p in g.points:
                chain[index[p]] += 1
            quotient, remainder = hermite_reduce(h, pivots, chain)
            phi = mat_vec(T(u), quotient)
            got_remainder, got_quotient = _reduction(d, g)
            assert got_remainder == tuple(remainder), (name, g)
            assert mat_vec(T(_factored(d)[3]), got_quotient) == phi, (name, g)
            assert _phi(d, g) == tuple(c - phi[z] for c in phi), (name, g)
        kernel = [[c - col[z] for c in col] for col in u[len(pivots):]]
        assert periodic_lattice(d).basis == tuple(map(tuple, canonical_basis(kernel))), name
    assert non_canonical > 10


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_factored_refuses_beta_that_is_not_negated_alpha(flags):
    """With one beta entry of the boundary system flipped, factoring
    raises InternalError, also with asserts stripped."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import hfhat.domains as domains\n"
        "from hfhat import InternalError, build\n"
        "real = domains.boundary_system\n"
        "def flipped(d):\n"
        "    sys_ = real(d)\n"
        "    rows = [list(r) for r in sys_.l_beta]\n"
        "    i, j = next((i, j) for i, r in enumerate(rows) for j, v in enumerate(r) if v)\n"
        "    rows[i][j] = -rows[i][j]\n"
        "    return sys_._replace(l_beta=tuple(map(tuple, rows)))\n"
        "domains.boundary_system = flipped\n"
        "try:\n"
        "    domains._factored(build('lens(5,2)'))\n"
        "except InternalError:\n"
        "    raise SystemExit(7)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True)
    assert proc.returncode == 7, proc.stderr.decode()


@pytest.mark.parametrize("name", SMALL_NAMES + ["lens(11,3)", "gsph(2)#lens(5,2)"])
def test_mirror_check_agrees_with_dense_product(name):
    """The sparse-column mirror check raises exactly when the dense
    product of l_alpha with the coefficients differs from b(x, y): on
    every pair's connecting domain, on that domain with one coefficient
    moved by 1 or with its ends swapped, and on seeded random vectors."""
    d = _lens_sum() if name == "gsph(2)#lens(5,2)" else build(name)
    a = boundary_system(d).l_alpha
    rng = random.Random(f"mirror {name}")
    n = len(d.regions)
    gens = enumerate_generators(d)
    outcomes = set()
    for x in gens:
        for y in gens:
            candidates = [(tuple(rng.randint(-2, 2) for _ in range(n)), x, y)]
            dom = connecting_domain(d, x, y)
            if dom is not None:
                moved = list(dom.coefficients)
                moved[rng.randrange(n)] += rng.choice((-1, 1))
                candidates += [
                    (dom.coefficients, x, y),
                    (tuple(moved), x, y),
                    (dom.coefficients, y, x),
                ]
            for coeffs, start, end in candidates:
                wrong = mat_vec(a, coeffs) != connecting_rhs(d, start, end)
                try:
                    _assert_mirror(d, Domain(coeffs, start, end))
                    raised = False
                except InternalError:
                    raised = True
                assert raised == wrong, (coeffs, start, end)
                outcomes.add(raised)
    # On s3_g1 both curves run from its one point back to it, so every
    # boundary vanishes and no corruption can show.
    assert outcomes == ({True, False} if any(map(any, a)) else {False})


def test_homology_reduces_each_generator_once(monkeypatch):
    d = _lens_sum()
    calls = []
    real = hfhat.domains.hermite_reduce

    def counted(h, pivots, b):
        calls.append(tuple(b))
        return real(h, pivots, b)

    monkeypatch.setattr(hfhat.domains, "hermite_reduce", counted)
    homology(d)
    assert len(calls) == len(set(calls)) == len(enumerate_generators(d))


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_connecting_domain_reflexive(name, corpus_small):
    d = corpus_small[name]
    for x in enumerate_generators(d):
        dom = connecting_domain(d, x, x)
        assert dom is not None


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_periodic_lattice_well_formed(name, corpus_small):
    d = corpus_small[name]
    lat = periodic_lattice(d)
    assert lat.sigma == tuple([1] * len(d.regions))
    la, lb = boundary_images(d, lat.sigma)
    assert not any(la) and not any(lb)
    for vec in lat.basis:
        assert vec[d.basepoint] == 0
        la, lb = boundary_images(d, vec)
        assert not any(la) and not any(lb)


def test_periodic_ranks_match_second_betti_number():
    expected = {
        "s3_g1": 0,
        "s1s2_g1": 1,
        "s1s2_bad": 1,
        "s1s2_wind": 2,
        "lens(2,1)": 0,
        "lens(5,2)": 0,
        "gsph(2)": 2,
        "gsph(3)": 3,
    }
    for name, rank in expected.items():
        assert periodic_lattice(build(name)).rank == rank


def test_lattice_basis_is_canonical_under_region_order():
    d = build("s1s2_g1")
    assert periodic_lattice(d).basis == ((1, -1, 0),)


def _lattice_diagrams():
    """The corpus singles, gsph(1..5), every ordered connected sum of two
    small diagrams, and the stabilization of each of those."""
    singles = ["s3_g1", "s1s2_g1", "s1s2_bad", "s1s2_wind"]
    singles += [f"lens({p},{q})" for p in range(2, 8) for q in range(1, p) if gcd(p, q) == 1]
    singles += [f"gsph({g})" for g in range(1, 6)]
    pool = ["s3_g1", "s1s2_g1", "s1s2_bad", "s1s2_wind", "lens(3,1)", "lens(5,2)", "gsph(2)", "gsph(3)"]
    diagrams = {name: build(name) for name in singles}
    for first in pool:
        for second in pool:
            diagrams[f"{first}#{second}"] = connected_sum(build(first), build(second))
    for name in list(diagrams):
        diagrams[f"stabilize({name})"] = stabilize(diagrams[name])
    return diagrams


def test_periodic_basis_matches_two_step_route():
    """The basis read off the kernel columns of the one factorization
    equals the one a second route builds: the canonical kernel basis,
    then the sublattice on which n_z vanishes, found by its own Hermite
    solve.  Both are the canonical basis of one lattice."""
    ranks = set()
    for name, d in _lattice_diagrams().items():
        _, _, _, u, pivots = _factored(d)
        kernel = canonical_basis(u[len(pivots):])
        want = vanishing_sublattice(kernel, [vec[d.basepoint] for vec in kernel])
        basis = periodic_lattice(d).basis
        assert basis == tuple(map(tuple, want)), name
        ranks.add(len(basis))
    assert ranks == set(range(7))


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize(
    "fault,name,message",
    [("boundary", "lens(5,2)", "n_z 0, boundary [0,"), ("nz", "gsph(2)", "n_z 1, boundary [0, 0")],
)
def test_periodic_lattice_refuses_a_wrong_vector(flags, fault, name, message):
    """A kernel column of u moved by one region gives a basis vector with
    a nonzero alpha boundary; a canonical basis shifted by [Sigma] gives
    vectors with n_z = 1.  Either raises InternalError, also with asserts
    stripped."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import hfhat.domains as domains\n"
        "from hfhat import InternalError, build\n"
        "def moved(d, real=domains._factored):\n"
        "    index, a_columns, h, u, pivots = real(d)\n"
        "    rank = len(pivots)\n"
        "    i = next(j for j, col in enumerate(a_columns) if col and j != d.basepoint)\n"
        "    column = list(u[rank])\n"
        "    column[i] += 1\n"
        "    return index, a_columns, h, u[:rank] + [column] + u[rank + 1:], pivots\n"
        "def shifted(vectors, real=domains.canonical_basis):\n"
        "    return [[c + 1 for c in vec] for vec in real(vectors)]\n"
        f"if {fault!r} == 'boundary':\n"
        "    domains._factored = moved\n"
        "else:\n"
        "    domains.canonical_basis = shifted\n"
        "try:\n"
        f"    domains.periodic_lattice(build({name!r}))\n"
        "except InternalError as exc:\n"
        "    print(exc)\n"
        "    raise SystemExit(7)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 7, proc.stderr
    assert message in proc.stdout


# gsph(3) has periodic rank 3 with pairwise disjoint supports, so its
# sweep reads all three coordinates off the basis vectors' own rows.
@pytest.mark.parametrize("name", ADMISSIBLE_NAMES + ["gsph(3)"])
@pytest.mark.parametrize("index,nz", [(1, 0), (2, 0), (1, 1), (2, 1)])
def test_positive_domains_match_brute_force(name, index, nz, corpus_small):
    d = corpus_small[name] if name in corpus_small else build(name)
    # The oracle grid has 4^regions points; keep it within reach.
    assert len(d.regions) <= 8, "oracle grid too large"
    gens = enumerate_generators(d)
    for x in gens:
        for y in gens:
            got = positive_domains(d, x, y, index, nz)
            want = brute_force_domains(d, x, y, index, nz, cap=3)
            kept = [dom for dom in got if max(dom.coefficients) <= 3]
            assert kept == want, (name, x, y, index, nz)


def _sum(vec, other):
    return tuple(a + b for a, b in zip(vec, other))


def _sheared(basis):
    """Q_0 = P_0 and Q_k = P_k + P_{k-1}: the same lattice, with every two
    neighbouring vectors overlapping."""
    return (basis[0],) + tuple(_sum(vec, prev) for prev, vec in zip(basis, basis[1:]))


def _use_basis(monkeypatch, d, basis):
    """Make ``periodic_lattice`` return ``basis`` (same span as d's) on
    every diagram object built afterwards."""
    lattice = periodic_lattice(d)
    monkeypatch.setattr(
        hfhat.domains, "periodic_lattice", lambda d: PeriodicLattice(basis, lattice.sigma)
    )


def _starts(d):
    """Every starting domain D0 + n_z [Sigma] of d, at n_z 0 and 1."""
    gens = enumerate_generators(d)
    return {
        tuple(c + nz for c in connecting_domain(d, x, y).coefficients)
        for x in gens
        for y in gens
        for nz in (0, 1)
    }


def _spy_lps(monkeypatch):
    """Record the (objective, constraints) of every LP the sweep solves."""
    calls = []
    real = hfhat.domains.lp_optimize

    def spy(objective, constraints):
        calls.append((list(objective), list(constraints)))
        return real(objective, constraints)

    monkeypatch.setattr(hfhat.domains, "lp_optimize", spy)
    return calls


@pytest.mark.parametrize("name", ["gsph(3)", "gsph(4)"])
def test_lattice_points_do_not_depend_on_the_basis(name, monkeypatch):
    """A unimodular shear of the periodic basis spans the same lattice, so
    the sweep must find the same points from every starting domain.  The
    corpus basis vectors have disjoint supports; the sheared ones
    overlap, so each coordinate's bounds depend on the coordinates fixed
    before it."""
    d = build(name)
    starts = _starts(d)
    want = {d0: hfhat.domains._lattice_points(d, d0) for d0 in starts}
    _use_basis(monkeypatch, d, _sheared(periodic_lattice(d).basis))
    fresh = build(name)
    assert sum(map(len, want.values())) > len(starts)
    for d0, points in want.items():
        assert hfhat.domains._lattice_points(fresh, d0) == points, d0


def _check_sweep_lps(calls, d, basis):
    """Each sweep LP has only >= rows, one per region, over the free
    t_k..t_{r-1}: its rows are the columns P_k..P_{r-1} and its
    objective is +-t_k.  Returns the variable count per coordinate."""
    r = len(basis)
    sizes = {}
    for objective, constraints in calls:
        k = r - len(objective)
        sizes[k] = len(objective)
        assert objective in ([1] + [0] * (r - k - 1), [-1] + [0] * (r - k - 1))
        assert len(constraints) == len(d.regions)
        for i, (row, rel, _) in enumerate(constraints):
            assert rel == GE
            assert row == [vec[i] for vec in basis[k:]]
    return sizes


def test_sweep_lps_run_over_the_free_coordinates_only(monkeypatch):
    """On the sheared gsph(4) basis (rank 4) no tail of two or more
    vectors has disjoint supports, so the sweep bounds coordinates 0, 1
    and 2 by LP and reads only the last one off its rows."""
    d = build("gsph(4)")
    basis = _sheared(periodic_lattice(d).basis)
    _use_basis(monkeypatch, d, basis)
    fresh = build("gsph(4)")
    hfhat.domains._weak_witness(fresh)  # its recession LP is not a sweep LP
    calls = _spy_lps(monkeypatch)
    x, y = enumerate_generators(fresh)[:2]
    positive_domains(fresh, x, y, 2, 1)
    assert set(_check_sweep_lps(calls, fresh, basis)) == {0, 1, 2}


@pytest.mark.parametrize(
    "name", ["gsph(1)", "gsph(2)", "gsph(3)", "gsph(4)", "lens(5,2)#gsph(2)", "gsph(3)#lens(7,3)"]
)
def test_split_bases_sweep_without_lps(name, monkeypatch):
    """The corpus bases of gsph(g) and of lens#gsph sums have pairwise
    disjoint supports, one vector per S^1 x S^2 summand, so the whole
    fiber is a box read off the rows: no sweep LP runs."""
    d = connected_sum(*map(build, name.split("#"))) if "#" in name else build(name)
    assert hfhat.domains._box_split(d)[0] == 0
    hfhat.domains._weak_witness(d)
    calls = _spy_lps(monkeypatch)
    gens = enumerate_generators(d)
    found = 0
    for x in gens[:8]:
        for y in gens:
            for index, nz in ((1, 0), (2, 1)):
                found += len(positive_domains(d, x, y, index, nz))
    assert found and calls == []


def test_mixed_basis_runs_lps_only_above_the_split(monkeypatch):
    """Q = (P_0, P_1, P_2 + P_1, P_3) on gsph(4): Q_2 and Q_3 are disjoint
    but Q_1 meets Q_2, so LPs bound t_0 (4 variables) and t_1 (3
    variables) and the box t_2, t_3 is read off the rows.  The points
    are the corpus basis's, and the brute-force grid's."""
    d = build("gsph(4)")
    starts = _starts(d)
    want = {d0: hfhat.domains._lattice_points(d, d0) for d0 in starts}
    p = periodic_lattice(d).basis
    basis = (p[0], p[1], _sum(p[2], p[1]), p[3])
    _use_basis(monkeypatch, d, basis)
    fresh = build("gsph(4)")
    assert hfhat.domains._box_split(fresh)[0] == 2
    hfhat.domains._weak_witness(fresh)
    calls = _spy_lps(monkeypatch)
    for d0, points in want.items():
        assert hfhat.domains._lattice_points(fresh, d0) == points, d0
    assert _check_sweep_lps(calls, fresh, basis) == {0: 4, 1: 3}
    gens = enumerate_generators(fresh)
    compared = 0
    for x in gens[::3]:
        for y in gens:
            for index, nz in ((1, 0), (2, 1)):
                got = positive_domains(fresh, x, y, index, nz)
                oracle = brute_force_domains(fresh, x, y, index, nz, cap=3)
                assert [dom for dom in got if max(dom.coefficients) <= 3] == oracle, (x, y)
                compared += len(oracle)
    assert compared > 100


@pytest.mark.parametrize("name", ["s1s2_bad", "s1s2_wind"])
def test_unbounded_enumeration_carries_verified_witness(name, corpus_small):
    d = corpus_small[name]
    gens = enumerate_generators(d)
    with pytest.raises(UnboundedEnumeration) as exc:
        positive_domains(d, gens[0], gens[0], 0, 0)
    w = exc.value.witness
    assert all(c >= 0 for c in w) and any(c > 0 for c in w)
    assert w[d.basepoint] == 0
    la, lb = boundary_images(d, w)
    assert not any(la) and not any(lb)


@pytest.mark.parametrize("name", ADMISSIBLE_NAMES + ["lens(9,5)"])
def test_shared_object_enumerates_like_fresh_objects(name):
    """Lattice points stored per starting domain on one object give the
    positive domains of a fresh object per call, for every ordered pair."""
    d = build(name)
    gens = enumerate_generators(d)
    for x in gens:
        for y in gens:
            for index, nz in ((1, 0), (2, 1)):
                want = positive_domains(build(name), x, y, index, nz)
                assert positive_domains(d, x, y, index, nz) == want, (x, y, index, nz)


@pytest.mark.parametrize("n", [3, 4])
def test_points_are_shared_only_by_pairs_with_one_point_difference(n):
    """The points stored per point difference are those swept afresh for
    each ordered pair of grid(n), at n_z 0 and 1.  From one generator,
    the two 3-cycles of the same three points share their from-only
    points but not their to-only ones, and their points differ."""
    from hfhat.domains import _lattice_points, _moving, _positive_solutions

    d = grid_diagram(n)
    fresh = d._replace()
    gens = enumerate_generators(d)
    by_from = {}
    for x in gens:
        for y in gens:
            for nz in (0, 1):
                d0 = connecting_domain(fresh, x, y).coefficients
                want = _lattice_points(fresh, tuple(c + nz for c in d0))
                assert _positive_solutions(d, x, y, nz) == want, (x, y, nz)
                from_only, to_only = _moving(d, x, y)
                by_from.setdefault((x, from_only, nz), {})[to_only] = want
    assert any(len(set(points.values())) > 1 for points in by_from.values())


def test_positive_domains_sorted():
    d = build("s1s2_g1")
    x, y = enumerate_generators(d)
    doms = positive_domains(d, y, x, 1, 0)
    assert [dom.coefficients for dom in doms] == sorted(dom.coefficients for dom in doms)
    assert len(doms) == 2


@pytest.mark.parametrize(
    "points",
    [
        ("p00", "p11", "nope"),
        ("p00", "p01", "p12"),
        ("p00", "p10", "p21"),
        ("p00", "p00", "p11"),
        ("p00", "p11"),
        ("p00", "p11", "p22", "p01"),
    ],
    ids=["foreign point", "alpha_0 twice", "beta_0 twice", "point twice", "short", "long"],
)
def test_foreign_generator_is_refused(points):
    """connecting_domain, positive_domains, chern_pairing and
    periodic_index refuse, with ValueError naming it, a tuple that is
    not a generator of the diagram: genus points of the diagram, one on
    each alpha and one on each beta curve."""
    d = grid_diagram(3)
    x = enumerate_generators(d)[0]
    bad = Generator(points)
    P = periodic_lattice(d).basis[0]
    calls = [
        lambda: connecting_domain(d, x, bad),
        lambda: connecting_domain(d, bad, x),
        lambda: positive_domains(d, bad, x, 1, 0),
        lambda: positive_domains(d, x, bad, 1, 0),
        lambda: chern_pairing(d, bad, P),
        lambda: periodic_index(d, bad, P),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape(f"{bad} is not a generator of the diagram")):
            call()


def test_generator_guard_runs_once_per_generator(monkeypatch):
    """The guard sits in the stored per-generator reduction, so homology
    and then the Chern pairing and periodic index of every generator
    with every periodic vector check each generator once per diagram
    object."""
    checked = []
    real = hfhat.domains._check_generator

    def counted(d, g):
        checked.append(g)
        return real(d, g)

    monkeypatch.setattr(hfhat.domains, "_check_generator", counted)
    d = build("gsph(3)")
    homology(d)
    for x in enumerate_generators(d):
        for P in periodic_lattice(d).basis:
            chern_pairing(d, x, P)
            periodic_index(d, x, P)
    assert sorted(checked) == enumerate_generators(d)
