"""Euler measure, Maslov index, embedded chi, and Chern pairings."""

import random
import re
from fractions import Fraction

import pytest

import hfhat.measures
import hfhat.spinc
from hfhat import (
    Domain,
    Generator,
    NonIntegralMeasure,
    basepoint_multiplicity,
    chern_pairing,
    classify_rigid,
    connecting_domain,
    embedded_euler_char,
    enumerate_generators,
    euler_measure,
    homology,
    maslov_index,
    periodic_index,
    periodic_lattice,
    positive_domains,
    spinc_partition,
)
from hfhat.corpus import build
from hfhat.domains import _positive_solutions

from conftest import (
    ADMISSIBLE_NAMES,
    SMALL_NAMES,
    gen,
    generator_measure,
    point_measure,
    rectangle_diagram,
)

RNG = random.Random(11)


def sigma_domain(d, x):
    return Domain(tuple([1] * len(d.regions)), x, x)


def test_bigon_has_index_one():
    d = build("s1s2_g1")
    theta, eta = gen("theta"), gen("eta")
    doms = positive_domains(d, theta, eta, 1, 0)
    assert len(doms) == 2
    for dom in doms:
        assert maslov_index(d, dom) == 1
        assert embedded_euler_char(d, dom) == 1


def test_fundamental_class_has_index_two():
    for name in SMALL_NAMES:
        d = build(name)
        x = enumerate_generators(d)[0]
        assert maslov_index(d, sigma_domain(d, x)) == 2


def test_bigon_plus_fundamental_class_has_index_three():
    d = build("s1s2_g1")
    theta, eta = gen("theta"), gen("eta")
    bigon = positive_domains(d, theta, eta, 1, 0)[0]
    shifted = Domain(
        tuple(c + 1 for c in bigon.coefficients), theta, eta
    )
    assert maslov_index(d, shifted) == 3


def test_sigma_embedded_chi_on_one_point_diagram():
    d = build("s3_g1")
    x = enumerate_generators(d)[0]
    assert embedded_euler_char(d, sigma_domain(d, x)) == -1


def test_rectangle_has_index_one_and_chi_one():
    d = rectangle_diagram()
    x, y = enumerate_generators(d)
    doms = positive_domains(d, x, y, 1, 0)
    assert len(doms) == 2
    for dom in doms:
        assert maslov_index(d, dom) == 1
        assert embedded_euler_char(d, dom) == 1


def test_index_formula_identity():
    """ind = g - chi_emb + 2 e on arbitrary connecting domains."""
    for name in SMALL_NAMES:
        d = build(name)
        gens = enumerate_generators(d)
        for x in gens:
            for y in gens:
                dom = connecting_domain(d, x, y)
                if dom is None:
                    continue
                ind = maslov_index(d, dom)
                chi = embedded_euler_char(d, dom)
                e = euler_measure(d, dom)
                assert ind == d.genus - chi + 2 * e


def test_euler_measure_linear():
    d = build("gsph(2)")
    a = [RNG.randint(-2, 2) for _ in d.regions]
    b = [RNG.randint(-2, 2) for _ in d.regions]
    s = [u + v for u, v in zip(a, b)]
    assert euler_measure(d, s) == euler_measure(d, a) + euler_measure(d, b)


def test_point_measure_of_sigma_is_one():
    for name in SMALL_NAMES:
        d = build(name)
        ones = [1] * len(d.regions)
        for p in d.points:
            assert point_measure(d, ones, p) == 1
        for x in enumerate_generators(d):
            assert generator_measure(d, ones, x) == len(x.points)


def test_chern_pairing_kills_sigma():
    for name in SMALL_NAMES:
        d = build(name)
        x = enumerate_generators(d)[0]
        assert chern_pairing(d, x, [1] * len(d.regions)) == 0


def test_chern_pairing_linear_in_lattice():
    d = build("s1s2_wind")
    x = enumerate_generators(d)[0]
    basis = periodic_lattice(d).basis
    for _ in range(20):
        c1, c2 = RNG.randint(-3, 3), RNG.randint(-3, 3)
        combo = [c1 * u + c2 * v for u, v in zip(*basis)]
        assert chern_pairing(d, x, combo) == c1 * chern_pairing(
            d, x, basis[0]
        ) + c2 * chern_pairing(d, x, basis[1])


def test_periodic_index_matches_maslov():
    for name in SMALL_NAMES:
        d = build(name)
        x = enumerate_generators(d)[0]
        lat = periodic_lattice(d)
        vectors = [lat.sigma] + [
            tuple(u + v for u, v in zip(vec, lat.sigma)) for vec in lat.basis
        ]
        for vec in vectors:
            got = periodic_index(d, x, vec)
            assert got == maslov_index(d, Domain(tuple(vec), x, x))


def test_basepoint_multiplicity_reads_coefficient():
    d = build("s1s2_g1")
    x = enumerate_generators(d)[0]
    coeffs = [0] * len(d.regions)
    coeffs[d.basepoint] = 5
    assert basepoint_multiplicity(d, Domain(tuple(coeffs), x, x)) == 5


@pytest.mark.parametrize("length", [1, 2, 4])
def test_measures_refuse_a_vector_of_the_wrong_length(length):
    """On s1s2_g1 (3 regions) a vector that is short or long is refused
    with ValueError by every measure, before any coefficient is read:
    zip would otherwise truncate euler_measure to a wrong value."""
    d = build("s1s2_g1")
    x, y = enumerate_generators(d)
    coeffs = (1,) * length
    dom = Domain(coeffs, x, y)
    calls = [
        lambda: euler_measure(d, coeffs),
        lambda: basepoint_multiplicity(d, coeffs),
        lambda: maslov_index(d, dom),
        lambda: embedded_euler_char(d, dom),
        lambda: chern_pairing(d, x, coeffs),
        lambda: periodic_index(d, x, coeffs),
        lambda: classify_rigid(d, dom),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=f"{length} coefficients given for the 3 regions"):
            call()


@pytest.mark.parametrize("points", [("nope",), ("eta", "theta"), ()], ids=["foreign point", "two points", "none"])
def test_index_measures_refuse_a_domain_between_non_generators(points):
    """On s1s2_g1 (genus 1) maslov_index, embedded_euler_char and
    classify_rigid refuse, with ValueError naming it, a from or to end
    that is not a generator of d, where they used to raise KeyError or
    NonIntegralMeasure."""
    d = build("s1s2_g1")
    x = enumerate_generators(d)[0]
    bad = Generator(points)
    zero = (0,) * len(d.regions)
    for dom in (Domain(zero, bad, x), Domain(zero, x, bad)):
        for measure in (maslov_index, embedded_euler_char, classify_rigid):
            with pytest.raises(ValueError, match=re.escape(f"{bad} is not a generator of the diagram")):
                measure(d, dom)


def test_homology_and_gradings_reach_the_exported_index(monkeypatch):
    """The Spin^c gradings and the positive-domain filter of homology
    compute the index through the exported, checked maslov_index, the
    name a tracer rebinds: there is no unchecked copy beside it."""
    calls = []
    real = hfhat.measures.maslov_index
    for module in (hfhat.measures, hfhat.spinc):
        monkeypatch.setattr(module, "maslov_index", lambda d, D: calls.append(D) or real(d, D))
    d = build("gsph(2)")
    spinc_partition(d)
    graded = len(calls)
    homology(d)
    assert 0 < graded < len(calls)


@pytest.mark.parametrize("value", [0.5, 1.0, Fraction(1), "1", None], ids=["half", "float", "fraction", "str", "none"])
def test_measures_refuse_non_integer_coefficients(value):
    """On gsph(2) every measure refuses, with ValueError, coefficients
    that are not ints, and a dict, whose keys zip would read as the
    coefficients.  The index used to return the float 1.0 on halves."""
    d = build("gsph(2)")
    n = len(d.regions)
    x = enumerate_generators(d)[0]
    coeffs = [value] * n
    dom = Domain(tuple(coeffs), x, x)
    calls = [
        lambda: euler_measure(d, coeffs),
        lambda: euler_measure(d, {i: 0 for i in range(n)}),
        lambda: basepoint_multiplicity(d, coeffs),
        lambda: maslov_index(d, dom),
        lambda: embedded_euler_char(d, dom),
        lambda: chern_pairing(d, x, coeffs),
        lambda: periodic_index(d, x, coeffs),
        lambda: classify_rigid(d, dom),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="coefficients"):
            call()


def measure_index(d, dom):
    """The index as the sum of the rational measures."""
    return (
        euler_measure(d, dom)
        + generator_measure(d, dom, dom.from_gen)
        + generator_measure(d, dom, dom.to_gen)
    )


@pytest.mark.parametrize("name", ADMISSIBLE_NAMES)
def test_integer_index_matches_measures_on_positive_domains(name):
    """The integer index, embedded chi and Chern pairing against the
    rational measures: on every nonnegative domain at n_z = 0 and 1,
    that is every domain positive_domains can return for some index, on
    the SMALL_NAMES diagrams where it returns any (it raises
    UnboundedEnumeration on the other two), and on every periodic basis
    vector at every generator."""
    d = build(name)
    gens = enumerate_generators(d)
    for x in gens:
        for y in gens:
            for nz in (0, 1):
                for coeffs in _positive_solutions(d, x, y, nz):
                    dom = Domain(coeffs, x, y)
                    assert maslov_index(d, dom) == measure_index(d, dom), (x, y, coeffs)
                    chi = (
                        d.genus
                        + euler_measure(d, dom)
                        - generator_measure(d, dom, x)
                        - generator_measure(d, dom, y)
                    )
                    assert embedded_euler_char(d, dom) == chi, (x, y, coeffs)
                    check_chern_pairing(d, x, coeffs)
        for vec in periodic_lattice(d).basis:
            check_chern_pairing(d, x, vec)
            check_chern_pairing(d, x, [v + 1 for v in vec])


def check_chern_pairing(d, x, coeffs):
    """The integer pairing against e(P0) + 2 n_x(P0), P0 = P - n_z [Sigma];
    off the periodic lattice that can be fractional, and must then raise."""
    nz = coeffs[d.basepoint]
    p0 = [c - nz for c in coeffs]
    want = euler_measure(d, p0) + 2 * generator_measure(d, p0, x)
    if want.denominator == 1:
        assert chern_pairing(d, x, coeffs) == want, (x, coeffs)
    else:
        with pytest.raises(NonIntegralMeasure):
            chern_pairing(d, x, coeffs)


@pytest.mark.parametrize("name", SMALL_NAMES)
def test_integer_index_matches_measures_on_single_regions(name):
    """A single region is not a domain, so its index can be fractional:
    the integer index then raises, and agrees otherwise."""
    d = build(name)
    gens = enumerate_generators(d)
    fractional = 0
    for i in range(len(d.regions)):
        coeffs = tuple(int(j == i) for j in range(len(d.regions)))
        for x in gens:
            for y in gens:
                dom = Domain(coeffs, x, y)
                want = measure_index(d, dom)
                if want.denominator == 1:
                    assert maslov_index(d, dom) == want
                else:
                    fractional += 1
                    with pytest.raises(NonIntegralMeasure):
                        maslov_index(d, dom)
    if name in ("lens(3,1)", "lens(3,2)", "lens(5,2)"):
        assert fractional  # a square with one corner at x = y has index 1/2
