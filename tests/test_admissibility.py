"""Weak/strong admissibility verdicts, witnesses, and area certificates."""

import os
import random
import re
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from hfhat import (
    Generator,
    InternalError,
    NotAdmissible,
    SpincClass,
    area_certificate,
    chern_pairing,
    connected_sum,
    periodic_lattice,
    spinc_partition,
    strong_admissible,
    weak_admissible,
)
from hfhat.corpus import build

from conftest import ADMISSIBLE_NAMES, SMALL_NAMES


def check_weak_certificate(d, areas, basis):
    assert len(areas) == len(d.regions)
    assert all(a > 0 for a in areas)
    for vec in basis:
        assert sum(Fraction(c) * a for c, a in zip(vec, areas)) == 0


def test_s1s2_g1_weak_and_strong_with_certificates():
    d = build("s1s2_g1")
    assert weak_admissible(d).verdict
    (c,) = spinc_partition(d)
    assert weak_admissible(d, c).verdict
    assert strong_admissible(d, c).verdict
    areas = area_certificate(d, "weak")
    check_weak_certificate(d, areas, periodic_lattice(d).basis)
    areas = area_certificate(d, "strong", c)
    basis = periodic_lattice(d).basis
    x = c.members[0]
    assert sum(areas) == 1
    for vec in basis:
        total = sum(Fraction(cf) * a for cf, a in zip(vec, areas))
        assert total == Fraction(chern_pairing(d, x, vec), 2)


def test_s1s2_bad_fails_weak_with_nonnegative_witness():
    d = build("s1s2_bad")
    report = weak_admissible(d)
    assert not report.verdict
    w = report.witness
    assert all(c >= 0 for c in w) and any(c > 0 for c in w)
    assert w[d.basepoint] == 0
    # the witness is periodic: in the span of the lattice basis
    assert w == (0, 2, 1)
    with pytest.raises(NotAdmissible):
        area_certificate(d, "weak")


def test_s1s2_bad_is_strongly_admissible_for_its_class():
    """Class-restricted checks only see the zero-pairing sublattice."""
    d = build("s1s2_bad")
    (c,) = spinc_partition(d)
    assert weak_admissible(d, c).verdict
    assert strong_admissible(d, c).verdict


def test_s1s2_wind_fails_strong_with_verified_witness():
    d = build("s1s2_wind")
    (c,) = spinc_partition(d)
    assert c.divisor == 2
    report = strong_admissible(d, c)
    assert not report.verdict
    w = report.witness
    x = c.members[0]
    pairing = chern_pairing(d, x, w)
    assert pairing > 0 and pairing % 2 == 0
    assert max(w) <= pairing // 2
    with pytest.raises(NotAdmissible):
        area_certificate(d, "strong", c)


def test_s1s2_wind_class_weak_passes_but_unrestricted_fails():
    d = build("s1s2_wind")
    (c,) = spinc_partition(d)
    assert weak_admissible(d, c).verdict
    assert not weak_admissible(d).verdict


@pytest.mark.parametrize("name", ["lens(2,1)", "lens(5,2)", "lens(7,3)"])
def test_lens_vacuously_admissible(name):
    d = build(name)
    assert periodic_lattice(d).rank == 0
    assert weak_admissible(d).verdict
    for c in spinc_partition(d):
        assert weak_admissible(d, c).verdict
        assert strong_admissible(d, c).verdict
        areas = area_certificate(d, "strong", c)
        assert all(a > 0 for a in areas)


def test_weak_certificate_on_lens_skips_phase_one(simplex_runs):
    """lens(9,2) has no periodic domain, so its weak certificate LP has
    only the rows m - a_i <= 0 and a_i <= 1: every row starts on its
    slack and the simplex runs once, phase 2 alone."""
    d = build("lens(9,2)")
    areas = area_certificate(d, "weak")
    assert simplex_runs == [2 * len(d.regions)]
    check_weak_certificate(d, areas, periodic_lattice(d).basis)


@pytest.mark.parametrize("mode", ["weak", "strong"])
def test_certificate_check_rejects_a_wrong_area(monkeypatch, mode):
    """A strictly positive LP point that gives a periodic domain (weak)
    or the surface (strong) the wrong area fails the exact check."""
    from hfhat import admissibility

    d = build("s1s2_g1")
    c = None if mode == "weak" else spinc_partition(d)[0]
    assert (weak_admissible(d) if c is None else strong_admissible(d, c)).verdict
    i = next(i for i, v in enumerate(periodic_lattice(d).basis[0]) if v)
    real = admissibility.lp_optimize

    def nudged(objective, constraints):
        res = real(objective, constraints)
        point = list(res.point)
        point[i] += Fraction(1, 7)
        return res._replace(point=tuple(point))

    monkeypatch.setattr(admissibility, "lp_optimize", nudged)
    with pytest.raises(InternalError, match="an area other than"):
        area_certificate(d, mode, c)


@pytest.mark.parametrize("name", ADMISSIBLE_NAMES)
def test_admissible_corpus_passes_weak_everywhere(name, corpus_small):
    d = corpus_small[name]
    assert weak_admissible(d).verdict
    areas = area_certificate(d, "weak")
    check_weak_certificate(d, areas, periodic_lattice(d).basis)
    for c in spinc_partition(d):
        assert strong_admissible(d, c).verdict


def test_area_certificate_rejects_unknown_mode():
    d = build("s3_g1")
    with pytest.raises(ValueError):
        area_certificate(d, "medium")
    with pytest.raises(ValueError):
        area_certificate(d, "strong")


@pytest.mark.parametrize("mode", ["weak", "strong"])
def test_true_verdict_without_certificate_is_a_fault(mode, monkeypatch):
    """A true verdict guarantees a strictly positive area, so a margin
    LP that finds none is an internal fault, never a refusal."""
    import hfhat.admissibility as adm

    real = adm.lp_optimize

    def no_margin(objective, constraints):
        res = real(objective, constraints)
        return res._replace(value=Fraction(0)) if res.optimal else res

    monkeypatch.setattr(adm, "lp_optimize", no_margin)
    d = build("s1s2_g1")
    (c,) = spinc_partition(d)
    with pytest.raises(InternalError, match="no area vector is strictly positive"):
        area_certificate(d, mode, c)


@pytest.mark.parametrize("name", ADMISSIBLE_NAMES + ["lens(9,5)"])
def test_shared_object_answers_like_fresh_objects(name):
    """Verdicts and certificates stored per pairing vector on one object
    equal the answers of a fresh object per call."""
    d = build(name)
    for c in spinc_partition(d):
        assert strong_admissible(d, c) == strong_admissible(build(name), c)
        for mode in ("weak", "strong"):
            assert area_certificate(d, mode, c) == area_certificate(build(name), mode, c)
    assert area_certificate(d, "weak") == area_certificate(build(name), "weak")


def test_s1s2_wind_keeps_class_free_and_class_answers_apart(monkeypatch):
    """The class-free weak question (key None) and the class questions
    (key: the pairings (2, 2)) are stored side by side: the class has
    divisor 2, so its weak question is asked of its own zero-pairing
    sublattice."""
    import hfhat.admissibility as adm

    sublattices = []
    real = adm.vanishing_sublattice

    def counted(basis, pairings):
        sublattices.append(tuple(pairings))
        return real(basis, pairings)

    monkeypatch.setattr(adm, "vanishing_sublattice", counted)
    d = build("s1s2_wind")
    (c,) = spinc_partition(d)
    assert c.divisor == 2
    free = weak_admissible(d)
    restricted = weak_admissible(d, c)
    assert sublattices == [(2, 2)]
    strong = strong_admissible(d, c)
    assert not free.verdict and restricted.verdict and not strong.verdict
    assert free.witness != strong.witness
    fresh = build("s1s2_wind")
    assert strong_admissible(fresh, c) == strong
    assert weak_admissible(fresh, c) == restricted
    assert weak_admissible(fresh) == free
    assert area_certificate(d, "weak", c) == area_certificate(fresh, "weak", c)
    with pytest.raises(NotAdmissible) as exc:
        area_certificate(d, "weak")
    assert exc.value.witness == free.witness
    with pytest.raises(NotAdmissible) as exc:
        area_certificate(d, "strong", c)
    assert exc.value.witness == strong.witness


def test_torsion_classes_share_the_class_free_weak_answer(monkeypatch):
    """A torsion class (divisor 0: every Chern pairing is 0) gets the
    class-free weak verdict and certificate, the same objects, with no
    zero-pairing sublattice and no second recession LP.  Checked on the
    36 torsion classes of the corpus and of six seeded sums."""
    import hfhat.admissibility as adm

    def refuse(*args):
        raise AssertionError("a torsion class needs no class-restricted weak question")

    monkeypatch.setattr(adm, "vanishing_sublattice", refuse)
    monkeypatch.setattr(adm, "recession_direction", refuse)
    rng = random.Random("torsion sums")
    diagrams = [build(name) for name in SMALL_NAMES + ["lens(9,5)", "gsph(3)"]]
    for _ in range(6):
        diagrams.append(connected_sum(*map(build, rng.sample(SMALL_NAMES, 2))))
    checked = 0
    for d in diagrams:
        for c in spinc_partition(d):
            if c.divisor:
                continue
            report = weak_admissible(d, c)
            assert report is weak_admissible(d)
            if report.verdict:
                assert area_certificate(d, "weak", c) is area_certificate(d, "weak")
            strong_admissible(d, c)  # its weak part reads the class-free report too
            checked += 1
    assert checked == 36


@pytest.mark.parametrize("name", ["s1s2_wind", "lens(5,2)"])
def test_forged_class_is_refused(name):
    """A class whose representative is not a generator of the diagram
    is refused with ValueError by every admissibility question.  On a
    lens space the periodic basis is empty, so no Chern pairing is ever
    computed; the class used to get a true verdict and both area
    certificates there."""
    d = build(name)
    forged = SpincClass((Generator(("nope",)),), 0, ())
    calls = [
        lambda: weak_admissible(d, forged),
        lambda: strong_admissible(d, forged),
        lambda: area_certificate(d, "weak", forged),
        lambda: area_certificate(d, "strong", forged),
    ]
    for call in calls:
        with pytest.raises(ValueError, match=re.escape("{nope} is not a generator of the diagram")):
            call()


def test_stored_checks_survive_optimize():
    """Under python -O each check on a stored witness or certificate
    still raises InternalError on a corrupted result."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = textwrap.dedent(
        """
        import hfhat.admissibility as adm
        import hfhat.domains as dom
        import hfhat.spinc as spinc
        from hfhat import (Domain, InternalError, area_certificate, build,
                           enumerate_generators, positive_domains, spinc_partition,
                           strong_admissible, weak_admissible)
        from hfhat.domains import _assert_mirror, _weak_witness, periodic_lattice
        from hfhat.exactla import LpResult, lp_optimize

        def corrupt(change):
            def patched(objective, constraints):
                res = lp_optimize(objective, constraints)
                return res._replace(point=change(res.point)) if res.optimal else res
            return patched

        def certificate_positivity():
            adm.lp_optimize = corrupt(lambda p: (0 * p[0],) + p[1:])
            area_certificate(build("s1s2_g1"), "weak")

        def certificate_rows():
            adm.lp_optimize = corrupt(lambda p: (p[0] + 1,) + p[1:])
            d = build("lens(5,2)")
            area_certificate(d, "strong", spinc_partition(d)[0])

        def strong_witness():
            adm.lp_optimize = corrupt(lambda p: tuple(-v for v in p))
            d = build("s1s2_wind")
            strong_admissible(d, spinc_partition(d)[0])

        def recession_sign():
            dom.lp_optimize = corrupt(lambda p: tuple(-v for v in p))
            weak_admissible(build("s1s2_bad"))

        def bounding_lp():
            # The corpus basis of gsph(2) splits, so its sweep runs no
            # LP; the coupled basis (P_0, P_1 + P_0) bounds t_0 by LP.
            d = build("gsph(2)")
            lattice = dom.periodic_lattice(d)
            p0, p1 = lattice.basis
            coupled = lattice._replace(basis=(p0, tuple(a + b for a, b in zip(p1, p0))))
            dom.periodic_lattice = lambda d: coupled
            _weak_witness(d)
            dom.lp_optimize = lambda objective, constraints: LpResult("unbounded")
            x, y = spinc_partition(d)[0].members[:2]
            positive_domains(d, x, y, 1, 0)

        def last_bound():
            dom._weak_witness = lambda d: None
            x = enumerate_generators(build("s1s2_bad"))[0]
            positive_domains(build("s1s2_bad"), x, x, 0, 0)

        def mirror():
            d = build("s1s2_g1")
            x = enumerate_generators(d)[0]
            _assert_mirror(d, Domain((1, 0, 0), x, x))

        def gradings():
            spinc.connecting_domain = lambda d, x, y: None
            spinc_partition(build("s1s2_g1"))

        missed = []
        for check in (certificate_positivity, certificate_rows, strong_witness,
                      recession_sign, bounding_lp, last_bound, mirror, gradings):
            adm.lp_optimize = dom.lp_optimize = lp_optimize
            dom._weak_witness = _weak_witness
            dom.periodic_lattice = periodic_lattice
            spinc.connecting_domain = dom.connecting_domain
            try:
                check()
            except InternalError:
                continue
            missed.append(check.__name__)
        print(missed)
        raise SystemExit(1 if missed else 7)
        """
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True)
    assert proc.returncode == 7, proc.stdout.decode() + proc.stderr.decode()
