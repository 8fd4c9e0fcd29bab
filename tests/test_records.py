"""Record types: their text, immutability and equality, and what
importing the command line costs."""

import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hfhat import (
    AdmissibilityReport,
    ArcRef,
    Domain,
    Generator,
    GradedComplex,
    HomologyClassReport,
    PeriodicLattice,
    Region,
    RigidShape,
    SpincClass,
    ValidationReport,
    build,
    periodic_lattice,
)
from hfhat.diagram import QuadrantStructure, _ArcWalk
from hfhat.domains import BoundarySystem
from hfhat.exactla import LpResult

_X, _Y = Generator(("x",)), Generator(("y",))
_CLASS = SpincClass((_X,), 0, ((_X, 0),))
_CLASS_TEXT = "SpincClass(members=(Generator(points=('x',)),), divisor=0, gradings=((Generator(points=('x',)), 0),))"

# One instance of every record type, with its repr as the dataclass
# records printed it.
RECORDS = [
    (ArcRef("a", 0, 1, -1), "ArcRef(curve='a', index=0, arc=1, dir=-1)"),
    (
        Region(0, ((ArcRef("a", 0, 0, 1), ArcRef("b", 0, 0, 1)),)),
        "Region(genus=0, cycles=((ArcRef(curve='a', index=0, arc=0, dir=1), "
        "ArcRef(curve='b', index=0, arc=0, dir=1)),))",
    ),
    (ValidationReport((("genus", "genus 0 < 1"),)), "ValidationReport(violations=(('genus', 'genus 0 < 1'),))"),
    (
        _ArcWalk({"x": ([0], [0])}, {"x": 0}, [("a0[0]", "x", "x")], 1, [[(0, 1), (0, -1)]], {"x": [(0, 0)]}, []),
        "_ArcWalk(curves={'x': ([0], [0])}, rows={'x': 0}, arcs=[('a0[0]', 'x', 'x')], "
        "alpha_arcs=1, sides=[[(0, 1), (0, -1)]], slots={'x': [(0, 0)]}, breaks=[])",
    ),
    (QuadrantStructure({"x": (0, 0, 0, 0)}), "QuadrantStructure(corners={'x': (0, 0, 0, 0)})"),
    (Generator(("x", "y")), "Generator(points=('x', 'y'))"),
    (
        Domain((1, 0), _X, _Y),
        "Domain(coefficients=(1, 0), from_gen=Generator(points=('x',)), to_gen=Generator(points=('y',)))",
    ),
    (PeriodicLattice(((1, -1),), (1, 1)), "PeriodicLattice(basis=((1, -1),), sigma=(1, 1))"),
    (
        BoundarySystem(("x",), ((1, -1),), ((-1, 1),)),
        "BoundarySystem(points=('x',), l_alpha=((1, -1),), l_beta=((-1, 1),))",
    ),
    (_CLASS, _CLASS_TEXT),
    (
        LpResult("optimal", Fraction(1, 2), (Fraction(1, 2),)),
        "LpResult(status='optimal', value=Fraction(1, 2), point=(Fraction(1, 2),))",
    ),
    (LpResult("infeasible"), "LpResult(status='infeasible', value=None, point=None)"),
    (AdmissibilityReport("weak", False, (0, 2, 1)), "AdmissibilityReport(kind='weak', verdict=False, witness=(0, 2, 1))"),
    (AdmissibilityReport("strong", True), "AdmissibilityReport(kind='strong', verdict=True, witness=None)"),
    (RigidShape("Bigon", (0,), ("x", "y")), "RigidShape(tag='Bigon', support=(0,), corners=('x', 'y'))"),
    (
        GradedComplex(_CLASS, (_X,), (0,), ()),
        f"GradedComplex(spinc={_CLASS_TEXT}, order=(Generator(points=('x',)),), columns=(0,), audit=())",
    ),
    (HomologyClassReport(_CLASS, ((0, 1),)), f"HomologyClassReport(spinc={_CLASS_TEXT}, ranks=((0, 1),))"),
    (
        build("s3_g1"),
        "HeegaardDiagram(genus=1, alpha=(('x0',),), beta=(('x0',),), regions=(Region(genus=0, "
        "cycles=((ArcRef(curve='a', index=0, arc=0, dir=1), ArcRef(curve='b', index=0, arc=0, dir=1), "
        "ArcRef(curve='a', index=0, arc=0, dir=-1), ArcRef(curve='b', index=0, arc=0, dir=-1)),)),), "
        "basepoint=0)",
    ),
]


@pytest.mark.parametrize("record, text", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_record_repr_and_immutability(record, text):
    assert repr(record) == text
    name = next(iter(type(record).__annotations__))
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


def test_records_are_tuples_with_their_own_text():
    assert str(ValidationReport((("genus", "genus 0 < 1"),))) == "genus: genus 0 < 1"
    assert str(ValidationReport(())) == "ok"
    assert str(Generator(("x", "y"))) == "{x,y}"
    assert Generator(("x",)) == (("x",),) and hash(Generator(("x",))) == hash((("x",),))
    assert list(Domain((1, 0), _X, _Y)) == [(1, 0), _X, _Y]
    assert Domain((1, 0), _X, _Y)._replace(to_gen=_X).to_gen == _X


def test_diagram_value_leaves_out_the_store():
    """Equality, hashing and ``_replace`` read the five fields, never the
    derived store."""
    d, twin = build("lens(5,2)"), build("lens(5,2)")
    periodic_lattice(d)
    assert len(d._derived) > len(twin._derived)
    assert d == twin and hash(d) == hash(twin) and d is not twin
    same = d._replace()
    assert same == d and hash(same) == hash(d) and not same._derived
    moved = d._replace(basepoint=d.basepoint + 1)
    assert moved.basepoint == d.basepoint + 1 and moved.regions is d.regions and not moved._derived
    assert moved != d
    with pytest.raises(TypeError):
        d._replace(colour=1)
    with pytest.raises(AttributeError):
        del d.genus
    assert d != (d.genus, d.alpha, d.beta, d.regions, d.basepoint)


SRC = Path(__file__).resolve().parents[1] / "src"
# Loaded only through ``dataclasses``; the command line needs none of them.
_AVOIDED = {"dataclasses", "inspect", "ast", "dis"}


def _loaded(code: str) -> set[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    flags = ["-O"] * sys.flags.optimize
    out = subprocess.run(
        [sys.executable, *flags, "-c", code + "import sys; print(*sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    return set(out.split())


def test_cli_import_loads_no_dataclass_machinery():
    """A fresh ``import hfhat.cli`` loads none of ``dataclasses``,
    ``inspect``, ``ast`` or ``dis`` beyond what a bare interpreter loads."""
    bare = _loaded("")
    cli = _loaded("import hfhat.cli; ")
    assert "hfhat.cli" in cli
    assert (cli - bare) & _AVOIDED == set()
