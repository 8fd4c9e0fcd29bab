"""Derived data is owned by the diagram object and freed with it, the
CLI holds at most one diagram, and the point and arc layout is owned by
one module."""

import ast
import gc
import random
import weakref
from pathlib import Path

import pytest

import hfhat
from hfhat import (
    HeegaardDiagram,
    area_certificate,
    boundary_system,
    build,
    connected_sum,
    enumerate_generators,
    homology,
    periodic_lattice,
    positive_domains,
    serialize_hfd,
    spinc_partition,
    strong_admissible,
    validate,
)
from hfhat.diagram import _arc_walk
from hfhat.domains import _lattice_points, _positive_solutions

from conftest import SMALL_NAMES


def test_derived_data_is_computed_once_per_object():
    d = build("lens(5,2)")
    assert validate(d) is validate(d)
    assert periodic_lattice(d) is periodic_lattice(d)
    assert spinc_partition(d) is spinc_partition(d)
    assert isinstance(spinc_partition(d), tuple)
    twin = build("lens(5,2)")
    assert twin == d and twin is not d
    assert validate(twin) is not validate(d)
    assert periodic_lattice(twin) is not periodic_lattice(d)
    assert spinc_partition(twin) == spinc_partition(d)
    assert spinc_partition(twin) is not spinc_partition(d)


def test_keyed_data_is_computed_once_per_object():
    d = build("gsph(2)")
    (c,) = spinc_partition(d)
    assert area_certificate(d, "strong", c) is area_certificate(d, "strong", c)
    assert strong_admissible(d, c) is strong_admissible(d, c)
    x, y = c.members[:2]
    assert _positive_solutions(d, x, y, 0) is _positive_solutions(d, x, y, 0)
    twin = build("gsph(2)")
    assert any(isinstance(slot, tuple) for slot in d._derived)
    assert not any(isinstance(slot, tuple) for slot in twin._derived)
    assert area_certificate(twin, "strong", c) == area_certificate(d, "strong", c)
    assert area_certificate(twin, "strong", c) is not area_certificate(d, "strong", c)
    assert strong_admissible(twin, c) is not strong_admissible(d, c)


def test_diagram_is_freed_after_homology():
    d = build("gsph(2)")
    homology(d)
    ref = weakref.ref(d)
    del d
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("name", ["gsph(2)", "lens(9,5)"])
def test_diagram_is_freed_after_certificates_and_homology(name):
    d = build(name)
    for c in spinc_partition(d):
        for mode in ("weak", "strong"):
            area_certificate(d, mode, c)
    area_certificate(d, "weak")
    homology(d)
    x = enumerate_generators(d)[0]
    positive_domains(d, x, x, 2, 1)
    ref = weakref.ref(d)
    del d
    gc.collect()
    assert ref() is None


def test_no_exported_function_keeps_a_cache():
    for name in hfhat.__all__:
        assert not hasattr(getattr(hfhat, name), "cache_info"), name


SRC = Path(__file__).resolve().parents[1] / "src" / "hfhat"


def test_arc_layout_is_read_only_in_diagram():
    """Only diagram.py reads region boundary cycles, and only diagram.py
    and generators.py read the curves' point lists; every other module
    takes arcs, their ends and their sides from diagram.py's arc walk."""
    allowed = {
        "cycles": {"diagram.py"},
        "alpha": {"diagram.py", "generators.py"},
        "beta": {"diagram.py", "generators.py"},
    }
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10  # the scan found the package
    readers = {attr: set() for attr in allowed}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in allowed:
                readers[node.attr].add(path.name)
    assert readers["cycles"] == allowed["cycles"], readers
    assert all(readers[attr] <= allowed[attr] for attr in allowed), readers
    assert not hasattr(HeegaardDiagram, "curve")
    assert not hasattr(HeegaardDiagram, "arc_endpoints")


def test_point_layout_is_read_only_in_diagram():
    """Only diagram.py reads a diagram's sorted points (``d.points``);
    every other module takes each point's row and curves from the arc
    walk, and generators keeps no point-to-curve map of its own."""
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "points"
                and isinstance(node.value, ast.Name)
                and node.value.id in ("d", "d1", "d2")
            ):
                readers.add(path.name)
    assert readers == {"diagram.py"}, readers
    assert not hasattr(hfhat.generators, "_point_curves")


def test_walk_lists_the_points_in_canonical_order():
    """On the corpus and six seeded sums the walk's point table, its rows
    and the boundary system's points all follow ``d.points``, and each
    point lies on one curve of each family."""
    rng = random.Random("walk point order")
    diagrams = [build(name) for name in SMALL_NAMES + ["lens(9,5)", "gsph(3)"]]
    for _ in range(6):
        diagrams.append(connected_sum(*map(build, rng.sample(SMALL_NAMES, 2))))
    for d in diagrams:
        walk = _arc_walk(d)
        assert tuple(walk.curves) == d.points
        assert walk.rows == {p: row for row, p in enumerate(d.points)}
        assert boundary_system(d).points == d.points
        for p, (on_alpha, on_beta) in walk.curves.items():
            assert len(on_alpha) == len(on_beta) == 1
            assert p in d.alpha[on_alpha[0]] and p in d.beta[on_beta[0]]


def test_cli_holds_at_most_one_diagram(tmp_path, capsys, monkeypatch):
    """``hf``'s loader holds the last valid diagram only until a
    different text is loaded: the held diagram is freed before the next
    text is parsed."""
    import hfhat.cli

    first, second = tmp_path / "first.hfd", tmp_path / "second.hfd"
    first.write_text(serialize_hfd(build("gsph(2)")), encoding="utf-8")
    second.write_text(serialize_hfd(build("lens(5,2)")), encoding="utf-8")
    assert hfhat.cli.run(["homology", str(first)]) == 0
    ref = weakref.ref(hfhat.cli._held[1])
    assert hfhat.cli.run(["admissible", str(first), "--strong"]) == 0
    assert ref() is hfhat.cli._held[1]
    alive_at_parse = []
    real = hfhat.cli.parse_hfd

    def parse(text):
        gc.collect()
        alive_at_parse.append(ref() is not None)
        return real(text)

    monkeypatch.setattr(hfhat.cli, "parse_hfd", parse)
    assert hfhat.cli.run(["homology", str(second)]) == 0
    capsys.readouterr()
    assert alive_at_parse == [False]
    assert hfhat.cli._held[0] == second.read_text(encoding="utf-8")


def test_cli_domains_sweep_keeps_the_held_store_bounded(tmp_path, capsys):
    """``hf domains`` leaves no per-query lattice points on the held
    diagram: sweeping ``--nz`` on one file keeps its store's size."""
    import hfhat.cli

    d = build("gsph(3)")
    path = tmp_path / "gsph3.hfd"
    path.write_text(serialize_hfd(d), encoding="utf-8")
    x = ",".join(enumerate_generators(d)[0].points)
    sizes = []
    for k in range(12):
        argv = ["domains", str(path), "--from", x, "--to", x, "--index", str(2 * k), "--nz", str(k)]
        assert hfhat.cli.run(argv) == 0
        sizes.append(len(hfhat.cli._held[1]._derived))
    capsys.readouterr()
    assert sizes == sizes[:1] * 12, sizes
    assert hfhat.cli.run(["homology", str(path)]) == 0
    assert any(isinstance(slot, tuple) and slot[0] is _lattice_points.__wrapped__
               for slot in hfhat.cli._held[1]._derived)


def test_cli_domains_sweep_frees_its_points_without_the_cyclic_collector(tmp_path, capsys):
    """Reference counting alone frees an ``hf domains`` query's lattice
    points when the command is done: with the cyclic collector off, the
    ``gsph(3)`` ``--nz`` sweep leaves the traced heap close to where a
    collection brings it.  What a collection still frees is argparse's
    formatter cycles and the interpreter's tuple free lists, well under
    0.5 MB."""
    import tracemalloc

    import hfhat.cli

    d = build("gsph(3)")
    path = tmp_path / "gsph3.hfd"
    path.write_text(serialize_hfd(d), encoding="utf-8")
    x = ",".join(enumerate_generators(d)[0].points)
    del d
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        for k in range(12):
            argv = ["domains", str(path), "--from", x, "--to", x, "--index", str(2 * k), "--nz", str(k)]
            assert hfhat.cli.run(argv) == 0
        capsys.readouterr()
        left = tracemalloc.get_traced_memory()[0]
        gc.collect()
        collected = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert left - collected < 500_000, (left, collected)
