"""Derived data is owned by the diagram object and freed with it."""

import gc
import weakref

import hfhat
from hfhat import build, homology, periodic_lattice, validate


def test_derived_data_is_computed_once_per_object():
    d = build("lens(5,2)")
    assert validate(d) is validate(d)
    assert periodic_lattice(d) is periodic_lattice(d)
    twin = build("lens(5,2)")
    assert twin == d and twin is not d
    assert validate(twin) is not validate(d)
    assert periodic_lattice(twin) is not periodic_lattice(d)


def test_diagram_is_freed_after_homology():
    d = build("gsph(2)")
    homology(d)
    ref = weakref.ref(d)
    del d
    gc.collect()
    assert ref() is None


def test_no_exported_function_keeps_a_cache():
    for name in hfhat.__all__:
        assert not hasattr(getattr(hfhat, name), "cache_info"), name
