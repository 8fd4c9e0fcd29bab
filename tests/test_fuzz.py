"""Seeded fuzz of the HFD document surface.

Every corpus diagram is serialized and then mutated at the JSON level:
values of the wrong type, huge integers, deleted, duplicated and
unknown keys, out-of-range indices, duplicated and foreign points, and
deep nesting.  ``parse_hfd`` must return a diagram or raise
``HFDFormatError``, ``validate`` must answer on whatever it returns,
and ``hf validate --json`` and ``hf homology`` must exit 0-4 without a
traceback.  The mutants are drawn from fixed seeds, in process.
"""

from __future__ import annotations

import json
import random

import pytest

from hfhat import HFDFormatError, build, parse_hfd, serialize_hfd, validate
from hfhat.cli import run

from conftest import SMALL_NAMES


class _Obj(list):
    """A JSON object as its list of (key, value) pairs, so that a key
    can be deleted, duplicated or renamed before the text is written."""


def _tree(value):
    if isinstance(value, dict):
        return _Obj((k, _tree(v)) for k, v in value.items())
    if isinstance(value, list):
        return [_tree(v) for v in value]
    return value


class _Nested:
    """A value inside ``depth`` one-element arrays."""

    def __init__(self, value, depth: int):
        self.value, self.depth = value, depth


def _dump(value) -> str:
    if isinstance(value, _Nested):
        return "[" * value.depth + _dump(value.value) + "]" * value.depth
    if isinstance(value, _Obj):
        return "{" + ", ".join(f"{json.dumps(k)}: {_dump(v)}" for k, v in value) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_dump(v) for v in value) + "]"
    return json.dumps(value)


def _slots(value):
    """Every (container, position) in the tree: a value's place."""
    if isinstance(value, _Obj):
        for i, (_, v) in enumerate(value):
            yield value, i
            yield from _slots(v)
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield value, i
            yield from _slots(v)


def _get(container, i):
    return container[i][1] if isinstance(container, _Obj) else container[i]


def _put(container, i, new):
    if isinstance(container, _Obj):
        container[i] = (container[i][0], new)
    else:
        container[i] = new


_WRONG = ["x", 1.5, None, True, False, [], {}, 0, -1, 10**30, -(10**30), [[]], {"arc": 0}]


def _mutate(doc, rng: random.Random) -> None:
    """Apply one seeded mutation to ``doc`` in place."""
    slots = list(_slots(doc))
    container, i = rng.choice(slots)
    value = _get(container, i)
    # Weighted so that about half the mutants still parse and reach validate.
    kind = rng.choices(["wrong type", "key", "index", "point", "nesting"], [2, 2, 4, 5, 1])[0]
    if kind == "wrong type":
        _put(container, i, _tree(rng.choice(_WRONG)))
    elif kind == "key":
        objects = [doc] + [v for c, j in slots if isinstance(v := _get(c, j), _Obj)]
        obj = rng.choice(objects)
        if obj:
            j = rng.randrange(len(obj))
            key, v = obj[j]
            action = rng.choice(["delete", "duplicate", "rename"])
            if action == "delete":
                del obj[j]
            elif action == "duplicate":
                obj.insert(rng.randrange(len(obj) + 1), (key, _tree(rng.choice(_WRONG + [v]))))
            else:
                obj[j] = (rng.choice(["extra", "Genus", "", key + key]), v)
    elif kind == "index":
        ints = [(c, j) for c, j in slots if type(_get(c, j)) is int]
        if ints:
            container, i = rng.choice(ints)
            n = _get(container, i)
            _put(container, i, rng.choice([n + 1, n - 1, -n - 1, n + 7, 2**63, 0, 1]))
    elif kind == "point":
        points = [(c, j) for c, j in slots if isinstance(_get(c, j), str) and not isinstance(c, _Obj)]
        if points:
            container, i = rng.choice(points)
            other = _get(*rng.choice(points))
            action = rng.choice(["foreign", "another", "duplicate", "drop"])
            if action == "foreign":
                _put(container, i, rng.choice(["fresh", "", "nope.r"]))
            elif action == "another":
                _put(container, i, other)
            elif action == "duplicate":
                container.insert(rng.randrange(len(container) + 1), other)
            elif len(container) > 1:
                del container[i]
    else:
        # Nesting deeper than the JSON parser goes is an unreadable file,
        # not a traceback; shallow nesting must parse and fail a check.
        _put(container, i, _Nested(value, rng.choice([1, 2, 40, 100_000])))


def mutants(per_diagram: int = 80):
    """``(name, text)`` for seeded mutants of every corpus diagram, one to
    three mutations each."""
    for name in SMALL_NAMES:
        rng = random.Random(f"hfd fuzz {name}")
        base = json.loads(serialize_hfd(build(name)))
        for _ in range(per_diagram):
            doc = _tree(base)
            for _ in range(rng.randint(1, 3)):
                _mutate(doc, rng)
            yield name, _dump(doc)


def test_parse_and_validate_never_raise_on_mutants():
    """parse_hfd returns a diagram or raises HFDFormatError, and validate
    answers on every diagram it returns.  The mutants reach both
    outcomes, valid and invalid diagrams among the parsed ones, and the
    point and arc checks that read the arc walk."""
    outcomes, kinds = set(), set()
    for _, text in mutants():
        try:
            d = parse_hfd(text)
        except HFDFormatError:
            outcomes.add("unreadable")
            continue
        report = validate(d)
        outcomes.add("valid" if report.ok else "invalid")
        kinds |= {name for name, _ in report.violations}
    assert outcomes == {"unreadable", "valid", "invalid"}
    assert {"point_membership", "arc_coverage", "cycle_connectivity"} <= kinds


@pytest.mark.parametrize("command", [["validate", "--json"], ["homology"]])
def test_cli_exits_0_to_4_on_mutants(tmp_path, capsys, command):
    """``hf validate --json`` and ``hf homology`` answer every mutant
    with an exit code in 0..4 and no traceback."""
    codes = set()
    path = tmp_path / "mutant.hfd"
    for _, text in mutants():
        path.write_text(text, encoding="utf-8")
        code = run([command[0], str(path), *command[1:]])
        _, err = capsys.readouterr()
        assert code in range(5), (code, text[:200])
        assert "Traceback" not in err
        codes.add(code)
    assert 1 in codes and 0 in codes
