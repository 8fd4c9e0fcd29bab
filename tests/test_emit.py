"""``--json`` output: ``cli._json`` writes what ``json.dumps(indent=2,
sort_keys=True)`` writes, byte for byte, on seeded random documents and
on every document the corpus commands print."""

from __future__ import annotations

import json
import random
from collections import OrderedDict

import pytest

import hfhat.cli
from hfhat.cli import _json, run

from conftest import SMALL_NAMES

_TEXT = ["", "a", "theta", "r.eta", "é", "ü∂", "\x00", "\x1f\t\n", '"\\', " ", "\U0001f600", "\udc80"]


def _key(rng: random.Random) -> str:
    return "".join(rng.choice(_TEXT) for _ in range(rng.randrange(3)))


def _scalar(rng: random.Random):
    return rng.choice([
        lambda: rng.randrange(-10, 10),
        lambda: rng.randrange(-(1 << 80), 1 << 80),
        lambda: -(1 << 64) - rng.randrange(1 << 70),
        lambda: rng.choice([True, False, None]),
        lambda: _key(rng),
        lambda: rng.choice([0.5, -2.0, 1e300, float("nan")]),
    ])()


def _document(rng: random.Random, depth: int = 0):
    """Nested and empty dicts, lists and tuples, leaf lists of one type
    and of mixed types, dicts with int keys and dict subclasses."""
    if depth > 3 or rng.random() < 0.2:
        return _scalar(rng)
    size = rng.randrange(5)
    kind = rng.randrange(7)
    if kind == 0:
        return [rng.randrange(-(1 << 70), 1 << 70) for _ in range(size)]
    if kind == 1:
        return tuple(_key(rng) for _ in range(size))
    if kind == 2:
        return [_document(rng, depth + 1) for _ in range(size)]
    if kind == 3:
        return tuple(_document(rng, depth + 1) for _ in range(size))
    if kind == 4:
        return {rng.randrange(-5, 5): _document(rng, depth + 1) for _ in range(size)}
    if kind == 5:
        return OrderedDict((_key(rng), _document(rng, depth + 1)) for _ in range(size))
    return {_key(rng): _document(rng, depth + 1) for _ in range(size)}


def test_emitter_matches_json_on_random_documents():
    rng = random.Random(25)
    for _ in range(2000):
        doc = _document(rng)
        assert _json(doc) == json.dumps(doc, indent=2, sort_keys=True), doc


def _corpus_commands(path, tmp_path):
    out = str(tmp_path / "out.hfd")
    yield ["validate", path]
    yield ["generators", path]
    yield ["spinc", path]
    yield ["homology", path]
    yield ["homology", path, "--strict-rectangles"]
    yield ["admissible", path]
    yield ["admissible", path, "--strong"]
    yield ["admissible", path, "--class", "0"]
    yield ["stabilize", path, "-o", out]
    for x in ("theta", "eta"):
        yield ["domains", path, "--from", x, "--to", "eta", "--index", "1", "--nz", "0"]


@pytest.mark.parametrize("name", SMALL_NAMES + ["lens(11,3)"])
def test_emitter_matches_json_on_corpus_documents(name, tmp_path, capsys, monkeypatch):
    """Every ``--json`` document of the corpus commands is printed as
    ``json.dumps(indent=2, sort_keys=True)`` prints it."""
    reports = []
    real = hfhat.cli._emit
    monkeypatch.setattr(hfhat.cli, "_emit", lambda report, *rest: reports.append(report) or real(report, *rest))
    path = str(tmp_path / "d.hfd")
    argvs = [["corpus", name, "-o", path], *_corpus_commands(path, tmp_path)]
    for argv in argvs:
        reports.clear()
        run(argv + ["--json"])
        out = capsys.readouterr().out
        assert out == "".join(json.dumps(r, indent=2, sort_keys=True) + "\n" for r in reports), argv
    bad = tmp_path / "bad.hfd"
    bad.write_text('{"genus": 1')
    reports.clear()
    assert run(["validate", str(bad), "--json"]) == 1
    (report,) = reports
    assert capsys.readouterr().out == json.dumps(report, indent=2, sort_keys=True) + "\n"
