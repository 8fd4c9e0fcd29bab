"""argv equivalence: ``hf`` answers every argument list as its full parser would.

``run`` reads a named subcommand's arguments with that subcommand's own
parser and builds the full ``hf`` parser only for the answers that come
from the top level.  Each argument list below, from a fixed table and
from a seeded fuzz, is answered twice in process: by ``run`` and by
``run`` with the full parser reading every list.  Exit code, stdout and
stderr must be identical.
"""

from __future__ import annotations

import random

import pytest

import hfhat.cli
from hfhat.cli import _COMMANDS, run

F, O = "diagram.hfd", "out.hfd"  # in the test's temporary directory

DOMAINS = ["domains", F, "--from", "theta", "--to", "eta", "--index", "1", "--nz", "0"]

TABLE = [
    [],
    ["frobnicate"],
    ["frobnicate", F],
    ["homologies", F],
    ["-h"],
    ["--help"],
    ["--he"],
    ["-h", "homology"],
    ["homology", "-h", F],
    *([name, "-h"] for name in _COMMANDS),
    *([name, "--help"] for name in _COMMANDS),
    *([name] for name in _COMMANDS),
    ["--json", "homology", F],
    ["--", "homology", F],
    ["homology", "--", F],
    ["homology", F, "--"],
    ["homology", "--", "--json"],
    ["validate", F, "--", "extra"],
    ["homology", F, "--js"],
    ["homology", F, "--str"],
    ["admissible", F, "--str"],
    ["admissible", F, "--s", "--class", "0"],
    ["homology", F, "--json=1"],
    ["homology", F, "--threads=3", "--json"],
    ["homology", F, "--threads", "x"],
    ["homology", F, "--threads", "-1"],
    ["homology", F, "--json", "--json"],
    ["admissible", F, "--class", "0", "--class", "1", "--json"],
    ["admissible", F, "--class=0", "--strong"],
    ["admissible", F, "--class", "9"],
    DOMAINS,
    DOMAINS + ["--json"],
    ["domains", F, "--from=theta", "--to=eta", "--index=1", "--nz=0"],
    ["domains", F, "--fr", "theta", "--to", "eta", "--ind", "1", "--nz", "0"],
    ["domains", F, "--t", "eta", "--from", "theta", "--index", "1", "--nz", "0"],
    ["domains", F, "--from", "theta", "--to", "eta", "--index", "1"],
    ["domains", F, "--from", "theta"],
    ["domains", F, "--from", "nope", "--to", "eta", "--index", "1", "--nz", "0"],
    ["corpus", "s3_g1"],
    ["corpus", "-o", O],
    ["corpus", "lens", "-p", "3", "-q", "1", "-o", O],
    ["corpus", "lens", "-p3", "-q1", "--output", O, "--json"],
    ["corpus", "lens", "-p", "70", "-q", "3", "-o", O],
    ["corpus", "s3_g1", "--o", O],
    ["stabilize", F],
    ["stabilize", F, "-o", O, "--json"],
    ["homology", F, "--bogus"],
    ["homology", F, "-x"],
    ["homology", "--bogus", F, "extra"],
    ["homology", F, F],
    ["validate", F, "extra", "--json"],
    ["homology", "-"],
    ["homology", "-1"],
    ["validate", F],
    ["generators", F, "--json"],
    ["spinc", F],
    ["homology", F, "--strict-rectangles"],
]

TOKENS = [
    *_COMMANDS, F, F, O, "-h", "--help", "--", "--json", "--js", "--json=1", "--str",
    "--strong", "--strict-rectangles", "--class", "--class=0", "0", "1", "-1", "x",
    "--threads", "--threads=2", "--from", "--to", "--from=eta", "--t", "theta", "eta",
    "--index", "--nz", "--index=1", "--nz=0", "-o", "--output", "-p", "-q", "-g", "3",
    "s3_g1", "lens", "--bogus", "-x", "-",
]


def fuzzed(count: int = 300, seed: int = 25) -> list[list[str]]:
    """Seeded argument lists: mostly a subcommand and up to six tokens."""
    rng = random.Random(seed)
    cases = []
    for _ in range(count):
        head = [rng.choice(list(_COMMANDS))] if rng.random() < 0.8 else []
        cases.append(head + [rng.choice(TOKENS) for _ in range(rng.randrange(7))])
    return cases


def _full(argv: list[str]):
    return hfhat.cli._parser().parse_args(argv)


@pytest.fixture
def answer(tmp_path, monkeypatch, capsys):
    """argv -> ((exit, stdout, stderr) from run, the same with the full parser)."""
    monkeypatch.chdir(tmp_path)
    assert run(["corpus", "s1s2_g1", "-o", F]) == 0
    capsys.readouterr()
    diagram = (tmp_path / F).read_bytes()

    def answered(argv):
        (tmp_path / F).write_bytes(diagram)  # an "-o" in argv may have replaced it
        return (run(list(argv)), *capsys.readouterr())

    def both(argv):
        got = answered(argv)
        with monkeypatch.context() as m:
            m.setattr(hfhat.cli, "_parse", _full)
            want = answered(argv)
        return got, want

    return both


@pytest.mark.parametrize("argv", TABLE, ids=[" ".join(a) or "(empty)" for a in TABLE])
def test_table_answers_as_the_full_parser(argv, answer):
    got, want = answer(argv)
    assert got == want


def test_fuzzed_argv_answers_as_the_full_parser(answer):
    codes = set()
    for argv in fuzzed():
        got, want = answer(argv)
        assert got == want, argv
        codes.add(got[0])
    assert {0, 4} <= codes


def test_a_named_subcommand_builds_only_its_parser(answer):
    """Answering a subcommand builds that subcommand's parser alone;
    the full parser is built for a top-level message."""
    hfhat.cli._parser.cache_clear()
    assert run(["homology", F, "--json"]) == 0
    assert run(["homology", F]) == 0
    assert hfhat.cli._parser.cache_info().currsize == 1
    assert run(["homology", F, "extra"]) == 4
    assert hfhat.cli._parser.cache_info().currsize == 2
