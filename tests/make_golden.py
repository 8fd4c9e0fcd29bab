"""Write ``tests/golden.json``: the transcript of every ``hf`` invocation
that ``test_golden.py`` replays.

Each entry holds the argv, the exit code and the sha256 of stdout and
of stderr, and, for ``stabilize`` and ``corpus``, of the file written.
Usage errors that argparse answers keep only their exit code, since
argparse's usage and help text differ between Python versions.  The
argv set covers every subcommand with and without ``--json``:
``validate``, ``generators``, ``spinc``, ``homology`` with and without
``--strict-rectangles``, ``admissible`` weak, ``--strong``, ``--class
0`` and ``--class 99``, ``domains`` (an index-1 pair, a generator to
itself through the basepoint, and a foreign point), ``stabilize`` and
``corpus``, on the diagrams of ``DIAGRAMS``, with a refusal for every
exit code 0-4.

A change that alters output on purpose regenerates the file and lists
every moved entry.  Run from the repository root::

    PYTHONPATH=src python tests/make_golden.py
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import sys
from pathlib import Path

from hfhat import (
    UnboundedEnumeration,
    connected_sum,
    differential,
    enumerate_generators,
    serialize_hfd,
    spinc_partition,
)
from hfhat.cli import run
from hfhat.corpus import build

from conftest import rectangle_diagram

GOLDEN = Path(__file__).resolve().parent / "golden.json"

DIAGRAMS = (
    "s3_g1",
    "s1s2_g1",
    "s1s2_bad",
    "s1s2_wind",
    "lens(2,1)",
    "lens(3,1)",
    "lens(3,2)",
    "lens(5,2)",
    "lens(7,3)",
    "lens(29,12)",
    "gsph(1)",
    "gsph(2)",
    "gsph(3)",
    "gsph(4)",
    "gsph(4)#gsph(4)",
    "s1s2_wind#lens(3,1)",
    "rectangle",  # conftest's hand-frozen genus-2 diagram: the exit-3 refusal
)

# Files that are not valid diagrams (exit 1) and one that is not there.
TRUNCATED, INVALID, MISSING = "truncated.hfd", "invalid.hfd", "missing.hfd"


def diagram(name: str):
    if name == "rectangle":
        return rectangle_diagram()
    return functools.reduce(connected_sum, [build(part) for part in name.split("#")])


def file_name(name: str) -> str:
    return name.replace("#", "+").replace("(", "_").replace(",", "_").replace(")", "") + ".hfd"


def write_inputs(directory: Path) -> None:
    """Write every diagram of ``DIAGRAMS`` and the two invalid files."""
    for name in DIAGRAMS:
        (directory / file_name(name)).write_text(serialize_hfd(diagram(name)), encoding="utf-8")
    text = serialize_hfd(build("s3_g1"))
    (directory / TRUNCATED).write_text(text[: len(text) // 2], encoding="utf-8")
    doc = json.loads(text)
    doc["genus"] = 2
    (directory / INVALID).write_text(json.dumps(doc), encoding="utf-8")


def _domain_pairs(name: str) -> list[tuple[str, str, str, str]]:
    """(from, to, index, n_z) for ``hf domains``: the first pair the
    differential counts (the first and last generators when it counts
    none or the enumeration is unbounded), the first generator to itself
    at index 2 and n_z 1, and a foreign point."""
    d = diagram(name)
    gens = enumerate_generators(d)
    x, y = gens[0], gens[-1]
    try:
        audit = [entry for c in spinc_partition(d) for entry in differential(d, c).audit]
    except UnboundedEnumeration:
        audit = []
    if audit:
        x, y = audit[0][:2]
    fmt = ",".join
    return [
        (fmt(x.points), fmt(y.points), "1", "0"),
        (fmt(x.points), fmt(x.points), "2", "1"),
        ("nowhere", fmt(x.points), "1", "0"),
    ]


def invocations() -> list[tuple[list[str], bool]]:
    """``(argv, usage)`` for every invocation, in replay order; ``usage``
    marks an argparse usage error, whose text is not pinned."""
    out: list[tuple[list[str], bool]] = []
    for name in DIAGRAMS:
        f = file_name(name)
        commands = [
            ["validate", f],
            ["generators", f],
            ["spinc", f],
            ["homology", f],
            ["homology", f, "--strict-rectangles"],
            ["admissible", f],
            ["admissible", f, "--strong"],
            ["admissible", f, "--class", "0"],
            ["admissible", f, "--class", "99"],
            *(["domains", f, "--from", x, "--to", y, "--index", k, "--nz", nz]
              for x, y, k, nz in _domain_pairs(name)),
            ["stabilize", f, "-o", "out.hfd"],
        ]
        for argv in commands:
            out += [(argv, False), (argv + ["--json"], False)]
    corpus = [
        ["corpus", "s3_g1"],
        ["corpus", "s1s2_g1"],
        ["corpus", "s1s2_bad"],
        ["corpus", "s1s2_wind"],
        ["corpus", "lens", "-p", "7", "-q", "3"],
        ["corpus", "lens(29,12)"],
        ["corpus", "gsph", "-g", "4"],
        ["corpus", "nowhere"],
        ["corpus", "lens", "-p", "4", "-q", "2"],
    ]
    refusals = [
        ["validate", TRUNCATED],
        ["validate", INVALID],
        ["validate", MISSING],
        ["homology", TRUNCATED],
        ["homology", INVALID],
        ["generators", MISSING],
        ["domains", INVALID, "--from", "x", "--to", "y", "--index", "1", "--nz", "0"],
        ["stabilize", "s3_g1.hfd", "-o", "no/such/dir/out.hfd"],
    ]
    for argv in corpus + refusals:
        out += [(argv + ["-o", "out.hfd"] if argv[0] == "corpus" else argv, False)]
        out += [(out[-1][0] + ["--json"], False)]
    f = file_name("gsph(2)")
    usage = [
        [],
        ["nowhere", f],
        ["homology"],
        ["--json", "validate", f],
        ["validate", f, "extra"],
        ["domains", f, "--from", "x"],
        ["admissible", f, "--class", "one"],
        ["corpus", "s3_g1"],
    ]
    out += [(argv, True) for argv in usage]
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def transcript(argv: list[str], usage: bool) -> dict:
    """Run ``hf argv`` in process in the current directory and return
    its golden entry."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    entry = {"argv": argv, "exit": code}
    if not usage:
        entry["stdout"] = _sha(out.getvalue())
        entry["stderr"] = _sha(err.getvalue())
        if argv[0] in ("stabilize", "corpus") and code == 0:
            entry["output"] = hashlib.sha256(Path("out.hfd").read_bytes()).hexdigest()
    return entry


def transcripts(directory: Path) -> list[dict]:
    """Write the inputs to ``directory`` and run every invocation there."""
    write_inputs(directory)
    here = os.getcwd()
    os.chdir(directory)
    try:
        return [transcript(argv, usage) for argv, usage in invocations()]
    finally:
        os.chdir(here)


def main() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        entries = transcripts(Path(tmp))
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
