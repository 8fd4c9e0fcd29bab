"""Command line front end: ``hf SUBCOMMAND FILE [flags]``.

Every subcommand reads an HFD file (or a corpus name), prints either an
aligned text report or, with ``--json``, a stable JSON document, and
exits with 0 on success, 1 for an invalid diagram or unreadable file,
2 when a computation is blocked by non-admissibility or an unbounded
enumeration, 3 when a counted domain is not a certified rigid shape,
and 4 for usage errors, an output path that cannot be written
included.  Every nonzero exit names its cause, but not always in the
document: ``hf validate`` lists the violations, and ``hf domains`` and
``hf admissible`` give their witness, in the report on stdout (JSON
with ``--json``).  Every other refusal (an unreadable or invalid
diagram given to another command, ``hf homology``'s periodic witness
at exit 2 or its offending domains at exit 3, a usage error) is
printed as text on stderr, with nothing on stdout, also with
``--json``.

One table, ``_COMMANDS``, defines every subcommand.  Only the named
subcommand's parser is built, once per process; the full ``hf`` parser
is built only to answer ``-h``, a missing or unknown subcommand, an
option before it, or arguments left over, so every answer is the full
parser's.  Text is built only when printed; ``_json`` writes exactly
what ``json.dumps(report, indent=2, sort_keys=True)`` would.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Callable, Iterable, Optional, Sequence

from . import corpus
from .admissibility import area_certificate, strong_admissible, weak_admissible
from .diagram import (
    HeegaardDiagram,
    HFDFormatError,
    parse_hfd,
    serialize_hfd,
    stabilize,
    validate,
)
from .domains import UnboundedEnumeration, positive_domains
from .floer import NotCombinatorial, homology
from .generators import Generator, _check_generator, enumerate_generators
from .spinc import spinc_partition

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NOT_ADMISSIBLE = 2
EXIT_NOT_COMBINATORIAL = 3
EXIT_USAGE = 4

# A file that cannot be read as an HFD document: exit 1.
_UNREADABLE = (OSError, UnicodeDecodeError, HFDFormatError)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 4."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _fmt_gen(g: Generator) -> str:
    return ",".join(g.points)


def _parse_gen(text: str) -> Generator:
    """Generators are the sorted tuple of their points, in any given order."""
    return Generator(tuple(sorted(text.split(","))))


def _fmt_frac(x: Fraction) -> str:
    return str(x)


def _emit(report: dict, as_json: bool, text: Callable[[], Iterable[str]]) -> None:
    """Print ``report`` as JSON with ``--json``, else the lines of ``text()``,
    which is called only then."""
    if as_json:
        print(_json(report))
    else:
        for line in text():
            print(line)


_LEAVES = {str: encode_basestring_ascii, int: int.__repr__}


def _json(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte.

    Any ``indent`` sends ``json`` to its pure-Python encoder; here a
    list of only ints or only strings is joined in one step.  A value
    of any type but str, int, list, tuple and dict with str keys (not
    their subclasses), or an empty one, is left to ``json``."""
    kind = type(value)
    if kind in _LEAVES:
        return _LEAVES[kind](value)
    inner = indent + "  "
    if kind is dict and value and all(type(k) is str for k in value):
        body = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(body) + indent + "}"
    if (kind is list or kind is tuple) and value:
        kinds = set(map(type, value))
        leaf = _LEAVES.get(kinds.pop()) if len(kinds) == 1 else None
        body = map(leaf, value) if leaf else [_json(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(body) + indent + "]"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", indent)


def _table(rows: list[Sequence[str]]) -> list[str]:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows]


# The last diagram ``_load`` accepted, with the exact text it was parsed
# from, so that commands run one after another on one file in one
# process share its derived data.  It holds at most one diagram, keyed
# by the text and not the path, and lets go of it before parsing any
# other text.
_held: Optional[tuple[str, HeegaardDiagram]] = None


def _load(path: str) -> HeegaardDiagram:
    """Parse and validate; an invalid diagram prints why and exits 1.

    The file is read every time.  Text equal to the held text returns
    the held diagram, which passed validation when it was parsed."""
    global _held
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if _held is not None and _held[0] == text:
        return _held[1]
    _held = None
    d = parse_hfd(text)
    report = validate(d)
    if not report.ok:
        print(f"invalid diagram: {report}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)
    _held = (text, d)
    return d


def _cmd_validate(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            d = parse_hfd(fh.read())
    except _UNREADABLE as exc:
        _emit({"ok": False, "violations": [str(exc)]}, args.json, lambda: [f"invalid: {exc}"])
        return EXIT_INVALID
    report = validate(d)
    doc = {"ok": report.ok, "violations": [f"{name}: {detail}" for name, detail in report.violations]}
    if report.ok:
        _emit(doc, args.json, lambda: ["ok"])
        return EXIT_OK
    _emit(doc, args.json, lambda: ["invalid:"] + [f"  {v}" for v in doc["violations"]])
    return EXIT_INVALID


def _cmd_generators(args) -> int:
    d = _load(args.file)
    gens = enumerate_generators(d)
    doc = {"count": len(gens), "generators": [list(g.points) for g in gens]}
    _emit(doc, args.json, lambda: [f"{len(gens)} generators"] + [f"  {_fmt_gen(g)}" for g in gens])
    return EXIT_OK


def _cmd_spinc(args) -> int:
    d = _load(args.file)
    classes = spinc_partition(d)
    doc = {
        "classes": [
            {
                "members": [list(g.points) for g in c.members],
                "divisor": c.divisor,
                "gradings": [[_fmt_gen(g), k] for g, k in c.gradings],
            }
            for c in classes
        ]
    }

    def text():
        yield f"{len(classes)} spin-c classes"
        for i, c in enumerate(classes):
            yield f"class {i}  divisor {c.divisor}"
            yield from _table([["  " + _fmt_gen(g), f"grading {k}"] for g, k in c.gradings])

    _emit(doc, args.json, text)
    return EXIT_OK


def _cmd_domains(args) -> int:
    d = _load(args.file)
    x = _parse_gen(getattr(args, "from"))
    y = _parse_gen(args.to)
    for g in (x, y):
        try:
            _check_generator(d, g)
        except ValueError:
            print(f"error: unknown generator {_fmt_gen(g)}", file=sys.stderr)
            return EXIT_USAGE
    try:
        found = positive_domains(d, x, y, args.index, args.nz)
    except UnboundedEnumeration as exc:
        doc = {"unbounded": True, "witness": list(exc.witness)}
        _emit(doc, args.json, lambda: [f"unbounded enumeration; periodic witness {doc['witness']}"])
        return EXIT_NOT_ADMISSIBLE
    doc = {"count": len(found), "domains": [list(dom.coefficients) for dom in found]}
    _emit(doc, args.json, lambda: [f"{len(found)} domains"] + [f"  {c}" for c in doc["domains"]])
    return EXIT_OK


def _targets(d: HeegaardDiagram, index: Optional[int], strong: bool) -> list:
    """The classes ``hf admissible`` reports on: the one ``--class``
    names, every class with ``--strong``, else ``[None]`` for the
    class-free weak verdict, which needs no Spin^c partition."""
    if index is None and not strong:
        return [None]
    classes = spinc_partition(d)
    if index is None:
        return classes
    if not 0 <= index < len(classes):
        print(f"error: --class {index} is out of range 0..{len(classes) - 1}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return [classes[index]]


def _cmd_admissible(args) -> int:
    d = _load(args.file)
    reports = []
    for c in _targets(d, getattr(args, "class"), args.strong):
        rep = strong_admissible(d, c) if args.strong else weak_admissible(d, c)
        reports.append((c, rep, area_certificate(d, rep.kind, c) if rep.verdict else None))
    doc = {"kind": "strong" if args.strong else "weak", "reports": []}
    for c, rep, cert in reports:
        entry = {"class": None if c is None else [list(g.points) for g in c.members],
                 "verdict": rep.verdict}
        if rep.witness is not None:
            entry["witness"] = list(rep.witness)
        if cert is not None:
            entry["areas"] = [_fmt_frac(a) for a in cert]
        doc["reports"].append(entry)

    def text():
        for c, rep, cert in reports:
            label = "all" if c is None else _fmt_gen(c.members[0])
            if not rep.verdict:
                yield f"NOT {rep.kind} admissible ({label}); witness {list(rep.witness)}"
                continue
            yield f"{rep.kind} admissible ({label})"
            if cert is not None:
                yield "  areas " + " ".join(_fmt_frac(a) for a in cert)

    _emit(doc, args.json, text)
    return EXIT_OK if all(rep.verdict for _, rep, _ in reports) else EXIT_NOT_ADMISSIBLE


def _cmd_homology(args) -> int:
    d = _load(args.file)
    results = homology(d, strict_rectangles=args.strict_rectangles, threads=args.threads)
    classes = [{"members": [list(g.points) for g in r.spinc.members], "divisor": r.spinc.divisor,
                "ranks": [[k, v] for k, v in r.ranks], "total": r.total} for r in results]
    doc = {"classes": classes, "total": sum(r.total for r in results)}

    def text():
        for i, r in enumerate(results):
            yield f"class {i}  divisor {r.spinc.divisor}  total rank {r.total}"
            yield from _table([[f"  grading {k}", f"rank {v}"] for k, v in r.ranks])
        yield f"total rank {doc['total']}"

    _emit(doc, args.json, text)
    return EXIT_OK


def _write_output(path: str, d: HeegaardDiagram) -> bool:
    """Write ``d`` to ``path`` as HFD.  A path that cannot be written is
    a bad ``-o`` argument, not a bad input: report it and return False."""
    text = serialize_hfd(d)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return False
    return True


def _cmd_stabilize(args) -> int:
    d = _load(args.file)
    out = stabilize(d)
    if not _write_output(args.output, out):
        return EXIT_USAGE
    _emit(
        {"genus": out.genus, "regions": len(out.regions), "output": args.output},
        args.json,
        lambda: [f"wrote genus {out.genus} diagram with {len(out.regions)} regions to {args.output}"],
    )
    return EXIT_OK


def _cmd_corpus(args) -> int:
    try:
        d = corpus.build(args.name, p=args.p, q=args.q, g=args.g)
    except ValueError as exc:  # unknown name or parameters out of range
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not _write_output(args.output, d):
        return EXIT_USAGE
    _emit(
        {"name": args.name, "genus": d.genus, "regions": len(d.regions), "output": args.output},
        args.json,
        lambda: [f"wrote {args.name}: genus {d.genus}, {len(d.regions)} regions to {args.output}"],
    )
    return EXIT_OK


_FILE = (("file",), {})
_OUTPUT = (("-o", "--output"), {"required": True})

# name -> (help, handler, arguments): each argument is a (flags, options)
# pair for ``add_argument``; ``--json`` and ``--threads`` follow them.
_COMMANDS = {
    "validate": ("check an HFD file", _cmd_validate, (_FILE,)),
    "generators": ("list intersection-point generators", _cmd_generators, (_FILE,)),
    "spinc": ("spin-c classes, divisors, gradings", _cmd_spinc, (_FILE,)),
    "domains": ("positive domains between two generators", _cmd_domains, (
        _FILE,
        (("--from",), {"required": True, "metavar": "X", "help": "comma-joined points"}),
        (("--to",), {"required": True, "metavar": "Y", "help": "comma-joined points"}),
        (("--index",), {"type": int, "required": True, "help": "Maslov index"}),
        (("--nz",), {"type": int, "required": True, "help": "basepoint multiplicity"}),
    )),
    "admissible": ("weak/strong admissibility with certificates", _cmd_admissible, (
        _FILE,
        (("--class",), {"type": int, "default": None, "metavar": "K", "help": "spin-c class index"}),
        (("--strong",), {"action": "store_true"}),
    )),
    "homology": ("graded hat homology over F2", _cmd_homology, (
        _FILE,
        (("--strict-rectangles",),
         {"action": "store_true", "help": "count only bigons; rectangles become errors"}),
    )),
    "stabilize": ("add a standard one-point torus summand", _cmd_stabilize, (_FILE, _OUTPUT)),
    "corpus": ("write a named example diagram", _cmd_corpus, (
        (("name",), {}),
        (("-p",), {"type": int, "default": None}),
        (("-q",), {"type": int, "default": None}),
        (("-g",), {"type": int, "default": None}),
        _OUTPUT,
    )),
}


def _arguments(parser: _Parser, name: str) -> _Parser:
    """Add subcommand ``name``'s arguments and handler to ``parser``."""
    _, handler, arguments = _COMMANDS[name]
    for flags, options in arguments:
        parser.add_argument(*flags, **options)
    parser.add_argument("--json", action="store_true", help="stable JSON output")
    parser.add_argument("--threads", type=int, default=1, help="accepted and ignored; computation is serial")
    parser.set_defaults(fn=handler)
    return parser


@functools.cache
def _parser(name: Optional[str] = None) -> _Parser:
    """Subcommand ``name``'s own parser, or with no name the full ``hf``
    parser.  Each is built on first use and kept for the process:
    parsing leaves it unchanged."""
    if name is not None:
        return _arguments(_Parser(prog=f"hf {name}"), name)
    parser = _Parser(prog="hf", description="exact Heegaard Floer hat calculator")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_, _, _) in _COMMANDS.items():
        _arguments(sub.add_parser(command, help=help_), command)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, by the named subcommand's parser
    alone unless argparse's answer needs the full one."""
    if argv and argv[0] in _COMMANDS:
        args, extra = _parser(argv[0]).parse_known_args(argv[1:])
        if not extra:
            return args
    return _parser().parse_args(argv)


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except _UNREADABLE as exc:
        print(f"invalid diagram file: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except UnboundedEnumeration as exc:
        print(f"unbounded enumeration; periodic witness {list(exc.witness)}", file=sys.stderr)
        return EXIT_NOT_ADMISSIBLE
    except NotCombinatorial as exc:
        print(f"not combinatorial:\n{exc}", file=sys.stderr)
        return EXIT_NOT_COMBINATORIAL
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
