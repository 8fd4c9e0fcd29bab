"""Command line interface: subcommands, exit codes, JSON stability."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hfhat import (
    UnboundedEnumeration,
    connected_sum,
    enumerate_generators,
    positive_domains,
    serialize_hfd,
)
from hfhat.cli import run
from hfhat.corpus import build

from conftest import SMALL_NAMES, grid_diagram, rectangle_diagram


@pytest.fixture
def write_corpus(tmp_path, capsys):
    def _write(name, *extra):
        stem = name.replace("(", "_").replace(",", "_").replace(")", "")
        path = tmp_path / f"{stem}.hfd"
        assert run(["corpus", name, *extra, "-o", str(path)]) == 0
        capsys.readouterr()
        return path

    return _write


def test_validate_ok(write_corpus, capsys):
    f = write_corpus("s3_g1")
    assert run(["validate", str(f)]) == 0
    assert capsys.readouterr().out.strip().endswith("ok")


def test_validate_truncated_file(tmp_path):
    f = tmp_path / "bad.hfd"
    f.write_text('{"genus": 1')
    assert run(["validate", str(f)]) == 1


def test_validate_invalid_diagram(write_corpus, capsys):
    f = write_corpus("s1s2_g1")
    doc = json.loads(f.read_text())
    doc["basepoint_region"] = 99
    f.write_text(json.dumps(doc))
    assert run(["validate", str(f)]) == 1
    out = capsys.readouterr().out
    assert "basepoint" in out


def test_generators_listing(write_corpus, capsys):
    f = write_corpus("lens(3,1)")
    assert run(["generators", str(f), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 3


def test_spinc_report(write_corpus, capsys):
    f = write_corpus("s1s2_wind")
    assert run(["spinc", str(f), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["classes"]) == 1
    assert doc["classes"][0]["divisor"] == 2


def test_domains_subcommand(write_corpus, capsys):
    f = write_corpus("s1s2_g1")
    code = run(
        ["domains", str(f), "--from", "theta", "--to", "eta",
         "--index", "1", "--nz", "0", "--json"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 2


def test_domains_unknown_generator(write_corpus):
    f = write_corpus("s1s2_g1")
    code = run(["domains", str(f), "--from", "zzz", "--to", "eta", "--index", "1", "--nz", "0"])
    assert code == 4


def test_domains_accepts_points_in_any_order(write_corpus, capsys):
    f = write_corpus("gsph(2)")
    outs = []
    for x, y in (("r.theta,theta", "r.eta,theta"), ("theta,r.theta", "theta,r.eta")):
        assert run(["domains", str(f), "--from", x, "--to", y, "--index", "1", "--nz", "0"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert outs[0].startswith("2 domains")


def test_admissible_failure_prints_witness(write_corpus, capsys):
    f = write_corpus("s1s2_bad")
    assert run(["admissible", str(f)]) == 2
    out = capsys.readouterr().out
    assert "witness" in out


def test_admissible_strong_wind(write_corpus, capsys):
    f = write_corpus("s1s2_wind")
    assert run(["admissible", str(f), "--class", "0", "--strong", "--json"]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["reports"][0]["verdict"] is False
    assert doc["reports"][0]["witness"]


def test_admissible_with_certificate(write_corpus, capsys):
    f = write_corpus("s1s2_g1")
    assert run(["admissible", str(f), "--class", "0", "--strong", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["reports"][0]["verdict"] is True
    assert doc["reports"][0]["areas"]


def test_homology_s1s2_g1(write_corpus, capsys):
    f = write_corpus("s1s2_g1")
    assert run(["homology", str(f), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total"] == 2


def test_homology_inadmissible_exits_2(write_corpus, capsys):
    f = write_corpus("s1s2_bad")
    assert run(["homology", str(f)]) == 2
    assert "witness" in capsys.readouterr().err


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_strict_rectangles_refusal_exits_3(tmp_path, capsys, json_flag):
    """The rectangle fixture's two index-1 domains are rectangles, so
    ``--strict-rectangles`` refuses them: exit 3, both named on stderr,
    nothing on stdout."""
    path = tmp_path / "rectangle.hfd"
    path.write_text(serialize_hfd(rectangle_diagram()))
    assert run(["homology", str(path), "--strict-rectangles", *json_flag]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "not combinatorial:\n"
        "index-1 domains without a certified count:\n"
        "  {p00,p11} -> {p01,p10}: coefficients (0, 0, 1)\n"
        "  {p00,p11} -> {p01,p10}: coefficients (1, 0, 0)\n"
    )


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_strict_rectangles_refuses_grid(tmp_path, capsys, json_flag):
    """Every index-1 domain of the grid(3) diagram is a rectangle:
    ``--strict-rectangles`` exits 3, names all 12 on stderr, prints
    nothing on stdout."""
    path = tmp_path / "grid3.hfd"
    path.write_text(serialize_hfd(grid_diagram(3)))
    assert run(["homology", str(path), "--strict-rectangles", *json_flag]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("not combinatorial:\n") and err.count(" -> ") == 12
    assert run(["homology", str(path), *json_flag]) == 0


def test_domains_unbounded_exits_2(write_corpus, capsys):
    """s1s2_bad is not weakly admissible: ``hf domains`` prints the
    periodic witness on stdout and exits 2."""
    f = write_corpus("s1s2_bad")
    argv = ["domains", str(f), "--from", "eta", "--to", "theta", "--index", "1", "--nz", "0"]
    assert run(argv + ["--json"]) == 2
    assert json.loads(capsys.readouterr().out) == {"unbounded": True, "witness": [0, 2, 1]}
    assert run(argv) == 2
    assert capsys.readouterr().out == "unbounded enumeration; periodic witness [0, 2, 1]\n"


def _index_one_pair(d):
    """The first pair with an index-1 positive domain at n_z = 0, or the
    first and last generators when the enumeration is unbounded."""
    gens = enumerate_generators(d)
    try:
        return next((x, y) for x in gens for y in gens if positive_domains(d, x, y, 1, 0))
    except UnboundedEnumeration:
        return gens[0], gens[-1]


@pytest.mark.parametrize("name", ["gsph(3)", "gsph(2)#lens(5,2)", "s1s2_wind"])
def test_json_output_does_not_depend_on_the_hash_seed(name, tmp_path):
    """String hashing is randomized per process, and hfhat keeps sets of
    point names; ``--json`` output must still be the same bytes, with
    the same stderr and exit code, under two hash seeds."""
    d = connected_sum(*map(build, name.split("#"))) if "#" in name else build(name)
    path = tmp_path / "diagram.hfd"
    path.write_text(serialize_hfd(d))
    x, y = _index_one_pair(d)
    commands = [
        ["spinc"],
        ["homology"],
        ["admissible", "--strong"],
        ["domains", "--from", ",".join(x.points), "--to", ",".join(y.points),
         "--index", "1", "--nz", "0"],
    ]
    src = Path(__file__).resolve().parents[1] / "src"
    for command in commands:
        argv = [sys.executable, "-m", "hfhat.cli", command[0], str(path), *command[1:], "--json"]
        runs = [
            subprocess.Popen(
                argv,
                env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            for seed in ("0", "1")
        ]
        (out0, err0), (out1, err1) = (proc.communicate() for proc in runs)
        assert out0 or err0, command
        assert (out0, err0, runs[0].returncode) == (out1, err1, runs[1].returncode), command


def test_homology_threads_deterministic(write_corpus, capsys):
    f = write_corpus("gsph(2)")
    assert run(["homology", str(f), "--json"]) == 0
    serial = capsys.readouterr().out
    assert run(["homology", str(f), "--json", "--threads", "4"]) == 0
    assert capsys.readouterr().out == serial


def test_stabilize_round_trip(write_corpus, tmp_path, capsys):
    f = write_corpus("lens(2,1)")
    out = tmp_path / "stab.hfd"
    assert run(["stabilize", str(f), "-o", str(out)]) == 0
    capsys.readouterr()
    assert run(["homology", str(out), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total"] == 2


def test_corpus_output_byte_stable(write_corpus, tmp_path):
    f1 = write_corpus("lens(5,2)")
    f2 = tmp_path / "again.hfd"
    assert run(["corpus", "lens(5,2)", "-o", str(f2)]) == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_corpus_kwargs_flags(write_corpus, tmp_path):
    f = tmp_path / "lens.hfd"
    assert run(["corpus", "lens", "-p", "5", "-q", "2", "-o", str(f)]) == 0
    assert f.read_bytes() == write_corpus("lens(5,2)").read_bytes()


def test_usage_errors(tmp_path, capsys):
    assert run(["frobnicate"]) == 4
    assert run([]) == 4
    assert run(["homology"]) == 4
    assert run(["corpus", "s3_g1"]) == 4  # missing -o
    capsys.readouterr()
    assert run(["corpus", "lens", "-p", "70", "-q", "3", "-o", str(tmp_path / "x.hfd")]) == 4
    assert "p=70" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["corpus", "stabilize"])
def test_unwritable_output_is_a_usage_error(write_corpus, tmp_path, capsys, command):
    """An -o path that cannot be written exits 4 and names the output;
    it is not reported as an invalid diagram."""
    source = [str(write_corpus("lens(2,1)"))] if command == "stabilize" else ["lens", "-p", "5", "-q", "2"]
    out = tmp_path / "missing" / "x.hfd"
    assert run([command, *source, "-o", str(out)]) == 4
    captured = capsys.readouterr()
    assert captured.err == f"error: cannot write {out}: No such file or directory\n"
    assert captured.out == ""
    assert not out.exists()


def test_later_runs_answer_like_the_first(write_corpus, capsys):
    """The parser is built once per process: after a successful run,
    flags do not carry over, usage errors still exit 4, and the same
    command prints the same answer."""
    path = str(write_corpus("s1s2_wind"))
    assert run(["admissible", path, "--strong", "--json"]) == 2
    first = capsys.readouterr().out
    assert run(["admissible", path]) == 2
    assert capsys.readouterr().out.startswith("NOT weak admissible (all); witness")
    assert run(["frobnicate"]) == 4
    assert run(["admissible"]) == 4
    assert run(["admissible", path, "--class", "x"]) == 4
    assert run(["admissible", path, "--strong", "--bogus"]) == 4
    capsys.readouterr()
    assert run(["admissible", path, "--strong", "--json"]) == 2
    assert capsys.readouterr().out == first


SLOT_COMMANDS = [
    ["admissible", "--json"],
    ["admissible", "--strong", "--json"],
    ["homology", "--json"],
    ["admissible"],
    ["admissible", "--strong"],
    ["homology"],
    ["spinc", "--json"],
    ["generators", "--json"],
    ["admissible", "--class", "0", "--json"],
]


def _answers(path, commands, capsys, empty_between):
    import hfhat.cli

    answers = []
    for command in commands:
        if empty_between:
            hfhat.cli._held = None
        code = run([command[0], str(path), *command[1:]])
        captured = capsys.readouterr()
        answers.append((code, captured.out, captured.err))
    return answers


@pytest.mark.parametrize("name", SMALL_NAMES + ["lens(9,5)"])
def test_held_diagram_answers_like_a_fresh_parse(name, write_corpus, capsys):
    """Commands run one after another on one file share the diagram
    ``_load`` holds, and print the same bytes on stdout and stderr, with
    the same exit codes, as the same commands each run on a fresh parse."""
    path = write_corpus(name)
    held = _answers(path, SLOT_COMMANDS, capsys, empty_between=False)
    fresh = _answers(path, SLOT_COMMANDS, capsys, empty_between=True)
    assert held == fresh
    assert all(out or err for _, out, err in held)


def test_one_parse_and_validation_for_repeated_commands(write_corpus, capsys, monkeypatch):
    """The benchmark's three commands on one file parse and validate it
    once."""
    import hfhat.cli

    path = write_corpus("gsph(2)")
    calls = []
    for name in ("parse_hfd", "validate"):
        real = getattr(hfhat.cli, name)

        def counted(arg, name=name, real=real):
            calls.append(name)
            return real(arg)

        monkeypatch.setattr(hfhat.cli, name, counted)
    _answers(path, SLOT_COMMANDS[:3], capsys, empty_between=False)
    assert calls == ["parse_hfd", "validate"]


def test_rewritten_file_is_parsed_again(write_corpus, capsys):
    """The slot is keyed by the file's text, not its path: a different
    diagram written to the same path is answered at once."""
    path = write_corpus("lens(3,1)")
    other = write_corpus("lens(5,2)").read_text(encoding="utf-8")
    commands = [["homology", "--json"], ["spinc", "--json"]]
    (first, _) = _answers(path, commands, capsys, empty_between=False)
    path.write_text(other, encoding="utf-8")
    second = _answers(path, commands, capsys, empty_between=False)
    assert second[0] != first
    assert second == _answers(path, commands, capsys, empty_between=True)


def test_invalid_file_is_never_held(write_corpus, capsys):
    """A file that fails validation exits 1 with its violations whether
    a valid diagram was held before it or not, is not held itself, and
    does not disturb the answer on the valid file that follows it."""
    import hfhat.cli

    valid = write_corpus("s1s2_g1")
    doc = json.loads(valid.read_text())
    doc["regions"][0]["genus"] = 1
    invalid = valid.with_name("invalid.hfd")
    invalid.write_text(json.dumps(doc))
    order = [invalid, valid, invalid, valid, valid]
    answers = []
    for path in order:
        assert run(["homology", str(path), "--json"]) == (1 if path == invalid else 0)
        captured = capsys.readouterr()
        answers.append((captured.out, captured.err))
        if path == invalid:
            assert hfhat.cli._held is None
        else:
            assert hfhat.cli._held[0] == valid.read_text()
    assert answers[0] == answers[2] == ("", answers[0][1])
    assert answers[0][1].startswith("invalid diagram: ") and "euler_characteristic" in answers[0][1]
    assert answers[1] == answers[3] == answers[4]


def test_admissible_strong_solves_one_certificate_lp_per_pairing(write_corpus, capsys, monkeypatch):
    """The 9 classes of lens(9,5) share the empty pairing vector, so
    their strong verdicts and certificates come from one LP."""
    import hfhat.admissibility

    f = write_corpus("lens(9,5)")
    calls = []
    real = hfhat.admissibility.lp_optimize

    def counted(objective, constraints):
        calls.append(len(objective))
        return real(objective, constraints)

    monkeypatch.setattr(hfhat.admissibility, "lp_optimize", counted)
    assert run(["admissible", str(f), "--strong", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["reports"]) == 9
    assert len({tuple(r["areas"]) for r in doc["reports"]}) == 1
    assert len(calls) == 1


def test_class_free_weak_verdict_skips_the_partition(write_corpus, capsys, monkeypatch):
    """``hf admissible`` without --class or --strong reports the
    class-free weak verdict without partitioning the generators; the
    partition runs once --class or --strong asks for classes."""
    import hfhat.cli

    f = write_corpus("lens(5,2)")
    calls = []
    real = hfhat.cli.spinc_partition

    def counted(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(hfhat.cli, "spinc_partition", counted)
    assert run(["admissible", str(f), "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"kind": "weak", "reports": [{"class": None, "verdict": True, "areas": ["1"] * 5}]}
    assert calls == []
    assert run(["admissible", str(f), "--class", "1"]) == 0
    assert run(["admissible", str(f), "--strong"]) == 0
    assert len(calls) == 2


def test_partition_is_built_once_per_held_diagram(write_corpus, capsys, monkeypatch):
    """``admissible --strong`` and then ``homology`` on one file read one
    stored Spin^c partition: the generators are enumerated for it once."""
    import hfhat.spinc

    f = write_corpus("gsph(2)")
    calls = []
    real = hfhat.spinc.enumerate_generators

    def counted(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(hfhat.spinc, "enumerate_generators", counted)
    assert run(["admissible", str(f), "--strong", "--json"]) == 0
    assert run(["homology", str(f), "--json"]) == 0
    assert run(["spinc", str(f), "--json"]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_admissible_class_out_of_range(write_corpus, capsys):
    f = write_corpus("s1s2_g1")
    assert run(["admissible", str(f), "--class", "9"]) == 4
    assert "out of range 0..0" in capsys.readouterr().err


def test_missing_file_exits_1(capsys):
    assert run(["homology", "/nonexistent/x.hfd"]) == 1


@pytest.mark.parametrize("command", ["generators", "spinc", "admissible", "homology"])
def test_invalid_diagram_exits_1_with_reason(write_corpus, capsys, command):
    """A file that parses but fails validation is an input error."""
    f = write_corpus("s1s2_g1")
    doc = json.loads(f.read_text())
    doc["regions"][0]["genus"] = 1
    f.write_text(json.dumps(doc))
    assert run([command, str(f)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("invalid diagram: ") and "euler_characteristic" in err


def test_undecodable_file_exits_1(tmp_path, capsys):
    f = tmp_path / "binary.hfd"
    f.write_bytes(b"\xff\xfe{")
    assert run(["homology", str(f)]) == 1
    assert capsys.readouterr().err.startswith("invalid diagram file: ")
    assert run(["validate", str(f), "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_deeply_nested_json_is_an_invalid_file(tmp_path, capsys):
    """JSON nested past the parser's recursion limit is an unreadable
    file, not a traceback."""
    f = tmp_path / "deep.hfd"
    f.write_text("[" * 200000 + "]" * 200000)
    assert run(["validate", str(f), "--json"]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False
    assert run(["homology", str(f)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("invalid diagram file:")


def test_internal_value_error_propagates(write_corpus, monkeypatch):
    """Only input errors become exit 1; a ValueError raised inside a
    computation is a fault and surfaces."""
    import hfhat.cli

    f = write_corpus("s1s2_g1")

    def broken(*args, **kwargs):
        raise ValueError("fault inside homology")

    monkeypatch.setattr(hfhat.cli, "homology", broken)
    with pytest.raises(ValueError, match="fault inside homology"):
        run(["homology", str(f)])


def test_json_reports_are_sorted_and_stable(write_corpus, capsys):
    f = write_corpus("s1s2_g1")
    assert run(["spinc", str(f), "--json"]) == 0
    first = capsys.readouterr().out
    assert run(["spinc", str(f), "--json"]) == 0
    assert capsys.readouterr().out == first
    doc = json.loads(first)
    assert list(doc) == sorted(doc)
