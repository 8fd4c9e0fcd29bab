"""Independent checker for ``hf`` answers; it never imports hfhat.

Everything it needs is rebuilt from the HFD file: the alpha/beta
boundary maps from the arcs, region Euler measures from genus, cycle
and corner counts, quadrant point measures from the corners, and an
integer kernel of the boundary system with ``sympy``.  Against that it
checks each answer of the manifest:

* ``homology --json``: exit 0 and, per Kuenneth, the predicted number
  of Spin^c classes, each with graded ranks binomial(k, i); on a
  diagram that is not weakly admissible, exit 2 with a periodic witness
  that verifies as a weak witness.
* ``admissible --json``: the predicted weak verdict; a weak certificate
  must be strictly positive and orthogonal to every periodic domain, a
  weak witness nonnegative, nonzero, zero at the basepoint and
  boundary-free.
* ``admissible --strong --json``: one report per class.  A strong
  certificate must be strictly positive, of total area one, and give
  each periodic domain P area <c_1, P>/2; a strong witness must be a
  boundary-free, basepoint-free domain that violates the criterion.

``<c_1, P>`` is e(P) + 2 n_x(P) for n_z(P) = 0, with x the first member
of the class.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from math import comb, lcm

import sympy


class CheckFailure(Exception):
    """An answer that does not verify."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailure(message)


class DiagramFacts:
    """Quantities the checker rebuilds from one HFD document."""

    def __init__(self, doc: dict):
        curves = {"a": doc["alpha"], "b": doc["beta"]}
        self.points = sorted({p for curve in doc["alpha"] for p in curve})
        index = {p: i for i, p in enumerate(self.points)}
        regions = doc["regions"]
        n = len(regions)
        self.n = n
        self.z = doc["basepoint_region"]
        self.boundary = {"a": [[0] * n for _ in self.points], "b": [[0] * n for _ in self.points]}
        self.corners: dict[str, list[int]] = {p: [] for p in self.points}
        self.euler = []
        for r, region in enumerate(regions):
            corner_count = 0
            for cycle in region["boundary"]:
                for ref in cycle:
                    curve = curves[ref["curve"]][ref["index"]]
                    tail, head = curve[ref["arc"]], curve[(ref["arc"] + 1) % len(curve)]
                    rows = self.boundary[ref["curve"]]
                    rows[index[head]][r] += ref["dir"]
                    rows[index[tail]][r] -= ref["dir"]
                    # The corner after this arc sits at the point it arrives at.
                    self.corners[head if ref["dir"] == 1 else tail].append(r)
                corner_count += len(cycle)
            chi = 2 - 2 * region["genus"] - len(region["boundary"])
            self.euler.append(Fraction(chi) - Fraction(corner_count, 4))
        for p, regs in self.corners.items():
            _require(len(regs) == 4, f"point {p} has {len(regs)} corners")
        self.alpha_of = {p: i for i, curve in enumerate(doc["alpha"]) for p in curve}
        self.beta_of = {p: i for i, curve in enumerate(doc["beta"]) for p in curve}
        self.genus = doc["genus"]
        self.periodic = self._periodic_basis()

    def _periodic_basis(self) -> list[list[int]]:
        """Integer basis of the boundary-free domains with n_z = 0 (sympy)."""
        basepoint_row = [int(i == self.z) for i in range(self.n)]
        system = sympy.Matrix(self.boundary["a"] + self.boundary["b"] + [basepoint_row])
        basis = []
        for vec in system.nullspace():
            scale = lcm(*(int(sympy.fraction(v)[1]) for v in vec))
            basis.append([int(v * scale) for v in vec])
        return basis

    def boundary_free(self, w: list[int]) -> bool:
        return all(
            sum(c * x for c, x in zip(row, w)) == 0 for family in ("a", "b") for row in self.boundary[family]
        )

    def is_generator(self, x: list[str]) -> bool:
        return (
            len(x) == self.genus
            and all(p in self.alpha_of for p in x)
            and len({self.alpha_of[p] for p in x}) == self.genus
            and len({self.beta_of[p] for p in x}) == self.genus
        )

    def chern(self, w: list[int], x: list[str]) -> Fraction:
        """<c_1, P> at generator x for a periodic domain w with n_z(w) = 0."""
        euler = sum((c * e for c, e in zip(w, self.euler)), Fraction(0))
        point = sum((Fraction(sum(w[r] for r in self.corners[p]), 4) for p in x), Fraction(0))
        return euler + 2 * point

    def check_weak_witness(self, w: list[int]) -> None:
        _require(len(w) == self.n, "witness has the wrong length")
        _require(all(c >= 0 for c in w) and any(w), "witness is not nonnegative and nonzero")
        _require(w[self.z] == 0, "witness meets the basepoint")
        _require(self.boundary_free(w), "witness is not periodic")

    def check_weak_certificate(self, areas: list[Fraction]) -> None:
        _require(len(areas) == self.n and all(a > 0 for a in areas), "areas are not strictly positive")
        for P in self.periodic:
            _require(sum(a * c for a, c in zip(areas, P)) == 0, "weak certificate gives a periodic domain area")

    def check_strong_certificate(self, areas: list[Fraction], x: list[str]) -> None:
        _require(len(areas) == self.n and all(a > 0 for a in areas), "areas are not strictly positive")
        _require(sum(areas) == 1, "strong certificate does not have total area one")
        for P in self.periodic:
            area = sum((a * c for a, c in zip(areas, P)), Fraction(0))
            _require(area == self.chern(P, x) / 2, "strong certificate area differs from <c_1, P>/2")

    def check_strong_witness(self, w: list[int], x: list[str]) -> None:
        _require(len(w) == self.n, "witness has the wrong length")
        _require(w[self.z] == 0 and self.boundary_free(w), "witness is not a periodic domain with n_z = 0")
        pairing = self.chern(w, x)
        if pairing == 0:
            _require(all(c >= 0 for c in w) and any(w), "pairing-zero witness is not nonnegative and nonzero")
        else:
            _require(pairing > 0 and pairing % 2 == 0, f"witness pairing {pairing} is not positive and even")
            _require(max(w) <= pairing / 2, "witness has a coefficient above half its pairing")


_WITNESS = re.compile(r"witness \[([-0-9, ]*)\]")


def _refusal_witness(stderr: str) -> list[int]:
    found = _WITNESS.search(stderr)
    _require(found is not None, "refusal carries no witness")
    return [int(v) for v in found.group(1).split(",") if v.strip()]


def _check_homology(facts: DiagramFacts, expect: dict, code: int, stdout: str, stderr: str) -> None:
    if not expect["weak"]:
        _require(code == 2, f"exit {code}, expected refusal 2")
        facts.check_weak_witness(_refusal_witness(stderr))
        return
    _require(code == 0, f"exit {code}, expected 0")
    doc = json.loads(stdout)
    k = expect["k"]
    ranks = [[i, comb(k, i)] for i in range(k + 1)]
    _require(len(doc["classes"]) == expect["classes"], f"{len(doc['classes'])} classes, expected {expect['classes']}")
    for cls in doc["classes"]:
        _require(cls["ranks"] == ranks and cls["total"] == 2**k, f"class ranks {cls['ranks']}, expected {ranks}")
    _require(doc["total"] == expect["classes"] * 2**k, "total rank differs from the prediction")


def _check_admissible(facts: DiagramFacts, expect: dict, strong: bool, code: int, stdout: str) -> None:
    doc = json.loads(stdout)
    _require(doc["kind"] == ("strong" if strong else "weak"), f"report kind {doc['kind']}")
    reports = doc["reports"]
    if strong:
        _require(len(reports) == expect["classes"], f"{len(reports)} class reports, expected {expect['classes']}")
    else:
        _require(len(reports) == 1 and reports[0]["class"] is None, "unrestricted weak report missing")
        _require(reports[0]["verdict"] == expect["weak"], f"weak verdict {reports[0]['verdict']}")
    for report in reports:
        if strong:
            x = report["class"][0]
            _require(facts.is_generator(x), f"class representative {x} is not a generator")
            if expect["strong"] is not None:
                _require(report["verdict"] == expect["strong"], f"strong verdict {report['verdict']}")
        if report["verdict"]:
            areas = [Fraction(a) for a in report["areas"]]
            if strong:
                facts.check_strong_certificate(areas, x)
            else:
                facts.check_weak_certificate(areas)
        elif strong:
            facts.check_strong_witness(report["witness"], x)
        else:
            facts.check_weak_witness(report["witness"])
    want = 0 if all(r["verdict"] for r in reports) else 2
    _require(code == want, f"exit {code}, expected {want}")


def check_output(facts: DiagramFacts, expect: dict, command: list[str], output: dict) -> None:
    """Raise CheckFailure unless one command's answer verifies."""
    code, stdout, stderr = output["exit"], output["stdout"], output["stderr"]
    try:
        if command[0] == "homology":
            _check_homology(facts, expect, code, stdout, stderr)
        else:
            _check_admissible(facts, expect, "--strong" in command, code, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise CheckFailure(f"malformed answer: {exc!r}") from exc


def digest(output: dict) -> str:
    """sha256 of one answer's stdout, for byte-identity across batches and commits."""
    return hashlib.sha256(output["stdout"].encode("utf-8")).hexdigest()
