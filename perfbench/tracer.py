"""Span tracing for the traced run, done entirely from the benchmark's side.

``Tracer.install`` rebinds hfhat's public functions by name in every
hfhat module that holds them: the cross-module imports (for example
``hfhat.domains.hermite_solve`` or ``hfhat.spinc.connecting_domain``)
and the defining module's own global, which is where intra-module calls
and call-time imports look the name up.  Nothing under ``src/``
changes.  Each call through a rebound name appends one span

    (name, start_ns, end_ns, parent, diagram, outcome)

to a list kept in memory and written out when the run ends.  ``parent``
is the index of the enclosing span (-1 at the top), ``diagram`` the id
of the diagram being answered, and ``outcome`` the count the boundary
records: the size of the result for enumerations, 1 for a wasted
attempt (no connecting domain, an infeasible LP), -1 when the call
raised.

``summarize`` turns one traced batch's spans into the per-layer metrics.
"""

from __future__ import annotations

import json
import time
from functools import wraps
from pathlib import Path

# (module, function) pairs traced; the layer of a span is its module.
TRACED = (
    ("cli", "run"),
    ("diagram", "parse_hfd"),
    ("diagram", "validate"),
    ("generators", "enumerate_generators"),
    ("domains", "connecting_domain"),
    ("domains", "periodic_lattice"),
    ("domains", "recession_direction"),
    ("domains", "positive_domains"),
    ("measures", "maslov_index"),
    ("measures", "chern_pairing"),
    ("spinc", "spinc_partition"),
    ("admissibility", "weak_admissible"),
    ("admissibility", "strong_admissible"),
    ("admissibility", "area_certificate"),
    ("floer", "homology"),
    ("floer", "differential"),
    ("floer", "classify_rigid"),
    ("exactla", "hermite_solve"),
    ("exactla", "lp_optimize"),
)

LAYERS = tuple(dict.fromkeys(module for module, _ in TRACED))


def _outcome(name: str, result) -> int | None:
    if name in ("enumerate_generators", "spinc_partition", "positive_domains"):
        return len(result)
    if name == "differential":
        return len(result.audit)
    if name == "connecting_domain":
        return int(result is None)
    if name == "lp_optimize":
        return int(result.status == "infeasible")
    return None


class Tracer:
    """Span recorder for one answering process."""

    def __init__(self) -> None:
        self.spans: list = []
        self.diagram = ""
        self._open: list[int] = []

    def install(self) -> None:
        import importlib
        import sys

        for module, name in TRACED:
            original = getattr(importlib.import_module(f"hfhat.{module}"), name)
            traced = self._wrap(f"{module}.{name}", original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.startswith("hfhat") and getattr(mod, name, None) is original:
                    setattr(mod, name, traced)

    def _wrap(self, span_name: str, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter_ns
        short = span_name.split(".", 1)[1]

        @wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            outcome = -1
            start = clock()
            try:
                result = fn(*args, **kwargs)
                outcome = _outcome(short, result)
                return result
            finally:
                end = clock()
                open_.pop()
                spans[index] = (span_name, start, end, parent, self.diagram, outcome)

        return traced

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def read_spans(path: Path) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh]


def _ratio(part: int, whole: int) -> float:
    return part / whole if whole else 0.0


def summarize(spans: list[tuple]) -> dict[str, float]:
    """Per-layer metrics of one traced batch.

    ``total_s`` sums a function's outermost spans (a span nested in one
    of the same name is not counted twice); ``self_s`` is a span's
    duration minus the time its direct children cover.
    """
    child = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    layer_self: dict[str, int] = dict.fromkeys(LAYERS, 0)
    outcome: dict[str, int] = {}
    pairs = yielded = 0
    for i, (name, start, end, parent, _, out) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        own = dur - child[i]
        self_ns[name] = self_ns.get(name, 0) + own
        layer_self[name.split(".", 1)[0]] += own
        if out is not None and out > 0:
            outcome[name] = outcome.get(name, 0) + out
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] = total.get(name, 0) + dur
        if name == "domains.positive_domains" and parent >= 0 and spans[parent][0] == "floer.differential":
            pairs += 1
            yielded += int(out is not None and out > 0)

    def n(name: str) -> int:
        return calls.get(name, 0)

    def s(table: dict[str, int], name: str) -> float:
        return table.get(name, 0) / 1e9

    metrics = {
        "diagram.parse_hfd.total_s": s(total, "diagram.parse_hfd"),
        "diagram.validate.total_s": s(total, "diagram.validate"),
        "diagram.validate.calls": n("diagram.validate"),
        "generators.enumerate_generators.total_s": s(total, "generators.enumerate_generators"),
        "generators.count": outcome.get("generators.enumerate_generators", 0),
        "domains.connecting_domain.calls": n("domains.connecting_domain"),
        "domains.connecting_domain.total_s": s(total, "domains.connecting_domain"),
        "domains.connecting_domain.none_ratio": _ratio(
            outcome.get("domains.connecting_domain", 0), n("domains.connecting_domain")
        ),
        "domains.periodic_lattice.total_s": s(total, "domains.periodic_lattice"),
        "domains.positive_domains.calls": n("domains.positive_domains"),
        "domains.positive_domains.self_s": s(self_ns, "domains.positive_domains"),
        "domains.positive_domains.found": outcome.get("domains.positive_domains", 0),
        "measures.maslov_index.calls": n("measures.maslov_index"),
        "measures.maslov_index.total_s": s(total, "measures.maslov_index"),
        "spinc.spinc_partition.calls": n("spinc.spinc_partition"),
        "spinc.spinc_partition.self_s": s(self_ns, "spinc.spinc_partition"),
        "spinc.classes": outcome.get("spinc.spinc_partition", 0),
        "admissibility.weak_admissible.total_s": s(total, "admissibility.weak_admissible"),
        "admissibility.strong_admissible.total_s": s(total, "admissibility.strong_admissible"),
        "admissibility.area_certificate.calls": n("admissibility.area_certificate"),
        "admissibility.area_certificate.self_s": s(self_ns, "admissibility.area_certificate"),
        "floer.differential.self_s": s(self_ns, "floer.differential"),
        "floer.pairs": pairs,
        "floer.pair_yield": _ratio(yielded, pairs),
        "floer.classify_rigid.calls": n("floer.classify_rigid"),
        "floer.classify_rigid.total_s": s(total, "floer.classify_rigid"),
        "floer.counted": outcome.get("floer.differential", 0),
        "exactla.hermite_solve.calls": n("exactla.hermite_solve"),
        "exactla.hermite_solve.total_s": s(total, "exactla.hermite_solve"),
        "exactla.lp_optimize.calls": n("exactla.lp_optimize"),
        "exactla.lp_optimize.total_s": s(total, "exactla.lp_optimize"),
        "exactla.lp_optimize.infeasible_ratio": _ratio(
            outcome.get("exactla.lp_optimize", 0), n("exactla.lp_optimize")
        ),
        "cli.run.total_s": s(total, "cli.run"),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = layer_self[layer] / 1e9
    return metrics
