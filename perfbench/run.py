"""hfhat benchmark: seeded diagrams answered through the ``hf`` CLI, checked independently.

    python3 perfbench/run.py --workload lens --seed 1 --seconds 20 --trace 0

One run:

1. ``gen.py``, in its own process, writes the workload's distinct HFD
   files and a manifest from the seed.
2. Batches are answered for ``--seconds``.  A batch is one
   fresh ``answer.py`` process (one client, one thread, closed loop)
   answering every diagram of the manifest with cold caches.  With
   ``--trace 1`` untraced and traced batches alternate.
3. With ``--trace 0``, ``setup_s`` is measured alongside: before each
   batch, several fresh interpreters are timed from start until
   ``hfhat.cli`` is imported, and the median over the run is reported.
4. ``check.py`` verifies the first batch's answers without hfhat; every
   later batch must repeat them byte for byte.

Human-readable lines come first; the last line of stdout is the JSON
result.  With ``--trace 0`` it holds the end-to-end metrics (medians
over the run's batches), with ``--trace 1`` the per-layer metrics
(medians over traced batches) and the tracing overhead.  Inputs,
answers and spans stay under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import common
import tracer
from gen import WORKLOADS

SETUP_CMD = [sys.executable, "-c", "import hfhat.cli"]
SETUP_STARTS_PER_ROUND = 7
BATCH_TIMEOUT_S = 150


def _generate(work: Path, workload: str, seed: int) -> dict:
    cmd = [sys.executable, str(common.BENCH / "gen.py"), "--workload", workload, "--seed", str(seed), "--out", str(work)]
    subprocess.run(cmd, env=common.child_env(), check=True, timeout=BATCH_TIMEOUT_S)
    return json.loads((work / "manifest.json").read_text(encoding="utf-8"))


def _setup_times(starts: int) -> list[float]:
    env = common.child_env()
    times = []
    for _ in range(starts):
        # No timeout here: waiting with one polls the child every 50 ms,
        # which would quantize the measurement.
        start = time.perf_counter()
        subprocess.run(SETUP_CMD, env=env, check=True)
        times.append(time.perf_counter() - start)
    return times


def _answer_batch(work: Path, index: int, traced: bool) -> dict:
    out = work / f"batch{index:02d}.json"
    cmd = [sys.executable, str(common.BENCH / "answer.py"), str(work / "manifest.json"), str(out)]
    spans = work / f"spans{index:02d}.jsonl"
    if traced:
        cmd += ["--spans", str(spans)]
    subprocess.run(cmd, env=common.child_env(), check=True, timeout=BATCH_TIMEOUT_S)
    batch = json.loads(out.read_text(encoding="utf-8"))
    batch["traced"] = traced
    if traced:
        batch["layers"] = tracer.summarize(tracer.read_spans(spans))
    return batch


def _verify(work: Path, manifest: dict, batches: list[dict]) -> tuple[int, list[str]]:
    """Number of failed answers over all batches, and why each first failed.

    The first batch is checked in full.  A later answer fails unless it
    repeats the first batch's answer (exit code, stdout and stderr) and
    that answer passed.
    """
    failures = []
    passed = {}
    reference = batches[0]["answers"]
    for entry, answer in zip(manifest["diagrams"], reference, strict=True):
        facts = check.DiagramFacts(json.loads((work / entry["file"]).read_text(encoding="utf-8")))
        for j, (command, output) in enumerate(zip(entry["commands"], answer["outputs"], strict=True)):
            try:
                check.check_output(facts, entry["expect"], command, output)
                passed[entry["id"], j] = True
            except check.CheckFailure as exc:
                passed[entry["id"], j] = False
                failures.append(f"{entry['id']} {entry['construction']} `hf {' '.join(command)}`: {exc}")
    failed = 0
    for b, batch in enumerate(batches):
        for ref, answer in zip(reference, batch["answers"], strict=True):
            for j, (ref_out, out) in enumerate(zip(ref["outputs"], answer["outputs"], strict=True)):
                if not passed[ref["id"], j]:
                    failed += 1
                elif out != ref_out:
                    failed += 1
                    failures.append(f"batch {b} {ref['id']} command {j}: answer differs from batch 0")
    return failed, failures


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} q3={q3:.4f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        common.require_sources()
    except common.LayoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    spec = json.loads(common.SPEC.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    work = common.WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    manifest = _generate(work, args.workload, args.seed)
    setup: list[float] = []
    if not args.trace:
        subprocess.run(SETUP_CMD, env=common.child_env(), check=True, timeout=BATCH_TIMEOUT_S)  # writes bytecode

    # Start another batch (or traced pair) only if it is expected to end in time.
    batches = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        if not args.trace:
            setup += _setup_times(SETUP_STARTS_PER_ROUND)
        batches.append(_answer_batch(work, len(batches), traced=False))
        if args.trace:
            batches.append(_answer_batch(work, len(batches), traced=True))
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break
    failed, failures = _verify(work, manifest, batches)
    attempted = sum(len(a["outputs"]) for batch in batches for a in batch["answers"])

    plain = [b for b in batches if not b["traced"]]
    if args.trace:
        traced = [b for b in batches if b["traced"]]
        samples = {name: [b["layers"][name] for b in traced] for name in traced[0]["layers"]}
        samples["trace.coverage_ratio"] = [b["layers"]["cli.run.total_s"] / b["batch_s"] for b in traced]
        samples["trace.overhead_ratio"] = [t["batch_s"] / p["batch_s"] - 1 for p, t in zip(plain, traced)]
    else:
        samples = {
            "batch_s": [b["batch_s"] for b in plain],
            "slowest_answer_s": [max(a["seconds"] for a in b["answers"]) for b in plain],
            "peak_rss_mb": [b["peak_rss_mb"] for b in plain],
            "setup_s": setup,
        }
    reported = {name: statistics.median(values) for name, values in samples.items()}

    digests = [check.digest(out) for a in batches[0]["answers"] for out in a["outputs"]]
    answers_sha256 = hashlib.sha256("\n".join(digests).encode()).hexdigest()
    (work / "result.json").write_text(
        json.dumps({"manifest": manifest, "digests": digests, "failures": failures, "samples": samples}, indent=1),
        encoding="utf-8",
    )

    n_diagrams = len(manifest["diagrams"])
    print(f"workload {args.workload} seed {args.seed}: {n_diagrams} diagrams, {len(batches)} batches, "
          f"{attempted} answers checked")
    for name, value in reported.items():
        print(f"  {name:44s} {value:12.6g} {units[name]:6s} {_spread(samples[name])}")
    print(f"  {'failed_ratio':44s} {failed / attempted:12.6g} {'ratio':6s} {failed} of {attempted} answers")
    print(f"  answers_sha256 {answers_sha256}")
    for line in failures[:20]:
        print(f"  FAILED {line}")
    correct = failed == 0
    metrics = {name: {"value": value, "unit": units[name]} for name, value in reported.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
