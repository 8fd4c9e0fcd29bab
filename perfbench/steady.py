"""Steadiness check: two sets of untraced runs of the same code must agree.

    python3 perfbench/steady.py

Runs ``run.py --trace 0`` for every workload in BENCHMARK.json and
seeds 1..10, twice over, with ``run_seconds`` from BENCHMARK.json.
For each end-to-end metric it reports each set's median and its
spread, the distance between the first and third quartile of the runs
as a share of their median, and the drift of the second set's median
from the first's, in either direction.  It exits 1 when a spread or
the drift exceeds the metric's bound in BENCHMARK.json.  The full
table is also written to ``.perfbench/steady.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

import common

SEEDS = range(1, 11)


def _run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, str(common.BENCH / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(cmd, cwd=common.ROOT, capture_output=True, text=True, timeout=600)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if done.returncode != 0 or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stdout}{done.stderr}")
    return result


def _spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def _run_set(spec: dict, label: str) -> dict:
    """``{workload: {metric: [value per seed]}}`` for one set of runs."""
    values: dict = {}
    for seed in SEEDS:
        for workload in spec["workloads"]:
            result = _run(workload["name"], seed, spec["run_seconds"])
            for name, metric in result["metrics"].items():
                values.setdefault(workload["name"], {}).setdefault(name, []).append(metric["value"])
            print(f"{label} seed {seed} {workload['name']}: "
                  + " ".join(f"{n}={m['value']:.5g}" for n, m in result["metrics"].items()), flush=True)
    return values


def main() -> int:
    spec = json.loads(common.SPEC.read_text(encoding="utf-8"))
    first, second = _run_set(spec, "first"), _run_set(spec, "second")

    ok = True
    table = []
    print(f"{'workload':11s} {'metric':18s} {'bound':>6s} {'median 1':>10s} {'median 2':>10s} "
          f"{'spread 1':>8s} {'spread 2':>8s} {'drift':>7s}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            runs1, runs2 = first[workload][name], second[workload][name]
            median1, median2 = statistics.median(runs1), statistics.median(runs2)
            spread1, spread2 = _spread(runs1), _spread(runs2)
            drift = (median2 - median1) / median1
            good = max(spread1, spread2, abs(drift)) <= bound
            ok &= good
            verdict = ("OUT OF BOUND" if not good else "ok" if max(spread1, spread2) < bound / 3
                       else "ok, spread above bound/3")
            table.append({"workload": workload, "metric": name, "bound": bound, "medians": [median1, median2],
                          "spreads": [spread1, spread2], "drift": drift, "ok": good, "runs": [runs1, runs2]})
            print(f"{workload:11s} {name:18s} {bound:6.3f} {median1:10.5g} {median2:10.5g} "
                  f"{spread1:8.4f} {spread2:8.4f} {drift:+7.4f}  {verdict}")
    common.WORK.mkdir(exist_ok=True)
    (common.WORK / "steady.json").write_text(json.dumps(table, indent=1), encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
