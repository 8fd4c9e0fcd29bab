"""Seeded input generator: writes one workload's distinct HFD files and a manifest.

Run as its own process, before the answering process starts, because
hfhat keeps unbounded caches keyed on diagram equality: a diagram built
in the answering process would be answered from warm caches.

    python3 perfbench/gen.py --workload lens --seed 7 --out DIR

Each workload is a fixed profile of diagram shapes (families, sizes and
summand order), so every seed asks for the same amount of work; the
seed picks each lens parameter q and the order in which the diagrams
are answered.  The manifest records each diagram's construction, the
answer topology predicts for it, and why its workload was chosen.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
from functools import reduce
from math import gcd
from pathlib import Path

import common

HOMOLOGY = [["homology", "--json"]]
ADMISSIBILITY = [["admissible", "--json"], ["admissible", "--strong", "--json"], ["homology", "--json"]]

# A summand is ("lens", p), ("gsph", k), ("s1s2_bad",) or ("s1s2_wind",);
# a profile entry is the tuple of summands joined by connected sum in order.
WORKLOADS = {
    "lens": {
        "why": "p Spin^c classes with one generator each: time is spinc_partition -> "
        "connecting_domain -> hermite_solve, with no LP and an empty differential",
        "commands": HOMOLOGY,
        "profile": [(("lens", p),) for p in (11, 13, 14, 16, 17, 19, 20, 22, 23, 25, 27, 29)],
    },
    "sums": {
        "why": "few Spin^c classes with many generators each: time is per-pair "
        "positive_domains (exact LP sweep, index filter) and classify_rigid",
        "commands": HOMOLOGY,
        "profile": [
            (("gsph", 3),),
            (("gsph", 4),),
            (("lens", 3), ("gsph", 2)),
            (("gsph", 2), ("lens", 4)),
            (("lens", 5), ("gsph", 2)),
            (("gsph", 2), ("lens", 6)),
            (("lens", 7), ("gsph", 2)),
            (("gsph", 2), ("lens", 2)),
            (("gsph", 3), ("lens", 2)),
            (("lens", 3), ("gsph", 3)),
        ],
    },
    "admissible": {
        "why": "weak and strong verdicts with certificates (few large certificate LPs) "
        "plus the NotAdmissible and UnboundedEnumeration refusals, three commands per process",
        "commands": ADMISSIBILITY,
        "profile": [
            (("lens", 7),),
            (("lens", 9),),
            (("gsph", 3),),
            (("lens", 3), ("gsph", 2)),
            (("gsph", 2), ("lens", 5)),
            (("s1s2_wind",),),
            (("s1s2_bad",), ("lens", 3)),
            (("lens", 5), ("s1s2_bad",)),
            (("lens", 7), ("s1s2_bad",)),
            (("s1s2_bad",), ("gsph", 2)),
        ],
    },
}


def _summand(rng: random.Random, summand: tuple) -> tuple[str, dict]:
    """Corpus spelling of one summand and what it contributes to the answer."""
    family = summand[0]
    if family == "lens":
        p = summand[1]
        q = rng.choice([q for q in range(1, p) if gcd(p, q) == 1])
        return f"lens({p},{q})", {"classes": p, "k": 0, "weak": True}
    if family == "gsph":
        return f"gsph({summand[1]})", {"classes": 1, "k": summand[1], "weak": True}
    # Both have the basepoint in a bigon, so a nonnegative periodic
    # domain avoids it and weak admissibility fails.
    return family, {"classes": 1, "k": 0, "weak": False}


def _expectation(parts: list[dict], names: list[str]) -> dict:
    """Answer predicted by Kuenneth for a connected sum of the parts.

    Classes multiply, the S^1 x S^2 summands add to k, and each class has
    graded ranks binomial(k, i).  Weak admissibility needs every summand
    weakly admissible.  Strong admissibility is predicted where the
    construction decides it: every weakly admissible summand here has
    torsion c_1, and s1s2_wind is the corpus's strong failure.
    """
    classes = 1
    for part in parts:
        classes *= part["classes"]
    weak = all(part["weak"] for part in parts)
    strong = True if weak else (False if names == ["s1s2_wind"] else None)
    return {"classes": classes, "k": sum(part["k"] for part in parts), "weak": weak, "strong": strong}


def generate(workload: str, seed: int, out: Path) -> dict:
    from hfhat.corpus import build
    from hfhat.diagram import connected_sum, serialize_hfd

    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    profile = list(spec["profile"])
    rng.shuffle(profile)
    (out / "inputs").mkdir(parents=True)
    diagrams, digests = [], set()
    for i, entry in enumerate(profile):
        names, parts = zip(*(_summand(rng, s) for s in entry))
        text = serialize_hfd(reduce(connected_sum, (build(n) for n in names)))
        digest = hashlib.sha256(text.encode()).hexdigest()
        if digest in digests:
            raise ValueError(f"{workload} seed {seed}: {'#'.join(names)} repeats an earlier diagram")
        digests.add(digest)
        name = f"inputs/d{i:02d}.hfd"
        (out / name).write_text(text, encoding="utf-8")
        diagrams.append(
            {
                "id": f"d{i:02d}",
                "file": name,
                "construction": "#".join(names),
                "expect": _expectation(list(parts), list(names)),
                "commands": spec["commands"],
            }
        )
    manifest = {"workload": workload, "seed": seed, "why": spec["why"], "diagrams": diagrams}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return manifest


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args()
    common.import_checkout_hfhat()
    generate(args.workload, args.seed, args.out)


if __name__ == "__main__":
    main()
