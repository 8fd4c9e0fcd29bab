"""Answering process: one closed-loop client answering a whole manifest.

    python3 perfbench/answer.py MANIFEST OUT [--spans SPANS]

Imports the checkout's ``hfhat.cli`` and answers every diagram of the
manifest through ``hfhat.cli.run``, in this process, on one thread, one
command after another.  Writes each command's exit code (None when
``run`` raised), stdout and stderr, each diagram's answer time, the
batch's wall time and the process's peak resident memory to OUT as
JSON.  With ``--spans`` the run is traced (see ``tracer.py``) and the
spans are written to SPANS when the batch ends.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import time
import traceback
from pathlib import Path

import common


def _peak_rss_mb() -> float:
    """High-water resident set of this process's own address space.

    ``getrusage`` would also count the parent's memory at fork time,
    before this interpreter was exec'ed.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("manifest", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--spans", type=Path, default=None)
    args = parser.parse_args()

    manifest = json.loads(args.manifest.read_text(encoding="utf-8"))
    common.import_checkout_hfhat()
    import hfhat.cli

    tracer = None
    if args.spans is not None:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    answers = []
    batch_start = time.perf_counter()
    for entry in manifest["diagrams"]:
        path = str(args.manifest.parent / entry["file"])
        if tracer is not None:
            tracer.diagram = entry["id"]
        outputs = []
        start = time.perf_counter()
        for command in entry["commands"]:
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = hfhat.cli.run([command[0], path, *command[1:]])
            except Exception:  # an escaped exception is a failed answer; keep answering
                code = None
                err.write(traceback.format_exc())
            outputs.append({"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
        answers.append({"id": entry["id"], "seconds": time.perf_counter() - start, "outputs": outputs})
    batch_s = time.perf_counter() - batch_start
    peak_rss_mb = _peak_rss_mb()

    if tracer is not None:
        tracer.write(args.spans)
    result = {"batch_s": batch_s, "peak_rss_mb": peak_rss_mb, "answers": answers}
    args.out.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
