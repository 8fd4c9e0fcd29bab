"""Paths and checks shared by the benchmark's scripts.

The benchmark measures the hfhat sources of the checkout it sits in:
``src/hfhat`` next to this directory.  Child processes get that source
tree on ``PYTHONPATH`` and refuse to run against any other copy.
"""

from __future__ import annotations

import os
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench"
SPEC = ROOT / "BENCHMARK.json"


class LayoutError(RuntimeError):
    """The checkout does not hold the hfhat sources the benchmark measures."""


def require_sources() -> None:
    if not (SRC / "hfhat" / "cli.py").is_file():
        raise LayoutError(f"no hfhat sources at {SRC / 'hfhat'}; run from a full checkout")


def child_env() -> dict[str, str]:
    """Environment for a child interpreter that imports the checkout's hfhat."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_checkout_hfhat() -> None:
    """Import ``hfhat`` and fail unless it is the checkout's copy."""
    require_sources()
    import hfhat

    where = Path(hfhat.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise LayoutError(f"imported hfhat from {where}, not from {SRC}")
