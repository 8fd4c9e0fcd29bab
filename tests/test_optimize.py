"""Every guarantee is an explicit raise, so it holds under python -O."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hfhat"


def test_library_has_no_assert():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 10  # the scan found the package
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
