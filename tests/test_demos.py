"""The demos run to the end and print what their docstrings promise."""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def run_demo(name, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main() is None
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("name", ["admissibility_tour", "lens_space_ranks"])
def test_demo_main_runs(name, capsys):
    assert run_demo(name, capsys)


def test_admissibility_tour_prints_certificate_and_witnesses(capsys):
    lines = run_demo("admissibility_tour", capsys)
    assert "  area certificate: (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))" in lines
    assert "  weak: False  witness: (0, 2, 1)" in lines
    assert "  strong: False  witness: (2, 1, 2, 1, 0)" in lines


def test_lens_space_ranks_totals_are_p(capsys):
    lines = run_demo("lens_space_ranks", capsys)
    assert "lens(7,3)      generators= 7 classes= 7 total rank=7" in lines
    assert lines[-1] == "  twice        generators= 5 classes= 5 total rank=5"
