"""Every demo runs end to end; the benchmark demo at small sizes only."""

import runpy
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name",
    [
        "01_image_io.py",
        "02_color_and_downsample.py",
        "03_two_orderings.py",
        "04_operation_counting.py",
    ],
)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out


def test_benchmark_demo_runs_at_small_sizes(capsys, monkeypatch):
    script = DEMOS / "05_benchmark.py"
    monkeypatch.setattr(sys, "argv", [str(script), "16x16", "24x16"])
    runpy.run_path(str(script), run_name="__main__")
    out = capsys.readouterr().out
    assert "# Strategy run-time comparison" in out
    assert "| yiq-luma |" in out
    assert "- 24x16: yiq-full " in out
