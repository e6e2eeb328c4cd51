"""The quick demos run end to end; the minute-long benchmark demo is left out."""

import runpy
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
