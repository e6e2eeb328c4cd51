"""The ``iqprep`` namespace is exactly what the README quickstart and the demos
import, and every name perfbench looks up on the library exists."""

import ast
import importlib
import re
import sys
from pathlib import Path

import iqprep

ROOT = Path(__file__).resolve().parent.parent


def _quickstart() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _imported_from_iqprep(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "iqprep" and node.level == 0
        for alias in node.names
    }


def test_namespace_is_what_readme_and_demos_import():
    used = _imported_from_iqprep(_quickstart())
    for demo in sorted((ROOT / "demos").glob("*.py")):
        used |= _imported_from_iqprep(demo.read_text(encoding="utf-8"))
    assert set(iqprep.__all__) == used
    assert len(iqprep.__all__) == len(used)  # no name listed twice
    for name in used:
        assert getattr(iqprep, name) is not None, name


def test_readme_quickstart_runs(capsys):
    exec(compile(_quickstart(), "README.md quickstart", "exec"), {})
    out = capsys.readouterr().out
    assert "Strategy.DOWNSAMPLE_FIRST 4" in out
    assert "True" in out


def test_what_perfbench_looks_up_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers = importlib.import_module("layers")
    # what the traced run lists as ``meta.unwrapped``
    unwrapped = {
        t.name
        for t in layers.SETUP_TARGETS + layers.PAIR_TARGETS
        if getattr(t.module, t.attr, None) is None
    }
    assert unwrapped <= {"image.to_planes"}
    # importing iqprep loaded scipy; perfbench/run.py reads its version there
    assert "scipy" in sys.modules
