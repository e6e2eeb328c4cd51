"""Every number README quotes that the repository can recompute, recomputed.

The deterministic figures come from the library and the test matrices, and
README's "Tolerances" table is run as ``iqprep verify`` commands; the
timings come only from the committed ``BENCH_*.json`` files, one trajectory
row each. A change that moves one of them, a new BENCH file without its
row, or a renamed section that code cites fails here until README follows.
"""

import json
import math
import re
from pathlib import Path

import pytest

import iqprep
from iqprep import cli, pipeline
from iqprep.colorspace import ChannelSet, builtin_matrix
from iqprep.downsample import DownsampleSpec, compute_factor
from iqprep.pipeline import Strategy, plan_pipeline, predict_ops
from test_pipeline import THIRD

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
LINES = README.splitlines()
PROSE = " ".join(README.split())  # wrapped prose, one space between words
CF, DF = Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST


def _row(*cells) -> str:
    return "| " + " | ".join(str(c) for c in cells) + " |"


def _channels(k: int) -> ChannelSet:
    return ChannelSet(*(i < k for i in range(3)))


def _total(ops) -> int:
    return sum(c.multiplies + c.adds for c in (ops.conversion, ops.filtering))


@pytest.mark.parametrize("size", [(384, 512), (1080, 1920), (2160, 3840)])
def test_op_model_ratios(size):
    spec = compute_factor(*size)
    ratios = [
        _total(predict_ops(*size, _channels(k), spec, CF))
        / _total(predict_ops(*size, _channels(k), spec, DF))
        for k in (1, 2, 3)
    ]
    row = _row(f"{size[0]}x{size[1]}", spec.factor, *(f"{r:.2f}" for r in ratios))
    assert row in LINES


def test_conversion_saving_at_m17():
    spec = DownsampleSpec(17)
    cf, df = (predict_ops(37, 29, ChannelSet(), spec, s).conversion.multiplies for s in (CF, DF))
    assert f"at 37x29 and M = 17, {cf} against {df} multiplies" in PROSE


def test_float32_range_table():
    header = ["integer", "bound"]
    row_sums = ["row sum of a block", "P·M"]
    block_sums = ["block sum", "P·M^2"]
    for name in ("yiq", "lmn", "identity"):
        numerators, _ = builtin_matrix(name).decimal_form
        peak = 255 * max(sum(map(abs, row)) for row in numerators)
        row_m = ((1 << 24) - 1) // peak  # the largest M with P M < 2^24
        block_m = math.isqrt(row_m)  # and with P M^2 < 2^24
        # the dtypes the pipeline picks change exactly there
        for m, dtypes in (
            (block_m, ("float32", "float32")),
            (block_m + 1, ("float32", "float64")),
            (row_m, ("float32", "float64")),
            (row_m + 1, ("float64", "float64")),
        ):
            plan = plan_pipeline(64, 64, builtin_matrix(name), spec=DownsampleSpec(m))
            assert tuple(t.__name__ for t in pipeline._arithmetic(plan)[1]) == dtypes, (name, m)
        header.append(f"{name} (P = {peak})")
        row_sums.append(f"float32 to M = {row_m}")
        block_sums.append(f"float32 to M = {block_m}")
    for cells in (header, row_sums, block_sums):
        assert _row(*cells) in LINES


def test_third_bound_at_m8():
    assert "|out − y| ≤ 255·‖c‖₁·(γ₂ + 6·(1 + γ₂)·2^(2b−103))." in LINES
    m = 8
    b = (255 * m * m).bit_length()  # the least b with 255 M^2 < 2^b
    norm = max(sum(map(abs, row)) for row in THIRD.coefficients.tolist())
    u = 2.0**-53
    gamma_2 = 2 * u / (1 - 2 * u)
    bound = 255 * norm * (gamma_2 + 6 * (1 + gamma_2) * 2.0 ** (2 * b - 103))
    assert f"For THIRD at M = 8 (b = {b}) the bound is {bound:.1e}" in PROSE


# (size, M, matrix) for each matrix of each row of README's "Tolerances" table
_TOLERANCES = README.split("### Tolerances", 1)[1].split("\n#", 1)[0]
VERIFY_CASES = [
    (size, factor, matrix)
    for size, factor, matrices in re.findall(r"^\| (\d+x\d+) \| (\d+) \| (.+?) \|", _TOLERANCES, re.M)
    for matrix in matrices.split(", ")
]


@pytest.mark.parametrize(
    "size, factor, matrix", VERIFY_CASES, ids=[f"{s}-{m}" for s, _, m in VERIFY_CASES]
)
def test_verify_table(capsys, size, factor, matrix):
    assert factor == str(compute_factor(*map(int, size.split("x"))).factor)
    assert cli.main(["verify", "--size", size, "--matrix", matrix]) == 0
    assert capsys.readouterr() == (
        f"size {size}  matrix {matrix}  M {factor}\n"
        "max |convert-first - downsample-first| per channel:\n"
        "  luma     0.000e+00\n"
        "  chroma1  0.000e+00\n"
        "  chroma2  0.000e+00\n"
        "score delta: 0.000e+00\n"
        "PASS\n",
        "",
    )


def test_namespace_count():
    assert f"namespace holds only the {len(iqprep.__all__)} names" in PROSE


def _label(path: Path) -> int:
    return int(re.fullmatch(r"BENCH_(\d+)\.json", path.name).group(1))


def _trajectory_row(path: Path, workloads: list[str]) -> str:
    summary = json.loads(path.read_text(encoding="utf-8"))["summary"]
    cells = [f"`{path.name}`"]
    for workload in workloads:
        metric = summary[workload]["pairs_per_s"]
        parent, change = metric["parent"], metric["change"]
        cells.append(
            f"{parent['median']:.1f} ({parent['q1']:.1f}–{parent['q3']:.1f}) → "
            f"{change['median']:.1f} ({change['q1']:.1f}–{change['q3']:.1f}), "
            f"{metric['change_wins']}/{metric['pairs']}"
        )
    return _row(*cells)


def test_trajectory_has_one_row_per_bench_file():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in benchmark["workloads"]]
    assert _row("file", *workloads) in LINES
    files = sorted(ROOT.glob("BENCH_*.json"), key=_label)
    assert files
    expected = [_trajectory_row(path, workloads) for path in files]
    assert [line for line in LINES if line.startswith("| `BENCH_")] == expected


def test_no_timing_outside_the_trajectory():
    trajectory = {line for line in LINES if line.startswith("| `BENCH_")}
    for line in LINES:
        if line not in trajectory:
            assert not re.search(r"\d\s*(ms|µs|ns)\b|\d+ (minor )?faults", line), line


def _sections() -> set[str]:
    sections, fenced = set(), False
    for line in LINES:
        if line.startswith("```"):
            fenced = not fenced
        elif not fenced and line.startswith("#"):
            sections.add(line.lstrip("#").strip())
    return sections


def test_cited_sections_exist():
    citation = re.compile(r"README(?:'s)?,?\s+((?:\"[^\"]+\"(?:\s+and\s+)?)+)")
    cited = {}
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py")]):
        text = " ".join(path.read_text(encoding="utf-8").replace("#", " ").split())
        for names in citation.findall(text):
            for name in re.findall(r"\"([^\"]+)\"", names):
                cited.setdefault(name, path.name)
    assert cited
    missing = {name: where for name, where in cited.items() if name not in _sections()}
    assert not missing
