import subprocess
import sys

import numpy as np
import pytest

from iqprep import cli, pipeline
from iqprep.cli import _build_parser, main
from iqprep.image import synth_image, write_pnm


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_identity_matrix_reports_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--size", "32x48", "--seed", "3", "--matrix", "identity", "--tol", "1e-9"
    )
    assert code == 0
    assert "PASS" in out
    assert "0.000e+00" in out


def test_verify_seed42_384x512_yiq(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--size", "384x512", "--seed", "42", "--matrix", "yiq", "--tol", "1e-9"
    )
    assert code == 0
    assert "M 2" in out
    assert "score delta" in out
    assert "PASS" in out


def test_verify_impossible_tolerance_fails(capsys):
    # the size rule gives M = 2 here, so reassociation noise is nonzero
    # for a non-identity matrix and an impossibly tight tolerance trips
    code, out, _ = run_cli(
        capsys, "verify", "--size", "384x384", "--seed", "1", "--matrix", "yiq", "--tol", "1e-18"
    )
    assert code == 1
    assert "FAIL" in out


def test_verify_zero_tolerance_is_rejected(capsys):
    for tol in ("0", "nan", "inf"):
        code, _, err = run_cli(capsys, "verify", "--size", "64x64", "--tol", tol)
        assert code == 2
        assert "positive" in err


def test_verify_reduced_plane_under_3x3_is_input_error(capsys):
    code, out, err = run_cli(capsys, "verify", "--size", "2x5")
    assert code == 2
    assert "error: gradient similarity needs planes of at least 3x3" in err
    assert "PASS" not in out and "FAIL" not in out


def test_verify_preprocesses_each_image_once_per_ordering(capsys, monkeypatch):
    calls = []
    execute = pipeline._execute

    def counting(plan, image):
        calls.append(plan.strategy)
        return execute(plan, image)

    monkeypatch.setattr(pipeline, "_execute", counting)
    code, out, _ = run_cli(capsys, "verify", "--size", "64x64")
    assert code == 0 and "PASS" in out
    assert sorted(s.value for s in calls) == ["convert-first"] * 2 + ["downsample-first"] * 2


@pytest.mark.parametrize("position", [0, 1, 2])
def test_verify_fails_on_a_nan_channel_difference(capsys, monkeypatch, position):
    def with_nan(*pairs):
        diffs = dict.fromkeys(("luma", "chroma1", "chroma2"), 0.0)
        diffs[list(diffs)[position]] = float("nan")
        return diffs

    monkeypatch.setattr(cli, "channel_differences", with_nan)
    code, out, _ = run_cli(capsys, "verify", "--size", "64x64")
    assert code == 1 and out.endswith("FAIL\n")


def test_python_dash_m_runs_the_cli(capsys):
    child = subprocess.run(
        [sys.executable, "-m", "iqprep", "verify", "--size", "64x64", "--matrix", "lmn"],
        capture_output=True,
        text=True,
    )
    code, out, _ = run_cli(capsys, "verify", "--size", "64x64", "--matrix", "lmn")
    assert child.returncode == code == 0
    assert child.stdout == out and "PASS" in out


def test_verify_unknown_matrix(capsys):
    code, _, err = run_cli(capsys, "verify", "--size", "8x8", "--matrix", "nope")
    assert code == 2
    assert "unknown color matrix" in err


def test_score_self_is_one_any_strategy(capsys, tmp_path):
    path = tmp_path / "img.ppm"
    write_pnm(synth_image(40, 56, 9), path)
    for strategy in ("auto", "convert-first", "downsample-first"):
        code, out, _ = run_cli(
            capsys, "score", "--ref", str(path), "--dst", str(path), "--strategy", strategy
        )
        assert code == 0
        assert "score 1.000000000" in out


def test_score_luma_only_auto_selects_convert_first(capsys, tmp_path):
    ref = tmp_path / "ref.ppm"
    dst = tmp_path / "dst.ppm"
    write_pnm(synth_image(384, 512, 1), ref)
    write_pnm(synth_image(384, 512, 2), dst)
    code, out, _ = run_cli(
        capsys, "score", "--ref", str(ref), "--dst", str(dst), "--luma-only"
    )
    assert code == 0
    assert "strategy convert-first" in out
    assert "chroma1" not in out


def test_score_auto_1080p_selects_downsample_first_m4(capsys, tmp_path):
    ref = tmp_path / "ref.ppm"
    dst = tmp_path / "dst.ppm"
    write_pnm(synth_image(1080, 1920, 5), ref)
    write_pnm(synth_image(1080, 1920, 6), dst)
    code, out, _ = run_cli(capsys, "score", "--ref", str(ref), "--dst", str(dst))
    assert code == 0
    assert "strategy downsample-first  M 4" in out


@pytest.mark.parametrize(
    "options, expected",
    [
        (
            ("--matrix", "yiq"),
            "score 0.256131501\n"
            "  gradient 0.815626892\n"
            "  chroma1  0.239574858\n"
            "  chroma2  0.276601274\n"
            "strategy downsample-first  M 2\n"
            "conversion ops: 884736 mul, 589824 add\n"
            "filtering ops:  294912 mul, 884736 add\n",
        ),
        (
            ("--matrix", "lmn", "--luma-only"),
            "score 0.814169628\n"
            "  gradient 0.814169628\n"
            "strategy convert-first  M 2\n"
            "conversion ops: 1179648 mul, 786432 add\n"
            "filtering ops:  98304 mul, 294912 add\n",
        ),
    ],
    ids=["yiq", "lmn-luma-only"],
)
def test_score_output_text_384x512(capsys, tmp_path, options, expected):
    ref = tmp_path / "ref.ppm"
    dst = tmp_path / "dst.ppm"
    write_pnm(synth_image(384, 512, 1), ref)
    write_pnm(synth_image(384, 512, 2), dst)
    code, out, err = run_cli(capsys, "score", "--ref", str(ref), "--dst", str(dst), *options)
    assert (code, out, err) == (0, expected, "")


def test_score_dimension_mismatch(capsys, tmp_path):
    ref = tmp_path / "ref.ppm"
    dst = tmp_path / "dst.ppm"
    write_pnm(synth_image(8, 8, 1), ref)
    write_pnm(synth_image(8, 9, 1), dst)
    code, _, err = run_cli(capsys, "score", "--ref", str(ref), "--dst", str(dst))
    assert code == 2
    assert "dimensions differ" in err


def test_score_reduced_plane_under_3x3_is_input_error(capsys, tmp_path):
    ref = tmp_path / "ref.ppm"
    dst = tmp_path / "dst.ppm"
    write_pnm(synth_image(2, 5, 1), ref)
    write_pnm(synth_image(2, 5, 2), dst)
    code, out, err = run_cli(capsys, "score", "--ref", str(ref), "--dst", str(dst))
    assert code == 2
    assert "error: gradient similarity needs planes of at least 3x3" in err
    assert out == ""


def test_score_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.ppm"
    bad.write_bytes(b"P6\n4 4\n255\nshort")
    good = tmp_path / "good.ppm"
    write_pnm(synth_image(4, 4, 1), good)
    code, _, err = run_cli(capsys, "score", "--ref", str(bad), "--dst", str(good))
    assert code == 2
    assert "truncated" in err


def test_bench_writes_csv_and_markdown(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys, "bench", "--sizes", "16x16,24x16", "--seed", "2", "--reps", "3",
        "--out", str(out_path),
    )
    assert code == 0
    lines = out_path.read_text().strip().split("\n")
    assert lines[0].startswith("size,pipeline,strategy,")
    assert len(lines) == 1 + 2 * 3 * 2  # header + sizes x pipelines x strategies
    assert "# Strategy run-time comparison" in out
    assert "## Ranking (fastest first)" in out
    assert f"CSV written to {out_path}" in out


def test_bench_reduced_plane_under_3x3_is_input_error(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    for sizes in ("2x5", "64x64,2x5"):  # a valid size first still writes nothing
        code, out, err = run_cli(
            capsys, "bench", "--sizes", sizes, "--reps", "3", "--out", str(out_path)
        )
        assert code == 2
        assert "error: gradient similarity needs planes of at least 3x3, got (2, 5)" in err
        assert out == ""
        assert not out_path.exists()


def test_bench_default_sizes_are_parsed():
    args = _build_parser().parse_args(["bench"])
    assert args.sizes == [(384, 512), (1080, 1920), (2160, 3840)]


def test_bench_rejects_bad_size_syntax(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["bench", "--sizes", "384by512"])
    assert excinfo.value.code == 2


def test_bench_rejects_low_reps(capsys):
    code, _, err = run_cli(capsys, "bench", "--sizes", "8x8", "--reps", "2")
    assert code == 2
    assert "at least 3" in err


def test_bench_rejects_empty_size_list(capsys):
    code, _, err = run_cli(capsys, "bench", "--sizes", "", "--reps", "3")
    assert code == 2
    assert "at least one" in err


def test_bench_unwritable_output(capsys, tmp_path):
    target = tmp_path / "missing" / "report.csv"
    code, _, err = run_cli(
        capsys, "bench", "--sizes", "8x8", "--reps", "3", "--out", str(target)
    )
    assert code == 2
    assert "cannot write" in err


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
