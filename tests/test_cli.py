import subprocess
import sys
from types import SimpleNamespace

import pytest

from iqprep import bench, cli, pipeline
from iqprep.cli import _build_parser, main
from iqprep.image import synth_image, write_pnm


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_identity_matrix_reports_zero(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--size", "32x48", "--seed", "3", "--matrix", "identity"
    )
    assert code == 0
    assert "PASS" in out
    assert "0.000e+00" in out


def test_verify_seed42_384x512_yiq(capsys):
    code, out, _ = run_cli(capsys, "verify", "--size", "384x512", "--seed", "42", "--matrix", "yiq")
    assert code == 0
    assert "M 2" in out
    assert "score delta" in out
    assert "PASS" in out


def test_verify_384x384_yiq_prints_zero_differences_and_passes(capsys):
    # both orderings run on integers for every matrix, so every difference
    # and the score delta are exactly 0, as they are without a decimal form
    # (test_pipeline.py::test_impossible_tolerance_passes_without_a_decimal_form)
    code, out, err = run_cli(
        capsys, "verify", "--size", "384x384", "--seed", "1", "--matrix", "yiq"
    )
    assert (code, out, err) == (
        0,
        "size 384x384  matrix yiq  M 2\n"
        "max |convert-first - downsample-first| per channel:\n"
        "  luma     0.000e+00\n"
        "  chroma1  0.000e+00\n"
        "  chroma2  0.000e+00\n"
        "score delta: 0.000e+00\n"
        "PASS\n",
        "",
    )


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


@pytest.mark.parametrize(
    "position, value",
    [
        *(pytest.param(p, float("nan"), id=str(p)) for p in (0, 1, 2)),
        *(pytest.param(p, 5e-324, id=f"{p}-subnormal") for p in (0, 1, 2)),
        pytest.param("score", 5e-324, id="score-subnormal"),
    ],
)
def test_verify_fails_on_a_nan_channel_difference(capsys, monkeypatch, position, value):
    # any difference but exactly 0 fails, down to the smallest subnormal
    if position == "score":
        values = iter((0.0, value))  # the convert-first score, then the downsample-first one
        monkeypatch.setattr(cli, "score", lambda ref, dst: SimpleNamespace(value=next(values)))
    else:
        def with_difference(*pairs):
            diffs = dict.fromkeys(("luma", "chroma1", "chroma2"), 0.0)
            diffs[list(diffs)[position]] = value
            return diffs

        monkeypatch.setattr(cli, "channel_differences", with_difference)
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


def test_score_output_text_ragged_385x517(capsys, tmp_path):
    # at M = 2 the trailing row and column fill no block: convert-first
    # converts the 384x516 samples of whole blocks only
    ref = tmp_path / "ref.ppm"
    dst = tmp_path / "dst.ppm"
    write_pnm(synth_image(385, 517, 1), ref)
    write_pnm(synth_image(385, 517, 2), dst)
    code, out, err = run_cli(capsys, "score", "--ref", str(ref), "--dst", str(dst), "--luma-only")
    expected = (
        "score 0.816569244\n"
        "  gradient 0.816569244\n"
        "strategy convert-first  M 2\n"
        "conversion ops: 1188864 mul, 792576 add\n"
        "filtering ops:  99072 mul, 297216 add\n"
    )
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
        capsys, "bench", "--sizes", "16x16,24x16", "--reps", "3", "--out", str(out_path)
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
    for argv, message in (
        (["bench", "--sizes", "384by512"], "expected HxW, got '384by512'"),
        (["bench", "--sizes", "64x64,0x5"], "dimensions must be >= 1, got '0x5'"),
        (["verify", "--size", "0x5"], "dimensions must be >= 1, got '0x5'"),
    ):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err


def test_bench_rejects_low_reps(capsys):
    code, _, err = run_cli(capsys, "bench", "--sizes", "8x8", "--reps", "2")
    assert code == 2
    assert "at least 3" in err


def test_bench_rejects_empty_size_list(capsys):
    code, _, err = run_cli(capsys, "bench", "--sizes", "", "--reps", "3")
    assert code == 2
    assert "at least one" in err


def test_bench_unwritable_output(capsys, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(bench, "_evaluate", lambda *args: calls.append(args))
    target = tmp_path / "missing" / "report.csv"
    code, _, err = run_cli(
        capsys, "bench", "--sizes", "8x8", "--reps", "3", "--out", str(target)
    )
    assert code == 2
    assert "cannot write" in err
    assert calls == []  # it fails before anything is timed


ERROR_PATHS = {
    "verify-2x5": (
        ("verify", "--size", "2x5"),
        "gradient similarity needs planes of at least 3x3, got (2, 5)",
    ),
    "verify-matrix": (
        ("verify", "--size", "8x8", "--matrix", "nope"),
        "unknown color matrix 'nope' (known: identity, yiq, lmn)",
    ),
    "score-dimensions": (
        ("score", "--ref", "8x8.ppm", "--dst", "8x9.ppm"),
        "image dimensions differ: 8x8 vs 8x9",
    ),
    "score-2x5": (
        ("score", "--ref", "ref2x5.ppm", "--dst", "dst2x5.ppm"),
        "gradient similarity needs planes of at least 3x3, got (2, 5)",
    ),
    "score-truncated": (
        ("score", "--ref", "truncated.ppm", "--dst", "8x8.ppm"),
        "byte 16: truncated pixel payload: expected 48 bytes from byte 11, found 5",
    ),
    "score-missing": (
        ("score", "--ref", "missing.ppm", "--dst", "8x8.ppm"),
        "[Errno 2] No such file or directory: 'missing.ppm'",
    ),
    "score-matrix": (
        ("score", "--ref", "8x8.ppm", "--dst", "8x8.ppm", "--matrix", "nope"),
        "unknown color matrix 'nope' (known: identity, yiq, lmn)",
    ),
    "bench-2x5": (
        ("bench", "--sizes", "2x5", "--reps", "3"),
        "gradient similarity needs planes of at least 3x3, got (2, 5)",
    ),
    "bench-reps": (
        ("bench", "--sizes", "8x8", "--reps", "2"),
        "need at least 3 repetitions for a median, got 2",
    ),
    "bench-no-sizes": (
        ("bench", "--sizes", ",", "--reps", "3"),
        "--sizes must name at least one HxW size",
    ),
    "bench-unwritable": (
        ("bench", "--sizes", "8x8", "--reps", "3", "--out", "nodir/report.csv"),
        "cannot write nodir/report.csv: [Errno 2] No such file or directory: 'nodir/report.csv'",
    ),
}


@pytest.mark.parametrize("argv, message", ERROR_PATHS.values(), ids=ERROR_PATHS.keys())
def test_input_errors_print_one_line_and_exit_2(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    write_pnm(synth_image(8, 8, 1), tmp_path / "8x8.ppm")
    write_pnm(synth_image(8, 9, 1), tmp_path / "8x9.ppm")
    write_pnm(synth_image(2, 5, 1), tmp_path / "ref2x5.ppm")
    write_pnm(synth_image(2, 5, 2), tmp_path / "dst2x5.ppm")
    (tmp_path / "truncated.ppm").write_bytes(b"P6\n4 4\n255\nshort")
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "report.csv").exists()


def test_bench_repeated_size_is_input_error(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    code, out, err = run_cli(
        capsys, "bench", "--sizes", "16x16,16X16", "--reps", "3", "--out", str(out_path)
    )
    assert (code, out, err) == (2, "", "error: each size may be given once, got 16x16, 16x16\n")
    assert not out_path.exists()


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2
