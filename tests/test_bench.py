from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from iqprep import bench
from iqprep.bench import (
    BenchRecord,
    default_pipelines,
    emit_report,
    run_bench,
)
from iqprep.pipeline import OpCounter, Strategy

DATA_DIR = Path(__file__).parent / "data"


def make_golden_records():
    """Fixed counter-only records (timings zeroed) for format-stability checks.

    The two pipelines swap speed order between strategies at the second
    size so the ranking arrow is exercised; ms fields are zero so every
    float in the output is deterministic.
    """

    def record(size, pipeline, strategy, conv, filt, factor, ms=0.0, speedup=0.0):
        return BenchRecord(
            size_label=size,
            pipeline=pipeline,
            strategy=strategy,
            ms_median=ms,
            ms_min=ms,
            ms_max=ms,
            conversion=OpCounter(*conv),
            filtering=OpCounter(*filt),
            factor=factor,
            speedup=speedup,
        )

    cf, df = Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST
    return [
        record("8x8", "alpha", cf, (576, 384), (48, 144), 2),
        record("8x8", "alpha", df, (144, 96), (48, 144), 2),
        record("8x8", "beta", cf, (192, 128), (16, 48), 2),
        record("8x8", "beta", df, (144, 96), (48, 144), 2),
        record("16x16", "alpha", cf, (2304, 1536), (192, 576), 2, ms=4.0, speedup=2.0),
        record("16x16", "alpha", df, (576, 384), (192, 576), 2, ms=2.0, speedup=2.0),
        record("16x16", "beta", cf, (768, 512), (64, 192), 2, ms=1.0, speedup=0.333),
        record("16x16", "beta", df, (576, 384), (192, 576), 2, ms=3.0, speedup=0.333),
    ]


def test_run_bench_record_shape_and_invariants():
    records = run_bench([(16, 16), (20, 24)], reps=3)
    pipelines = default_pipelines()
    assert len(records) == 2 * len(pipelines) * 2  # sizes x pipelines x strategies
    for record in records:
        assert record.ms_median > 0.0
        assert record.ms_min <= record.ms_median <= record.ms_max
        assert record.speedup > 0.0
    # the pair shares one speedup value: convert-first ms over downsample-first ms
    by_key = {(r.size_label, r.pipeline, r.strategy): r for r in records}
    for size in ("16x16", "20x24"):
        for config in pipelines:
            cf = by_key[(size, config.name, Strategy.CONVERT_FIRST)]
            df = by_key[(size, config.name, Strategy.DOWNSAMPLE_FIRST)]
            assert cf.speedup == df.speedup == pytest.approx(cf.ms_median / df.ms_median)


def test_counters_are_deterministic_across_runs():
    first = run_bench([(12, 18)], reps=3)
    second = run_bench([(12, 18)], reps=3)
    for a, b in zip(first, second):
        assert a.conversion == b.conversion
        assert a.filtering == b.filtering
        assert a.factor == b.factor


def test_m1_size_has_identical_counters_across_strategies():
    records = run_bench([(256, 256)], reps=3)
    assert len(records) == 2 * len(default_pipelines())
    for cf, df in zip(records[0::2], records[1::2]):
        assert cf.pipeline == df.pipeline
        assert (cf.strategy, df.strategy) == (Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST)
        assert cf.factor == df.factor == 1
        assert cf.conversion == df.conversion
        assert cf.filtering == df.filtering == OpCounter(0, 0)


def test_reps_validation():
    with pytest.raises(ValueError, match="at least 3"):
        run_bench([(8, 8)], reps=2)


def test_too_small_size_is_rejected_before_any_timing(monkeypatch):
    calls = []
    monkeypatch.setattr(bench, "_evaluate", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match=r"at least 3x3, got \(2, 5\)"):
        run_bench([(64, 64), (2, 5)], reps=3)
    assert calls == []


def test_repeated_size_is_rejected_before_any_timing(monkeypatch):
    calls = []
    monkeypatch.setattr(bench, "_evaluate", lambda *args: calls.append(args))
    with pytest.raises(ValueError, match="each size may be given once, got 16x16, 64x64, 16x16"):
        run_bench([(16, 16), (64, 64), (16, 16)], reps=3)
    assert calls == []


def test_timed_repetitions_alternate_the_orderings(monkeypatch):
    # one untimed warm-up of each ordering, then CF DF, DF CF, CF DF
    sequence, evaluate = [], bench._evaluate

    def recording(ref, dst, config, strategy, spec):
        sequence.append(strategy)
        return evaluate(ref, dst, config, strategy, spec)

    monkeypatch.setattr(bench, "default_pipelines", lambda: default_pipelines()[:1])
    monkeypatch.setattr(bench, "_evaluate", recording)
    records = run_bench([(16, 16)], reps=3)
    cf, df = Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST
    assert sequence == [cf, df, cf, df, df, cf, cf, df]
    assert [r.strategy for r in records] == [cf, df]


def test_a_stopped_clock_is_an_error(monkeypatch):
    monkeypatch.setattr(bench, "time", SimpleNamespace(perf_counter=lambda: 1.0))
    with pytest.raises(RuntimeError, match="non-positive duration"):
        run_bench([(8, 8)], reps=3)


def test_a_repeated_cell_is_rejected():
    records = make_golden_records()
    # a later copy of every cell with the speed order of each size reversed
    later = [replace(r, ms_median=10.0 - r.ms_median) for r in records]
    with pytest.raises(ValueError, match="one record per"):
        emit_report(records + later)
    # the cells of one table given in two runs render as that table
    report = emit_report(records[:4] + records[4:])
    assert report == emit_report(records)
    rows = [line for line in report.markdown.split("\n") if line.startswith(("| alpha", "| beta"))]
    table_cells = sum(len(row.strip("|").split("|")) - 1 for row in rows)
    assert table_cells == len(report.csv.strip().split("\n")) - 1 == 8


def test_an_incomplete_table_is_rejected():
    records = make_golden_records()
    without_beta_at_16x16 = [r for r in records if (r.size_label, r.pipeline) != ("16x16", "beta")]
    for incomplete in (records[:1], records[:3], without_beta_at_16x16):
        with pytest.raises(ValueError, match="one record per"):
            emit_report(incomplete)
    # one size and one pipeline under both strategies is a complete table
    lines = emit_report(records[:2]).csv.strip().split("\n")
    assert len(lines) == 3
    assert lines[0] == (
        "size,pipeline,strategy,ms_median,ms_min,ms_max,"
        "conv_mul,conv_add,filt_mul,filt_add,M,speedup"
    )
    assert lines[1] == "8x8,alpha,convert-first,0.000,0.000,0.000,576,384,48,144,2,0.000"


def test_csv_row_count_matches_record_count():
    records = make_golden_records()
    report = emit_report(records)
    assert len(report.csv.strip().split("\n")) == len(records) + 1


def test_ranking_arrow_on_swapped_order():
    report = emit_report(make_golden_records())
    # at 16x16 convert-first ranks beta first, downsample-first ranks alpha first
    assert "2. 16x16: beta, alpha ⇒ alpha, beta" in report.markdown
    # at 8x8 the zeroed timings tie and name order is stable on both sides
    assert "1. 8x8: alpha, beta (no change)" in report.markdown


def test_markdown_marks_strictly_faster_strategy():
    report = emit_report(make_golden_records())
    rows = [line for line in report.markdown.split("\n") if line.startswith("| alpha")]
    assert rows == ["| alpha | 0.000 | 0.000 | 4.000 | 2.000* |"]
    beta_row = [line for line in report.markdown.split("\n") if line.startswith("| beta")]
    assert beta_row == ["| beta | 0.000 | 0.000 | 1.000* | 3.000 |"]


def test_emit_report_rejects_empty_input():
    with pytest.raises(ValueError, match="one record per"):
        emit_report([])


def test_golden_report_files_are_stable():
    report = emit_report(make_golden_records())
    assert report.csv == (DATA_DIR / "golden_report.csv").read_text()
    assert report.markdown == (DATA_DIR / "golden_report.md").read_text()
