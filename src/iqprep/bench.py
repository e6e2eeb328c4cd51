"""Benchmark harness: timed strategy comparison with counter-backed reports.

Timings and operation counts are kept strictly separate in the report
schema: counters are exact and reproduce on any machine, wall-clock
numbers do not. Each timed quantity is one full metric evaluation, i.e.
preprocessing of the reference and distorted images under one strategy
followed by scoring, repeated after an untimed warm-up pass with the
median (plus min/max) reported. Each ordering is warmed up once, then the
timed repetitions alternate which ordering runs first, on the main
thread, so that neither always runs on the heap the other left.
"""

from __future__ import annotations

import csv
import io
import statistics
import time
from collections.abc import Iterable
from dataclasses import dataclass

from iqprep.colorspace import ChannelSet, ColorMatrix, builtin_matrix
from iqprep.downsample import DownsampleSpec, compute_factor
from iqprep.image import synth_image
from iqprep.metrics import require_gradient_size, score
from iqprep.pipeline import OpCounter, StageOps, Strategy, preprocess

__all__ = [
    "PipelineConfig",
    "BenchRecord",
    "BenchReport",
    "default_pipelines",
    "run_bench",
    "emit_report",
]

CSV_HEADER = (
    "size,pipeline,strategy,ms_median,ms_min,ms_max,"
    "conv_mul,conv_add,filt_mul,filt_add,M,speedup"
)


@dataclass(frozen=True)
class PipelineConfig:
    """A named metric front-end configuration to benchmark."""

    name: str
    matrix: ColorMatrix
    channels: ChannelSet


def default_pipelines() -> list[PipelineConfig]:
    """Three configurations spanning the interesting cost shapes.

    Two three-channel variants on different color spaces, plus a
    luminance-only variant that exercises the convert-first branch of the
    strategy selector.
    """
    yiq = builtin_matrix("yiq")
    lmn = builtin_matrix("lmn")
    return [
        PipelineConfig("yiq-full", yiq, ChannelSet.all_channels()),
        PipelineConfig("lmn-full", lmn, ChannelSet.all_channels()),
        PipelineConfig("yiq-luma", yiq, ChannelSet.luma_only()),
    ]


@dataclass(frozen=True)
class BenchRecord:
    """One (size, pipeline, strategy) measurement row.

    Counters cover one full evaluation (both images of the pair);
    ``speedup`` is the convert-first median divided by the
    downsample-first median of the same (size, pipeline) pair, so it
    repeats on both rows of a pair.
    """

    size_label: str
    pipeline: str
    strategy: Strategy
    ms_median: float
    ms_min: float
    ms_max: float
    conversion: OpCounter
    filtering: OpCounter
    factor: int
    speedup: float


@dataclass(frozen=True)
class BenchReport:
    """The rendered machine (CSV) and human (Markdown) outputs of a run."""

    csv: str
    markdown: str


_STRATEGIES = (Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST)


def _evaluate(
    ref, dst, config: PipelineConfig, strategy: Strategy, spec: DownsampleSpec
) -> StageOps:
    """One full metric evaluation; returns the combined stage counters."""
    pre_ref = preprocess(ref, config.matrix, config.channels, strategy, spec)
    pre_dst = preprocess(dst, config.matrix, config.channels, strategy, spec)
    score(pre_ref, pre_dst)
    return pre_ref.ops + pre_dst.ops


def _time_orderings(
    ref, dst, config: PipelineConfig, spec: DownsampleSpec, reps: int
) -> tuple[dict[Strategy, StageOps], dict[Strategy, list[float]]]:
    """Each ordering's counters from one untimed warm-up, then ``reps`` timings of each, in ms."""
    ops = {s: _evaluate(ref, dst, config, s, spec) for s in _STRATEGIES}  # warm-ups
    elapsed: dict[Strategy, list[float]] = {s: [] for s in _STRATEGIES}
    for rep in range(reps):
        # CF DF, then DF CF, ...: neither ordering always runs on
        # the heap the other left
        for strategy in _STRATEGIES[:: -1 if rep % 2 else 1]:
            start = time.perf_counter()
            _evaluate(ref, dst, config, strategy, spec)
            elapsed[strategy].append((time.perf_counter() - start) * 1e3)
    if min(map(min, elapsed.values())) <= 0.0:
        raise RuntimeError("timer returned a non-positive duration")
    return ops, elapsed


def run_bench(sizes: list[tuple[int, int]], seed: int = 1, reps: int = 5) -> list[BenchRecord]:
    """Time every default pipeline under both strategies at every size.

    For each size a reference/distorted synthetic pair is generated from
    ``seed`` and ``seed + 1``; image content does not affect the cost
    model, only dimensions do.
    """
    if reps < 3:
        raise ValueError(f"need at least 3 repetitions for a median, got {reps}")
    labels = [f"{height}x{width}" for height, width in sizes]
    if len(set(labels)) < len(labels):  # a repeated size would time one cell twice
        raise ValueError(f"each size may be given once, got {', '.join(labels)}")
    specs = [compute_factor(height, width) for height, width in sizes]
    # Every pipeline scores a gradient map; reject a size too small for it
    # before any other size is timed.
    for (height, width), spec in zip(sizes, specs):
        require_gradient_size((height // spec.factor, width // spec.factor))

    records: list[BenchRecord] = []
    for (height, width), label, spec in zip(sizes, labels, specs):
        ref = synth_image(height, width, seed)
        dst = synth_image(height, width, seed + 1)
        for config in default_pipelines():
            ops, elapsed = _time_orderings(ref, dst, config, spec, reps)
            cf_ms, df_ms = (statistics.median(elapsed[s]) for s in _STRATEGIES)
            records.extend(
                BenchRecord(
                    size_label=label,
                    pipeline=config.name,
                    strategy=strategy,
                    ms_median=statistics.median(elapsed[strategy]),
                    ms_min=min(elapsed[strategy]),
                    ms_max=max(elapsed[strategy]),
                    conversion=ops[strategy].conversion,
                    filtering=ops[strategy].filtering,
                    factor=spec.factor,
                    speedup=cf_ms / df_ms,
                )
                for strategy in _STRATEGIES
            )
    return records


def _ranking(records: Iterable[BenchRecord], size: str, strategy: Strategy) -> tuple[str, ...]:
    rows = [r for r in records if r.size_label == size and r.strategy is strategy]
    rows.sort(key=lambda r: (r.ms_median, r.pipeline))  # name breaks exact ties
    return tuple(r.pipeline for r in rows)


def emit_report(records: list[BenchRecord]) -> BenchReport:
    """Render records as CSV (machine) and Markdown (human), deterministically.

    Column order and float formatting are fixed so that a counter-only run
    with zeroed timings reproduces byte for byte. The Markdown mirrors the
    classic run-time comparison layout: one row per pipeline, two columns
    per size, an asterisk on the strictly faster strategy, followed by a
    fastest-first ranking per size under each strategy with a change arrow
    where the two orders disagree.
    """
    if not records:
        raise ValueError("emit_report needs at least one record")
    cells: dict[tuple[str, str, Strategy], BenchRecord] = {}
    for record in records:  # the first record of a cell wins
        cells.setdefault((record.size_label, record.pipeline, record.strategy), record)
    sizes = list(dict.fromkeys(r.size_label for r in records))
    pipelines = list(dict.fromkeys(r.pipeline for r in records))

    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CSV_HEADER.split(","))
    for record in records:
        writer.writerow(
            [
                record.size_label,
                record.pipeline,
                record.strategy.value,
                f"{record.ms_median:.3f}",
                f"{record.ms_min:.3f}",
                f"{record.ms_max:.3f}",
                record.conversion.multiplies,
                record.conversion.adds,
                record.filtering.multiplies,
                record.filtering.adds,
                record.factor,
                f"{record.speedup:.3f}",
            ]
        )
    csv_text = buffer.getvalue()

    lines: list[str] = []
    lines.append("# Strategy run-time comparison")
    lines.append("")
    lines.append(
        "Median milliseconds per full evaluation; '*' marks the strictly "
        "faster strategy of each pair."
    )
    lines.append("")
    header = "| pipeline |"
    divider = "|---|"
    for size in sizes:
        header += f" {size} convert-first | {size} downsample-first |"
        divider += "---|---|"
    lines.append(header)
    lines.append(divider)
    for pipeline in pipelines:
        row = f"| {pipeline} |"
        for size in sizes:
            cf = cells.get((size, pipeline, Strategy.CONVERT_FIRST))
            df = cells.get((size, pipeline, Strategy.DOWNSAMPLE_FIRST))
            cf_ms = cf.ms_median if cf else float("nan")
            df_ms = df.ms_median if df else float("nan")
            cf_mark = "*" if cf and df and cf_ms < df_ms else ""
            df_mark = "*" if cf and df and df_ms < cf_ms else ""
            row += f" {cf_ms:.3f}{cf_mark} | {df_ms:.3f}{df_mark} |"
        lines.append(row)
    lines.append("")

    lines.append("## Speedup (convert-first ms / downsample-first ms)")
    lines.append("")
    for size in sizes:
        parts = []
        for pipeline in pipelines:
            record = cells.get((size, pipeline, Strategy.CONVERT_FIRST))
            if record is not None:
                parts.append(f"{pipeline} {record.speedup:.3f}")
        lines.append(f"- {size}: " + ", ".join(parts))
    lines.append("")

    lines.append("## Ranking (fastest first)")
    lines.append("")
    for index, size in enumerate(sizes, start=1):
        cf_order = _ranking(cells.values(), size, Strategy.CONVERT_FIRST)
        df_order = _ranking(cells.values(), size, Strategy.DOWNSAMPLE_FIRST)
        if cf_order == df_order:
            lines.append(f"{index}. {size}: {', '.join(cf_order)} (no change)")
        else:
            lines.append(f"{index}. {size}: {', '.join(cf_order)} ⇒ {', '.join(df_order)}")
    lines.append("")

    return BenchReport(csv=csv_text, markdown="\n".join(lines))
