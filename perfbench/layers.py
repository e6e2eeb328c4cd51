"""Which library calls the traced run wraps, and the per-layer metrics.

Layers are the modules of ``iqprep``: image, colorspace, downsample,
pipeline and metrics. Every function is wrapped on the module its caller
looks it up on. Byte counts are computed from the shapes and dtypes of the
arrays a call takes and returns, so they ignore cache misses; their unit
says so.

A per-pair metric is the median over traced pairs. Every metric is a
number on every workload, so a function that only some workloads call
(``verify_equivalence``, ``chroma_similarity``) is measured by its call
count. A metric whose function saw no call in any traced pair reads 0 and
is marked absent in the report (zero samples). Self times partition the
pair time, so work moved off a wrapped call shows up in its caller's layer
rather than vanishing.
"""

from __future__ import annotations

import statistics

import numpy as np

from iqprep import image, metrics, pipeline
from spans import PairProfile, Target

LAYERS = ("image", "colorspace", "downsample", "pipeline", "metrics")
_BMD = "downsample.block_mean_decimate"


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(_nbytes(v) for v in value)
    if isinstance(value, image.RgbImage8):
        return sum(c.nbytes for c in value.channels)
    return 0


def _bytes(args, kwargs, result) -> dict:
    return {"bytes": _nbytes(args) + _nbytes(result)}


def _transform_counts(args, kwargs, result) -> dict:
    return {"bytes": _nbytes(args) + _nbytes(result), "pixels": int(np.asarray(args[0]).size)}


def _plan_counts(args, kwargs, result) -> dict:
    return {"df": int(result.strategy.value == "downsample-first")}


SETUP_TARGETS = [Target(image, "synth_image", "image.synth_image")]

PAIR_TARGETS = [
    Target(pipeline, "to_planes", "image.to_planes", _bytes),
    Target(pipeline, "transform", "colorspace.transform", _transform_counts),
    Target(pipeline, "block_mean_decimate", _BMD, _bytes),
    Target(pipeline, "plan_pipeline", "pipeline.plan_pipeline", _plan_counts),
    Target(pipeline, "preprocess", "pipeline.preprocess"),
    Target(pipeline, "verify_equivalence", "pipeline.verify_equivalence"),
    Target(metrics, "score", "metrics.score"),
    Target(metrics, "gradient_similarity", "metrics.gradient_similarity"),
    Target(metrics, "chroma_similarity", "metrics.chroma_similarity"),
]


def _ms(fn):
    return lambda p: p.ms[fn] if p.calls[fn] else None


def _calls(fn):
    return lambda p: p.calls[fn] if p.calls[fn] else None


def _count(fn, key):
    return lambda p: p.counts[f"{fn}.{key}"] if p.calls[fn] else None


def _share(layer):
    return lambda p: p.layer_self_ms[layer] / p.pair_ms if layer in p.layer_self_ms else None


def _ops_per_byte(p: PairProfile):
    if not p.calls[_BMD]:
        return None
    return (p.counts[f"{_BMD}.muls"] + p.counts[f"{_BMD}.adds"]) / p.counts[f"{_BMD}.bytes"]


def _pipeline_self(p: PairProfile):
    return p.layer_self_ms["pipeline"] if "pipeline" in p.layer_self_ms else None


def _score_self(p: PairProfile):
    return p.self_ms["metrics.score"] if p.calls["metrics.score"] else None


def _df_share(p: PairProfile):
    fn = "pipeline.plan_pipeline"
    return p.counts[f"{fn}.df"] / p.calls[fn] if p.calls[fn] else None


def _unattributed(p: PairProfile):
    attributed = sum(p.layer_self_ms[layer] for layer in LAYERS if layer in p.layer_self_ms)
    return 1.0 - attributed / p.pair_ms

# (name, unit, better, value of one pair). BENCHMARK.json lists the same
# names, units and directions; run-level metrics are added in run.py.
PER_PAIR = [
    ("image.to_planes.ms", "ms", "lower", _ms("image.to_planes")),
    ("image.to_planes.calls", "count", "lower", _calls("image.to_planes")),
    ("image.to_planes.bytes", "B_computed", "lower", _count("image.to_planes", "bytes")),
    ("image.share", "frac", "lower", _share("image")),
    (f"{_BMD}.ms", "ms", "lower", _ms(_BMD)),
    (f"{_BMD}.calls", "count", "lower", _calls(_BMD)),
    (f"{_BMD}.bytes", "B_computed", "lower", _count(_BMD, "bytes")),
    ("downsample.filter_muls", "count", "lower", _count(_BMD, "muls")),
    ("downsample.filter_adds", "count", "lower", _count(_BMD, "adds")),
    ("downsample.ops_per_byte", "ops/B", "higher", _ops_per_byte),
    ("downsample.share", "frac", "lower", _share("downsample")),
    ("colorspace.transform.ms", "ms", "lower", _ms("colorspace.transform")),
    ("colorspace.transform.calls", "count", "lower", _calls("colorspace.transform")),
    ("colorspace.transform.pixels", "count", "lower", _count("colorspace.transform", "pixels")),
    ("colorspace.transform.bytes", "B_computed", "lower", _count("colorspace.transform", "bytes")),
    ("colorspace.conv_muls", "count", "lower", _count("colorspace.transform", "muls")),
    ("colorspace.conv_adds", "count", "lower", _count("colorspace.transform", "adds")),
    ("colorspace.share", "frac", "lower", _share("colorspace")),
    ("pipeline.preprocess.ms", "ms", "lower", _ms("pipeline.preprocess")),
    ("pipeline.plan_pipeline.ms", "ms", "lower", _ms("pipeline.plan_pipeline")),
    ("pipeline.verify_equivalence.calls", "count", "lower", _calls("pipeline.verify_equivalence")),
    ("pipeline.self_ms", "ms", "lower", _pipeline_self),
    ("pipeline.df_share", "frac", "higher", _df_share),
    ("pipeline.share", "frac", "lower", _share("pipeline")),
    ("metrics.score.ms", "ms", "lower", _ms("metrics.score")),
    ("metrics.gradient_similarity.ms", "ms", "lower", _ms("metrics.gradient_similarity")),
    ("metrics.chroma_similarity.calls", "count", "lower", _calls("metrics.chroma_similarity")),
    ("metrics.self_ms", "ms", "lower", _score_self),
    ("metrics.share", "frac", "lower", _share("metrics")),
    ("trace.pair_ms", "ms", "lower", lambda p: p.pair_ms),
    ("trace.unattributed_frac", "frac", "lower", _unattributed),
]


def per_pair_metrics(profiles: list[PairProfile]) -> dict[str, tuple[float, str, int]]:
    """Median of each per-pair metric: (value, unit, samples).

    With zero samples the function was absent and the value is 0.
    """
    out = {}
    for name, unit, _, value_of in PER_PAIR:
        values = [v for v in map(value_of, profiles) if v is not None]
        if not values:
            out[name] = (0, unit, 0)
            continue
        # Counts stay whole numbers.
        median = statistics.median_low if all(isinstance(v, int) for v in values) else statistics.median
        out[name] = (median(values), unit, len(values))
    return out
