"""Shared preprocessing front-end of full-reference image quality metrics.

The package implements the two stages every transform-and-reduce metric
front-end runs, a pointwise linear color transform and a uniform
box-filter reduction, in both possible orders, proves their outputs
equivalent, and counts exactly how many multiply/add operations each
order spends.

The package namespace holds what the README quickstart and the demos use;
every other name, the result and error types included, is imported from
its own module.
"""

from iqprep.colorspace import ChannelSet, builtin_matrices, builtin_matrix, transform
from iqprep.downsample import (
    DownsampleSpec,
    block_mean_decimate,
    compute_factor,
    separate_filter_then_decimate,
)
from iqprep.image import load_pnm, synth_image, write_pnm
from iqprep.metrics import MetricConfig, score
from iqprep.pipeline import (
    Strategy,
    plan_pipeline,
    predict_ops,
    preprocess,
    run_convert_first,
    run_downsample_first,
    select_strategy,
    verify_equivalence,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelSet",
    "DownsampleSpec",
    "MetricConfig",
    "Strategy",
    "block_mean_decimate",
    "builtin_matrices",
    "builtin_matrix",
    "compute_factor",
    "load_pnm",
    "plan_pipeline",
    "predict_ops",
    "preprocess",
    "run_convert_first",
    "run_downsample_first",
    "score",
    "select_strategy",
    "separate_filter_then_decimate",
    "synth_image",
    "transform",
    "verify_equivalence",
    "write_pnm",
]
