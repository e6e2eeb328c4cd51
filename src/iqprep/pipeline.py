"""The two operator orderings of the preprocessing front-end.

A full-reference metric front-end takes an 8-bit RGB image and produces
reduced-resolution luma/chroma planes. The two stages, a pointwise linear
color transform and a linear box-filter reduction, commute up to
floating-point reassociation, so they can run in either order:

* convert-first: transform the k requested channels at full resolution,
  then filter + decimate each of them (the conventional order);
* downsample-first: filter + decimate the three RGB planes, then
  transform the k requested channels at reduced resolution.

Both orders perform the same number of filtering operations when all
three channels are needed, but downsample-first converts on M^2 times
fewer pixels. When fewer than three channels are needed, convert-first
filters fewer planes instead, which is why the selector keys on the
channel count.

Convert-first runs in row bands of whole M x M blocks, about 2^16 samples
each: a band is converted and then reduced while its float64 planes are
still in cache, so no full-resolution float plane is built. Each output
sample sees the same operations in the same order as whole-plane calls,
so the outputs are bit-identical and the counters unchanged.

Every run carries exact multiply/add counters for both stages alongside
the closed-form predictions, so the cost claims are checkable without a
stopwatch. :func:`plan_pipeline` is the only place that defaults the
factor M and resolves ``Strategy.AUTO``; every entry point then runs its
plan through one executor.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from iqprep.colorspace import ChannelSet, ColorMatrix, count_transform_ops, transform
from iqprep.downsample import (
    DownsampleSpec,
    OpCounter,
    block_mean_decimate,
    compute_factor,
    count_decimate_ops,
)
from iqprep.image import RgbImage8

__all__ = [
    "Strategy",
    "StageOps",
    "PipelinePlan",
    "PreprocessedChannels",
    "EquivalenceReport",
    "select_strategy",
    "predict_ops",
    "plan_pipeline",
    "run_convert_first",
    "run_downsample_first",
    "preprocess",
    "channel_differences",
    "verify_equivalence",
]


class Strategy(Enum):
    """Stage ordering; AUTO resolves to a concrete order before execution."""

    CONVERT_FIRST = "convert-first"
    DOWNSAMPLE_FIRST = "downsample-first"
    AUTO = "auto"


@dataclass(frozen=True)
class StageOps:
    """Multiply/add tallies split by pipeline stage."""

    conversion: OpCounter
    filtering: OpCounter

    def __add__(self, other: "StageOps") -> "StageOps":
        return StageOps(
            conversion=self.conversion + other.conversion,
            filtering=self.filtering + other.filtering,
        )


@dataclass(frozen=True)
class PipelinePlan:
    """A resolved execution plan plus the predicted cost of executing it.

    ``predicted`` equals the instrumented counters of a subsequent
    execution exactly. The other ordering's counts come from
    :func:`predict_ops`, so callers can second-guess the selector.
    """

    strategy: Strategy
    channels: ChannelSet
    spec: DownsampleSpec
    matrix: ColorMatrix
    predicted: StageOps

    def __post_init__(self) -> None:
        if self.strategy is Strategy.AUTO:
            raise ValueError("a plan must carry a resolved strategy, not AUTO")


@dataclass(frozen=True)
class PreprocessedChannels:
    """Reduced-resolution output planes plus the plan and measured costs."""

    luma: np.ndarray | None
    chroma1: np.ndarray | None
    chroma2: np.ndarray | None
    plan: PipelinePlan
    ops: StageOps

    def __post_init__(self) -> None:
        shapes = {p.shape for p in self.planes if p is not None}
        if len(shapes) > 1:
            raise ValueError(f"output planes disagree on dimensions: {sorted(shapes)}")

    @property
    def planes(self) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
        return (self.luma, self.chroma1, self.chroma2)


def select_strategy(channels: ChannelSet, spec: DownsampleSpec) -> Strategy:
    """Pick the cheaper ordering from the channel count and the factor.

    Downsample-first wins only when all three channels are required and
    the factor is at least 2: it always filters three RGB planes, so for a
    metric needing fewer channels the conventional order filters less.
    With factor 1 the orders coincide and the conventional one is
    returned. Total and deterministic; never returns AUTO.

    The k = 2 case is a conservative heuristic, not an optimum: the true
    crossover depends on relative filter/convert costs. :func:`predict_ops`
    gives either ordering's counts, so callers can override.
    """
    if spec.factor == 1 or channels.count < 3:
        return Strategy.CONVERT_FIRST
    return Strategy.DOWNSAMPLE_FIRST


def predict_ops(
    height: int, width: int, channels: ChannelSet, spec: DownsampleSpec, strategy: Strategy
) -> StageOps:
    """Closed-form stage costs of one execution on an ``height x width`` image."""
    k = channels.count
    if strategy is Strategy.CONVERT_FIRST:
        per_plane = count_decimate_ops(height, width, spec)
        return StageOps(
            conversion=count_transform_ops(height, width, channels),
            filtering=OpCounter(per_plane.multiplies * k, per_plane.adds * k),
        )
    if strategy is Strategy.DOWNSAMPLE_FIRST:
        per_plane = count_decimate_ops(height, width, spec)
        m = spec.factor
        return StageOps(
            conversion=count_transform_ops(height // m, width // m, channels),
            filtering=OpCounter(per_plane.multiplies * 3, per_plane.adds * 3),
        )
    raise ValueError("predict_ops needs a concrete strategy, not AUTO")


def plan_pipeline(
    height: int,
    width: int,
    matrix: ColorMatrix,
    channels: ChannelSet = ChannelSet.all_channels(),
    spec: DownsampleSpec | None = None,
    strategy: Strategy = Strategy.AUTO,
) -> PipelinePlan:
    """Resolve strategy and factor for an image size and predict the plan's cost."""
    if spec is None:
        spec = compute_factor(height, width)
    if strategy is Strategy.AUTO:
        strategy = select_strategy(channels, spec)
    return PipelinePlan(
        strategy=strategy,
        channels=channels,
        spec=spec,
        matrix=matrix,
        predicted=predict_ops(height, width, channels, spec, strategy),
    )


# A convert-first band holds about this many samples (whole blocks only),
# so its converted float64 planes stay in cache until they are reduced.
_BAND_SAMPLES = 1 << 16


def _execute(plan: PipelinePlan, image: RgbImage8) -> PreprocessedChannels:
    """Run the ordering ``plan.strategy`` names and count both stages.

    Convert-first works one row band at a time. A band is a multiple of M
    rows holding about ``_BAND_SAMPLES`` samples, and the last band also
    takes the ``h % M`` trailing rows, which are converted but fall outside
    every block. Each band goes through :func:`transform` and then
    :func:`block_mean_decimate` into its rows of the preallocated outputs.
    Every output sample sees the same operations in the same order as
    whole-plane calls, so outputs and counters are identical to them, but
    no full-resolution float64 plane is ever built.
    """
    conversion = OpCounter()
    filtering = OpCounter()
    if plan.strategy is Strategy.CONVERT_FIRST:
        m = plan.spec.factor
        h, w = image.height, image.width
        # Rows of whole blocks. An image shorter or narrower than M goes
        # through as one band, so block_mean_decimate's error names the
        # whole plane.
        whole = h - h % m if w >= m else 0
        step = m * max(1, _BAND_SAMPLES // (m * w))
        outputs = [np.empty((h // m, w // m)) if f else None for f in plan.channels.flags]
        for a in range(0, max(whole, 1), step):
            b = a + step if a + step < whole else h
            band = transform(
                *(c[a:b] for c in image.channels), plan.matrix, plan.channels, counter=conversion
            )
            for out, plane in zip(outputs, band):
                if out is not None:
                    out[a // m : b // m] = block_mean_decimate(plane, plan.spec, counter=filtering)
        luma, chroma1, chroma2 = outputs
    else:
        reduced_rgb = [
            block_mean_decimate(p, plan.spec, counter=filtering) for p in image.channels
        ]
        luma, chroma1, chroma2 = transform(
            *reduced_rgb, plan.matrix, plan.channels, counter=conversion
        )
    return PreprocessedChannels(
        luma=luma,
        chroma1=chroma1,
        chroma2=chroma2,
        plan=plan,
        ops=StageOps(conversion=conversion, filtering=filtering),
    )


def run_convert_first(
    image: RgbImage8,
    matrix: ColorMatrix,
    channels: ChannelSet = ChannelSet.all_channels(),
    spec: DownsampleSpec | None = None,
) -> PreprocessedChannels:
    """Conventional order: transform at full resolution, then reduce each channel."""
    return preprocess(image, matrix, channels, Strategy.CONVERT_FIRST, spec)


def run_downsample_first(
    image: RgbImage8,
    matrix: ColorMatrix,
    channels: ChannelSet = ChannelSet.all_channels(),
    spec: DownsampleSpec | None = None,
) -> PreprocessedChannels:
    """Suggested order: reduce the three RGB planes, then transform the small ones."""
    return preprocess(image, matrix, channels, Strategy.DOWNSAMPLE_FIRST, spec)


def preprocess(
    image: RgbImage8,
    matrix: ColorMatrix,
    channels: ChannelSet = ChannelSet.all_channels(),
    strategy: Strategy = Strategy.AUTO,
    spec: DownsampleSpec | None = None,
) -> PreprocessedChannels:
    """Plan and execute the front-end; :func:`plan_pipeline` resolves AUTO and M."""
    plan = plan_pipeline(image.height, image.width, matrix, channels, spec=spec, strategy=strategy)
    return _execute(plan, image)


@dataclass(frozen=True)
class EquivalenceReport:
    """Per-channel worst-case disagreement between the two orderings."""

    per_channel: dict[str, float]
    max_abs_diff: float
    tolerance: float
    passed: bool


def channel_differences(
    first: PreprocessedChannels, second: PreprocessedChannels
) -> dict[str, float]:
    """Largest per-sample ``|first - second|`` of each channel the results hold."""
    return {
        name: float(np.max(np.abs(a - b)))
        for name, a, b in zip(("luma", "chroma1", "chroma2"), first.planes, second.planes)
        if a is not None
    }


def verify_equivalence(
    image: RgbImage8,
    matrix: ColorMatrix,
    channels: ChannelSet = ChannelSet.all_channels(),
    spec: DownsampleSpec | None = None,
    tolerance: float = 1e-9,
) -> EquivalenceReport:
    """Run both orderings and report the largest per-sample difference.

    The default tolerance of 1e-9 absolute covers the reassociation noise
    of up to 64-term block sums on 0..255 inputs with coefficients of
    order one; it is configurable for adversarial matrices.
    """
    if not tolerance > 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    per_channel = channel_differences(
        run_convert_first(image, matrix, channels, spec),
        run_downsample_first(image, matrix, channels, spec),
    )
    worst = max(per_channel.values())
    return EquivalenceReport(
        per_channel=per_channel,
        max_abs_diff=worst,
        tolerance=tolerance,
        passed=worst <= tolerance,
    )
