"""The two operator orderings of the preprocessing front-end.

A full-reference metric front-end takes an 8-bit RGB image and produces
reduced-resolution luma/chroma planes. The two stages, a pointwise linear
color transform and a linear box-filter reduction, commute, so they can
run in either order:

* convert-first: transform the k requested channels at full resolution,
  then filter + decimate each of them (the conventional order);
* downsample-first: filter + decimate the three RGB planes, then
  transform the k requested channels at reduced resolution.

Both orders perform the same number of filtering operations when all
three channels are needed, but downsample-first converts on M^2 times
fewer pixels. When fewer than three channels are needed, convert-first
filters fewer planes instead, which is why the selector keys on the
channel count.

For a matrix of decimals (both built-ins, and the identity) at M >= 2,
both orderings sum integers and divide once, so they commute exactly:
their outputs are bit-identical and each sample is its exact value
rounded once. Other matrices run in float64, where the orderings agree
up to floating-point reassociation.

Both orderings run in row bands of whole M x M blocks. A convert-first
band (about 2^16 samples) is converted and then reduced while its planes
are still in cache; a downsample-first band (about 2^14 reduced samples)
is block-summed from the uint8 channels and then converted. No full-size
intermediate is built on either path, and each output sample sees the
same operations in the same order as in whole-plane calls.

Every run carries exact multiply/add counters for both stages alongside
the closed-form predictions, so the cost claims are checkable without a
stopwatch. :func:`plan_pipeline` is the only place that defaults the
factor M and resolves ``Strategy.AUTO``; every entry point then runs its
plan through one executor.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from iqprep.colorspace import ChannelSet, ColorMatrix, _combine_rows, count_transform_ops, transform
from iqprep.counters import OpCounter
# perfbench's traced run wraps transform and block_mean_decimate on this
# module, so both stay attributes of it although _execute calls only the first.
from iqprep.downsample import (
    DownsampleSpec,
    _block_sum,
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
    "tolerance_rule",
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
    if strategy is Strategy.AUTO:
        raise ValueError("predict_ops needs a concrete strategy, not AUTO")
    # Convert-first converts the full grid and block-sums the k converted
    # planes; downsample-first block-sums the three RGB planes and converts
    # the reduced grid. Either way the block sums are scaled once per
    # output sample of each of the k requested channels.
    df = strategy is Strategy.DOWNSAMPLE_FIRST
    m, planes = (spec.factor, 3) if df else (1, channels.count)
    per_plane = count_decimate_ops(height, width, spec)
    return StageOps(
        conversion=count_transform_ops(height // m, width // m, channels),
        filtering=OpCounter(per_plane.multiplies * channels.count, per_plane.adds * planes),
    )


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


def _band_rows(plan: PipelinePlan, width: int) -> int:
    """Rows per band of :func:`_execute`: a multiple of M, at least M.

    A band converted at full resolution (convert-first, or M = 1) holds
    about 2^16 samples, so its converted planes are still in cache when
    they are reduced. Downsample-first converts only the reduced rows, so
    its band is sized by them: about 2^14 reduced samples (M^2 * 2^14
    input samples), 128 KB per float64 output plane. Its bands are therefore
    much taller, which keeps the numpy calls per image few: with 2^16
    input samples per band, call overhead more than doubled the time of a
    4K image at M = 8.
    """
    m = plan.spec.factor
    full_resolution = plan.strategy is Strategy.CONVERT_FIRST or m == 1
    samples = 1 << 16 if full_resolution else (m * m) << 14
    return m * max(1, samples // (m * width))


def _arithmetic(plan: PipelinePlan) -> tuple:
    """How :func:`_execute` converts and scales at M >= 2: ``(rows, dtype, scale, by)``.

    A decimal matrix (see ``ColorMatrix.decimal_form``) takes the exact
    path: its integer numerators, an integer dtype, and ``np.divide`` by
    10^d * M^2. That needs block sums below 2^53 in magnitude (at most
    255 * max row |numerators|_1 * M^2), so that they and the divisor are
    exact in float64 and the one division is the only rounding; sums
    below 2^31 fit int32, larger ones int64. Any other matrix takes the
    float path: its coefficients in float64 and ``np.multiply`` by 1/M^2.
    """
    m = plan.spec.factor
    if plan.matrix.decimal_form is not None:
        numerators, d = plan.matrix.decimal_form
        bound = 255 * m * m * max(sum(map(abs, row)) for row in numerators)
        divisor = 10**d * m * m
        if max(bound, divisor) < 1 << 53:
            dtype = np.int32 if bound < 1 << 31 else np.int64
            return numerators, dtype, np.divide, float(divisor)
    return plan.matrix.coefficients, np.float64, np.multiply, 1.0 / (m * m)


def _execute(plan: PipelinePlan, image: RgbImage8) -> PreprocessedChannels:
    """Run the ordering ``plan.strategy`` names and count both stages.

    An image shorter or narrower than M is rejected before any work. Both
    orderings then work one row band at a time (see :func:`_band_rows`).
    A band is a multiple of M rows; the last band also takes the ``h % M``
    trailing rows, which fall outside every block. At M = 1 both
    orderings only convert, with :func:`transform`, into the output rows.

    At M >= 2 convert-first converts the band and block-sums the k
    converted planes; downsample-first block-sums the three uint8 RGB
    planes and converts the sums. Each requested plane of sums is then
    scaled once into its output rows. For a decimal matrix all of this
    runs on integers (see :func:`_arithmetic`), so both orderings build
    the same integers and round them once: their outputs are identical.
    No full-size intermediate is ever built.
    """
    conversion = OpCounter()
    filtering = OpCounter()
    m = plan.spec.factor
    h, w = image.height, image.width
    if h < m or w < m:
        raise ValueError(f"plane {h}x{w} is smaller than the {m}x{m} filter")
    whole = h - h % m  # rows of whole blocks
    step = _band_rows(plan, w)
    coefficients, dtype, scale, by = _arithmetic(plan)
    outputs = [np.empty((h // m, w // m)) if f else None for f in plan.channels.flags]

    def block_sum(plane: np.ndarray) -> np.ndarray:
        sums = _block_sum(plane, m)
        filtering.record(adds=(m * m - 1) * sums.size)
        return sums

    def convert(*planes: np.ndarray) -> tuple:
        return _combine_rows(*planes, coefficients, plan.channels, dtype, conversion)

    for a in range(0, whole, step):
        b = a + step if a + step < whole else h
        rgb = (c[a:b] for c in image.channels)
        rows = tuple(None if out is None else out[a // m : b // m] for out in outputs)
        if m == 1:
            transform(*rgb, plan.matrix, plan.channels, counter=conversion, out=rows)
            continue
        if plan.strategy is Strategy.CONVERT_FIRST:
            # The band stays alive until the next one replaces it. Freeing
            # it first made glibc's default malloc trim and re-fault its
            # heap on every band (README, "Benchmark protocol").
            band = convert(*rgb)
            sums = [None if p is None else block_sum(p) for p in band]
        else:  # one cast per RGB plane, not one per product
            sums = convert(*(block_sum(c).astype(dtype) for c in rgb))
        for out, total in zip(rows, sums):
            if out is not None:
                scale(total, by, out=out)
                filtering.record(multiplies=out.size)
    return PreprocessedChannels(*outputs, plan=plan, ops=StageOps(conversion, filtering))


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
    *pairs: tuple[PreprocessedChannels, PreprocessedChannels],
) -> dict[str, float]:
    """Largest per-sample ``|first - second|`` of each channel over every (first, second) pair.

    A NaN difference anywhere makes its channel's value NaN. Raises
    ``ValueError`` if the two results of a pair differ in channel set or
    in plane shape.
    """
    per_channel: dict[str, float] = {}
    for first, second in pairs:
        for name, a, b in zip(("luma", "chroma1", "chroma2"), first.planes, second.planes):
            if (a is None) != (b is None):
                raise ValueError(f"channel sets differ: {name} present on one result only")
            if a is not None:
                if a.shape != b.shape:
                    raise ValueError(f"{name} planes differ in shape: {a.shape} vs {b.shape}")
                diff = np.max(np.abs(a - b))  # NaN propagates through both maxima
                per_channel[name] = float(np.maximum(per_channel.get(name, 0.0), diff))
    return per_channel


def tolerance_rule(tolerance: float) -> Callable[[Iterable[float]], bool]:
    """The pass rule of an equivalence check: every difference at most ``tolerance``.

    NaN never passes. Raises ``ValueError`` at once unless ``0 < tolerance < inf``.
    """
    if not 0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    return lambda differences: all(d <= tolerance for d in differences)


def verify_equivalence(
    image: RgbImage8,
    matrix: ColorMatrix,
    channels: ChannelSet = ChannelSet.all_channels(),
    spec: DownsampleSpec | None = None,
    tolerance: float = 1e-9,
) -> EquivalenceReport:
    """Run both orderings and report the largest per-sample difference.

    A decimal matrix at M >= 2 gives a difference of exactly 0. On the
    float path, the default tolerance of 1e-9 absolute covers the
    reassociation noise of up to 64-term block sums on 0..255 inputs with
    coefficients of order one; it is configurable for adversarial matrices.
    """
    within = tolerance_rule(tolerance)
    pair = (
        run_convert_first(image, matrix, channels, spec),
        run_downsample_first(image, matrix, channels, spec),
    )
    per_channel = channel_differences(pair)
    return EquivalenceReport(
        per_channel=per_channel,
        max_abs_diff=float(np.max(list(per_channel.values()))),
        tolerance=tolerance,
        passed=within(per_channel.values()),
    )
