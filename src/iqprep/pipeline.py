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

For a matrix of decimals (both built-ins, and the identity) both
orderings sum integers and divide once, so they commute exactly: their
outputs are bit-identical and each sample is its exact value rounded
once. The integers are held in float32 while they stay below 2^24 and
in float64 above, and each band is converted by one matrix product of
the numerators and its three planes. Other matrices run in float64,
in ``transform``'s fixed order, where the orderings agree up to
floating-point reassociation.

Both orderings run in row bands of whole M x M blocks. A convert-first
band (about 2^16 samples) is converted and then reduced while its planes
are still in cache; a downsample-first band (about 2^14 reduced samples)
is block-summed from the uint8 channels and then converted. No full-size
intermediate is built on either path, and each output sample sees the
same operations in the same order as in whole-plane calls.

This module holds the package's one op model: :func:`_execute` counts
each run's multiplies and adds band by band, and :func:`predict_ops`
gives the same counts in closed form, so the cost claims are checkable
without a stopwatch. :func:`plan_pipeline` is the only place that
defaults the factor M and resolves ``Strategy.AUTO``; every entry point
then runs its plan through one executor.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from iqprep.colorspace import ChannelSet, ColorMatrix, transform
# perfbench's traced run wraps block_mean_decimate on this module, so it
# stays an attribute of it although _execute sums with _block_sum.
from iqprep.downsample import DownsampleSpec, _block_sum, block_mean_decimate, compute_factor
from iqprep.image import RgbImage8

__all__ = [
    "Strategy",
    "OpCounter",
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


@dataclass
class OpCounter:
    """Tally of scalar multiplies and adds of one pipeline stage.

    :func:`_execute` records each stage once per band, from the sizes of
    the arrays the band converts, sums and scales, so counts are exact
    and hardware independent. They compose additively across stages.
    """

    multiplies: int = 0
    adds: int = 0

    def record(self, multiplies: int = 0, adds: int = 0) -> None:
        if multiplies < 0 or adds < 0:
            raise ValueError("operation counts must be non-negative")
        self.multiplies += multiplies
        self.adds += adds

    def __add__(self, other: "OpCounter") -> "OpCounter":
        return OpCounter(self.multiplies + other.multiplies, self.adds + other.adds)


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


@dataclass(frozen=True, eq=False)
class PreprocessedChannels:
    """Reduced-resolution output planes plus the plan and measured costs, compared by identity."""

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
    """Closed-form stage costs of one execution on an ``height x width`` image.

    This is the op model of the package. Only whole blocks are read; with
    n_out = (h // M) * (w // M), conversion costs 3 multiplies and 2 adds
    per converted sample and requested channel: the M^2 * n_out samples of
    whole blocks for convert-first, exactly M^2 times the n_out output
    samples downsample-first converts. A block sum costs M^2 - 1 adds per
    output sample of each summed plane: the k converted planes for
    convert-first, the three RGB planes for downsample-first. Scaling
    costs 1 multiply per output sample of each requested channel. At
    M = 1 nothing is filtered.
    """
    if strategy is Strategy.AUTO:
        raise ValueError("predict_ops needs a concrete strategy, not AUTO")
    m, k = spec.factor, channels.count
    n_out = (height // m) * (width // m)
    df = strategy is Strategy.DOWNSAMPLE_FIRST
    converted, summed = (n_out, 3) if df else (m * m * n_out, k)
    filtered = n_out if m > 1 else 0
    return StageOps(
        conversion=OpCounter(multiplies=3 * k * converted, adds=2 * k * converted),
        filtering=OpCounter(multiplies=k * filtered, adds=(m * m - 1) * summed * filtered),
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
    """How :func:`_execute` converts: ``(numerators, (pixel_t, row_t, sum_t), scale, by)``.

    A decimal matrix (see ``ColorMatrix.decimal_form``) takes the exact
    path: its integer numerators, integers held in floats, and
    ``np.divide`` by 10^d * M^2. A converted pixel is at most
    P = 255 * max row |numerators|_1 in magnitude, the sum of a block's
    M pixels in one row at most P * M, and a block sum at most P * M^2.
    Each is held in float32 (``pixel_t``, ``row_t``, ``sum_t``) while its
    bound is below 2^24 and in float64 otherwise, so every integer and
    partial sum is exact. The block sums and the divisor must stay below
    2^53, so that both are exact in float64 and the one division, in
    float64, is the only rounding. Any other matrix takes the float path:
    no numerators, float64 throughout and ``np.multiply`` by 1/M^2.
    """
    m = plan.spec.factor
    if plan.matrix.decimal_form is not None:
        numerators, d = plan.matrix.decimal_form
        pixel = 255 * max(sum(map(abs, row)) for row in numerators)
        divisor = 10**d * m * m
        if max(pixel * m * m, divisor) < 1 << 53:
            bounds = (pixel, pixel * m, pixel * m * m)
            dtypes = tuple(np.float32 if n < 1 << 24 else np.float64 for n in bounds)
            return numerators, dtypes, np.divide, float(divisor)
    return None, (np.float64,) * 3, np.multiply, 1.0 / (m * m)


def _execute(plan: PipelinePlan, image: RgbImage8) -> PreprocessedChannels:
    """Run the ordering ``plan.strategy`` names and count both stages.

    An image shorter or narrower than M is rejected before any work. The
    boundary policy then applies once: each channel is cropped to a view
    of its ``(h - h % M) x (w - w % M)`` whole blocks, and both orderings
    work one band of whole block rows at a time (see :func:`_band_rows`).

    Convert-first converts the band and block-sums the k converted
    planes; downsample-first block-sums the three uint8 RGB planes and
    converts the sums; at M = 1 a block sum is the sample itself. Each
    requested plane of sums is then scaled once, in float64, into its
    output rows. For a decimal matrix all of this runs on integers held
    in floats (see :func:`_arithmetic`): the band's three planes are cast
    once into one staging array and the k requested numerator rows
    multiply it in one matrix product, so both orderings build the same
    integers and round them once, and their outputs are identical. Other
    matrices convert band by band with :func:`transform`. No full-size
    intermediate is ever built. Each band records its conversion and
    filtering counts as it runs them.
    """
    conversion = OpCounter()
    filtering = OpCounter()
    m = plan.spec.factor
    h, w = image.height, image.width
    if h < m or w < m:
        raise ValueError(f"plane {h}x{w} is smaller than the {m}x{m} filter")
    h, w = h - h % m, w - w % m
    cropped = [c[:h, :w] for c in image.channels]
    step = _band_rows(plan, w)
    convert_first = plan.strategy is Strategy.CONVERT_FIRST
    numerators, (pixel_t, row_t, sum_t), scale, by = _arithmetic(plan)
    exact = numerators is not None
    outputs = [np.empty((h // m, w // m)) if f else None for f in plan.channels.flags]
    requested = [out for out in outputs if out is not None]
    if exact:
        # the k requested rows, in the dtype of the planes they convert
        wanted = [row for row, f in zip(numerators, plan.channels.flags) if f]
        weights = np.array(wanted, pixel_t if convert_first else sum_t)
        # Every band is staged and converted in the same two buffers, sized
        # for the largest band. Fresh buffers per band made glibc's default
        # malloc trim and re-fault its heap (README, "Benchmark protocol").
        rows_max = min(step, h)
        n_max = rows_max * w if convert_first else rows_max // m * (w // m)
        staging = np.empty(3 * n_max, weights.dtype)
        product = np.empty(len(weights) * n_max, weights.dtype)

    def block_sum(plane: np.ndarray, *dtypes: type) -> np.ndarray:
        if m == 1:
            return plane
        sums = _block_sum(plane, m, *dtypes)
        filtering.record(adds=(m * m - 1) * sums.size)
        return sums

    def convert(planes: list) -> Iterable[np.ndarray]:
        """The requested channels of three equal-shaped planes, in channel order."""
        size = planes[0].size
        n = size * plan.channels.count
        conversion.record(multiplies=3 * n, adds=2 * n)
        if not exact:
            return [p for p in transform(*planes, plan.matrix, plan.channels) if p is not None]
        # every product and partial sum is an integer exact in the weights'
        # dtype, so neither the order of the sums nor an FMA in BLAS changes a bit
        staged = np.concatenate(planes, axis=None, out=staging[: 3 * size]).reshape(3, size)
        converted = product[: len(weights) * size].reshape(-1, size)
        return np.matmul(weights, staged, out=converted).reshape(-1, *planes[0].shape)

    for a in range(0, h, step):
        b = a + step
        rgb = [c[a:b] for c in cropped]
        if convert_first:
            # On the float path the band stays alive until the next one
            # replaces it. Freeing it first made glibc's default malloc trim
            # and re-fault its heap on every band (README, "Benchmark protocol").
            band = convert(rgb)
            sums = [block_sum(p, sum_t, row_t) for p in band]
        else:
            sums = convert([block_sum(c) for c in rgb])
        for out, total in zip(requested, sums):
            # dtype: a float32 sum divided by a Python float would round in float32
            scale(total, by, out=out[a // m : b // m], dtype=np.float64)
            # at M = 1 there is no mean to take; predict_ops counts none
            filtering.record(multiplies=total.size if m > 1 else 0)
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

    A decimal matrix gives a difference of exactly 0. On the float path,
    the default tolerance of 1e-9 absolute covers the reassociation noise
    of up to 64-term block sums on 0..255 inputs with coefficients of
    order one; it is configurable for adversarial matrices.
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
