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

Both orderings sum integers, so they commute exactly: their outputs are
bit-identical for every matrix. :func:`_arithmetic` picks the integers
and their exact float dtypes, :func:`_execute` runs each ordering as a
sequence of the same band stages, and :func:`_band_rows` sizes the bands
(README, "Exact integer path").

This module holds the package's one op model: :func:`_execute` counts
the samples each band converts, block-sums and scales, :func:`predict_ops`
gives the same numbers in closed form, and both price them with one
helper, so the cost claims are checkable without a stopwatch.
:func:`preprocess` is the one entry point that runs an ordering: it
plans with :func:`plan_pipeline`, the only place that resolves
``Strategy.AUTO``, and which defaults M when given no spec (``run_bench``
calls ``compute_factor`` itself), then runs one executor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

# perfbench's traced run wraps transform and block_mean_decimate on this module
# (test_namespace.py checks both exist), although _execute calls neither.
from iqprep.colorspace import ChannelSet, ColorMatrix, transform
from iqprep.downsample import DownsampleSpec, block_mean_decimate, compute_factor
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
class OpCounter:
    """Tally of scalar multiplies and adds of one pipeline stage.

    :func:`_execute` counts each stage from the sizes of the arrays its
    bands convert, sum and scale, so counts are exact and hardware
    independent. They compose additively across stages.
    """

    multiplies: int = 0
    adds: int = 0

    def __post_init__(self) -> None:
        if self.multiplies < 0 or self.adds < 0:
            raise ValueError("operation counts must be non-negative")

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
    """Reduced-resolution output planes plus the plan and measured costs, compared by identity.

    The requested planes of a pipeline result are views of one
    (k, h/M, w/M) float64 array, in channel order.
    """

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
    if strategy is Strategy.DOWNSAMPLE_FIRST:
        return _stage_ops(m, k, converted=n_out, summed=3 * n_out, scaled=k * n_out)
    return _stage_ops(m, k, converted=m * m * n_out, summed=k * n_out, scaled=k * n_out)


def _stage_ops(m: int, k: int, converted: int, summed: int, scaled: int) -> StageOps:
    """Stage costs of the samples a run converts, block-sums and scales.

    The costs per sample are :func:`predict_ops`'s, for k requested
    channels at factor M; at M = 1 nothing is filtered.
    """
    return StageOps(
        conversion=OpCounter(multiplies=3 * k * converted, adds=2 * k * converted),
        filtering=OpCounter(multiplies=scaled if m > 1 else 0, adds=(m * m - 1) * summed),
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
    input samples), 128 KB per float64 output plane, but from M = 5 up at
    most about 2^16 row sums per RGB plane (M * 2^16 input samples), so
    that the block sums' scratch stays as small as a convert-first band.
    Its bands are therefore much taller, which keeps the numpy calls per
    image few: with 2^16 input samples per band, call overhead more than
    doubled the time of a 4K image at M = 8. M^2 * 2^15 input samples
    were as fast but double the band's intermediates. Without the cap,
    the uint16 row sums and their float32 copy raised perfbench's full-4k
    ``peak_mb`` to 8.01 MB, above the 7.80 MB that ``score`` sets; the cap
    leaves M <= 4 as it was.
    """
    m = plan.spec.factor
    samples = 1 << 16 if _full_resolution(plan) else min(m * m << 14, m << 16)
    return m * max(1, samples // (m * width))


def _full_resolution(plan: PipelinePlan) -> bool:
    """Whether the plan converts its samples unreduced: convert-first, or M = 1."""
    return plan.strategy is Strategy.CONVERT_FIRST or plan.spec.factor == 1


def _limb(x: np.ndarray, room: int) -> tuple[np.ndarray, np.ndarray]:
    """``(rint(x * 2^e), e)``, e = room - q for each row's norm below 2^q.

    Each row's |numerators|_1 is then at most 2^room + 2, roundings included.
    """
    # a quarter of each norm, so that rows of 1e308 do not overflow
    quarters = np.ldexp(np.abs(x), -2).sum(axis=1)
    e = room - 2 - np.frexp(quarters)[1]
    return np.rint(np.ldexp(x, e[:, None])), e


def _arithmetic(plan: PipelinePlan) -> tuple:
    """How :func:`_execute` converts: ``(numerators, (row_t, sum_t), shifts, divisor, exponent)``.

    Let S be a numerator row's weighted sum of a block's pixels. A
    decimal matrix (``ColorMatrix.decimal_form``) is one limb: its
    integer numerators, no shifts, the divisor 10^d * M^2 and no
    exponent, so a sample is S / (10^d M^2). Any other matrix, and a
    decimal one whose block sums or divisor would pass 2^53, is split
    into two fixed-point limbs, hi = rint(c * 2^s) and
    lo = rint((c - hi * 2^-s) * 2^t), each row of each limb at an
    exponent taken from its own norm (:func:`_limb`). Its
    numerators are the three hi rows and the three lo rows, shifts is
    (s - t,) and exponent (-s,), per row, and the divisor M^2: a sample
    is ldexp((S_hi + ldexp(S_lo, s - t)) / M^2, -s). The 2^-s goes on
    after the division, because 2^s * M^2 overflows for a matrix of 1e-300.

    A converted pixel is at most P = 255 * max row |numerators|_1 in
    magnitude, the sum of a block's M pixels in one row at most P * M,
    and a block sum at most P * M^2. Row sums and block sums are held in
    float32 (``row_t``, ``sum_t``) while their bound is below 2^24 and in
    float64 otherwise, so every integer and partial sum is exact.
    Convert-first converts its pixels in the product that adds their
    rows, so they too are held in ``row_t``. Block sums and divisor stay
    below 2^53, exact in float64: the division is a decimal matrix's one
    rounding, and a limbed matrix rounds once more adding its limbs.
    """
    m = plan.spec.factor

    def peak(rows) -> float:
        return 255 * max(sum(map(abs, row)) for row in rows)

    form = plan.matrix.decimal_form
    if form is not None:
        numerators, shifts, divisor, exponent = form[0], (), 10 ** form[1] * m * m, ()
    if form is None or max(peak(numerators) * m * m, divisor) >= 1 << 53:
        # peak * M^2 stays below 2^53 for rows of |numerators|_1 <= 2^room + 2
        room = 52 - (255 * m * m).bit_length()
        hi, s = _limb(plan.matrix.coefficients, room)
        lo, u = _limb(np.ldexp(plan.matrix.coefficients, s[:, None]) - hi, room)  # t = s + u
        numerators, shifts, divisor, exponent = [*hi, *lo], (-u,), m * m, (-s,)
    pixel = peak(numerators)
    dtypes = tuple(np.float32 if n < 1 << 24 else np.float64 for n in (pixel * m, pixel * m * m))
    return numerators, dtypes, shifts, float(divisor), exponent


def _integer_block_sum(
    plane: np.ndarray, m: int, rows: np.ndarray, columns: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Sums of the M x M blocks of a uint8 plane of whole blocks, into ``out``.

    For M >= 2. ``rows`` and ``columns`` are flat scratch buffers of at
    least ``plane.size / M`` elements, reused from call to call; ``out``
    is flat, of ``plane.size / M^2`` elements, and may be wider than
    ``columns``. One reduction adds the M rows of each block into
    ``rows``, in its dtype, and :func:`_column_sums` adds the M columns.
    :func:`_execute` types the buffers so that every partial sum is an
    exact integer: a row sum, at most 255 M, in uint16 up to M = 257,
    and a block sum, at most 255 M^2, in float32 below 2^24 and float64
    above. Then neither the reduction's order nor BLAS's changes a bit.
    """
    r, w = plane.shape[0] // m, plane.shape[1]
    row_sums = rows[: r * w].reshape(r, w)
    np.add.reduce(plane.reshape(r, m, w), axis=1, dtype=rows.dtype, out=row_sums)
    return _column_sums(row_sums, m, columns, out)


def _column_sums(
    row_sums: np.ndarray, m: int, columns: np.ndarray | None, out: np.ndarray
) -> np.ndarray:
    """Sums of each M consecutive integer row sums, in C order, into ``out``.

    For M >= 2: ``row_sums`` holds ``out.size * M`` of them, the M row
    sums of a block side by side. Given ``columns``, a flat scratch
    buffer reused from call to call, they are cast into it first. One
    matrix product with M ones of the summed operand's dtype then adds
    each block's M columns; its partial sums are exact integers
    (:func:`_arithmetic` and :func:`_execute` keep them below 2^24 in
    float32 and 2^53 in float64), so BLAS's order cannot change a bit,
    and the product casts them exactly into ``out`` where it is wider.
    """
    if columns is not None:
        cast = columns[: row_sums.size]
        np.copyto(cast.reshape(row_sums.shape), row_sums)
        row_sums = cast
    return np.matmul(row_sums.reshape(-1, m), np.ones(m, row_sums.dtype), out=out)


def _stage(rgb: list[np.ndarray], m: int, out: np.ndarray) -> np.ndarray:
    """Convert-first's band of three uint8 planes as the rows of its blocks, cast into ``out``.

    Returns the (3M, rows/M * w) view of ``out`` in which
    ``staged[c * M + i, j * w + x]`` is channel c at row j * M + i of the
    band, so :func:`_convert` adds the M rows of each block as it converts
    them. At M = 1 it is the (3, n) band.
    """
    r, w = rgb[0].shape[0] // m, rgb[0].shape[1]
    blocks = [c.reshape(r, m, w).transpose(1, 0, 2) for c in rgb]
    staged = np.concatenate(blocks, axis=None, out=out[: 3 * rgb[0].size])
    return staged.reshape(3 * m, r * w)


def _convert(weights: np.ndarray, staged: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The numerator rows ``weights`` times the staged planes, into the front of ``out``.

    Convert-first's weights repeat each coefficient M times, so one
    product converts a band and adds the M rows of each block: its rows
    are the planes of row sums. Every product and partial sum is an
    integer exact in the weights' dtype (:func:`_arithmetic`), so neither
    the order of the sums nor an FMA in BLAS changes a bit.
    """
    n = staged.shape[1]
    return np.matmul(weights, staged, out=out[: len(weights) * n].reshape(-1, n))


def _finish(
    totals: np.ndarray, shifts: list, divisor: float, exponent: list, out: np.ndarray
) -> np.ndarray:
    """A band's k output planes from its limbs' planes of block sums, into ``out``.

    A second limb's k planes in ``totals`` are shifted and added to the
    first's in place, which rounds once; the first k are then divided by
    the divisor in float64 and scaled by 2^exponent, one call each per
    band. A decimal matrix has one limb and no exponent: it only divides.
    """
    k = len(out)
    for i, shift in enumerate(shifts, 1):
        low = totals[i * k : (i + 1) * k]
        totals[:k] += np.ldexp(low, shift, out=low)
    # dtype: a float32 sum divided by a Python float would round in float32,
    # under NEP 50 (numpy 2) and numpy 1.24's value-based casting alike
    np.divide(totals[:k], divisor, out=out, dtype=np.float64)
    for e in exponent:
        np.ldexp(out, e, out=out)
    return out


def _execute(plan: PipelinePlan, image: RgbImage8) -> PreprocessedChannels:
    """Run the ordering ``plan.strategy`` names and count both stages.

    An image shorter or narrower than M is rejected before any work. The
    boundary policy then applies once: each channel is cropped to a view
    of its ``(h - h % M) x (w - w % M)`` whole blocks. Both orderings work
    one band of whole block rows at a time (:func:`_band_rows`), in
    buffers sized once for the largest band, so neither holds a full-size
    intermediate, and each band runs one sequence of stages:

    * convert-first: :func:`_stage`, :func:`_convert`, :func:`_column_sums`
      (only at M >= 2) and :func:`_finish`;
    * downsample-first: :func:`_integer_block_sum` on each RGB plane, into
      its third of the staging array, then :func:`_convert` and
      :func:`_finish`. At M = 1 it runs convert-first's sequence.

    Both convert with the requested numerator rows of each limb
    (:func:`_arithmetic`) and build the same exact integers, so their
    outputs are identical. The samples each band converts, block-sums and
    scales are counted, and :func:`_stage_ops` prices them as
    :func:`predict_ops` does.
    """
    m = plan.spec.factor
    h, w = image.height, image.width
    if h < m or w < m:
        raise ValueError(f"plane {h}x{w} is smaller than the {m}x{m} filter")
    h, w = h - h % m, w - w % m
    cropped = [c[:h, :w] for c in image.channels]
    step = _band_rows(plan, w)
    k = plan.channels.count
    numerators, (row_t, sum_t), shifts, divisor, exponent = _arithmetic(plan)
    # the k requested planes, one scale per band writes all of them
    planes = np.empty((k, h // m, w // m))
    views = iter(planes)
    outputs = [next(views) if f else None for f in plan.channels.flags]
    # the k requested rows of each limb, in the dtype of the planes they
    # convert, and each requested row's shifts and exponent for its plane
    flags = list(plan.channels.flags)
    wanted = [row for i, row in enumerate(numerators) if flags[i % 3]]
    shifts = [np.reshape(x, (3, 1, 1))[flags] for x in shifts]
    exponent = [np.reshape(x, (3, 1, 1))[flags] for x in exponent]
    full_resolution = _full_resolution(plan)
    weights = np.array(wanted, row_t if full_resolution else sum_t)
    # Every band is staged, converted and block-summed in the same buffers, sized
    # for the largest band. Fresh buffers per band made glibc's default malloc
    # trim and re-fault its heap on every band: 31440 minor faults per
    # evaluation at 1080x1920, 3 channels.
    rows_max = min(step, h)
    if full_resolution:
        # Each numerator is repeated for the M rows of a block, so the
        # one product that converts a band also adds those rows.
        weights = np.repeat(weights, m, axis=1)
        staging = np.empty(3 * rows_max * w, row_t)
        product = np.empty(len(weights) * rows_max // m * w, row_t)
        if m > 1:
            # the planes of row sums are summed at once, through a cast
            # where the block sums need float64 and the row sums do not
            columns = None if row_t == sum_t else np.empty(product.size, sum_t)
            block_sums = np.empty(len(weights) * rows_max // m * (w // m), sum_t)
    else:
        staging = np.empty(3 * rows_max // m * (w // m), sum_t)
        product = np.empty(len(weights) * staging.size // 3, sum_t)
        # one uint8 plane at a time: its row sums are at most 255 M, its
        # block sums 255 M^2, summed in float32 below 2^24 into staging
        rows = np.empty(rows_max // m * w, np.min_scalar_type(255 * m))
        columns = np.empty(rows.size, np.float32 if 255 * m * m < 1 << 24 else np.float64)
    # samples converted (of one plane), block sums, and samples scaled
    n_converted = n_summed = n_scaled = 0
    for a in range(0, h, step):
        b = a + step
        rgb = [c[a:b] for c in cropped]
        r = rgb[0].shape[0] // m
        n = r * (w // m)
        # Up to the limb add, every cast, sum and product is of integers exact
        # in their dtype, so none is invalid; OpenBLAS 0.3.31's SkylakeX sgemv
        # raises that flag anyway, with an exact result, on a float32 (n, 5)
        # product with five ones, n % 4 in (2, 3), when the stack memory it
        # reads into discarded lanes holds a signalling NaN. So it alone is ignored.
        with np.errstate(invalid="ignore"):
            if full_resolution:
                band = _convert(weights, _stage(rgb, m, staging), product)
                n_converted += rgb[0].size
                if m > 1:
                    band = _column_sums(band, m, columns, block_sums[: len(band) * n])
                    n_summed += k * n
            else:
                for i, c in enumerate(rgb):
                    _integer_block_sum(c, m, rows, columns, staging[i * n : (i + 1) * n])
                n_summed += 3 * n
                band = _convert(weights, staging[: 3 * n].reshape(3, n), product)
                n_converted += n
        totals = band.reshape(-1, r, w // m)
        n_scaled += _finish(totals, shifts, divisor, exponent, planes[:, a // m : b // m]).size
    ops = _stage_ops(m, k, n_converted, n_summed, n_scaled)
    return PreprocessedChannels(*outputs, plan=plan, ops=ops)


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


def verify_equivalence(
    image: RgbImage8,
    matrix: ColorMatrix,
    channels: ChannelSet = ChannelSet.all_channels(),
    spec: DownsampleSpec | None = None,
    tolerance: float = 1e-9,
) -> EquivalenceReport:
    """Run both orderings and report the largest per-sample difference.

    Both orderings give the same bits for every matrix, so the difference
    is exactly 0, unless a sample overflows to inf on both sides, which
    leaves NaN and fails. The default tolerance of 1e-9 absolute is
    acceptance criterion c1's. Raises ``ValueError`` before running
    either ordering unless ``0 < tolerance < inf``.
    """
    if not 0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    pair = tuple(
        preprocess(image, matrix, channels, strategy, spec)
        for strategy in (Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST)
    )
    per_channel = channel_differences(pair)
    return EquivalenceReport(
        per_channel=per_channel,
        max_abs_diff=float(np.max(list(per_channel.values()))),
        passed=all(d <= tolerance for d in per_channel.values()),  # NaN fails
    )
