import ctypes
import math
import re
import struct
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqprep import pipeline
from iqprep.colorspace import (
    IDENTITY_MATRIX,
    ChannelSet,
    ColorMatrix,
    builtin_matrices,
    builtin_matrix,
    transform,
)
from iqprep.downsample import DownsampleSpec, block_mean_decimate, compute_factor
from iqprep.image import RgbImage8, synth_image
from iqprep.pipeline import (
    OpCounter,
    PipelinePlan,
    Strategy,
    channel_differences,
    plan_pipeline,
    predict_ops,
    preprocess,
    run_convert_first,
    run_downsample_first,
    select_strategy,
    verify_equivalence,
)

ALL = ChannelSet.all_channels()
LUMA = ChannelSet.luma_only()

CHANNEL_SETS = [
    ChannelSet(True, True, True),
    ChannelSet(True, True, False),
    ChannelSet(True, False, True),
    ChannelSet(False, True, True),
    ChannelSet(True, False, False),
    ChannelSet(False, True, False),
    ChannelSet(False, False, True),
]


def _float_planes(img):
    """The three 8-bit channels cast to float64, values unchanged."""
    return tuple(c.astype(np.float64) for c in img.channels)


def test_convert_first_m1_identity_is_passthrough():
    img = synth_image(6, 7, 2)
    result = run_convert_first(img, IDENTITY_MATRIX, ALL, DownsampleSpec(1))
    for plane, channel in zip(result.planes, _float_planes(img)):
        assert np.array_equal(plane, channel)


def test_counter_examples_2x2_image():
    img = synth_image(2, 2, 1)
    cf = run_convert_first(img, builtin_matrix("yiq"), ALL, DownsampleSpec(2))
    assert cf.ops.conversion.multiplies == 36
    assert cf.ops.filtering.adds == 3 * (2 * 2 - 1) == 9
    assert cf.ops.filtering.multiplies == 3

    df = run_downsample_first(img, builtin_matrix("yiq"), ALL, DownsampleSpec(2))
    assert df.ops.conversion.multiplies == 9  # exactly M^2 = 4x fewer
    assert cf.ops.conversion.multiplies == df.ops.conversion.multiplies * 4


def test_conversion_counts_on_a_2x2_image():
    # 3 multiplies and 2 adds per converted sample and requested channel;
    # at M = 1 both orderings convert all 4 samples and filter nothing
    img = synth_image(2, 2, 1)
    spec = DownsampleSpec(1)
    for strategy in (Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST):
        for channels, expected in ((ALL, OpCounter(36, 24)), (LUMA, OpCounter(12, 8))):
            result = preprocess(img, builtin_matrix("lmn"), channels, strategy, spec)
            for ops in (result.ops, predict_ops(2, 2, channels, spec, strategy)):
                assert ops.conversion == expected
                assert ops.filtering == OpCounter(0, 0)


def test_filtering_counts_per_output_sample():
    # 7x9 at M = 3 keeps 2x3 = 6 output samples, each costing M^2 - 1 = 8
    # adds per summed plane and 1 multiply per requested channel
    img = synth_image(7, 9, 4)
    spec = DownsampleSpec(3)
    for strategy, summed in ((Strategy.CONVERT_FIRST, 1), (Strategy.DOWNSAMPLE_FIRST, 3)):
        result = preprocess(img, builtin_matrix("yiq"), LUMA, strategy, spec)
        assert result.luma.shape == (2, 3)
        for ops in (result.ops, predict_ops(7, 9, LUMA, spec, strategy)):
            assert ops.filtering == OpCounter(multiplies=6, adds=8 * 6 * summed)


@pytest.mark.parametrize("factor", [2, 3, 4, 8])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_op_model_totals_and_filtering_crossover(k, factor):
    # README "Strategy selection": with n = (h - h%M)(w - w%M) whole-block
    # samples, convert-first totals 6kn ops and downsample-first
    # n(6k + 3(M^2-1))/M^2, so CF/DF = 2kM^2 / (M^2 + 2k - 1) > 1 at every
    # size. Filtering alone is kn against n(k + 3(M^2-1))/M^2: equal at
    # k = 3, convert-first cheaper below.
    channels = ChannelSet(*(i < k for i in range(3)))
    spec = DownsampleSpec(factor)
    m2 = factor * factor

    def count(counter):
        return counter.multiplies + counter.adds

    for height, width in ((5 * factor, 7 * factor), (6 * factor - 1, 7 * factor + 1)):
        n = (height - height % factor) * (width - width % factor)
        cf, df = (
            predict_ops(height, width, channels, spec, s)
            for s in (Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST)
        )
        cf_filter, df_filter = count(cf.filtering), count(df.filtering)
        cf_total, df_total = cf_filter + count(cf.conversion), df_filter + count(df.conversion)
        assert cf_total == 6 * k * n
        assert Fraction(df_total) == Fraction(n * (6 * k + 3 * (m2 - 1)), m2)
        ratio = Fraction(cf_total, df_total)
        assert ratio == Fraction(2 * k * m2, m2 + 2 * k - 1) and ratio > 1
        assert cf_filter == k * n
        assert Fraction(df_filter) == Fraction(n * (k + 3 * (m2 - 1)), m2)
        assert (cf_filter < df_filter) if k < 3 else (cf_filter == df_filter)


@pytest.mark.parametrize("height, width, factor", [(37, 29, 17), (7, 9, 3), (385, 517, 2)])
def test_conversion_ratio_is_m_squared_at_ragged_sizes(height, width, factor):
    # convert-first converts the M^2 samples of each whole block and no
    # trailing row or column, so CF/DF conversion is exactly M^2. 37x29 at
    # M = 17 holds 2x1 blocks: all channels count OpCounter(5202, 3468)
    # convert-first against OpCounter(18, 12) downsample-first.
    img = synth_image(height, width, 2)
    spec = DownsampleSpec(factor)
    n_out = (height // factor) * (width // factor)
    for matrix in (builtin_matrix("yiq"), THIRD):
        for channels in CHANNEL_SETS:
            k = channels.count
            for strategy, converted in (
                (Strategy.CONVERT_FIRST, factor * factor * n_out),
                (Strategy.DOWNSAMPLE_FIRST, n_out),
            ):
                result = preprocess(img, matrix, channels, strategy, spec)
                for ops in (result.ops, predict_ops(height, width, channels, spec, strategy)):
                    assert ops.conversion == OpCounter(3 * k * converted, 2 * k * converted)


@pytest.mark.parametrize(
    "strategy", [Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST, Strategy.AUTO]
)
@pytest.mark.parametrize("factor", [1, 2, 3])
def test_predictions_match_instrumented_counts(strategy, factor):
    rng = np.random.default_rng(factor)
    for channels in CHANNEL_SETS:
        height, width = int(rng.integers(factor, 20)), int(rng.integers(factor, 20))
        img = synth_image(height, width, 5)
        spec = DownsampleSpec(factor)
        if strategy is Strategy.AUTO:
            result = preprocess(img, builtin_matrix("lmn"), channels, strategy, spec)
            assert result.plan.strategy is select_strategy(channels, spec)
        else:
            runner = (
                run_convert_first if strategy is Strategy.CONVERT_FIRST else run_downsample_first
            )
            result = runner(img, builtin_matrix("lmn"), channels, spec)
            assert result.plan.strategy is strategy
        predicted = predict_ops(height, width, channels, spec, result.plan.strategy)
        assert result.ops.conversion == predicted.conversion
        assert result.ops.filtering == predicted.filtering
        assert result.plan.predicted == predicted
        assert result.ops == result.plan.predicted == predicted


def test_strategies_agree_on_384x512_seed42():
    img = synth_image(384, 512, 42)
    report = verify_equivalence(img, builtin_matrix("yiq"), ALL, DownsampleSpec(2))
    assert report.passed
    assert report.max_abs_diff <= 1e-9
    assert set(report.per_channel) == {"luma", "chroma1", "chroma2"}


def test_m1_strategies_coincide_exactly():
    img = synth_image(20, 20, 3)
    cf = run_convert_first(img, builtin_matrix("yiq"), ALL, DownsampleSpec(1))
    df = run_downsample_first(img, builtin_matrix("yiq"), ALL, DownsampleSpec(1))
    for a, b in zip(cf.planes, df.planes):
        assert np.array_equal(a, b)


def test_conversion_multiply_reduction_is_exactly_m_squared():
    img = synth_image(64, 64, 1)
    spec = DownsampleSpec(8)
    cf = run_convert_first(img, builtin_matrix("yiq"), ALL, spec)
    df = run_downsample_first(img, builtin_matrix("yiq"), ALL, spec)
    assert cf.ops.conversion.multiplies == 64 * df.ops.conversion.multiplies
    assert cf.ops.conversion.adds == 64 * df.ops.conversion.adds


def test_filtering_parity_for_three_channels():
    img = synth_image(30, 22, 6)
    spec = DownsampleSpec(3)
    cf = run_convert_first(img, builtin_matrix("lmn"), ALL, spec)
    df = run_downsample_first(img, builtin_matrix("lmn"), ALL, spec)
    assert cf.ops.filtering == df.ops.filtering


def test_selector_examples():
    assert select_strategy(LUMA, DownsampleSpec(4)) is Strategy.CONVERT_FIRST
    assert select_strategy(ALL, DownsampleSpec(4)) is Strategy.DOWNSAMPLE_FIRST
    assert select_strategy(ALL, DownsampleSpec(1)) is Strategy.CONVERT_FIRST


@pytest.mark.parametrize("factor", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("channels", CHANNEL_SETS)
def test_selector_is_total_and_never_auto(channels, factor):
    spec = DownsampleSpec(factor)
    choice = select_strategy(channels, spec)
    assert choice in (Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST)
    assert select_strategy(channels, spec) is choice  # deterministic
    if factor >= 2 and channels.count == 3:
        assert choice is Strategy.DOWNSAMPLE_FIRST
    else:
        assert choice is Strategy.CONVERT_FIRST


def test_identity_matrix_equivalence_is_exact():
    img = synth_image(33, 17, 9)
    report = verify_equivalence(img, IDENTITY_MATRIX, ALL, DownsampleSpec(4))
    assert report.max_abs_diff == 0.0


def test_equivalence_seed7_64x64():
    img = synth_image(64, 64, 7)
    report = verify_equivalence(img, builtin_matrix("yiq"), ALL, DownsampleSpec(2))
    assert report.max_abs_diff <= 1e-10


def test_equivalence_under_adversarial_coefficients():
    adversarial = ColorMatrix(
        "adversarial",
        np.array([[1e3, -9.9e2, 1.0], [-1e3, 1e3, -1e3], [123.4, -567.8, 901.2]]),
    )
    img = synth_image(48, 40, 13)
    report = verify_equivalence(img, adversarial, ALL, DownsampleSpec(4), tolerance=1e-6)
    assert report.max_abs_diff <= 1e-6
    assert report.passed


def test_output_dims_floor_divide_on_ragged_input():
    img = synth_image(19, 13, 4)
    result = preprocess(img, builtin_matrix("yiq"), ALL, Strategy.DOWNSAMPLE_FIRST, DownsampleSpec(4))
    for plane in result.planes:
        assert plane.shape == (4, 3)


def test_preprocess_resolves_auto():
    img = synth_image(16, 16, 8)
    spec = DownsampleSpec(2)
    auto = preprocess(img, builtin_matrix("yiq"), ALL, Strategy.AUTO, spec)
    assert auto.plan.strategy is Strategy.DOWNSAMPLE_FIRST
    explicit = run_downsample_first(img, builtin_matrix("yiq"), ALL, spec)
    for a, b in zip(auto.planes, explicit.planes):
        assert np.array_equal(a, b)

    luma_auto = preprocess(img, builtin_matrix("yiq"), LUMA, Strategy.AUTO, spec)
    assert luma_auto.plan.strategy is Strategy.CONVERT_FIRST

    # with no spec, the planner defaults M from the size rule
    img = synth_image(384, 512, 8)
    sized = preprocess(img, builtin_matrix("yiq"))
    assert sized.plan.spec == compute_factor(384, 512)
    assert sized.plan.strategy is Strategy.DOWNSAMPLE_FIRST
    explicit = run_downsample_first(img, builtin_matrix("yiq"))
    for a, b in zip(sized.planes, explicit.planes):
        assert np.array_equal(a, b)


def test_matrices_and_plans_compare_by_value_results_by_identity():
    a, b = ColorMatrix("a", np.eye(3)), ColorMatrix("a", np.eye(3))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != ColorMatrix("b", np.eye(3)) and a != ColorMatrix("a", 2 * np.eye(3))
    signed = ColorMatrix("a", np.where(np.eye(3) == 1, 1.0, -0.0))  # -0.0 equals 0.0
    assert signed == a and hash(signed) == hash(a)
    assert a != "a"
    assert plan_pipeline(8, 8, a) == plan_pipeline(8, 8, b)
    assert hash(plan_pipeline(8, 8, a)) == hash(plan_pipeline(8, 8, b))
    img = synth_image(8, 8, 1)
    first, second = preprocess(img, a), preprocess(img, b)
    assert first == first and first != second
    assert channel_differences((first, second)) == {"luma": 0.0, "chroma1": 0.0, "chroma2": 0.0}


def test_plan_defaults_to_size_rule_and_rejects_auto():
    plan = plan_pipeline(384, 512, builtin_matrix("yiq"))
    assert plan.spec.factor == 2
    assert plan.strategy is Strategy.DOWNSAMPLE_FIRST
    with pytest.raises(ValueError, match="AUTO"):
        PipelinePlan(
            strategy=Strategy.AUTO,
            channels=ALL,
            spec=DownsampleSpec(1),
            matrix=IDENTITY_MATRIX,
            predicted=plan.predicted,
        )
    with pytest.raises(ValueError, match="AUTO"):
        predict_ops(4, 4, ALL, DownsampleSpec(1), Strategy.AUTO)


def test_verify_equivalence_rejects_bad_tolerance():
    img = synth_image(8, 8, 1)
    for tolerance in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive"):
            verify_equivalence(img, IDENTITY_MATRIX, ALL, DownsampleSpec(1), tolerance=tolerance)


def test_channel_differences_takes_the_worst_pair_per_channel():
    matrix = builtin_matrix("yiq")
    for channels in (ALL, LUMA, ChannelSet(False, True, True)):
        a, b, c = (preprocess(synth_image(12, 10, seed), matrix, channels) for seed in (1, 2, 3))
        pairs = ((a, b), (a, c), (b, c))
        want = {
            name: max(float(np.max(np.abs(x.planes[i] - y.planes[i]))) for x, y in pairs)
            for i, name in enumerate(("luma", "chroma1", "chroma2"))
            if channels.flags[i]
        }
        assert channel_differences(*pairs) == want


def test_nan_differences_reach_the_report_and_fail_it():
    # BIG's luma overflows to the same inf in both orderings, and inf - inf
    # leaves NaN in most luma samples
    with np.errstate(over="ignore", invalid="ignore"):
        report = verify_equivalence(synth_image(64, 64, 1), BIG)
    assert np.isnan(report.per_channel["luma"])
    assert np.isnan(report.max_abs_diff)
    assert not report.passed


def test_channel_differences_rejects_mismatched_results():
    matrix = builtin_matrix("yiq")
    spec = DownsampleSpec(2)
    tall, flat = (preprocess(synth_image(h, 8, 1), matrix, ALL, spec=spec) for h in (10, 2))
    with pytest.raises(ValueError, match=r"luma planes differ in shape: \(5, 4\) vs \(1, 4\)"):
        channel_differences((tall, flat))
    luma = preprocess(synth_image(10, 8, 1), matrix, LUMA, spec=spec)
    for pair in ((tall, luma), (luma, tall)):
        with pytest.raises(ValueError, match="chroma1 present on one result only"):
            channel_differences(pair)


def test_equivalence_randomized_channel_subsets():
    rng = np.random.default_rng(77)
    matrices = builtin_matrices()
    for case in range(25):
        factor = int(rng.choice([1, 2, 3, 4, 8]))
        height = int(rng.integers(factor, 50))
        width = int(rng.integers(factor, 50))
        channels = CHANNEL_SETS[case % len(CHANNEL_SETS)]
        img = synth_image(height, width, int(rng.integers(0, 2**62)))
        report = verify_equivalence(
            img, matrices[case % len(matrices)], channels, DownsampleSpec(factor)
        )
        assert report.passed, (height, width, factor, channels)
        assert set(report.per_channel) == set(channels.names())


def _exact_oracle(img, matrix, channels, m):
    """Each output sample as the exact block mean of the matrix's decimal form, rounded once.

    The int64 block sums are exact and, for 8-bit inputs at these sizes,
    below 2^53, so one float64 division rounds each exact rational once.
    """
    numerators, d = matrix.decimal_form
    h, w = img.height - img.height % m, img.width - img.width % m
    rgb = [c[:h, :w].astype(np.int64) for c in img.channels]
    return [
        sum(n * c for n, c in zip(row, rgb)).reshape(h // m, m, w // m, m).sum(axis=(1, 3))
        / (10**d * m * m)
        if wanted
        else None
        for row, wanted in zip(numerators, channels.flags)
    ]


def _assert_planes_equal(got_planes, want_planes, *context):
    for got, want in zip(got_planes, want_planes):
        assert (got is None) == (want is None)
        if got is not None:
            assert got.dtype == np.float64
            assert np.array_equal(got, want), context


# no decimal form: every entry of the first row is 1/3
THIRD = ColorMatrix("third", [[1 / 3, 1 / 3, 1 / 3], [0.5, -1 / 3, -1 / 6], [1 / 7, 2 / 7, -3 / 7]])
# decimal at d = 0, but its block sums would pass 2^53; 1e308 * (R - G + B)
# overflows to inf wherever R - G + B reaches 2
BIG = ColorMatrix("big", [[1e308, -1e308, 1e308], [1, 0, 0], [0, 1, 0]])
# Higham's gamma_2: two roundings, each by a relative 2^-53 at most
GAMMA_2 = Fraction(2, 2**53 - 2)


def _exact_means(img, matrix, m):
    """Per matrix row, the exact block means of its stored coefficients as ``(N, D)``.

    A mean is N / D, N an object array of Python integers and D an
    integer: each coefficient is an integer over a power of two.
    """
    h, w = img.height // m, img.width // m
    sums = [
        c[: h * m, : w * m].reshape(h, m, w, m).sum(axis=(1, 3), dtype=np.int64).astype(object)
        for c in img.channels
    ]
    means = []
    for row in matrix.coefficients:
        ratios = [float(c).as_integer_ratio() for c in row]
        den = max(d for _, d in ratios)
        means.append((sum(n * (den // d) * s for (n, d), s in zip(ratios, sums)), den * m * m))
    return means


def _represented(plan):
    """The coefficients that the pipeline's integers stand for, as exact Fractions.

    A decimal matrix's numerators over 10^d; a limbed matrix's
    (hi + lo * 2^(s - t)) * 2^-s, row by row.
    """
    numerators, _, shifts, divisor, exponent = pipeline._arithmetic(plan)
    scale = Fraction(plan.spec.factor**2) / Fraction(divisor)
    return [
        [
            sum(
                Fraction(int(numerators[3 * limb + i][j])) * Fraction(2) ** int(shift[i])
                for limb, shift in enumerate([(0,) * 3, *shifts])
            )
            * scale
            * Fraction(2) ** sum(int(e[i]) for e in exponent)
            for j in range(3)
        ]
        for i in range(3)
    ]


def _bounds(plan):
    """Per matrix row c, 255 * (gamma_2 |c_hat|_1 + |c - c_hat|_1), c_hat as represented.

    The mean of 0..255 samples weighted by c_hat is at most 255 |c_hat|_1
    and is rounded at most twice (README, "Tolerances").
    """
    return [
        255 * sum(GAMMA_2 * abs(h) + abs(Fraction(c) - h) for c, h in zip(row, hat))
        for row, hat in zip(plan.matrix.coefficients.tolist(), _represented(plan))
    ]


def _assert_within_bound(result, img):
    """Every sample within its row's bound of the exact block mean of the stored coefficients.

    Checked exactly: a finite sample is an integer times 2^(e - 53), e
    its binary exponent, so with N / D the exact mean, D * 2^g times
    either is an integer once g >= 53 - e. An infinite sample must
    have the exact mean's sign, and the mean must lie within the bound
    of the largest float or beyond it.
    """
    plan = result.plan
    rows = zip(result.planes, _exact_means(img, plan.matrix, plan.spec.factor), _bounds(plan))
    for got, (num, den), bound in rows:
        if got is None:
            continue
        finite = np.isfinite(got)
        mantissa, e = np.frexp(np.where(finite, got, 0.0))
        mantissa = np.ldexp(mantissa, 53).astype(np.int64).astype(object)
        g = max(0, 53 - int(e.min()))
        scaled = mantissa * den * 2 ** (e + g - 53).astype(object)
        error = np.abs(scaled - num * 2**g)[finite]
        assert error.size == 0 or error.max() <= bound * den * 2**g
        for sample, n in zip(got[~finite], num[~finite]):
            assert sample == (math.inf if n > 0 else -math.inf)
            assert abs(Fraction(n, den)) + bound > Fraction(sys.float_info.max)


@pytest.mark.parametrize("strategy", [Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST])
@pytest.mark.parametrize("factor", [1, 2, 3])
def test_preprocess_equals_literal_float_composition(strategy, factor):
    # the pipeline reads the uint8 channels directly, and each plane is the
    # literal composition, conversion then block mean, evaluated exactly
    # and rounded: once for a decimal matrix, whose numerators over 10^d
    # the exact oracle uses; once for THIRD at M = 1 and 2, whose limbs
    # hold every stored coefficient exactly and whose division by M^2 is
    # exact there; and within the derived bound at M = 3
    img = synth_image(29, 37, factor)
    spec = DownsampleSpec(factor)
    # Python's int / int rounds the exact quotient once
    rounded = [(n / d).astype(float) for n, d in _exact_means(img, THIRD, factor)]
    for channels in CHANNEL_SETS:
        result = preprocess(img, builtin_matrix("yiq"), channels, strategy, spec)
        expected = _exact_oracle(img, builtin_matrix("yiq"), channels, factor)
        _assert_planes_equal(result.planes, expected, strategy, factor, channels)
        result = preprocess(img, THIRD, channels, strategy, spec)
        _assert_within_bound(result, img)
        if factor in (1, 2):
            wanted = [p if f else None for p, f in zip(rounded, channels.flags)]
            _assert_planes_equal(result.planes, wanted, strategy, factor, channels)


@pytest.mark.parametrize(
    "height, width, factor",
    [
        (301, 517, 3),  # three convert-first bands; h % M and w % M both non-zero
        (501, 301, 2),  # three downsample-first bands; h % M and w % M both non-zero
        (9, 20000, 4),  # wider than 2^16 / M: every convert-first band is exactly M rows
        (256, 1024, 4),  # rows divide evenly into four convert-first bands
        (23, 31, 2),  # smaller than one band
        (300, 700, 1),  # M = 1, four bands
    ],
)
@pytest.mark.parametrize("name", ["identity", "yiq", "lmn", "third"])
def test_banded_convert_first_equals_whole_plane_stages(height, width, factor, name):
    # both orderings run in row bands; across band edges each must still
    # give the bits of its whole-plane oracle and the predicted counts:
    # the exact oracle for a decimal matrix; for THIRD, the other
    # ordering's bits, each requested plane as in the all-channel run,
    # and those within the derived bound of the exact means
    img = synth_image(height, width, factor)
    matrix = THIRD if name == "third" else builtin_matrix(name)
    spec = DownsampleSpec(factor)
    strategies = (Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST)
    whole = [preprocess(img, matrix, ALL, strategy, spec) for strategy in strategies]
    if matrix is THIRD:
        _assert_planes_equal(whole[0].planes, whole[1].planes)
        _assert_within_bound(whole[0], img)
    for channels in CHANNEL_SETS:
        for strategy in strategies:
            result = preprocess(img, matrix, channels, strategy, spec)
            if matrix is THIRD:
                expected = [p if f else None for p, f in zip(whole[0].planes, channels.flags)]
            else:
                expected = _exact_oracle(img, matrix, channels, factor)
            _assert_planes_equal(result.planes, expected, height, width, factor, channels, strategy)
            assert result.ops == result.plan.predicted


@pytest.mark.parametrize("height, width", [(3, 50000), (40000, 3), (2, 2)])
def test_convert_first_plane_smaller_than_filter_raises(monkeypatch, height, width):
    # either ordering rejects such an image before converting or summing
    # anything, with the error block_mean_decimate gives for the whole
    # plane; every matrix converts without transform, in matrix products
    # that convert-first's row sums come out of too, and sums the columns
    # of its blocks in _column_sums (_integer_block_sum downsample-first)
    spec = DownsampleSpec(4)
    with pytest.raises(ValueError) as whole_plane:
        block_mean_decimate(np.zeros((height, width), dtype=np.uint8), spec)
    img = synth_image(height, width, 1)
    touched = []

    def recording(function):
        def wrapper(*args, **kwargs):
            touched.append(args[0].shape)
            return function(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(pipeline, "transform", recording(transform))
    monkeypatch.setattr(pipeline, "_integer_block_sum", recording(pipeline._integer_block_sum))
    monkeypatch.setattr(pipeline, "_column_sums", recording(pipeline._column_sums))
    monkeypatch.setattr(np, "matmul", recording(np.matmul))
    for matrix in (builtin_matrix("yiq"), THIRD):
        for strategy in (Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST):
            with pytest.raises(ValueError, match=re.escape(str(whole_plane.value))):
                preprocess(img, matrix, LUMA, strategy, spec)
    assert touched == []


def test_convert_first_never_holds_a_full_resolution_float_plane():
    img = synth_image(1024, 2048, 5)
    full_plane_bytes = 1024 * 2048 * 8
    tracemalloc.start()
    try:
        preprocess(img, builtin_matrix("yiq"), LUMA, Strategy.CONVERT_FIRST, DownsampleSpec(4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < full_plane_bytes


def test_downsample_first_never_holds_a_full_reduced_rgb_set():
    img = synth_image(1024, 2048, 5)
    reduced_rgb_bytes = 3 * 256 * 512 * 8
    tracemalloc.start()
    try:
        preprocess(img, builtin_matrix("yiq"), LUMA, Strategy.DOWNSAMPLE_FIRST, DownsampleSpec(4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < reduced_rgb_bytes


def _fraction_oracle(img, matrix, channels, m):
    """Python-integer block sums combined with the numerators, each mean rounded once."""
    numerators, d = matrix.decimal_form
    rgb = [c.tolist() for c in img.channels]
    out = [np.empty((img.height // m, img.width // m)) if f else None for f in channels.flags]
    for i in range(img.height // m):
        for j in range(img.width // m):
            sums = [sum(v for line in p[i * m : (i + 1) * m] for v in line[j * m : (j + 1) * m]) for p in rgb]
            for plane, row in zip(out, numerators):
                if plane is not None:
                    total = sum(n * s for n, s in zip(row, sums))
                    plane[i, j] = float(Fraction(total, 10**d * m * m))
    return out


def _filled(height, width, rgb):
    return RgbImage8(height, width, *(np.full((height, width), v, dtype=np.uint8) for v in rgb))


# all positive, so all-255 blocks reach the bounds: 255 * 2997 * M^2 is
# below 2^24 up to M = 4, a block's row sum 255 * 2997 * M up to M = 21
POSITIVE = ColorMatrix("positive", np.full((3, 3), 0.999))
# six decimals: a converted pixel, up to 255 * 2999997, is past 2^24
FINE = ColorMatrix("fine", np.full((3, 3), 0.999999))
F32, F64 = np.float32, np.float64


@pytest.mark.parametrize(
    "name, factor, dtypes",
    [
        # the dtypes of a row sum and a block sum; these ids also name
        # the dtype a converted pixel had before convert-first held its
        # pixels in the row sums' dtype (the fine matrix's pixels, past
        # 2^24, were float64)
        pytest.param("yiq", 7, (F32, F32), id="yiq-7-32-32-32"),  # 255 * 1192 * 7^2 < 2^24
        pytest.param("yiq", 8, (F32, F64), id="yiq-8-32-32-64"),
        pytest.param("positive", 4, (F32, F32), id="positive-4-32-32-32"),
        pytest.param("positive", 5, (F32, F64), id="positive-5-32-32-64"),
        pytest.param("positive", 21, (F32, F64), id="positive-21-32-32-64"),
        pytest.param("positive", 22, (F64, F64), id="positive-22-32-64-64"),
        pytest.param("fine", 1, (F64, F64), id="fine-1-64-64-64"),
        pytest.param("fine", 2, (F64, F64), id="fine-2-64-64-64"),
        # the integer edges: RGB block sums at M = 16/17, and where an
        # int32 block sum, the exact path's earlier accumulator, would
        # have overflowed (named in the ids); the float sums must stay
        # exact across them too
        pytest.param("yiq", 16, (F32, F64), id="yiq-16-int32"),  # RGB sums fit uint16
        pytest.param("yiq", 17, (F32, F64), id="yiq-17-int32"),  # RGB sums need uint32
        pytest.param("yiq", 84, (F64, F64), id="yiq-84-int32"),  # 255 * 1192 * 84^2 < 2^31
        pytest.param("yiq", 85, (F64, F64), id="yiq-85-int64"),
        pytest.param("positive", 53, (F64, F64), id="positive-53-int32"),
        pytest.param("positive", 54, (F64, F64), id="positive-54-int64"),
        # the edges of _integer_block_sum's downsample-first types: an
        # RGB block sum 255 * M^2 stays below 2^24, so exact in a float32
        # operand, up to M = 256; a row sum 255 * M fits uint16 up to 257
        pytest.param("yiq", 256, (F64, F64), id="yiq-256-f32-uint16"),
        pytest.param("yiq", 257, (F64, F64), id="yiq-257-f64-uint16"),
        pytest.param("yiq", 258, (F64, F64), id="yiq-258-f64-uint32"),
        # two limbs, each sized to keep its block sums below 2^53: float64
        # at every M, up to the largest uint16 row sum
        pytest.param("third", 1, (F64, F64), id="third-1"),
        pytest.param("third", 8, (F64, F64), id="third-8"),
        pytest.param("third", 17, (F64, F64), id="third-17"),
        pytest.param("third", 257, (F64, F64), id="third-257"),
        pytest.param("big", 1, (F64, F64), id="big-1"),
        pytest.param("big", 8, (F64, F64), id="big-8"),
    ],
)
@pytest.mark.parametrize("fill", [(255, 255, 255), (0, 255, 255)], ids=["white", "cyan"])
def test_exact_path_at_accumulator_edges(name, factor, dtypes, fill):
    # (0, 255, 255) gives yiq's most negative chroma1; both orderings must
    # equal the Python-integer oracle where each accumulator widens, and
    # for THIRD and BIG each other, within the derived bound of the exact
    # means (BIG's white luma overflows to inf in both)
    limbed = {"third": THIRD, "big": BIG}
    matrix = {"positive": POSITIVE, "fine": FINE, **limbed}.get(name) or builtin_matrix(name)
    spec = DownsampleSpec(factor)
    img = _filled(2 * factor + 1, factor + 2, fill)
    strategies = (Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST)
    with np.errstate(over="ignore" if matrix is BIG else "warn"):
        cf, df = (preprocess(img, matrix, ALL, strategy, spec) for strategy in strategies)
    _assert_planes_equal(cf.planes, df.planes)
    for result in (cf, df):
        assert pipeline._arithmetic(result.plan)[1] == dtypes
        assert result.ops == result.plan.predicted
    if name in limbed:
        _assert_within_bound(cf, img)
    else:
        _assert_planes_equal(cf.planes, _fraction_oracle(img, matrix, ALL, factor))


def _int64_oracle(img, matrix, channels, m):
    """Block sums by reshape and the numerators in int64, then one float64 division each.

    Every integer here is below 2^53, so the division is the one rounding.
    """
    numerators, d = matrix.decimal_form
    h, w = img.height // m, img.width // m
    sums = [c[: h * m, : w * m].reshape(h, m, w, m).sum(axis=(1, 3), dtype=np.int64) for c in img.channels]
    divisor = float(10**d * m * m)
    return [
        sum(n * s for n, s in zip(row, sums)) / divisor if f else None
        for row, f in zip(numerators, channels.flags)
    ]


@pytest.mark.parametrize("factor", [2, 3, 4, 5, 8, 16, 17])
def test_exact_path_equals_the_int64_oracle_across_bands(factor):
    # ragged images at least two downsample-first bands (and many more
    # convert-first ones) tall, so every band edge of both orderings and
    # the reused band buffers are crossed at each of these factors
    spec = DownsampleSpec(factor)
    whole = 37 * factor
    width = whole + factor - 1

    def band_rows(strategy):
        return pipeline._band_rows(plan_pipeline(1, width, IDENTITY_MATRIX, ALL, spec, strategy), whole)

    height = 2 * band_rows(Strategy.DOWNSAMPLE_FIRST) + factor + 1
    assert height > 2 * band_rows(Strategy.CONVERT_FIRST)
    img = synth_image(height, width, factor)
    for matrix in (builtin_matrix("yiq"), builtin_matrix("lmn"), IDENTITY_MATRIX):
        for channels in CHANNEL_SETS:
            want = _int64_oracle(img, matrix, channels, factor)
            for strategy in (Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST):
                result = preprocess(img, matrix, channels, strategy, spec)
                _assert_planes_equal(result.planes, want, matrix.name, channels, strategy)
                assert result.ops == result.plan.predicted


# random coefficients of either sign, of up to 20 binary orders below the
# largest, scaled by 1e-300 to 1e300: almost never decimal, and at 1e20 and
# up decimal at d = 0 with numerators past 2^53
DRAWN = st.builds(
    lambda entries, p: ColorMatrix("drawn", np.reshape(entries, (3, 3)) * 10.0**p),
    st.lists(
        st.one_of(st.just(0.0), st.floats(2**-20, 1), st.floats(-1, -(2**-20))),
        min_size=9,
        max_size=9,
    ),
    st.integers(-300, 300),
)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exact_orderings_equal_the_int64_oracle_on_drawn_images(data):
    # sizes from one block to three downsample-first bands (so many
    # convert-first ones), ragged on either axis, at every factor up to
    # 20: both orderings give the same bits and count what they predict;
    # for a decimal matrix those are the oracle's, and for a drawn one
    # within the derived bound of the exact means
    factor = data.draw(st.integers(1, 20), label="factor")
    matrix = data.draw(
        st.one_of(st.sampled_from([*builtin_matrices(), IDENTITY_MATRIX, POSITIVE]), DRAWN),
        label="matrix",
    )
    channels = data.draw(st.sampled_from(CHANNEL_SETS), label="channels")
    spec = DownsampleSpec(factor)
    width = data.draw(st.integers(factor, 2048), label="width")
    plan = plan_pipeline(1, width, matrix, ALL, spec, Strategy.DOWNSAMPLE_FIRST)
    band = pipeline._band_rows(plan, width - width % factor)
    height = (
        data.draw(st.integers(0, 2), label="whole bands") * band
        + data.draw(st.integers(1, band // factor), label="block rows") * factor
        + data.draw(st.integers(0, factor - 1), label="ragged rows")
    )
    img = synth_image(height, width, data.draw(st.integers(0, 2**32), label="seed"))
    cf, df = (
        preprocess(img, matrix, channels, strategy, spec)
        for strategy in (Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST)
    )
    _assert_planes_equal(cf.planes, df.planes)
    for result in (cf, df):
        assert result.ops == result.plan.predicted
    if matrix.name == "drawn":
        _assert_within_bound(cf, img)
    else:
        _assert_planes_equal(cf.planes, _int64_oracle(img, matrix, channels, factor))


@pytest.mark.parametrize("factor", [1, 2])
def test_exact_scale_divides_in_float64(factor):
    # a luma sum of 299 * M^2 over 1000 * M^2 rounds once in float64 to
    # 0.299; dividing the float32 sum in float32 would give float32(0.299)
    img = _filled(factor, factor, (1, 0, 0))
    for strategy in (Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST):
        result = preprocess(img, builtin_matrix("yiq"), LUMA, strategy, DownsampleSpec(factor))
        assert pipeline._arithmetic(result.plan)[1][1] is np.float32
        assert result.luma.dtype == np.float64
        assert result.luma[0, 0] == 0.299 != float(np.float32(0.299))


def test_exact_products_ignore_a_spurious_invalid_flag():
    # OpenBLAS 0.3.31's SkylakeX sgemv raises the invalid flag on a float32
    # (n, 5) x (5,) product with n % 4 in (2, 3) whenever the stack memory it
    # reads into lanes it discards holds a signalling NaN; its result stays
    # exact. A varargs call leaves such NaNs on the stack, then M = 5 sums
    # 2 x 3 blocks of yiq luma with that product, in float32, either way.
    try:
        snprintf = ctypes.CDLL(None).snprintf
    except (AttributeError, OSError, TypeError):
        pytest.skip("needs the C library's snprintf")
    snan = struct.unpack("<d", struct.pack("<Q", 0x7FA00001_7FA00001))[0]
    img = synth_image(10, 15, 3)
    want = _fraction_oracle(img, builtin_matrix("yiq"), LUMA, 5)
    for strategy in (Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST):
        snprintf(None, 0, b"%f" * 400, *[ctypes.c_double(snan)] * 400)
        result = preprocess(img, builtin_matrix("yiq"), LUMA, strategy, DownsampleSpec(5))
        _assert_planes_equal(result.planes, want, strategy)


def test_small_images_equal_the_fraction_oracle():
    rng = np.random.default_rng(16)
    for case in range(40):
        factor = int(rng.integers(1, 6))
        height, width = (int(rng.integers(factor, 4 * factor + 3)) for _ in range(2))
        matrix = (builtin_matrix("yiq"), builtin_matrix("lmn"), IDENTITY_MATRIX)[case % 3]
        channels = CHANNEL_SETS[case % len(CHANNEL_SETS)]
        img = synth_image(height, width, case)
        want = _fraction_oracle(img, matrix, channels, factor)
        for strategy in (Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST):
            result = preprocess(img, matrix, channels, strategy, DownsampleSpec(factor))
            _assert_planes_equal(result.planes, want, case, strategy)
            assert result.ops == result.plan.predicted


def test_limbs_without_a_usable_decimal_form():
    # a decimal matrix is one limb over 10^d M^2; THIRD (no decimal form)
    # and BIG (decimal, but past 2^53) are two, whose block sums stay
    # below 2^53 and whose coefficients are within 2^(2b + q - 103) of
    # what the limbs hold, where 255 M^2 < 2^b and the row's norm < 2^q:
    # README "Tolerances" derives the closed-form bound from that
    for factor in (1, 2):
        for name, d in (("yiq", 3), ("lmn", 2), ("identity", 0)):
            matrix = builtin_matrix(name)
            plan = plan_pipeline(16, 12, matrix, ALL, DownsampleSpec(factor))
            numerators, dtypes, shifts, divisor, exponent = pipeline._arithmetic(plan)
            assert numerators == matrix.decimal_form[0] and dtypes == (F32, F32)
            assert (shifts, divisor, exponent) == ((), 10.0**d * factor**2, ())
    for factor in (1, 2, 3, 8, 20, 257):
        b = (255 * factor**2).bit_length()
        for matrix in (THIRD, BIG):
            plan = plan_pipeline(16, 12, matrix, ALL, DownsampleSpec(factor))
            numerators, dtypes, shifts, divisor, exponent = pipeline._arithmetic(plan)
            assert (len(numerators), len(shifts), len(exponent)) == (6, 1, 1)
            assert dtypes == (F64, F64) and divisor == factor**2
            peak = max(sum(abs(int(n)) for n in row) for row in numerators)
            assert 255 * factor**2 * peak < 2**53
            stored = [[Fraction(c) for c in row] for row in matrix.coefficients.tolist()]
            for row, hat in zip(stored, _represented(plan)):
                q = next(q for q in range(-1100, 1100) if sum(map(abs, row)) < Fraction(2) ** q)
                for c, h in zip(row, hat):
                    assert abs(c - h) <= Fraction(2) ** (2 * b + q - 103)
            if factor <= 20:
                # the two limbs together hold every stored coefficient exactly
                assert _represented(plan) == stored, (matrix.name, factor)


def test_impossible_tolerance_passes_without_a_decimal_form():
    # every matrix runs on integers, so both orderings agree bit for bit
    # even without a decimal form; BIG's overflow (NaN) is the failing case
    img = synth_image(384, 384, 1)
    for matrix in (THIRD, builtin_matrix("yiq")):
        report = verify_equivalence(img, matrix, tolerance=5e-324)
        assert report.passed and report.max_abs_diff == 0.0
