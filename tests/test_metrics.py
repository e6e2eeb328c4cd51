import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from iqprep.colorspace import ChannelSet, builtin_matrix
from iqprep.downsample import DownsampleSpec, compute_factor
from iqprep.image import RgbImage8, synth_image
from iqprep.metrics import (
    _TILE_SAMPLES,
    _buffers,
    _chroma_power,
    _squared_prewitt,
    chroma_similarity,
    gradient_similarity,
    score,
)
from iqprep.pipeline import Strategy, preprocess

ALL = ChannelSet.all_channels()


def brute_force_prewitt_magnitude(plane):
    """Scalar re-implementation: replicate-pad, correlate both 1/3 masks."""
    masks = [
        [[1 / 3, 0.0, -1 / 3]] * 3,
        [[1 / 3] * 3, [0.0] * 3, [-1 / 3] * 3],
    ]
    h, w = plane.shape
    padded = np.pad(plane, 1, mode="edge")
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            responses = []
            for mask in masks:
                acc = 0.0
                for di in range(3):
                    for dj in range(3):
                        acc += mask[di][dj] * padded[i + di, j + dj]
                responses.append(acc)
            out[i, j] = math.hypot(*responses)
    return out


def squared_prewitt(plane):
    """The squared Prewitt magnitude of a whole plane, in buffers of its size."""
    h, w = plane.shape
    out = np.empty((h, w))
    _squared_prewitt(plane, 0, h, out, _buffers(h, w))
    return out


def _preprocessed_pair(seed, height=24, width=20, factor=2, channels=ALL, strategy=Strategy.CONVERT_FIRST):
    matrix = builtin_matrix("yiq")
    ref = synth_image(height, width, seed)
    dst = synth_image(height, width, seed + 1000)
    spec = DownsampleSpec(factor)
    return (
        preprocess(ref, matrix, channels, strategy, spec),
        preprocess(dst, matrix, channels, strategy, spec),
    )


def test_identical_planes_give_all_ones():
    rng = np.random.default_rng(0)
    plane = rng.uniform(0.0, 255.0, (6, 6))
    assert np.all(gradient_similarity(plane, plane) == 1.0)


def test_two_flat_planes_give_all_ones():
    ref = np.full((5, 5), 10.0)
    dst = np.full((5, 5), 200.0)
    np.testing.assert_array_equal(gradient_similarity(ref, dst), 1.0)


def test_prewitt_magnitude_against_brute_force():
    plane = np.arange(1.0, 10.0).reshape(3, 3)
    magnitude = np.sqrt(squared_prewitt(plane))
    np.testing.assert_allclose(magnitude, brute_force_prewitt_magnitude(plane), atol=1e-12, rtol=0)
    assert abs(magnitude[1, 1] - math.sqrt(40.0)) <= 1e-12


def _random_planes(h, w, seed):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 255.0, (h, w)), rng.uniform(0.0, 255.0, (h, w))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=3, max_value=24),
    st.integers(min_value=3, max_value=24),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_prewitt_and_gradient_similarity_against_brute_force(h, w, seed):
    ref, dst = _random_planes(h, w, seed)
    g_ref = brute_force_prewitt_magnitude(ref)
    g_dst = brute_force_prewitt_magnitude(dst)
    np.testing.assert_allclose(np.sqrt(squared_prewitt(ref)), g_ref, atol=1e-12, rtol=1e-12)
    c = 160.0
    expected = (2.0 * g_ref * g_dst + c) / (g_ref**2 + g_dst**2 + c)
    np.testing.assert_allclose(gradient_similarity(ref, dst), expected, atol=1e-12, rtol=0)


def test_gradient_similarity_peak_memory_at_270x480():
    # The reduced luma of a 4K or 1080p pair is this size; scoring it
    # should hold no more than four plane-sized float64 arrays at once.
    ref, dst = _random_planes(270, 480, 13)
    tracemalloc.start()
    try:
        gradient_similarity(ref, dst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * ref.nbytes


def test_gradient_similarity_3x3_hand_check():
    ref = np.arange(1.0, 10.0).reshape(3, 3)
    dst = ref[::-1].copy()  # vertically flipped ramp
    g_ref = brute_force_prewitt_magnitude(ref)
    g_dst = brute_force_prewitt_magnitude(dst)
    c = 160.0
    expected = (2.0 * g_ref * g_dst + c) / (g_ref**2 + g_dst**2 + c)
    np.testing.assert_allclose(gradient_similarity(ref, dst), expected, atol=1e-12, rtol=0)


def test_chroma_identity_is_one():
    rng = np.random.default_rng(1)
    plane = rng.uniform(-120.0, 120.0, (4, 4))
    assert np.all(chroma_similarity(plane, plane) == 1.0)


def test_chroma_against_zero_plane_closed_form():
    rng = np.random.default_rng(2)
    x = rng.uniform(-120.0, 120.0, (4, 4))
    t = 200.0
    np.testing.assert_allclose(
        chroma_similarity(x, np.zeros_like(x)), t / (x**2 + t), atol=1e-12, rtol=0
    )


def test_chroma_random_pair_pointwise_oracle():
    rng = np.random.default_rng(3)
    ref = rng.uniform(-100.0, 100.0, (4, 4))
    dst = rng.uniform(-100.0, 100.0, (4, 4))
    t = 200.0
    got = chroma_similarity(ref, dst)
    for i in range(4):
        for j in range(4):
            r, d = ref[i, j], dst[i, j]
            assert abs(got[i, j] - (2.0 * r * d + t) / (r * r + d * d + t)) <= 1e-12


def test_maps_are_bounded():
    rng = np.random.default_rng(4)
    ref = rng.uniform(-200.0, 200.0, (8, 8))
    dst = rng.uniform(-200.0, 200.0, (8, 8))
    grad = gradient_similarity(np.abs(ref), np.abs(dst))
    chroma = chroma_similarity(ref, dst)
    assert np.all((grad > 0.0) & (grad <= 1.0))
    assert np.all((chroma >= -1.0) & (chroma <= 1.0))
    assert np.all(np.isfinite(chroma))


def test_score_identical_inputs_is_exactly_one():
    ref, _ = _preprocessed_pair(seed=5)
    result = score(ref, ref)
    assert result.value == 1.0
    assert result.gradient == 1.0
    assert result.chroma1 == 1.0 and result.chroma2 == 1.0


def test_score_strategy_invariance_seed3():
    matrix = builtin_matrix("yiq")
    ref = synth_image(96, 128, 3)
    dst = synth_image(96, 128, 4)
    spec = compute_factor(96, 128)
    scores = {}
    for strategy in (Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST):
        pre_ref = preprocess(ref, matrix, ALL, strategy, DownsampleSpec(2))
        pre_dst = preprocess(dst, matrix, ALL, strategy, DownsampleSpec(2))
        scores[strategy] = score(pre_ref, pre_dst).value
    assert spec.factor == 1  # 96x128 itself is below the size rule threshold
    assert scores[Strategy.CONVERT_FIRST] - scores[Strategy.DOWNSAMPLE_FIRST] == 0.0


def test_score_is_symmetric():
    ref, dst = _preprocessed_pair(seed=8)
    assert abs(score(ref, dst).value - score(dst, ref).value) <= 1e-12


def test_luma_only_scoring():
    ref, dst = _preprocessed_pair(seed=9, channels=ChannelSet.luma_only())
    result = score(ref, dst)
    assert result.chroma1 is None and result.chroma2 is None
    assert -1.0 <= result.value <= 1.0
    assert result.value == result.gradient


def test_negative_chroma_product_uses_real_power():
    ref, dst = _preprocessed_pair(seed=10)
    # force sign disagreement strong enough to beat the stability constant
    object.__setattr__(ref, "chroma1", np.full_like(ref.chroma1, 80.0))
    object.__setattr__(dst, "chroma1", np.full_like(dst.chroma1, -80.0))
    object.__setattr__(ref, "chroma2", ref.chroma1)
    object.__setattr__(dst, "chroma2", dst.chroma1 * 0.0 + 80.0)
    weight = 0.5
    result = score(ref, dst)
    assert math.isfinite(result.value)
    t = 200.0
    c1 = (2.0 * 80.0 * -80.0 + t) / (80.0**2 + 80.0**2 + t)
    c2 = 1.0
    assert c1 < 0
    expected_weighting = abs(c1 * c2) ** weight * math.cos(math.pi * weight)
    gradient_mean = result.gradient
    # gradient map and weighting factor are independent here (constant chroma)
    assert abs(result.value - gradient_mean * expected_weighting) <= 1e-9


def _complex_chroma_power(x, weight):
    return np.power(x.astype(np.complex128), weight).real


_SPECIAL_BASES = np.array([-2.0, -0.0, 0.0, 3.0, 1e-300, -1e-300, 5e-324, -5e-324, -1.0, 1.0])


@pytest.mark.parametrize("weight", [0.0, 0.5, 1.0])
def test_chroma_power_special_bases(weight):
    got = _chroma_power(_SPECIAL_BASES, weight)
    np.testing.assert_allclose(got, _complex_chroma_power(_SPECIAL_BASES, weight), rtol=1e-13, atol=0)
    if weight == 0.0:
        assert np.all(got == 1.0)


# Below about 1e-100 the complex form, exp(w*log(z)), loses roughly
# |w*ln|x||*eps of relative accuracy itself, so random bases stay above it;
# test_chroma_power_of_tiny_bases_matches_a_decimal_evaluation covers those.
_bases = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=-1e3, max_value=-1e-3),
    st.floats(min_value=1e-100, max_value=1e-3),
    st.floats(min_value=-1e-3, max_value=-1e-100),
    st.sampled_from([0.0, -0.0]),
)


@settings(max_examples=100, deadline=None)
@given(
    hnp.arrays(np.float64, st.integers(min_value=1, max_value=16), elements=_bases),
    st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
)
def test_chroma_power_matches_complex_principal_power(bases, weight):
    got = _chroma_power(bases, weight)
    np.testing.assert_allclose(got, _complex_chroma_power(bases, weight), rtol=1e-13, atol=0)
    if weight == 0.0:
        assert np.all(got == 1.0)


_PI = Decimal("3.14159265358979323846264338327950288419716939937510582097494459")


def _decimal_chroma_power(base, weight):
    """Real part of the principal power base^weight, evaluated to 60 digits."""
    with localcontext() as context:
        context.prec = 60
        x, w = Decimal(base), Decimal(weight)
        power = (w * abs(x).ln()).exp()
        if x < 0:  # times cos(pi*w), by its Taylor series
            y, term, cos = _PI * w, Decimal(1), Decimal(0)
            for n in range(1, 60):
                cos += term
                term *= -y * y / ((2 * n - 1) * 2 * n)
            power *= cos
        return float(power)


@pytest.mark.parametrize("weight", [0.873, 0.9516])
def test_chroma_power_of_tiny_bases_matches_a_decimal_evaluation(weight):
    # the bases the drawn ones leave out; the complex form errs by up to
    # 5.6e-14 here, so a 60-digit evaluation is the reference
    tiny = [5e-324, 2.2250738585e-311, 1e-300, 1e-200]
    bases = np.array([*tiny, *(-b for b in tiny)])
    want = [_decimal_chroma_power(b, weight) for b in bases]
    np.testing.assert_allclose(_chroma_power(bases, weight), want, rtol=1e-13, atol=0)


@settings(max_examples=100, deadline=None)
@given(
    hnp.arrays(np.float64, st.integers(min_value=1, max_value=16), elements=st.floats()),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_chroma_power_gathers_the_sign_factor_bit_for_bit(bases, weight):
    # multiplying every sample by 1.0 or cos(pi*w), gathered by its sign,
    # gives the bits of multiplying the negative ones alone, NaN and inf
    # included, with or without a scratch array, and leaves the bases alone
    before = bases.copy()
    power = np.abs(bases) ** weight
    want = np.where(bases < 0, power * np.cos(np.pi * weight), power)
    for scratch in (None, np.full(bases.shape, np.nan)):
        got = _chroma_power(bases, weight, scratch)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))
    assert before.tobytes() == bases.tobytes()


@pytest.mark.parametrize(
    "size, name, channels, expected",
    [
        # values computed with the scipy.ndimage Prewitt and complex128
        # chroma power that the metric layer used before
        ((384, 512), "lmn", ALL, (0.2685579405606601, 0.814169628499025)),
        ((1080, 1920), "yiq", ChannelSet.luma_only(), (0.861355233329834, 0.861355233329834)),
    ],
)
def test_frozen_scores(size, name, channels, expected):
    matrix = builtin_matrix(name)
    ref, dst = (preprocess(synth_image(*size, seed), matrix, channels) for seed in (1, 2))
    result = score(ref, dst)
    assert abs(result.value - expected[0]) <= 1e-12
    assert abs(result.gradient - expected[1]) <= 1e-12


def test_score_requires_matching_channel_sets():
    ref, _ = _preprocessed_pair(seed=11)
    luma_ref, _ = _preprocessed_pair(seed=11, channels=ChannelSet.luma_only())
    with pytest.raises(ValueError, match="channel sets differ"):
        score(ref, luma_ref)


def test_score_requires_luma():
    chroma_only = ChannelSet(False, True, True)
    ref, dst = _preprocessed_pair(seed=12, channels=chroma_only)
    with pytest.raises(ValueError, match="luminance"):
        score(ref, dst)


def test_small_planes_rejected():
    tiny = np.ones((2, 2))
    with pytest.raises(ValueError, match="3x3"):
        gradient_similarity(tiny, tiny)


def test_score_rejects_results_of_different_sizes():
    # score works in row tiles; a taller dst must not be cut to ref's rows
    matrix = builtin_matrix("yiq")
    ref, dst = (preprocess(synth_image(h, 64, 1), matrix, ALL) for h in (64, 72))
    with pytest.raises(ValueError, match="plane dimensions differ"):
        score(ref, dst)


def _whole_map_score(ref, dst):
    """score() spelled out on whole-plane maps, pooled with np.mean.

    The maps take their default constants, so score() must use the same ones.
    """
    gradient_map = gradient_similarity(ref.luma, dst.luma)
    if ref.chroma1 is None:
        return (gradient_map.mean(), gradient_map.mean(), None, None)
    c1 = chroma_similarity(ref.chroma1, dst.chroma1)
    c2 = chroma_similarity(ref.chroma2, dst.chroma2)
    composite = gradient_map * _chroma_power(c1 * c2, 0.5)
    return (composite.mean(), gradient_map.mean(), c1.mean(), c2.mean())


@pytest.mark.parametrize("width", [64, 2 * _TILE_SAMPLES + 5])  # the second: one-row tiles
@pytest.mark.parametrize("channels", [ALL, ChannelSet.luma_only()])
def test_tiled_score_equals_whole_map_mean(width, channels):
    rows = max(1, _TILE_SAMPLES // width)
    heights = {3, 4, rows - 1, rows, rows + 1, 2 * rows + 1}
    matrix = builtin_matrix("yiq")
    for height in sorted(h for h in heights if h >= 3):
        ref, dst = (
            preprocess(synth_image(height, width, seed), matrix, channels, spec=DownsampleSpec(1))
            for seed in (height, height + 1)
        )
        result = score(ref, dst)
        got = (result.value, result.gradient, result.chroma1, result.chroma2)
        for g, want in zip(got, _whole_map_score(ref, dst)):
            assert (g is None) == (want is None)
            if g is not None:
                assert abs(g - want) <= 1e-13, (height, width)


def _literal_squared_prewitt(plane):
    """The squared Prewitt magnitude of a plane in one expression, on a copy padded by np.pad."""
    padded = np.pad(plane, 1, mode="edge")
    rows = padded[:-2] + padded[1:-1] + padded[2:]
    cols = padded[:, :-2] + padded[:, 1:-1] + padded[:, 2:]
    horizontal, vertical = rows[:, :-2] - rows[:, 2:], cols[:-2] - cols[2:]
    return (horizontal * horizontal + vertical * vertical) / 9.0


def _literal_maps(ref, dst):
    """The gradient and chroma maps of two results, each spelled out in one expression.

    Nothing here calls the library's map kernels, so the maps it returns
    are a reference for them and for score().
    """
    g_r, g_d = (_literal_squared_prewitt(plane) for plane in (ref.luma, dst.luma))
    gradient_map = (2.0 * np.sqrt(g_r * g_d) + 160.0) / (g_r + g_d + 160.0)
    t = 200.0
    chroma_maps = [
        (2.0 * r * d + t) / (r**2 + d**2 + t)
        for r, d in zip(ref.planes[1:], dst.planes[1:])
        if r is not None
    ]
    return gradient_map, chroma_maps


def _literal_shapes():
    shapes = {(3, 3), (4, 5), (192, 256), (270, 480)}
    for width in (64, _TILE_SAMPLES + 5):
        rows = max(1, _TILE_SAMPLES // width)
        heights = {3, 4, rows - 1, rows, rows + 1, 2 * rows + 1}
        shapes |= {(h, width) for h in heights if h >= 3}
    return sorted(shapes)


@pytest.mark.parametrize("channels", [ALL, ChannelSet.luma_only()], ids=["all", "luma"])
@pytest.mark.parametrize("shape", _literal_shapes(), ids=lambda s: f"{s[0]}x{s[1]}")
def test_maps_and_score_equal_their_literal_expressions(shape, channels):
    # every map sample has the bits of the literal expression, and score()
    # pools the literal composite up to the order of its sums
    matrix = builtin_matrix("yiq")
    ref, dst = (
        preprocess(synth_image(*shape, seed), matrix, channels, spec=DownsampleSpec(1))
        for seed in (shape[0], shape[1] + 7)
    )
    gradient_map, chroma_maps = _literal_maps(ref, dst)
    assert np.array_equal(gradient_similarity(ref.luma, dst.luma), gradient_map)
    chroma_pairs = [(r, d) for r, d in zip(ref.planes[1:], dst.planes[1:]) if r is not None]
    for (r, d), chroma_map in zip(chroma_pairs, chroma_maps, strict=True):
        assert np.array_equal(chroma_similarity(r, d), chroma_map)
    composite = gradient_map
    if chroma_maps:
        product = chroma_maps[0] * chroma_maps[1]
        power = np.abs(product) ** 0.5 * np.where(product < 0, np.cos(np.pi * 0.5), 1.0)
        composite = gradient_map * power
    result = score(ref, dst)
    got = [result.value, result.gradient] + [c for c in (result.chroma1, result.chroma2) if c is not None]
    want = [composite.mean(), gradient_map.mean()] + [c.mean() for c in chroma_maps]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-13, shape


def _with_warnings(function, *args):
    """``function(*args)`` and the set of RuntimeWarning messages it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = function(*args)
    assert all(w.category is RuntimeWarning for w in caught)
    return result, {str(w.message) for w in caught}


def _row_ends_plane(left, right):
    """A 6x8 plane near the overflow scale: column 1 holds ``left``, column 7 ``right``, the rest 0."""
    plane = np.zeros((6, 8))
    plane[:, 1], plane[:, -1] = left, right
    return plane


@pytest.mark.parametrize(
    "plane",
    [
        # 3-row sums of 1.5e308 of opposite signs: one row's last minus the
        # next row's second overflows, which no sample of the map subtracts
        _row_ends_plane(-5e307, 5e307),
        # 3-row sums that overflow to inf of the same sign: that difference
        # is inf - inf, invalid, where each the map takes is between inf and 0
        _row_ends_plane(7e307, 7e307),
    ],
    ids=["opposite", "same"],
)
def test_row_end_samples_raise_only_the_literal_warnings(plane):
    # the flat passes also compute a sample that wraps from each row's end
    # into the next row; it must raise nothing the 2-D reference does not
    want, want_warnings = _with_warnings(_literal_squared_prewitt, plane)
    got, got_warnings = _with_warnings(squared_prewitt, plane)
    assert np.array_equal(got, want, equal_nan=True)
    assert got_warnings == want_warnings
    # and so does the gradient map of the plane against itself
    map_want, map_warnings = _with_warnings(
        lambda: (2.0 * np.sqrt(want * want) + 160.0) / (want + want + 160.0)
    )
    got, got_warnings = _with_warnings(gradient_similarity, plane, plane)
    assert np.array_equal(got, map_want, equal_nan=True)
    assert got_warnings == want_warnings | map_warnings


def test_score_peak_memory_at_270x480():
    # score works in four buffers of one row tile each, all read and
    # written as contiguous rows; on the reduced planes of a 4K or 1080p
    # pair they are 0.511 of a plane, and a call peaked at 0.523 of one
    # with chroma and 0.516 without. The bound leaves 0.027 of a plane
    # (28 KB) of slack, less than one iterator buffer of a strided op.
    matrix = builtin_matrix("yiq")
    for channels in (ALL, ChannelSet.luma_only()):
        ref, dst = (
            preprocess(synth_image(270, 480, seed), matrix, channels, spec=DownsampleSpec(1))
            for seed in (1, 2)
        )
        tracemalloc.start()
        try:
            score(ref, dst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.55 * ref.luma.nbytes, channels


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="differ"):
        chroma_similarity(np.ones((3, 3)), np.ones((3, 4)))


def _chroma_zero_image(height, width, target, seed):
    """Each pixel a random 8-bit triple with 596R - 274G - 322B == target.

    YIQ's chroma1 is then exactly target / 1000 everywhere. For a pair at
    +10000 and -10000 the chroma1 map's numerator 2*I_ref*I_dst + 200 is
    exactly 0, so the score sits where the (c1*c2)^0.5 term turns any
    rounding difference between the planes into a visible one.
    """
    r, g = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
    rest = 596 * r - 274 * g - target  # must equal 322 * B
    ok = (rest % 322 == 0) & (rest >= 0) & (rest <= 322 * 255)
    triples = np.stack([r[ok], g[ok], rest[ok] // 322], axis=1).astype(np.uint8)
    assert len(triples) == 214
    pixels = triples[np.random.default_rng(seed).integers(0, len(triples), (height, width))]
    return RgbImage8(height, width, *(np.ascontiguousarray(pixels[..., k]) for k in range(3)))


@pytest.mark.parametrize("height, width, factor", [(256, 256, 4), (384, 512, 2), (1080, 1920, 4)])
def test_orderings_score_identically_at_the_chroma_zero(height, width, factor):
    matrix = builtin_matrix("yiq")
    ref = _chroma_zero_image(height, width, 10000, seed=1)
    dst = _chroma_zero_image(height, width, -10000, seed=2)
    spec = DownsampleSpec(factor)
    scores = []
    for strategy in (Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST):
        pair = (preprocess(img, matrix, ALL, strategy, spec) for img in (ref, dst))
        scores.append(score(*pair))
    assert scores[0] == scores[1]
