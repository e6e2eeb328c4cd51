import math
import tracemalloc

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
    assert np.all(gradient_similarity(plane, plane, 160.0) == 1.0)


def test_two_flat_planes_give_all_ones():
    ref = np.full((5, 5), 10.0)
    dst = np.full((5, 5), 200.0)
    np.testing.assert_array_equal(gradient_similarity(ref, dst, 160.0), 1.0)


def test_prewitt_magnitude_against_brute_force():
    plane = np.arange(1.0, 10.0).reshape(3, 3)
    magnitude = np.sqrt(_squared_prewitt(plane))
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
    np.testing.assert_allclose(np.sqrt(_squared_prewitt(ref)), g_ref, atol=1e-12, rtol=1e-12)
    c = 160.0
    expected = (2.0 * g_ref * g_dst + c) / (g_ref**2 + g_dst**2 + c)
    np.testing.assert_allclose(gradient_similarity(ref, dst, c), expected, atol=1e-12, rtol=0)


def test_gradient_similarity_peak_memory_at_270x480():
    # The reduced luma of a 4K or 1080p pair is this size; scoring it
    # should hold no more than four plane-sized float64 arrays at once.
    ref, dst = _random_planes(270, 480, 13)
    tracemalloc.start()
    try:
        gradient_similarity(ref, dst, 160.0)
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
    np.testing.assert_allclose(gradient_similarity(ref, dst, c), expected, atol=1e-12, rtol=0)


def test_chroma_identity_is_one():
    rng = np.random.default_rng(1)
    plane = rng.uniform(-120.0, 120.0, (4, 4))
    assert np.all(chroma_similarity(plane, plane, 200.0) == 1.0)


def test_chroma_against_zero_plane_closed_form():
    rng = np.random.default_rng(2)
    x = rng.uniform(-120.0, 120.0, (4, 4))
    t = 200.0
    np.testing.assert_allclose(
        chroma_similarity(x, np.zeros_like(x), t), t / (x**2 + t), atol=1e-12, rtol=0
    )


def test_chroma_random_pair_pointwise_oracle():
    rng = np.random.default_rng(3)
    ref = rng.uniform(-100.0, 100.0, (4, 4))
    dst = rng.uniform(-100.0, 100.0, (4, 4))
    t = 200.0
    got = chroma_similarity(ref, dst, t)
    for i in range(4):
        for j in range(4):
            r, d = ref[i, j], dst[i, j]
            assert abs(got[i, j] - (2.0 * r * d + t) / (r * r + d * d + t)) <= 1e-12


def test_maps_are_bounded():
    rng = np.random.default_rng(4)
    ref = rng.uniform(-200.0, 200.0, (8, 8))
    dst = rng.uniform(-200.0, 200.0, (8, 8))
    grad = gradient_similarity(np.abs(ref), np.abs(dst), 160.0)
    chroma = chroma_similarity(ref, dst, 200.0)
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
    assert abs(scores[Strategy.CONVERT_FIRST] - scores[Strategy.DOWNSAMPLE_FIRST]) <= 1e-9


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
# |w*ln|x||*eps of relative accuracy itself, so random bases stay above it.
_bases = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3),
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
        gradient_similarity(tiny, tiny, 160.0)


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


@pytest.mark.parametrize("width", [64, _TILE_SAMPLES + 5])  # the second: two-row tiles
@pytest.mark.parametrize("channels", [ALL, ChannelSet.luma_only()])
def test_tiled_score_equals_whole_map_mean(width, channels):
    rows = max(2, _TILE_SAMPLES // width)
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


def test_score_peak_memory_at_270x480():
    # score pools row tiles; it should hold fewer than two plane-sized
    # maps at once on the reduced planes of a 4K or 1080p pair
    matrix = builtin_matrix("yiq")
    ref, dst = (
        preprocess(synth_image(270, 480, seed), matrix, ALL, spec=DownsampleSpec(1))
        for seed in (1, 2)
    )
    tracemalloc.start()
    try:
        score(ref, dst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * ref.luma.nbytes


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError, match="differ"):
        chroma_similarity(np.ones((3, 3)), np.ones((3, 4)), 200.0)


def test_config_validation():
    plane = np.arange(16.0).reshape(4, 4)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive"):
            gradient_similarity(plane, plane, bad)
        with pytest.raises(ValueError, match="positive"):
            chroma_similarity(plane, plane, bad)


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
