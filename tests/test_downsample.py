import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqprep.downsample import (
    DownsampleSpec,
    block_mean_decimate,
    compute_factor,
    separate_filter_then_decimate,
)


def brute_force_block_means(plane, factor):
    """Independent oracle: per-output-cell scalar block sums, no numpy tricks."""
    h, w = plane.shape
    out_h, out_w = h // factor, w // factor
    out = np.empty((out_h, out_w))
    for i in range(out_h):
        for j in range(out_w):
            total = 0.0
            for k in range(factor):
                for l in range(factor):
                    total += plane[i * factor + k, j * factor + l]
            out[i, j] = total / (factor * factor)
    return out


def rows_first_block_means(plane, factor):
    """Scalar form of the production order: each column of a block summed
    over its rows, then the column sums, then one multiply by 1/M^2."""
    h, w = plane.shape
    out = np.empty((h // factor, w // factor))
    for i in range(h // factor):
        for j in range(w // factor):
            total = 0.0
            for l in range(factor):
                column = 0.0
                for k in range(factor):
                    column += plane[i * factor + k, j * factor + l]
                total += column
            out[i, j] = total * (1.0 / (factor * factor))
    return out


def test_2x2_block_mean():
    plane = np.array([[1.0, 2.0], [3.0, 4.0]])
    for reduce in (block_mean_decimate, separate_filter_then_decimate):
        out = reduce(plane, DownsampleSpec(2))
        assert out.shape == (1, 1)
        assert out[0, 0] == 2.5


def test_factor_one_is_passthrough_with_zero_ops():
    plane = np.arange(12, dtype=float).reshape(3, 4)
    out = block_mean_decimate(plane, DownsampleSpec(1))
    assert np.array_equal(out, plane)


def test_5x5_truncates_partial_blocks():
    plane = np.arange(25, dtype=float).reshape(5, 5)
    out = block_mean_decimate(plane, DownsampleSpec(2))
    assert out.shape == (2, 2)
    np.testing.assert_array_equal(out, brute_force_block_means(plane, 2))
    # the 5th row/column must not leak into any output cell
    tweaked = plane.copy()
    tweaked[4, :] = 1e9
    tweaked[:, 4] = -1e9
    np.testing.assert_array_equal(out, block_mean_decimate(tweaked, DownsampleSpec(2)))


def test_fused_matches_literal_path_exactly_seed42():
    rng = np.random.default_rng(42)
    plane = rng.uniform(0.0, 255.0, (16, 16))
    fused = block_mean_decimate(plane, DownsampleSpec(4))
    literal = separate_filter_then_decimate(plane, DownsampleSpec(4))
    assert fused.shape == literal.shape == (4, 4)
    assert np.array_equal(fused, literal)  # matched summation order: 0 ulp


def test_literal_path_factor_one_identity():
    plane = np.arange(6, dtype=float).reshape(2, 3)
    assert np.array_equal(separate_filter_then_decimate(plane, DownsampleSpec(1)), plane)


def test_plane_must_be_2d():
    for reduce in (block_mean_decimate, separate_filter_then_decimate):
        for factor in (1, 2):
            with pytest.raises(ValueError, match=r"expected a 2-D plane, got shape \(4, 4, 3\)"):
                reduce(np.zeros((4, 4, 3), np.uint8), DownsampleSpec(factor))


@pytest.mark.parametrize("shape", [(1, 8), (8, 1), (1, 1)])
def test_plane_smaller_than_filter_raises(shape):
    # both reducers reject a float or a uint8 plane with the same message
    messages = set()
    for reduce in (block_mean_decimate, separate_filter_then_decimate):
        for dtype in (np.float64, np.uint8):
            with pytest.raises(ValueError, match="smaller") as error:
                reduce(np.zeros(shape, dtype), DownsampleSpec(2))
            messages.add(str(error.value))
    assert len(messages) == 1


@pytest.mark.parametrize(
    "height, width, factor",
    [
        (256, 256, 1),
        (384, 512, 2),
        (1080, 1920, 4),
        (2160, 3840, 8),
        (100, 100, 1),  # 0.39 rounds to 0, clamped to 1
        (640, 640, 3),  # 2.5 rounds half away from zero, not to even
        (128, 4096, 1),  # min() drives the rule
    ],
)
def test_compute_factor(height, width, factor):
    assert compute_factor(height, width).factor == factor


def test_spec_validation():
    with pytest.raises(ValueError, match=">= 1"):
        DownsampleSpec(0)


@pytest.mark.parametrize("factor", [2.0, 2.5, True, np.bool_(True), "2"])
def test_spec_rejects_non_integer_factor(factor):
    with pytest.raises(TypeError, match="must be an integer"):
        DownsampleSpec(factor)


def test_spec_normalises_numpy_integer_factor():
    spec = DownsampleSpec(np.int64(2))
    assert spec == DownsampleSpec(2)
    assert type(spec.factor) is int


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    factor=st.sampled_from([1, 2, 3, 4, 8]),
    out_h=st.integers(min_value=1, max_value=6),
    out_w=st.integers(min_value=1, max_value=6),
    extra_h=st.integers(min_value=0, max_value=7),
    extra_w=st.integers(min_value=0, max_value=7),
)
def test_fused_equals_oracle_on_ragged_planes(seed, factor, out_h, out_w, extra_h, extra_w):
    rng = np.random.default_rng(seed)
    plane = rng.uniform(-100.0, 355.0, (out_h * factor + extra_h, out_w * factor + extra_w))
    fused = block_mean_decimate(plane, DownsampleSpec(factor))
    literal = separate_filter_then_decimate(plane, DownsampleSpec(factor))
    np.testing.assert_array_equal(fused, literal)
    if factor > 1:
        # the scalar oracle sums row-major and divides instead of
        # multiplying by the reciprocal, so it can differ in the last ulps
        np.testing.assert_allclose(
            fused, brute_force_block_means(plane, factor), atol=1e-10, rtol=0
        )


@pytest.mark.parametrize("factor", [2, 3, 4, 8])
def test_float_blocks_sum_rows_first(factor):
    # blocks are summed rows first, then columns, so the result is
    # pinned bit for bit, not within a tolerance
    rng = np.random.default_rng(factor)
    plane = rng.uniform(-100.0, 355.0, (6 * factor - 1, 8 * factor - 1))
    fused = block_mean_decimate(plane, DownsampleSpec(factor))
    assert fused.shape == (5, 7)
    np.testing.assert_array_equal(fused, rows_first_block_means(plane, factor))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), factor=st.sampled_from([1, 2, 4]))
def test_mean_preserved_on_divisible_dims(seed, factor):
    rng = np.random.default_rng(seed)
    plane = rng.uniform(0.0, 255.0, (4 * factor, 3 * factor))
    out = block_mean_decimate(plane, DownsampleSpec(factor))
    assert abs(out.mean() - plane.mean()) <= 1e-9


@pytest.mark.parametrize("factor", [1, 2, 3, 8])
def test_constant_plane_stays_constant(factor):
    plane = np.full((16, 24), 42.25)
    out = block_mean_decimate(plane, DownsampleSpec(factor))
    assert np.all(out == 42.25)


def test_output_range_within_input_range():
    rng = np.random.default_rng(11)
    plane = rng.uniform(-50.0, 300.0, (17, 23))
    out = block_mean_decimate(plane, DownsampleSpec(4))
    assert out.min() >= plane.min() and out.max() <= plane.max()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    alpha=st.floats(-3, 3),
    beta=st.floats(-3, 3),
    factor=st.sampled_from([2, 3, 4]),
)
def test_downsampling_is_linear(seed, alpha, beta, factor):
    # the keystone of the reordering argument: reduction commutes with
    # pointwise linear combinations
    rng = np.random.default_rng(seed)
    a = rng.uniform(0.0, 255.0, (13, 11))
    b = rng.uniform(0.0, 255.0, (13, 11))
    spec = DownsampleSpec(factor)
    combined = block_mean_decimate(alpha * a + beta * b, spec)
    separate = alpha * block_mean_decimate(a, spec) + beta * block_mean_decimate(b, spec)
    np.testing.assert_allclose(combined, separate, atol=1e-9, rtol=0)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    height=st.integers(min_value=1, max_value=80),
    width=st.integers(min_value=1, max_value=80),
    factor=st.integers(min_value=1, max_value=20),
)
def test_uint8_plane_equals_its_float64_cast(seed, height, width, factor):
    # block_mean_decimate casts a uint8 plane to float64 before it sums, so
    # the plane gives the bits of its float64 cast, not just close ones
    plane = np.random.default_rng(seed).integers(0, 256, (height, width), dtype=np.uint8)
    spec = DownsampleSpec(factor)
    if height < factor or width < factor:
        with pytest.raises(ValueError, match="smaller"):
            block_mean_decimate(plane, spec)
        return
    from_uint8 = block_mean_decimate(plane, spec)
    from_float = block_mean_decimate(plane.astype(np.float64), spec)
    assert from_uint8.dtype == np.float64
    assert np.array_equal(from_uint8, from_float)


@pytest.mark.parametrize("factor", [16, 17, 64])
def test_all_255_uint8_blocks_average_to_255(factor):
    # 16^2 * 255 is the largest block sum a uint16 would hold; the float64
    # cast that block_mean_decimate sums holds every block sum exactly
    plane = np.full((2 * factor + 1, 3 * factor), 255, dtype=np.uint8)
    out = block_mean_decimate(plane, DownsampleSpec(factor))
    assert out.shape == (2, 3)
    assert np.all(out == 255.0)
