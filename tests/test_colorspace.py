import itertools
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iqprep
from iqprep.colorspace import (
    IDENTITY_MATRIX,
    ChannelSet,
    ColorMatrix,
    builtin_matrices,
    builtin_matrix,
    transform,
)
from iqprep.image import synth_image


def _float_planes(img):
    """The three 8-bit channels cast to float64, values unchanged."""
    return tuple(c.astype(np.float64) for c in img.channels)


def _planes(rng, height, width):
    return tuple(rng.uniform(0.0, 255.0, (height, width)) for _ in range(3))


def test_identity_matrix_acts_as_identity():
    rng = np.random.default_rng(1)
    r, g, b = _planes(rng, 4, 5)
    luma, c1, c2 = transform(r, g, b, IDENTITY_MATRIX)
    assert np.array_equal(luma, r)
    assert np.array_equal(c1, g)
    assert np.array_equal(c2, b)


def test_unit_pixel_gives_row_sums():
    ones = np.ones((1, 1))
    for matrix in builtin_matrices():
        out = transform(ones, ones, ones, matrix)
        for row, plane in enumerate(out):
            c = matrix.coefficients[row]
            # same left-to-right association as the transform itself
            assert plane[0, 0] == (c[0] * 1.0 + c[1] * 1.0) + c[2] * 1.0


def test_red_pixel_against_scalar_dot_product():
    red = np.full((1, 1), 255.0)
    zero = np.zeros((1, 1))
    yiq = builtin_matrix("yiq")
    luma, c1, c2 = transform(red, zero, zero, yiq)
    for plane, row in zip((luma, c1, c2), yiq.coefficients):
        expected = (row[0] * 255.0 + row[1] * 0.0) + row[2] * 0.0
        assert plane[0, 0] == expected
    assert luma[0, 0] == 0.299 * 255.0


def test_builtin_matrices_contract():
    matrices = builtin_matrices()
    assert len(matrices) >= 2
    names = [m.name for m in matrices]
    assert len(set(names)) == len(names)
    for matrix in matrices:
        assert matrix.coefficients.shape == (3, 3)
        assert np.all(np.isfinite(matrix.coefficients))


def test_yiq_luma_row_is_affine_normalized():
    yiq = builtin_matrix("yiq")
    assert abs(float(yiq.coefficients[0].sum()) - 1.0) <= 1e-3


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32), alpha=st.floats(-2, 2), beta=st.floats(-2, 2))
def test_transform_linearity(seed, alpha, beta):
    rng = np.random.default_rng(seed)
    a = _planes(rng, 5, 5)
    b = _planes(rng, 5, 5)
    matrix = builtin_matrices()[seed % 2]
    mixed = transform(*(alpha * x + beta * y for x, y in zip(a, b)), matrix)
    separate_a = transform(*a, matrix)
    separate_b = transform(*b, matrix)
    for out, pa, pb in zip(mixed, separate_a, separate_b):
        np.testing.assert_allclose(out, alpha * pa + beta * pb, atol=1e-9, rtol=0)


def test_pointwise_locality():
    rng = np.random.default_rng(4)
    r, g, b = _planes(rng, 4, 4)
    base = transform(r, g, b, builtin_matrix("yiq"))
    r2 = r.copy()
    r2[2, 3] += 10.0
    bumped = transform(r2, g, b, builtin_matrix("yiq"))
    for before, after in zip(base, bumped):
        changed = before != after
        assert changed[2, 3]
        changed[2, 3] = False
        assert not changed.any()


def test_unrequested_channels_not_computed():
    rng = np.random.default_rng(5)
    r, g, b = _planes(rng, 3, 3)
    luma, c1, c2 = transform(r, g, b, builtin_matrix("yiq"), ChannelSet.luma_only())
    assert luma is not None and c1 is None and c2 is None


@pytest.mark.parametrize("matrix", [IDENTITY_MATRIX, *builtin_matrices()], ids=lambda m: m.name)
def test_uint8_input_matches_float_planes(matrix):
    img = synth_image(23, 31, 6)
    for flags in itertools.product((True, False), repeat=3):
        if not any(flags):
            continue
        channels = ChannelSet(*flags)
        from_uint8 = transform(*img.channels, matrix, channels)
        from_float = transform(*_float_planes(img), matrix, channels)
        for a, b in zip(from_uint8, from_float):
            assert (a is None) == (b is None)
            if a is not None:
                assert a.dtype == np.float64
                assert np.array_equal(a, b), (matrix.name, flags)


def test_dimension_mismatch_raises():
    with pytest.raises(ValueError, match="share dimensions"):
        transform(np.zeros((2, 2)), np.zeros((2, 3)), np.zeros((2, 2)), IDENTITY_MATRIX)


def test_channel_set_requires_a_channel():
    with pytest.raises(ValueError, match="at least one"):
        ChannelSet(False, False, False)
    for flags in ((2, 0, 0), ("yes", "", "x"), (1.0, 0, 0), (True, None, True)):
        with pytest.raises(TypeError, match="must be a bool, 0 or 1"):
            ChannelSet(*flags)
    assert ChannelSet(1, 0, np.True_).flags == (True, False, True)
    assert ChannelSet.all_channels().count == 3
    assert ChannelSet.luma_only().names() == ("luma",)


def test_color_matrix_validation():
    with pytest.raises(ValueError, match="3x3"):
        ColorMatrix("bad", np.zeros((2, 3)))
    with pytest.raises(ValueError, match="finite"):
        ColorMatrix("bad", np.full((3, 3), np.nan))
    with pytest.raises(ValueError, match="finite"):
        ColorMatrix("bad", [[np.inf, 0, 0], [0, 1, 0], [0, 0, 1]])
    frozen = ColorMatrix("ok", np.eye(3))
    with pytest.raises(ValueError):
        frozen.coefficients[0, 0] = 2.0  # read-only backing array


def test_builtin_coefficients_are_the_reference_literals():
    # FSIMc's rgb2yiq and VSI's LMN step, digit for digit
    assert [m.name for m in builtin_matrices()] == ["yiq", "lmn"]
    yiq, lmn = builtin_matrices()
    assert yiq.coefficients.tolist() == [
        [0.299, 0.587, 0.114],
        [0.596, -0.274, -0.322],
        [0.211, -0.523, 0.312],
    ]
    assert lmn.coefficients.tolist() == [
        [0.06, 0.63, 0.27],
        [0.30, 0.04, -0.35],
        [0.34, -0.60, 0.17],
    ]


def test_builtins_need_only_the_python_sources(tmp_path):
    package = tmp_path / "iqprep"
    package.mkdir()
    for source in Path(iqprep.__file__).parent.glob("*.py"):
        shutil.copy(source, package)
    child = subprocess.run(
        [
            sys.executable,
            "-c",
            "import iqprep; print(iqprep.__file__); "
            "print(iqprep.builtin_matrix('lmn').coefficients.tolist())",
        ],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(tmp_path)},
    )
    assert child.returncode == 0, child.stderr
    where, coefficients = child.stdout.splitlines()
    assert Path(where).parent == package
    assert coefficients == str(builtin_matrix("lmn").coefficients.tolist())


def test_builtin_matrix_lookup():
    assert builtin_matrix("identity") is IDENTITY_MATRIX
    assert builtin_matrix("yiq").name == "yiq"
    with pytest.raises(ValueError, match="unknown color matrix"):
        builtin_matrix("nope")


def test_decimal_form_of_builtins_and_others():
    yiq, lmn = builtin_matrices()
    assert yiq.decimal_form == (((299, 587, 114), (596, -274, -322), (211, -523, 312)), 3)
    assert lmn.decimal_form == (((6, 63, 27), (30, 4, -35), (34, -60, 17)), 2)
    assert IDENTITY_MATRIX.decimal_form == (((1, 0, 0), (0, 1, 0), (0, 0, 1)), 0)
    # entries of 1/3 have no decimal form, and are not rounded into one
    assert ColorMatrix("third", np.full((3, 3), 1 / 3)).decimal_form is None
    # seven places is one too many; huge coefficients scale to inf harmlessly
    assert ColorMatrix("fine", np.full((3, 3), 1.2345678)).decimal_form is None
    assert ColorMatrix("huge", [[1e308, 0.5, 0], [0, 1, 0], [0, 0, 1]]).decimal_form is None
    big = ColorMatrix("big", [[1e308, -1e308, 1e308], [1, 0, 0], [0, 1, 0]])
    numerators, d = big.decimal_form
    assert d == 0 and numerators[0] == (int(1e308), -int(1e308), int(1e308))
