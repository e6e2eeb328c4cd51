import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iqprep.downsample import DownsampleSpec
from iqprep.image import (
    _SYNTH_CHUNK,
    PnmParseError,
    RgbImage8,
    load_pnm,
    synth_image,
    write_pnm,
)

# SHA-256 over the planar R, G, B bytes of synth_image(8, 8, 42). Pins the
# documented SplitMix64 fill so any change to the generator is loud.
SYNTH_8X8_SEED42_SHA256 = "f841913191811d40eec1a4a8004822a317e004a00e1467084b15fa678b55b174"
# The same for synth_image(300, 300, 42): 270000 samples, so the stream
# crosses several of the generator's internal steps.
SYNTH_300X300_SEED42_SHA256 = "cf5e3bcfaafcafd905a1f3e7b76ee56b32603a2351f656e7e056847105a9e985"

# The same at the benchmark's three image sizes (the smallest at the largest
# seed), frozen from the earlier, out-of-place form of the generator.
SYNTH_FROZEN_SHA256 = {
    (1080, 1920, 1): "7011d5472b3d26f65eb8a267af2ce1248d232f7fde6166b2cde7041e0ba6978f",
    (2160, 3840, 1): "ecee4933addadac61eb5dd2bf78d2be219e34d7cd7cab658fdb06c89eeff7412",
    (384, 512, 2**64 - 1): "f73531f494785d9e2b95a443fd648bc3b448fb17c6f9922a3a2b42e81d1673aa",
}
U64 = 2**64 - 1

RED_PIXEL_FILE = b"P6\n1 1\n255\n\xff\x00\x00"


def test_load_single_red_pixel(tmp_path):
    path = tmp_path / "red.ppm"
    path.write_bytes(RED_PIXEL_FILE)
    img = load_pnm(path)
    assert (img.height, img.width) == (1, 1)
    assert img.red[0, 0] == 255
    assert img.green[0, 0] == 0
    assert img.blue[0, 0] == 0


def test_write_single_red_pixel_bytes(tmp_path):
    img = RgbImage8(
        height=1,
        width=1,
        red=np.array([[255]], dtype=np.uint8),
        green=np.array([[0]], dtype=np.uint8),
        blue=np.array([[0]], dtype=np.uint8),
    )
    path = tmp_path / "red.ppm"
    write_pnm(img, path)
    assert path.read_bytes() == RED_PIXEL_FILE


def test_payload_length_2x3(tmp_path):
    img = synth_image(2, 3, 5)
    path = tmp_path / "img.ppm"
    write_pnm(img, path)
    data = path.read_bytes()
    header = b"P6\n3 2\n255\n"
    assert data.startswith(header)
    assert len(data) - len(header) == 2 * 3 * 3


def test_round_trip_seed42_byte_identity(tmp_path):
    img = synth_image(8, 8, 42)
    first = tmp_path / "a.ppm"
    second = tmp_path / "b.ppm"
    write_pnm(img, first)
    reloaded = load_pnm(first)
    write_pnm(reloaded, second)
    assert first.read_bytes() == second.read_bytes()
    for original, back in zip(img.channels, reloaded.channels):
        assert np.array_equal(original, back)


@settings(max_examples=25, deadline=None)
@given(
    height=st.integers(min_value=1, max_value=9),
    width=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**63),
)
def test_round_trip_identity_property(tmp_path_factory, height, width, seed):
    img = synth_image(height, width, seed)
    path = tmp_path_factory.mktemp("pnm") / "img.ppm"
    write_pnm(img, path)
    back = load_pnm(path)
    assert all(np.array_equal(a, b) for a, b in zip(img.channels, back.channels))


def test_truncated_payload_names_offset(tmp_path):
    path = tmp_path / "short.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + b"\x01" * 11)  # needs 12 payload bytes
    with pytest.raises(PnmParseError, match="truncated") as excinfo:
        load_pnm(path)
    assert "byte" in str(excinfo.value)
    assert excinfo.value.offset == 11 + 11
    # a header cut off right after the maxval has no separator byte
    path.write_bytes(b"P6\n1 1\n255")
    with pytest.raises(PnmParseError, match="missing whitespace after maxval") as excinfo:
        load_pnm(path)
    assert excinfo.value.offset == 10


def test_bad_magic(tmp_path):
    path = tmp_path / "gray.pgm"
    path.write_bytes(b"P5\n1 1\n255\n\x00")
    with pytest.raises(PnmParseError, match="P6") as excinfo:
        load_pnm(path)
    assert excinfo.value.offset == 0


def test_unsupported_maxval(tmp_path):
    path = tmp_path / "deep.ppm"
    path.write_bytes(b"P6\n1 1\n65535\n" + b"\x00" * 6)
    with pytest.raises(PnmParseError, match="maxval") as excinfo:
        load_pnm(path)
    assert excinfo.value.offset == 7  # where the maxval token starts


def test_non_numeric_header_field(tmp_path):
    path = tmp_path / "bad.ppm"
    path.write_bytes(b"P6\n1 one\n255\n\x00\x00\x00")
    with pytest.raises(PnmParseError, match="height"):
        load_pnm(path)


def test_header_comments_are_skipped(tmp_path):
    path = tmp_path / "commented.ppm"
    path.write_bytes(b"P6\n# made by hand\n1 1\n# maxval next\n255\n\x01\x02\x03")
    img = load_pnm(path)
    assert (img.red[0, 0], img.green[0, 0], img.blue[0, 0]) == (1, 2, 3)


def test_magic_must_be_followed_by_whitespace(tmp_path):
    # Without the check, "P62 1" reads as a 2x1 image.
    path = tmp_path / "run-on.ppm"
    path.write_bytes(b"P62 1 255\n" + b"\x00" * 6)
    with pytest.raises(PnmParseError, match="whitespace after the magic") as excinfo:
        load_pnm(path)
    assert excinfo.value.offset == 2


def test_comment_may_follow_magic(tmp_path):
    path = tmp_path / "comment.ppm"
    path.write_bytes(b"P6# made by hand\n1 1\n255\n\x01\x02\x03")
    img = load_pnm(path)
    assert (img.red[0, 0], img.green[0, 0], img.blue[0, 0]) == (1, 2, 3)


def test_truncated_header(tmp_path):
    path = tmp_path / "eof.ppm"
    path.write_bytes(b"P6\n1 ")
    with pytest.raises(PnmParseError, match="end of header"):
        load_pnm(path)


def test_zero_dimension_header(tmp_path):
    path = tmp_path / "zero.ppm"
    path.write_bytes(b"P6\n0 4\n255\n")
    with pytest.raises(PnmParseError, match="invalid dimensions"):
        load_pnm(path)


@pytest.mark.parametrize(
    "header",
    [b"P6\x0b1\x0c1\n255\n", b"P6\n#c\r1 1\n255\n"],
    ids=["vertical-tab-and-form-feed-separate", "comment-ends-at-cr"],
)
def test_header_separators(tmp_path, header):
    path = tmp_path / "sep.ppm"
    path.write_bytes(header + b"\x01\x02\x03")
    img = load_pnm(path)
    assert (img.height, img.width) == (1, 1)
    assert (img.red[0, 0], img.green[0, 0], img.blue[0, 0]) == (1, 2, 3)


@pytest.mark.parametrize(
    "data, offset, message",
    [
        (b"P6\n1 1\n# no end", 15, "unexpected end of header"),
        # a '#' inside a field does not start a comment
        (b"P6\n1#2 1\n255\n", 3, "expected width, got b'1#2'"),
        # 0xA0 is not ASCII whitespace, so it does not end a field
        (b"P6\n1\xa01 1\n255\n", 3, "expected width, got b'1\\xa01'"),
    ],
    ids=["comment-runs-to-eof", "hash-inside-field", "nbsp-inside-field"],
)
def test_header_grammar_errors(tmp_path, data, offset, message):
    path = tmp_path / "bad.ppm"
    path.write_bytes(data)
    with pytest.raises(PnmParseError) as excinfo:
        load_pnm(path)
    assert excinfo.value.offset == offset
    assert str(excinfo.value) == f"byte {offset}: {message}"


def test_synth_is_pure_function_of_arguments():
    a = synth_image(2, 2, 7)
    b = synth_image(2, 2, 7)
    assert all(np.array_equal(x, y) for x, y in zip(a.channels, b.channels))
    c = synth_image(2, 2, 8)
    assert any(not np.array_equal(x, y) for x, y in zip(a.channels, c.channels))


def test_synth_frozen_digest():
    img = synth_image(8, 8, 42)
    digest = hashlib.sha256(
        img.red.tobytes() + img.green.tobytes() + img.blue.tobytes()
    ).hexdigest()
    assert digest == SYNTH_8X8_SEED42_SHA256


def test_synth_frozen_digest_across_steps():
    img = synth_image(300, 300, 42)
    digest = hashlib.sha256(
        img.red.tobytes() + img.green.tobytes() + img.blue.tobytes()
    ).hexdigest()
    assert digest == SYNTH_300X300_SEED42_SHA256


def test_synth_table_size_lands_on_factor_two():
    from iqprep.downsample import compute_factor

    img = synth_image(384, 512, 1)
    assert compute_factor(img.height, img.width).factor == 2


def test_synth_single_pixel_has_three_samples():
    for seed in (0, 1, 2**63):
        img = synth_image(1, 1, seed)
        assert sum(chan.size for chan in img.channels) == 3


def test_synth_rejects_zero_dimension():
    with pytest.raises(ValueError, match=">= 1"):
        synth_image(0, 4, 1)
    with pytest.raises(ValueError, match=">= 1"):
        synth_image(4, 0, 1)


def test_image_validation():
    good = np.zeros((2, 2), dtype=np.uint8)
    with pytest.raises(ValueError, match="uint8"):
        RgbImage8(2, 2, good.astype(np.int16), good, good)
    with pytest.raises(ValueError, match="shape"):
        RgbImage8(2, 2, np.zeros((2, 3), dtype=np.uint8), good, good)
    with pytest.raises(ValueError, match=">= 1"):
        RgbImage8(0, 2, good, good, good)


def test_integer_like_sizes_and_seeds_act_as_python_ints():
    want = synth_image(8, 8, 5)
    got = synth_image(np.int64(8), np.int32(8), np.int64(5))
    assert (type(got.height), type(got.width)) == (int, int)
    for a, b in zip(got.channels, want.channels):
        np.testing.assert_array_equal(a, b)
    top = synth_image(8, 8, np.uint64(U64))
    for a, b in zip(top.channels, synth_image(8, 8, U64).channels):
        np.testing.assert_array_equal(a, b)
    img = RgbImage8(np.int64(8), np.uint16(8), *want.channels)
    assert (img.height, img.width) == (8, 8)
    assert (type(img.height), type(img.width)) == (int, int)


def test_non_integer_sizes_and_seeds_are_rejected():
    chan = np.zeros((4, 4), dtype=np.uint8)
    one = np.ones((1, 1), dtype=np.uint8)
    for height, width in ((4.0, 4), (4, 4.0)):
        with pytest.raises(TypeError):
            RgbImage8(height, width, chan, chan, chan)
        with pytest.raises(TypeError):
            synth_image(height, width, 1)
    # a bool is an int to Python, but not a size or a seed
    for height, width in ((True, 4), (4, True), (np.True_, 4)):
        with pytest.raises(TypeError):
            synth_image(height, width, 1)
    for height, width in ((True, True), (np.True_, 1)):
        with pytest.raises(TypeError):
            RgbImage8(height, width, one, one, one)
    for seed in (1.0, True, False, np.True_):
        with pytest.raises(TypeError):
            synth_image(4, 4, seed)


ZEROS_4X4 = np.zeros((4, 4), dtype=np.uint8)


@pytest.mark.parametrize(
    "make, args, message",
    [
        (RgbImage8, (4.0, 4) + (ZEROS_4X4,) * 3, "height must be an integer, got 4.0"),
        (synth_image, (4.0, 4, 1), "height must be an integer, got 4.0"),
        (synth_image, (4, 4, 1.0), "seed must be an integer, got 1.0"),
        (DownsampleSpec, (2.0,), "downsample factor must be an integer, got 2.0"),
        (DownsampleSpec, (np.True_,), f"downsample factor must be an integer, got {np.True_!r}"),
    ],
    ids=["image-height", "synth-height", "synth-seed", "factor-float", "factor-numpy-bool"],
)
def test_one_integer_rule_names_the_value(make, args, message):
    with pytest.raises(TypeError) as excinfo:
        make(*args)
    assert str(excinfo.value) == message


def splitmix64_top_byte(seed, i):
    """Top byte of SplitMix64 output ``i`` (from 0), in Python integers."""
    z = (seed + 0x9E3779B97F4A7C15 * (i + 1)) & U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & U64
    return (z ^ (z >> 31)) >> 56


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1, -1, 2**64 + 5])
def test_synth_matches_reference_generator_at_step_boundaries(seed):
    # One row of _SYNTH_CHUNK + 5 pixels: 3 full steps and a ragged fourth.
    img = synth_image(1, _SYNTH_CHUNK + 5, seed)
    samples = np.concatenate([chan.ravel() for chan in img.channels])
    total = samples.size
    assert total > 3 * _SYNTH_CHUNK
    indices = {0, total - 1}
    for boundary in range(_SYNTH_CHUNK, total, _SYNTH_CHUNK):
        indices |= {boundary - 1, boundary, boundary + 1}
    for i in sorted(indices):
        assert samples[i] == splitmix64_top_byte(seed, i), i


@pytest.mark.parametrize("args", list(SYNTH_FROZEN_SHA256))
def test_synth_frozen_digest_at_benchmark_sizes(args):
    img = synth_image(*args)
    digest = hashlib.sha256(b"".join(c.tobytes() for c in img.channels)).hexdigest()
    assert digest == SYNTH_FROZEN_SHA256[args]


def test_synth_memory_stays_near_the_image():
    height, width = 1080, 1920
    tracemalloc.start()
    try:
        synth_image(height, width, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * height * width + 2**20
