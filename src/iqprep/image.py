"""Image containers, deterministic synthetic images, and binary PNM (P6) I/O.

Conventions used throughout the package:

* An ``RgbImage8`` stores 8-bit samples in planar layout: one ``(height,
  width)`` uint8 array per channel. Planar storage keeps per-channel
  processing and per-channel operation counting straightforward.
* A *plane* is a 2-D array: either an 8-bit channel as stored, or a
  C-contiguous ``float64`` array. Sample values keep the 0..255 range of
  the source image (no rescaling to [0, 1]), so 8-bit samples stay
  integer-exact in doubles. The pipeline reads the uint8 channels
  directly, one band of rows at a time, and casts only the band it
  converts, so no full-resolution float copy of a channel is made.
* The only on-disk format is binary PNM (P6) with maxval 255; it is
  trivially bit-exact and needs no external decoder.
"""

from __future__ import annotations

import operator
import os
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "RgbImage8",
    "PnmParseError",
    "load_pnm",
    "write_pnm",
    "synth_image",
]


def _index(value, name: str) -> int:
    """``operator.index(value)``, except that a bool is not an integer here."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return operator.index(value)


@dataclass(frozen=True)
class RgbImage8:
    """8-bit three-channel raster in planar R/G/B layout.

    Each channel is a ``(height, width)`` uint8 array. Instances are
    immutable and safe to share read-only across threads.
    """

    height: int
    width: int
    red: np.ndarray
    green: np.ndarray
    blue: np.ndarray

    def __post_init__(self) -> None:
        for name in ("height", "width"):
            object.__setattr__(self, name, _index(getattr(self, name), name))
        if self.height < 1 or self.width < 1:
            raise ValueError(
                f"image dimensions must be >= 1, got {self.height}x{self.width}"
            )
        for name, chan in (("red", self.red), ("green", self.green), ("blue", self.blue)):
            if chan.dtype != np.uint8:
                raise ValueError(f"{name} channel must be uint8, got {chan.dtype}")
            if chan.shape != (self.height, self.width):
                raise ValueError(
                    f"{name} channel shape {chan.shape} does not match "
                    f"image dimensions {(self.height, self.width)}"
                )

    @property
    def channels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.red, self.green, self.blue)


class PnmParseError(ValueError):
    """Raised for malformed PNM input; the message names the byte offset."""

    def __init__(self, offset: int, message: str):
        self.offset = offset
        super().__init__(f"byte {offset}: {message}")


def _next_token(data: bytes, pos: int) -> tuple[bytes, int, int]:
    """Return the next header token, skipping whitespace and '#' comments.

    Returns ``(token, start_offset, end_pos)``.
    """
    n = len(data)
    while pos < n:
        c = data[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < n and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        else:
            break
    if pos >= n:
        raise PnmParseError(pos, "unexpected end of header")
    start = pos
    while pos < n and not data[pos : pos + 1].isspace():
        pos += 1
    return data[start:pos], start, pos


def _header_int(data: bytes, pos: int, what: str) -> tuple[int, int, int]:
    token, start, end = _next_token(data, pos)
    if not token.isdigit():
        raise PnmParseError(start, f"expected {what}, got {token!r}")
    return int(token), start, end


def load_pnm(path: str | os.PathLike) -> RgbImage8:
    """Read a binary P6 PNM file with maxval 255.

    Parameters
    ----------
    path : path-like
      File to read.

    Returns
    -------
    RgbImage8
      Image with samples de-interleaved into planar layout.

    Raises
    ------
    PnmParseError
      On a malformed header, a maxval other than 255, or a truncated
      pixel payload; the message names the offending byte offset.
    """
    with open(path, "rb") as fh:
        data = fh.read()

    if data[:2] != b"P6":
        raise PnmParseError(0, f"not a binary PNM (P6) file, magic is {data[:2]!r}")
    if data[2:3] and not (data[2:3].isspace() or data[2:3] == b"#"):
        raise PnmParseError(2, f"expected whitespace after the magic number, got {data[2:3]!r}")
    width, wstart, pos = _header_int(data, 2, "width")
    height, hstart, pos = _header_int(data, pos, "height")
    maxval, mstart, pos = _header_int(data, pos, "maxval")
    if width < 1 or height < 1:
        raise PnmParseError(wstart, f"invalid dimensions {width}x{height}")
    if maxval != 255:
        raise PnmParseError(mstart, f"unsupported maxval {maxval}, only 255 is supported")
    if pos >= len(data) or not data[pos : pos + 1].isspace():
        raise PnmParseError(pos, "missing whitespace after maxval")
    pos += 1  # exactly one whitespace byte separates header and payload

    need = height * width * 3
    have = len(data) - pos
    if have < need:
        raise PnmParseError(
            len(data),
            f"truncated pixel payload: expected {need} bytes from byte {pos}, found {have}",
        )
    samples = np.frombuffer(data, dtype=np.uint8, count=need, offset=pos)
    # one copy de-interleaves all three channels, the layout synth_image returns
    red, green, blue = samples.reshape(height, width, 3).transpose(2, 0, 1).copy()
    return RgbImage8(height=height, width=width, red=red, green=green, blue=blue)


def write_pnm(image: RgbImage8, path: str | os.PathLike) -> None:
    """Write ``image`` as binary P6 with maxval 255.

    The header is exactly ``P6\\n{width} {height}\\n255\\n`` followed by the
    interleaved RGB payload, so ``load_pnm`` inverts it byte for byte.
    """
    header = f"P6\n{image.width} {image.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.stack(image.channels, axis=-1))


# SplitMix64 constants (Steele, Lea & Flood, OOPSLA 2014; the public-domain
# reference generator). Chosen because it is tiny, has a closed-form i-th
# output, and is exactly reproducible from integer ops alone on any platform.
_SM64_GAMMA = 0x9E3779B97F4A7C15
_SM64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_MIX2 = np.uint64(0x94D049BB133111EB)
_U64_MASK = (1 << 64) - 1
# Samples generated per step of synth_image; a call holds three uint64
# buffers of this length (768 KiB). 2**15 ties 2**16 with half the memory;
# 2**14 is slower at 2160x3840, and from 2**17 on, where three 1 MiB buffers
# crowd a 4 MiB L2, every size measured is slower.
_SYNTH_CHUNK = 1 << 15


def synth_image(height: int, width: int, seed: int) -> RgbImage8:
    """Deterministic pseudo-random test image.

    The sample stream is SplitMix64 seeded with ``seed``; each 8-bit sample
    is the top byte of one 64-bit output. Samples fill the red channel in
    row-major order, then green, then blue, so the result is a pure
    function of ``(height, width, seed)`` with identical bytes on every
    platform. The stream is generated in fixed-size steps in reused
    buffers, so memory stays near the size of the image itself.

    Parameters
    ----------
    height, width : int
      Image dimensions, both >= 1.
    seed : int
      Any integer, numpy integers included; reduced modulo 2**64.

    Returns
    -------
    RgbImage8
    """
    height, width, seed = _index(height, "height"), _index(width, "width"), _index(seed, "seed")
    if height < 1 or width < 1:
        raise ValueError(f"image dimensions must be >= 1, got {height}x{width}")
    total = 3 * height * width
    samples = np.empty(total, dtype=np.uint8)
    step = min(_SYNTH_CHUNK, total)
    # Output i has state seed + GAMMA * (i + 1), mod 2**64 as uint64 wraps.
    offsets = np.uint64(_SM64_GAMMA) * np.arange(1, step + 1, dtype=np.uint64)
    z, t = np.empty((2, step), dtype=np.uint64)
    # The most significant byte of each uint64, in native byte order.
    top = z.view(np.uint8)[7 if sys.byteorder == "little" else 0 :: 8]
    for start in range(0, total, step):
        np.add(offsets, np.uint64((seed + _SM64_GAMMA * start) & _U64_MASK), out=z)
        for shift, mix in ((30, _SM64_MIX1), (27, _SM64_MIX2)):
            np.right_shift(z, shift, out=t)
            np.bitwise_xor(z, t, out=z)
            np.multiply(z, mix, out=z)
        # The finaliser's last z ^ (z >> 31) cannot change bits 56-63.
        samples[start : start + step] = top[: total - start]
    planes = samples.reshape(3, height, width)
    return RgbImage8(
        height=height,
        width=width,
        red=planes[0],
        green=planes[1],
        blue=planes[2],
    )

