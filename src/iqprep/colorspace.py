"""Pointwise linear channel conversion: RGB planes into luma/chroma planes.

Every supported color space is a 3x3 matrix of coefficients applied to the
(R, G, B) vector of each pixel; the rows produce the luminance channel and
the two chroma channels in that order. Spaces are data, not code: the
built-in set lives in ``data/color_matrices.txt`` (grammar documented
there) and user-supplied files with the same grammar load the same way.

Per output channel the evaluation order is fixed as
``(c1*R + c2*G) + c3*B`` so independent implementations agree bit for bit
in the common case. Input planes may be uint8 or float; each product is
formed in float64 straight from the input, so 8-bit planes give the same
bits as their float64 casts without a full-resolution float copy of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from iqprep.counters import OpCounter

__all__ = [
    "ColorMatrix",
    "ChannelSet",
    "transform",
    "count_transform_ops",
    "builtin_matrices",
    "builtin_matrix",
    "parse_matrix_config",
    "load_matrix_file",
]

_CHANNEL_NAMES = ("luma", "chroma1", "chroma2")


@dataclass(frozen=True)
class ColorMatrix:
    """A named 3x3 conversion matrix, rows ordered (luma, chroma1, chroma2)."""

    name: str
    coefficients: np.ndarray

    def __post_init__(self) -> None:
        coeff = np.array(self.coefficients, dtype=np.float64)
        if coeff.shape != (3, 3):
            raise ValueError(f"expected 9 coefficients in a 3x3 matrix, got shape {coeff.shape}")
        if not np.all(np.isfinite(coeff)):
            raise ValueError(f"matrix {self.name!r} has non-finite coefficients")
        coeff.flags.writeable = False
        object.__setattr__(self, "coefficients", coeff)


IDENTITY_MATRIX = ColorMatrix(name="identity", coefficients=np.eye(3))


@dataclass(frozen=True)
class ChannelSet:
    """Which output channels a downstream metric actually needs.

    Metrics that only look at luminance should request only ``luma``; the
    channel count is a first-class cost variable for strategy selection.
    """

    luma: bool = True
    chroma1: bool = True
    chroma2: bool = True

    def __post_init__(self) -> None:
        if not (self.luma or self.chroma1 or self.chroma2):
            raise ValueError("at least one channel must be requested")

    @classmethod
    def all_channels(cls) -> "ChannelSet":
        return cls(True, True, True)

    @classmethod
    def luma_only(cls) -> "ChannelSet":
        return cls(True, False, False)

    @property
    def flags(self) -> tuple[bool, bool, bool]:
        return (self.luma, self.chroma1, self.chroma2)

    @property
    def count(self) -> int:
        return sum(self.flags)

    def names(self) -> tuple[str, ...]:
        return tuple(n for n, wanted in zip(_CHANNEL_NAMES, self.flags) if wanted)


def transform(
    red: np.ndarray,
    green: np.ndarray,
    blue: np.ndarray,
    matrix: ColorMatrix,
    channels: ChannelSet = ChannelSet.all_channels(),
    counter: OpCounter | None = None,
    out: tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None] | None = None,
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Apply the matrix rows pixelwise to the (R, G, B) planes.

    Only the requested rows are evaluated; unrequested slots in the result
    are ``None``. Each computed channel costs 3 multiplies and 2 adds per
    pixel, recorded on ``counter`` when given.

    Parameters
    ----------
    red, green, blue : ndarray
      Input planes of identical shape, uint8 or float; products are
      formed in float64.
    matrix : ColorMatrix
      Conversion coefficients.
    channels : ChannelSet
      Which of the three output rows to compute.
    counter : OpCounter, optional
      Receives the multiply/add tally of this call.
    out : tuple of three ndarray or None, optional
      Float64 arrays of the input shape, not overlapping the inputs, that
      receive the requested channels slot for slot; a ``None`` slot gets
      a new array. The values are the same bits either way.

    Returns
    -------
    (luma, chroma1, chroma2) : tuple of ndarray or None
      The ``out`` arrays where given.
    """
    r, g, b = np.asarray(red), np.asarray(green), np.asarray(blue)
    if not (r.shape == g.shape == b.shape):
        raise ValueError(
            f"channel planes must share dimensions, got {r.shape}, {g.shape}, {b.shape}"
        )
    result: list[np.ndarray | None] = [None, None, None]
    given = out if out is not None else (None, None, None)
    for slot in given:
        if slot is not None and (slot.shape != r.shape or slot.dtype != np.float64):
            raise ValueError(
                f"out arrays must be float64 of shape {r.shape}, got {slot.dtype} {slot.shape}"
            )
    n = r.size
    term = np.empty(r.shape, dtype=np.float64)  # reused for the c2*G and c3*B products
    for row, wanted in enumerate(channels.flags):
        if not wanted:
            continue
        c = matrix.coefficients[row]
        plane = np.multiply(r, c[0], out=given[row], dtype=np.float64)
        plane += np.multiply(g, c[1], out=term, dtype=np.float64)
        plane += np.multiply(b, c[2], out=term, dtype=np.float64)
        if counter is not None:
            counter.record(multiplies=3 * n, adds=2 * n)
        result[row] = plane
    return (result[0], result[1], result[2])


def count_transform_ops(height: int, width: int, channels: ChannelSet) -> OpCounter:
    """Closed-form operation count of :func:`transform` on an h x w plane set."""
    n = height * width * channels.count
    return OpCounter(multiplies=3 * n, adds=2 * n)


def parse_matrix_config(text: str, source: str = "<config>") -> list[ColorMatrix]:
    """Parse the plain-text matrix table format (see ``data/color_matrices.txt``).

    Raises ``ValueError`` naming ``source`` and the line number on any
    malformed line.
    """
    matrices = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 10:
            raise ValueError(
                f"{source}:{lineno}: expected a name and 9 coefficients, got {len(fields)} fields"
            )
        name = fields[0]
        if name in seen:
            raise ValueError(f"{source}:{lineno}: duplicate matrix name {name!r}")
        seen.add(name)
        try:
            values = [float(tok) for tok in fields[1:]]
        except ValueError as exc:
            raise ValueError(f"{source}:{lineno}: bad coefficient: {exc}") from None
        try:
            matrix = ColorMatrix(name=name, coefficients=np.array(values).reshape(3, 3))
        except ValueError as exc:  # non-finite coefficients
            raise ValueError(f"{source}:{lineno}: {exc}") from None
        matrices.append(matrix)
    return matrices


def load_matrix_file(path) -> list[ColorMatrix]:
    """Load matrices from a config file on disk (same grammar as the built-ins)."""
    with open(path, "r", encoding="ascii") as fh:
        return parse_matrix_config(fh.read(), source=str(path))


@lru_cache(maxsize=1)
def _builtin() -> tuple[ColorMatrix, ...]:
    text = resources.files("iqprep").joinpath("data/color_matrices.txt").read_text("ascii")
    return tuple(parse_matrix_config(text, source="data/color_matrices.txt"))


def builtin_matrices() -> list[ColorMatrix]:
    """The named conversion matrices shipped with the package."""
    return list(_builtin())


def builtin_matrix(name: str) -> ColorMatrix:
    """Look up a built-in matrix by name; ``identity`` is always available."""
    if name == "identity":
        return IDENTITY_MATRIX
    for matrix in _builtin():
        if matrix.name == name:
            return matrix
    known = ", ".join(["identity"] + [m.name for m in _builtin()])
    raise ValueError(f"unknown color matrix {name!r} (known: {known})")
