"""Pointwise linear channel conversion: RGB planes into luma/chroma planes.

Every supported color space is a 3x3 matrix of coefficients applied to the
(R, G, B) vector of each pixel; the rows produce the luminance channel and
the two chroma channels in that order. The built-in spaces, YIQ and LMN,
are constants below with their provenance; any other space is a
``ColorMatrix(name, coefficients)``, which checks shape and finiteness.

Per output channel the evaluation order of :func:`transform` is fixed as
``(c1*R + c2*G) + c3*B`` so independent float implementations agree bit
for bit in the common case. Input planes may be uint8 or float; each
product is formed in float64 straight from the input, so 8-bit planes
give the same bits as their float64 casts without a full-resolution
float copy of them. The pipeline does not call :func:`transform`: it
converts each band in one matrix product of integer numerators and the
band's planes, held in float32 or float64, where the order of the sums
cannot change a bit. A matrix of decimals (:attr:`ColorMatrix.decimal_form`:
both built-ins and the identity) gives those numerators directly; any
other is split into two fixed-point limbs (``iqprep.pipeline._arithmetic``).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "ColorMatrix",
    "ChannelSet",
    "transform",
    "builtin_matrices",
    "builtin_matrix",
]

_CHANNEL_NAMES = ("luma", "chroma1", "chroma2")
_MAX_DECIMALS = 6


@dataclass(frozen=True)
class ColorMatrix:
    """A named 3x3 conversion matrix, rows ordered (luma, chroma1, chroma2), compared by value."""

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ColorMatrix):
            return NotImplemented
        return self.name == other.name and np.array_equal(self.coefficients, other.coefficients)

    def __hash__(self) -> int:
        # Python floats hash -0.0 and 0.0 alike, as array_equal compares them
        return hash((self.name, tuple(self.coefficients.ravel().tolist())))

    @cached_property
    def decimal_form(self) -> tuple[tuple[tuple[int, int, int], ...], int] | None:
        """``(numerators, d)`` with every coefficient equal to its numerator / 10^d, or None.

        d is the smallest of 0..6 at which every coefficient c satisfies
        ``rint(c * 10**d) / 10**d == c``: yiq at d = 3, lmn at 2, the
        identity at 0. A matrix with no such d has no decimal form; its
        coefficients are never rounded to make one.
        """
        with np.errstate(over="ignore"):  # huge coefficients scale to inf and fail the test
            for d in range(_MAX_DECIMALS + 1):
                scaled = np.rint(self.coefficients * 10**d)
                if np.array_equal(scaled / 10**d, self.coefficients):
                    return tuple(tuple(int(x) for x in row) for row in scaled), d
        return None


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
        # stored as a bool, since the pipeline masks arrays with the flags
        # and a list of ints would index them by position instead
        for name, flag in zip(_CHANNEL_NAMES, self.flags):
            boolean = isinstance(flag, (bool, np.bool_))
            if not boolean and not (hasattr(flag, "__index__") and operator.index(flag) in (0, 1)):
                raise TypeError(f"channel flag {name} must be a bool, 0 or 1, got {flag!r}")
            object.__setattr__(self, name, bool(flag))
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
) -> tuple[np.ndarray | None, np.ndarray | None, np.ndarray | None]:
    """Apply the matrix rows pixelwise to the (R, G, B) planes.

    Only the requested rows are evaluated; unrequested slots in the result
    are ``None``. Each computed channel costs 3 multiplies and 2 adds per
    pixel; the pipeline counts them (``iqprep.pipeline.predict_ops``), this
    function does not.

    Parameters
    ----------
    red, green, blue : ndarray
      Input planes of identical shape, uint8 or float; products are
      formed in float64.
    matrix : ColorMatrix
      Conversion coefficients.
    channels : ChannelSet
      Which of the three output rows to compute.

    Returns
    -------
    (luma, chroma1, chroma2) : tuple of ndarray or None
      Float64 planes of the input shape.
    """
    r, g, b = np.asarray(red), np.asarray(green), np.asarray(blue)
    if not (r.shape == g.shape == b.shape):
        raise ValueError(
            f"channel planes must share dimensions, got {r.shape}, {g.shape}, {b.shape}"
        )
    result: list[np.ndarray | None] = [None, None, None]
    term = np.empty(r.shape)  # reused for the c2*G and c3*B products
    for row, wanted in enumerate(channels.flags):
        if not wanted:
            continue
        c = matrix.coefficients[row]
        plane = np.multiply(r, c[0], dtype=np.float64)
        plane += np.multiply(g, c[1], out=term, dtype=np.float64)
        plane += np.multiply(b, c[2], out=term, dtype=np.float64)
        result[row] = plane
    return (result[0], result[1], result[2])


# The built-in spaces, rows (luma, chroma1, chroma2), cross-checked
# against the metrics' released MATLAB code before freezing:
#   yiq - NTSC YIQ as hard-coded in the FSIM/FSIMc reference
#         implementation (its rgb2yiq step uses these rounded values).
#   lmn - LMN opponent space as hard-coded in the VSI reference
#         implementation; the same transform appears in SCQI's lineage.
_BUILTIN = (
    ColorMatrix("yiq", [[0.299, 0.587, 0.114], [0.596, -0.274, -0.322], [0.211, -0.523, 0.312]]),
    ColorMatrix("lmn", [[0.06, 0.63, 0.27], [0.30, 0.04, -0.35], [0.34, -0.60, 0.17]]),
)


def builtin_matrices() -> list[ColorMatrix]:
    """The named conversion matrices shipped with the package."""
    return list(_BUILTIN)


def builtin_matrix(name: str) -> ColorMatrix:
    """Look up a built-in matrix by name; ``identity`` is always available."""
    if name == "identity":
        return IDENTITY_MATRIX
    for matrix in _BUILTIN:
        if matrix.name == name:
            return matrix
    known = ", ".join(["identity"] + [m.name for m in _BUILTIN])
    raise ValueError(f"unknown color matrix {name!r} (known: {known})")
