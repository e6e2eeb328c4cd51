"""Lightweight full-reference similarity measures over preprocessed channels.

These are deliberately small stand-ins with the same shape as the
established full-reference metrics: a structure term from gradient
magnitudes on the luminance channel, and a pointwise similarity term on
each chroma channel, combined with a fixed chroma exponent. They
exist so that end-to-end score invariance under a front-end strategy swap
is assertable on something realistic, not to compete on prediction
accuracy.

Both terms run in real float64 arithmetic. The Prewitt responses come
from 3-row and 3-column sums of an edge-padded plane, and the gradient
term works on squared magnitudes, so it takes one square root per sample
and holds at most four arrays of its input's size at once. The chroma
exponent takes the real part of the principal-branch power in closed
form, without a complex cast. :func:`score` builds the maps one row tile
at a time (the gradient term with a one-row halo) and pools running
sums, so it holds no plane-sized map; every map sample has the bits of
the whole-plane map, and only the order in which the means are summed
differs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Nothing here uses scipy. The bare import keeps it in sys.modules, where
# perfbench reads its version for the run metadata (test_namespace.py checks
# it is there); scipy.ndimage, which most of the import time went to, is not
# loaded.
import scipy  # noqa: F401

from iqprep.pipeline import PreprocessedChannels

__all__ = [
    "QualityScore",
    "gradient_similarity",
    "chroma_similarity",
    "score",
    "require_gradient_size",
]

# Stability constants and the chroma exponent of the stand-in metric:
# FSIMc's T2 = 160 and T3 = T4 = 200, and a weight of 0.5 on the chroma
# product. The constants guard the similarity ratios against division by
# zero and are sized for the 0..255 dynamic range; they move absolute
# scores but not any of the invariances the tests pin down.
_GRADIENT_C = 160.0
_CHROMA_T = 200.0
_CHROMA_WEIGHT = 0.5


@dataclass(frozen=True)
class QualityScore:
    """Pooled similarity with its per-term breakdown."""

    value: float
    gradient: float
    chroma1: float | None = None
    chroma2: float | None = None


def _check_pair(ref: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(ref, dtype=np.float64)
    b = np.asarray(dst, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"plane dimensions differ: {a.shape} vs {b.shape}")
    return a, b


def require_gradient_size(shape: tuple[int, ...]) -> None:
    """Raise ValueError unless a plane of ``shape`` is at least 3x3, as the gradient term needs."""
    if shape[0] < 3 or shape[1] < 3:
        raise ValueError(f"gradient similarity needs planes of at least 3x3, got {shape}")


def _squared_prewitt(plane: np.ndarray) -> np.ndarray:
    """Squared magnitude of the two 1/3-normalized Prewitt responses.

    The masks are correlated with replicate edges. Unscaled, the
    horizontal response is the 3-row sum of the padded plane at column
    j minus it at column j + 2, and the vertical one is the 3-column sum
    at row i minus it at row i + 2. Squared and summed, they are scaled
    once by 1/9. At most three plane-sized arrays are live at a time.
    """
    padded = np.pad(np.asarray(plane, dtype=np.float64), 1, mode="edge")
    row_sums = padded[:-2] + padded[1:-1]
    row_sums += padded[2:]
    squared = row_sums[:, :-2] - row_sums[:, 2:]
    del row_sums
    squared *= squared
    col_sums = padded[:, :-2] + padded[:, 1:-1]
    col_sums += padded[:, 2:]
    del padded
    vertical = col_sums[:-2] - col_sums[2:]
    del col_sums
    vertical *= vertical
    squared += vertical
    squared /= 9.0
    return squared


def gradient_similarity(ref_luma: np.ndarray, dst_luma: np.ndarray) -> np.ndarray:
    """Local structure similarity map from Prewitt gradient magnitudes.

    Parameters
    ----------
    ref_luma, dst_luma : ndarray
      Luminance planes of identical shape, at least 3 x 3.

    Returns
    -------
    ndarray
      Per-pixel scores ``(2*g_r*g_d + c) / (g_r^2 + g_d^2 + c)``, c = 160,
      each in (0, 1], exactly 1 where the local gradients agree. They are
      formed from the squared magnitudes ``G = g^2`` as
      ``(2*sqrt(G_r*G_d) + c) / (G_r + G_d + c)``. ``sqrt(G*G)`` rounds
      back to ``G`` (or, for ``G`` too small to square, to nothing ``c``
      notices), so equal gradients still give exactly 1.
    """
    ref, dst = _check_pair(ref_luma, dst_luma)
    require_gradient_size(ref.shape)
    sq_ref = _squared_prewitt(ref)
    sq_dst = _squared_prewitt(dst)
    similarity = np.multiply(sq_ref, sq_dst)
    np.sqrt(similarity, out=similarity)
    similarity *= 2.0
    similarity += _GRADIENT_C
    sq_ref += sq_dst
    sq_ref += _GRADIENT_C
    similarity /= sq_ref
    return similarity


def chroma_similarity(ref_chroma: np.ndarray, dst_chroma: np.ndarray) -> np.ndarray:
    """Pointwise chroma similarity map ``(2*r*d + t) / (r^2 + d^2 + t)`` with ``t = 200``.

    Values lie in [-1, 1]: at most 1, exactly 1 where the planes agree,
    and possibly negative where the chroma values have opposite signs and
    dominate the stability constant, which keeps the denominator positive.
    """
    ref, dst = _check_pair(ref_chroma, dst_chroma)
    return (2.0 * ref * dst + _CHROMA_T) / (ref**2 + dst**2 + _CHROMA_T)


def _chroma_power(
    product: np.ndarray, weight: float, scratch: np.ndarray | None = None
) -> np.ndarray:
    # Real part of the principal-branch power x^w, the real() convention
    # the established metrics use for their chroma exponent. For x >= 0
    # (-0.0 included) it is |x|^w; for x < 0 it is |x|^w * cos(pi*w). Real
    # arithmetic gives it without a complex128 copy of the plane, and
    # weight 0 gives exactly 1 everywhere. ``product`` is left as it is.
    #
    # Every sample is multiplied by a factor gathered by its sign, 1.0 or
    # cos(pi*w), into ``scratch`` if given (float64, the product's shape);
    # x * 1.0 is x for every x, NaN and inf included. With the default
    # "raise" mode, take would buffer its out array. The factors are
    # gathered before the power is allocated, so take's intp copy of the
    # indices is never live beside it.
    negative = (product < 0).view(np.uint8)
    factors = np.array([1.0, np.cos(np.pi * weight)]).take(negative, out=scratch, mode="clip")
    power = np.abs(product)
    power **= weight
    power *= factors
    return power


def _tile_sums(
    ref: PreprocessedChannels, dst: PreprocessedChannels, a: int, b: int
) -> tuple[float, float, float, float]:
    """Sums of the composite, gradient, chroma1 and chroma2 maps over rows ``[a, b)``.

    The gradient map comes from luma rows ``[a - 1, b + 1)``, clamped to
    the plane, with the halo rows cropped, so each of its samples has the
    bits of the whole-plane map. An absent chroma channel sums to 0. The
    tile's maps are freed when this returns.
    """
    lo, hi = max(a - 1, 0), min(b + 1, ref.luma.shape[0])
    gradient_map = gradient_similarity(ref.luma[lo:hi], dst.luma[lo:hi])
    gradient_map = gradient_map[a - lo : b - lo]
    chroma_sums = [0.0, 0.0]
    product = scratch = None
    for i, (ref_c, dst_c) in enumerate(zip(ref.planes[1:], dst.planes[1:])):
        if ref_c is not None:
            cmap = chroma_similarity(ref_c[a:b], dst_c[a:b])
            chroma_sums[i] = float(cmap.sum())
            if product is None:
                product = cmap
            else:
                # the second map is dead once multiplied in: the chroma
                # power gathers its sign factors there
                product = product * cmap
                scratch = cmap
    if product is None:
        composite = gradient_map
    else:
        composite = gradient_map * _chroma_power(product, _CHROMA_WEIGHT, scratch)
    return (float(composite.sum()), float(gradient_map.sum()), *chroma_sums)


# score() builds its maps over row tiles of about this many samples (256 KB
# per float64 map), so a tile's maps stay in cache and no plane-sized map
# is built. 2^16 was 3-5 % faster at 270x480 but holds two and a half
# planes of maps; 2^14 and below were slower at both plane sizes measured.
_TILE_SAMPLES = 1 << 15


def score(ref: PreprocessedChannels, dst: PreprocessedChannels) -> QualityScore:
    """Pool the similarity maps of two preprocessed images into one scalar.

    The pooled value is the pixel mean of
    ``gradient_map * (chroma1_map * chroma2_map) ** 0.5``
    over whichever chroma channels are present, or of the gradient map
    alone for luminance-only inputs. Identical inputs score exactly 1.0.

    Raises
    ------
    ValueError
      If the two inputs carry different channel sets or dimensions, or if
      the luminance channel is missing.
    """
    for name, a, b in zip(("luma", "chroma1", "chroma2"), ref.planes, dst.planes):
        if (a is None) != (b is None):
            raise ValueError(f"channel sets differ: {name} present on one input only")
    if ref.luma is None:
        raise ValueError("scoring requires the luminance channel")

    h, w = ref.luma.shape
    if dst.luma.shape != (h, w):
        raise ValueError(f"plane dimensions differ: {(h, w)} vs {dst.luma.shape}")
    require_gradient_size((h, w))

    # Row tiles of at least two rows, the last one taking a lone remainder
    # row, so a tile with its one-row halo is never under 3x3.
    rows = max(2, _TILE_SAMPLES // w)
    sums = [0.0, 0.0, 0.0, 0.0]
    for a in range(0, h - 1, rows):
        b = a + rows if a + rows < h - 1 else h
        sums = [s + t for s, t in zip(sums, _tile_sums(ref, dst, a, b))]
    value, gradient, chroma1, chroma2 = (s / (h * w) for s in sums)
    return QualityScore(
        value=value,
        gradient=gradient,
        chroma1=None if ref.chroma1 is None else chroma1,
        chroma2=None if ref.chroma2 is None else chroma2,
    )
