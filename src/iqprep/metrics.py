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
term works on squared magnitudes, so it takes one square root per sample.
The chroma exponent takes the real part of the principal-branch power in
closed form, without a complex cast. The maps are built by kernels that
write into four float64 buffers: the edge-padded luma, a scratch for row
and column sums, and two maps. :func:`score` allocates them once per call
at the size of one row tile and pools running sums tile by tile; the
public map functions give them the size of the plane. Every map sample
has the bits of the whole-plane map; only the order in which the means
are summed differs.
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
    "QualityScore", "gradient_similarity", "chroma_similarity", "score", "require_gradient_size"
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


def _view(buffer: np.ndarray, rows: int, width: int) -> np.ndarray:
    """The first ``rows * width`` samples of a flat buffer, as a (rows, width) array."""
    return buffer[: rows * width].reshape(rows, width)


def _buffers(rows: int, width: int) -> tuple[np.ndarray, ...]:
    """The flat padded, sums, first and second map buffers for tiles of up to ``rows`` rows."""
    padded = (rows + 2) * (width + 2)
    return np.empty(padded), np.empty(padded), np.empty(rows * width), np.empty(rows * width)


def _squared_prewitt(plane: np.ndarray, a: int, b: int, out: np.ndarray, buffers: tuple) -> None:
    """Squared magnitude of the 1/3-normalized Prewitt responses on rows ``[a, b)``, into ``out``.

    The masks are correlated with replicate edges: the padded buffer takes
    plane rows a - 1 to b, clamped to the plane, each row's end samples
    repeated. Unscaled, the horizontal response is the 3-row sum at column
    j minus it at column j + 2, and the vertical one the 3-column sum at
    row i minus it at row i + 2. Squared and summed, they are scaled once
    by 1/9. The vertical response reuses the padded buffer.
    """
    padded, sums = buffers[:2]
    (h, w), n = plane.shape, b - a
    edged = _view(padded, n + 2, w + 2)
    edged[1:-1, 1:-1] = plane[a:b]
    edged[0, 1:-1] = plane[max(a - 1, 0)]
    edged[-1, 1:-1] = plane[min(b, h - 1)]
    edged[:, 0] = edged[:, 1]
    edged[:, -1] = edged[:, -2]
    row_sums = _view(sums, n, w + 2)
    np.add(edged[:-2], edged[1:-1], out=row_sums)
    row_sums += edged[2:]
    np.subtract(row_sums[:, :-2], row_sums[:, 2:], out=out)
    out *= out
    col_sums = _view(sums, n + 2, w)
    np.add(edged[:, :-2], edged[:, 1:-1], out=col_sums)
    col_sums += edged[:, 2:]
    vertical = _view(padded, n, w)
    np.subtract(col_sums[:-2], col_sums[2:], out=vertical)
    vertical *= vertical
    out += vertical
    out /= 9.0


def _gradient_map(ref: np.ndarray, dst: np.ndarray, a: int, b: int, buffers: tuple) -> np.ndarray:
    """Gradient similarity on rows ``[a, b)``, in the sums buffer; the two maps are spent."""
    _, sums, first, second = buffers
    n, w = b - a, ref.shape[1]
    sq_ref, sq_dst = _view(first, n, w), _view(second, n, w)
    _squared_prewitt(ref, a, b, sq_ref, buffers)
    _squared_prewitt(dst, a, b, sq_dst, buffers)
    similarity = _view(sums, n, w)
    np.multiply(sq_ref, sq_dst, out=similarity)
    np.sqrt(similarity, out=similarity)
    similarity *= 2.0
    similarity += _GRADIENT_C
    sq_ref += sq_dst
    sq_ref += _GRADIENT_C
    similarity /= sq_ref
    return similarity


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
      notices), so equal gradients still give exactly 1. :func:`score`
      runs the same kernels on each row tile.
    """
    ref, dst = _check_pair(ref_luma, dst_luma)
    require_gradient_size(ref.shape)
    return _gradient_map(ref, dst, 0, len(ref), _buffers(*ref.shape))


def _chroma_map(ref: np.ndarray, dst: np.ndarray, out: np.ndarray, den: np.ndarray) -> np.ndarray:
    # chroma_similarity into ``out``; the denominator is summed in ``den``
    # first, so that ``out`` can take dst^2 on the way
    np.square(ref, out=den)
    np.square(dst, out=out)
    den += out
    den += _CHROMA_T
    np.multiply(2.0, ref, out=out)
    out *= dst
    out += _CHROMA_T
    out /= den
    return out


def chroma_similarity(ref_chroma: np.ndarray, dst_chroma: np.ndarray) -> np.ndarray:
    """Pointwise chroma similarity map ``(2*r*d + t) / (r^2 + d^2 + t)`` with ``t = 200``.

    Values lie in [-1, 1]: at most 1, exactly 1 where the planes agree,
    and possibly negative where the chroma values have opposite signs and
    dominate the stability constant, which keeps the denominator positive.
    """
    ref, dst = _check_pair(ref_chroma, dst_chroma)
    return _chroma_map(ref, dst, np.empty(ref.shape), np.empty(ref.shape))


def _chroma_power(product: np.ndarray, weight: float, scratch=None, out=None) -> np.ndarray:
    # Real part of the principal-branch power x^w, the real() convention
    # the established metrics use for their chroma exponent: |x|^w for
    # x >= 0 (-0.0 included) and |x|^w * cos(pi*w) for x < 0, without a
    # complex128 copy; weight 0 gives exactly 1 everywhere. Each sample is
    # multiplied by a factor gathered by its sign, 1.0 or cos(pi*w); x * 1.0
    # is x for every x, NaN and inf included. ``scratch`` and ``out``
    # (float64, the product's shape, new if not given) first take the
    # factors and the signs, as int64 so that take copies no intp indices;
    # take's default "raise" mode would buffer. ``product`` is left as is.
    out = np.empty(product.shape) if out is None else out
    factors = np.empty(product.shape) if scratch is None else scratch
    negative = out.view(np.int64)
    np.less(product, 0, out=negative)
    np.array([1.0, np.cos(np.pi * weight)]).take(negative, out=factors, mode="clip")
    np.abs(product, out=out)
    out **= weight
    out *= factors
    return out


# score() builds its maps over row tiles of about this many samples (128 KB
# per map buffer), so its four buffers stay in cache. In two in-process runs,
# 2^15 was 0-5 % faster at 270x480 and 0-4 % slower at 192x256, with twice
# the buffers (tracemalloc peak 1.20 against 0.67 MB at 270x480); 2^13 was
# 3-23 % slower at both sizes, and 2^16 no faster than 2^15.
_TILE_SAMPLES = 1 << 14


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
    pairs = [None if a is None else _check_pair(a, b) for a, b in zip(ref.planes, dst.planes)]
    h, w = pairs[0][0].shape
    require_gradient_size((h, w))

    # A tile reads the luma rows beside it, so it may be one row. The
    # gradient map stays in the sums buffer; the first chroma map, then the
    # product, takes the first map, the second, then the composite, the other.
    rows = max(1, _TILE_SAMPLES // w)
    buffers = padded, _, first, second = _buffers(min(rows, h), w)
    sums = [0.0, 0.0, 0.0, 0.0]  # composite, gradient, chroma1, chroma2
    for a in range(0, h, rows):
        b = min(a + rows, h)
        composite = gradient_map = _gradient_map(*pairs[0], a, b, buffers)
        maps = (_view(first, b - a, w), _view(second, b - a, w), _view(padded, b - a, w))
        product = None
        for i, pair in enumerate(pairs[1:], 2):
            if pair is not None:
                out, scratch = maps[:2] if product is None else maps[1:]
                cmap = _chroma_map(pair[0][a:b], pair[1][a:b], out, scratch)
                sums[i] += float(cmap.sum())
                product = cmap if product is None else np.multiply(product, cmap, out=product)
        if product is not None:
            power = _chroma_power(product, _CHROMA_WEIGHT, scratch=maps[2], out=maps[1])
            composite = np.multiply(gradient_map, power, out=power)
        sums[0] += float(composite.sum())
        sums[1] += float(gradient_map.sum())
    value, gradient, chroma1, chroma2 = (s / (h * w) for s in sums)
    return QualityScore(
        value=value,
        gradient=gradient,
        chroma1=None if ref.chroma1 is None else chroma1,
        chroma2=None if ref.chroma2 is None else chroma2,
    )
