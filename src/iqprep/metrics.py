"""Lightweight full-reference similarity measures over preprocessed channels.

These are deliberately small stand-ins with the same shape as the
established full-reference metrics: a structure term from gradient
magnitudes on the luminance channel, and a pointwise similarity term on
each chroma channel, combined with a fixed chroma exponent. They
exist so that end-to-end score invariance under a front-end strategy swap
is assertable on something realistic, not to compete on prediction
accuracy.

Both terms run in real float64 arithmetic. The Prewitt responses come
from 3-row and 3-column sums with replicate edges, read from the luma's
rows in place, and the gradient term works on squared magnitudes, so it
takes one square root per sample. The chroma exponent takes the real part
of the principal-branch power in closed form, without a complex cast. The
maps are built by kernels that write into four float64 buffers, all of
the plane's width: a scratch for row and column sums, the vertical
response, and two maps. Each step is one op on contiguous rows; only the
edge rows and the two end columns take small ops of their own.
:func:`score` allocates the buffers once per call at the size of one row
tile and pools running sums tile by tile; the public map functions give
them the size of the plane. Every map sample has the bits of the
whole-plane map; only the order in which the means are summed differs.
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
    # C order, so that the Prewitt kernel can read a plane's rows as flat slices
    a = np.asarray(ref, dtype=np.float64, order="C")
    b = np.asarray(dst, dtype=np.float64, order="C")
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
    """The flat sums, vertical, first and second map buffers for tiles of up to ``rows`` rows."""
    return np.empty((rows + 2) * width), *(np.empty(rows * width) for _ in range(3))


def _sum3(before: np.ndarray, sample: np.ndarray, after: np.ndarray, out: np.ndarray) -> None:
    np.add(before, sample, out=out)
    out += after


def _difference(before: np.ndarray, sample: np.ndarray, after: np.ndarray, out: np.ndarray) -> None:
    np.subtract(before, after, out=out)


def _along_rows(op, x: np.ndarray, s: int, n: int, out: np.ndarray) -> None:
    """``op(row above, row, row below, out)`` for rows ``s`` to ``s + n`` of ``x``, into ``out``.

    ``x`` and ``out`` are C-contiguous. The rows with both neighbours in
    ``x`` go as one flat op; a first or last row of ``x`` is its own
    neighbour beyond the edge, in a one-row op.
    """
    m, w = x.shape
    top, bottom = int(s == 0), int(s + n == m)
    i, j = s + top, s + n - bottom
    f = x.ravel()
    above, row, below = (f[k * w : (k + j - i) * w] for k in (i - 1, i, i + 1))
    op(above, row, below, out[top : n - bottom].ravel())
    if top:
        op(x[0], x[0], x[1], out[0])
    if bottom:
        op(x[-2], x[-1], x[-1], out[-1])


def _across_columns(op, x: np.ndarray, out: np.ndarray) -> None:
    """``op(left, sample, right, out)`` for every sample of ``x``, into ``out``; end columns repeat.

    ``x`` and ``out`` are C-contiguous and at least 3 wide. One flat op
    covers every row; at each row's ends it wraps into the rows beside it,
    and a two-column op then computes those samples again, clamped. Should
    the flat op overflow or turn invalid, which a wrapped sample alone may
    do, the 2-D ops that leave the ends out run instead, under the
    caller's error state, so only the samples of the map raise warnings.
    """
    f, o = x.ravel(), out.ravel()
    try:
        with np.errstate(over="raise", invalid="raise"):
            op(f[:-2], f[1:-1], f[2:], o[1:-1])
    except FloatingPointError:
        op(x[:, :-2], x[:, 1:-1], x[:, 2:], out[:, 1:-1])
    w = x.shape[1]
    op(x[:, : w - 1 : w - 2], x[:, :: w - 1], x[:, 1 :: w - 2], out[:, :: w - 1])


def _squared_prewitt(plane: np.ndarray, a: int, b: int, out: np.ndarray, buffers: tuple) -> None:
    """Squared magnitude of the 1/3-normalized Prewitt responses on rows ``[a, b)``, into ``out``.

    The masks are correlated with replicate edges, on plane rows a - 1 to
    b, clamped to the C-contiguous plane and read in place. Unscaled, the
    horizontal response is the 3-row sum at column j - 1 minus it at
    column j + 1, and the vertical one the 3-column sum at row i - 1 minus
    it at row i + 1, each sum added in that order. Squared and summed,
    they are scaled once by 1/9. Both sums go in the sums buffer, the
    vertical response in the vertical one.
    """
    sums, vertical = buffers[:2]
    (h, w), n = plane.shape, b - a
    lo, hi = max(a - 1, 0), min(b + 1, h)
    rows = plane[lo:hi]
    row_sums = _view(sums, n, w)
    _along_rows(_sum3, rows, a - lo, n, row_sums)
    _across_columns(_difference, row_sums, out)
    out *= out
    col_sums = _view(sums, hi - lo, w)
    _across_columns(_sum3, rows, col_sums)
    response = _view(vertical, n, w)
    _along_rows(_difference, col_sums, a - lo, n, response)
    response *= response
    out += response
    out /= 9.0


def _gradient_map(ref: np.ndarray, dst: np.ndarray, a: int, b: int, buffers: tuple) -> np.ndarray:
    """Gradient similarity on rows ``[a, b)``, in the sums buffer; the two maps are spent."""
    sums, _, first, second = buffers
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
# per map buffer), so its four buffers stay in cache. In two in-process runs
# with contiguous-row kernels (medians of 12 rounds of 21-call medians, at
# 270x480 yiq and 192x256 lmn), 2^15 was 0-7 % slower with twice the buffers
# (tracemalloc peak 1.06 against 0.54 MB at 270x480), 2^16 0-9 % slower, and
# 2^13 10-16 % slower at both sizes.
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
    # product, takes the first map, the second, then the composite, the
    # other, and the vertical buffer is the scratch of both.
    rows = max(1, _TILE_SAMPLES // w)
    buffers = _, vertical, first, second = _buffers(min(rows, h), w)
    sums = [0.0, 0.0, 0.0, 0.0]  # composite, gradient, chroma1, chroma2
    for a in range(0, h, rows):
        b = min(a + rows, h)
        composite = gradient_map = _gradient_map(*pairs[0], a, b, buffers)
        maps = (_view(first, b - a, w), _view(second, b - a, w), _view(vertical, b - a, w))
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
