"""Uniform box filtering fused with decimation, plus the factor rule.

Two implementations of the same reduction are kept on purpose:

* :func:`block_mean_decimate` averages each M x M block directly at the
  retained output positions, one pass, no full-resolution intermediate.
* :func:`separate_filter_then_decimate` is the literal two-stage form:
  filter the full grid with uniform 1/M^2 weights, then sample the
  filtered image at stride M from the origin. It exists as an
  independent oracle for the fused path.

Neither counts operations; the package's op model lives in
``iqprep.pipeline.predict_ops``.

Both sum each block in one fixed order, whatever the input dtype: the M
rows of each column first, then the M column sums, and scale once by
the same reciprocal 1/M^2. On identical input they therefore agree bit
for bit, not merely within tolerance. 8-bit planes are summed in
integers, where every partial sum is exact, so the result equals the
float64 path on the same values bit for bit as well.

``_integer_block_sum`` is the pipeline's downsample-first kernel for
the uint8 planes, whatever the matrix: one reduction of the M rows of
each block, then ``_column_sums``, one matrix product of those row sums
with M ones. Convert-first's conversion product adds the rows itself
and calls ``_column_sums`` alone. Their partial sums are exact integers, so the order in which the
reduction and BLAS add them cannot change a bit, and no order is fixed
for them.

Boundary policy (fixed in v1): trailing rows/columns that do not fill a
complete block are dropped, with the block grid anchored at (0, 0). This
keeps the reduction exactly linear, which is what makes reordering it
with a linear color transform score-preserving. The pipeline crops an
image to its whole blocks once, before either stage.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DownsampleSpec",
    "compute_factor",
    "block_mean_decimate",
    "separate_filter_then_decimate",
]


@dataclass(frozen=True)
class DownsampleSpec:
    """Reduction factor for filtering + decimation.

    ``factor == 1`` means pass-through: no filtering, no decimation, no
    counted operations. Partial trailing blocks are always truncated.
    """

    factor: int

    def __post_init__(self) -> None:
        if isinstance(self.factor, bool) or not hasattr(self.factor, "__index__"):
            raise TypeError(f"downsample factor must be an integer, got {self.factor!r}")
        object.__setattr__(self, "factor", operator.index(self.factor))
        if self.factor < 1:
            raise ValueError(f"downsample factor must be >= 1, got {self.factor}")


def compute_factor(height: int, width: int) -> DownsampleSpec:
    """Factor selection rule: round(min(h, w) / 256), clamped below to 1.

    Rounding is half-away-from-zero (the MATLAB ``round`` convention used
    by the reference metric implementations), so e.g. 384x512 gives
    round(1.5) = 2. Images smaller than 256 on both sides would round to
    0 and are clamped to 1 (pass-through).
    """
    # min/256 is a division by a power of two, hence exact in doubles,
    # so the +0.5-and-floor form cannot misround a true halfway case.
    factor = math.floor(min(height, width) / 256 + 0.5)
    return DownsampleSpec(factor=max(1, factor))


def _as_plane(plane: np.ndarray, dtype: type | None = np.float64) -> np.ndarray:
    p = np.asarray(plane, dtype=dtype)
    if p.ndim != 2:
        raise ValueError(f"expected a 2-D plane, got shape {p.shape}")
    return p


def block_mean_decimate(plane: np.ndarray, spec: DownsampleSpec) -> np.ndarray:
    """Average each M x M block and keep one sample per block.

    Output dimensions are ``(h // M, w // M)``; output sample (i, j) is the
    arithmetic mean of the input block with top-left corner (i*M, j*M).
    The M^2 block samples are summed and scaled once by 1/M^2, which costs
    M^2 - 1 adds and 1 multiply per output sample (counted by the
    pipeline, not here). uint8 and float planes alike are summed rows of
    each block first, then columns; uint8 sums are exact, so they equal
    the float64 result on the same values.

    Parameters
    ----------
    plane : ndarray
      2-D input plane, uint8 or anything that converts to float64.
    spec : DownsampleSpec
      Reduction factor M. With M = 1 the input is returned unchanged
      (uint8 input as a float64 copy).

    Returns
    -------
    ndarray
      The reduced plane.

    Raises
    ------
    ValueError
      If the plane is smaller than M in either axis (for M > 1).
    """
    m = spec.factor
    integer = m > 1 and np.asarray(plane).dtype == np.uint8
    p = _as_plane(plane, None if integer else np.float64)
    if m == 1:
        return p
    h, w = p.shape
    if h < m or w < m:
        raise ValueError(f"plane {h}x{w} is smaller than the {m}x{m} filter")
    # The explicit dtype keeps value-based casting (numpy < 2) from
    # narrowing an integer sum below float64.
    return np.multiply(_block_sum(p, m), 1.0 / (m * m), dtype=np.float64)


def _block_sum(plane: np.ndarray, m: int) -> np.ndarray:
    """Sums of the whole M x M blocks of a 2-D plane at least M x M, for M >= 2.

    Trailing rows and columns that fill no block are dropped. The M rows
    of each block are added first, over contiguous full-width rows
    (M(M-1) adds per output sample), then the M columns of the M-times
    narrower row sums (M-1 adds), in the smallest unsigned type that
    holds M^2 * 255 for uint8 planes, so every partial sum is exact, and
    in the plane's own dtype for others.
    """
    h, w = plane.shape
    trimmed = plane[: h - h % m, : w - w % m]
    dtype = np.min_scalar_type(m * m * 255) if plane.dtype == np.uint8 else plane.dtype
    cols = np.add(trimmed[0::m], trimmed[1::m], dtype=dtype)
    for k in range(2, m):
        cols += trimmed[k::m]
    acc = np.add(cols[:, 0::m], cols[:, 1::m], dtype=dtype)
    for l in range(2, m):
        acc += cols[:, l::m]
    return acc


def _integer_block_sum(
    plane: np.ndarray, m: int, rows: np.ndarray, columns: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Sums of the M x M blocks of an integer-valued plane of whole blocks, into ``out``.

    For M >= 2. ``rows`` and ``columns`` are flat scratch buffers of at
    least ``plane.size / M`` elements, reused from call to call; ``out``
    is flat, of ``plane.size / M^2`` elements. One reduction adds the M
    rows of each block into ``rows``, in its dtype, and
    :func:`_column_sums` adds the M columns. Every partial sum must be an
    integer exact in its dtype: then neither the reduction's order nor
    BLAS's changes a bit.
    """
    r, w = plane.shape[0] // m, plane.shape[1]
    row_sums = rows[: r * w].reshape(r, w)
    np.add.reduce(plane.reshape(r, m, w), axis=1, dtype=rows.dtype, out=row_sums)
    return _column_sums(row_sums, m, columns, out)


def _column_sums(
    row_sums: np.ndarray, m: int, columns: np.ndarray | None, out: np.ndarray
) -> np.ndarray:
    """Sums of each M consecutive integer row sums, in C order, into ``out``.

    For M >= 2: ``row_sums`` holds ``out.size * M`` of them, the M row
    sums of a block side by side. Unless they have ``out``'s float dtype
    already, they are cast into ``columns``, a flat scratch buffer of
    that dtype reused from call to call. One matrix product with M ones
    then adds each block's M columns; its partial sums are exact
    integers, so BLAS's order cannot change a bit.
    """
    if row_sums.dtype != out.dtype:
        cast = columns[: row_sums.size]
        np.copyto(cast.reshape(row_sums.shape), row_sums)
        row_sums = cast
    return np.matmul(row_sums.reshape(-1, m), np.ones(m, out.dtype), out=out)


def separate_filter_then_decimate(plane: np.ndarray, spec: DownsampleSpec) -> np.ndarray:
    """Reference two-stage path: full-grid mean filter, then stride-M sampling.

    The filtered value at (i, j) is the uniform-weight mean of the M x M
    window anchored there, computed at every valid position (no padding);
    the result is then sampled at stride M starting from (0, 0). Each
    window is summed rows first, for each column offset, then over the
    column offsets, and scaled by 1/M^2: the order of
    :func:`block_mean_decimate`, so the two paths are bit-equal.
    """
    p = _as_plane(plane)
    m = spec.factor
    if m == 1:
        return p
    h, w = p.shape
    if h < m or w < m:
        raise ValueError(f"plane {h}x{w} is smaller than the {m}x{m} filter")
    grid_h, grid_w = h - m + 1, w - m + 1
    rows = p[:grid_h].copy()
    for k in range(1, m):
        rows += p[k : k + grid_h]
    filtered = rows[:, :grid_w].copy()
    for l in range(1, m):
        filtered += rows[:, l : l + grid_w]
    filtered *= 1.0 / (m * m)
    return np.ascontiguousarray(filtered[::m, ::m])
