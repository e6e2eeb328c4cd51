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

Both sum each block in one fixed order: the M rows of each column
first, then the M column sums, and scale once by the same reciprocal
1/M^2. On identical input they therefore agree bit for bit, not merely
within tolerance. Both work in float64; an 8-bit plane is cast first,
and every partial sum of 8-bit samples is an exact float64 integer.

They are the float reference the pipeline is checked against. The
pipeline's own exact integer block sums live in ``iqprep.pipeline``,
next to the code that types and sizes their buffers.

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


def _as_plane(plane: np.ndarray, m: int) -> np.ndarray:
    """The plane as float64, checked to be 2-D and, for M > 1, at least M x M."""
    p = np.asarray(plane, dtype=np.float64)
    if p.ndim != 2:
        raise ValueError(f"expected a 2-D plane, got shape {p.shape}")
    h, w = p.shape
    if m > 1 and (h < m or w < m):
        raise ValueError(f"plane {h}x{w} is smaller than the {m}x{m} filter")
    return p


def block_mean_decimate(plane: np.ndarray, spec: DownsampleSpec) -> np.ndarray:
    """Average each M x M block and keep one sample per block.

    Output dimensions are ``(h // M, w // M)``; output sample (i, j) is the
    arithmetic mean of the input block with top-left corner (i*M, j*M).
    Trailing rows and columns that fill no block are dropped. The M^2
    block samples are summed, the M rows of each block first (over
    contiguous full-width rows), then the M columns of the M-times
    narrower row sums, and scaled once by 1/M^2: M^2 - 1 adds and 1
    multiply per output sample (counted by the pipeline, not here).

    Parameters
    ----------
    plane : ndarray
      2-D input plane, anything that converts to float64.
    spec : DownsampleSpec
      Reduction factor M. With M = 1 the plane is returned as float64.

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
    p = _as_plane(plane, m)
    if m == 1:
        return p
    h, w = p.shape
    trimmed = p[: h - h % m, : w - w % m]
    cols = trimmed[0::m] + trimmed[1::m]
    for k in range(2, m):
        cols += trimmed[k::m]
    acc = cols[:, 0::m] + cols[:, 1::m]
    for l in range(2, m):
        acc += cols[:, l::m]
    acc *= 1.0 / (m * m)
    return acc


def separate_filter_then_decimate(plane: np.ndarray, spec: DownsampleSpec) -> np.ndarray:
    """Reference two-stage path: full-grid mean filter, then stride-M sampling.

    The filtered value at (i, j) is the uniform-weight mean of the M x M
    window anchored there, computed at every valid position (no padding);
    the result is then sampled at stride M starting from (0, 0). Each
    window is summed rows first, for each column offset, then over the
    column offsets, and scaled by 1/M^2: the order of
    :func:`block_mean_decimate`, so the two paths are bit-equal.
    """
    m = spec.factor
    p = _as_plane(plane, m)
    if m == 1:
        return p
    h, w = p.shape
    grid_h, grid_w = h - m + 1, w - m + 1
    rows = p[:grid_h].copy()
    for k in range(1, m):
        rows += p[k : k + grid_h]
    filtered = rows[:, :grid_w].copy()
    for l in range(1, m):
        filtered += rows[:, l : l + grid_w]
    filtered *= 1.0 / (m * m)
    return np.ascontiguousarray(filtered[::m, ::m])
