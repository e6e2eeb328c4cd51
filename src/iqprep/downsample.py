"""Uniform box filtering fused with decimation, plus the factor rule.

Two implementations of the same reduction are kept on purpose:

* :func:`block_mean_decimate` is the production path. It averages each
  M x M block directly at the retained output positions, one pass, no
  full-resolution intermediate.
* :func:`separate_filter_then_decimate` is the literal two-stage form:
  filter the full grid with uniform 1/M^2 weights, then sample the
  filtered image at stride M from the origin. It exists as an
  independent oracle for the fused path and is not instrumented.

On float planes both accumulate the M^2 in-block samples in the same
fixed row-major order and scale by the same reciprocal, so on identical
input they agree bit for bit, not merely within tolerance. 8-bit planes
take an integer path in :func:`block_mean_decimate`: every partial block
sum is an integer of at most M^2 * 255, exact in any order, so it sums
rows first (the cheap order) and the result still equals the float path
on the same values bit for bit.

Boundary policy (fixed in v1): trailing rows/columns that do not fill a
complete block are dropped, with the block grid anchored at (0, 0). This
keeps the reduction exactly linear, which is what makes reordering it
with a linear color transform score-preserving.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from iqprep.counters import OpCounter

__all__ = [
    "DownsampleSpec",
    "compute_factor",
    "block_mean_decimate",
    "separate_filter_then_decimate",
    "count_decimate_ops",
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


def block_mean_decimate(
    plane: np.ndarray,
    spec: DownsampleSpec,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Average each M x M block and keep one sample per block.

    Output dimensions are ``(h // M, w // M)``; output sample (i, j) is the
    arithmetic mean of the input block with top-left corner (i*M, j*M).
    The M^2 block samples are summed and scaled once by 1/M^2, which costs
    M^2 - 1 adds and 1 multiply per output sample; ``counter``, when
    given, is incremented by exactly that. Float planes are summed in
    row-major block order. uint8 planes are summed exactly in the smallest
    unsigned integer type that holds M^2 * 255, rows of each block first
    and then columns; since every partial sum is exact, the float64 result
    equals the float path on the same values bit for bit.

    Parameters
    ----------
    plane : ndarray
      2-D input plane, uint8 or anything that converts to float64.
    spec : DownsampleSpec
      Reduction factor M. With M = 1 the input is returned unchanged
      (uint8 input as a float64 copy) and nothing is counted.
    counter : OpCounter, optional
      Receives the multiply/add tally of this call.

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
    out_h, out_w = h // m, w // m
    if out_h == 0 or out_w == 0:
        raise ValueError(f"plane {h}x{w} is smaller than the {m}x{m} filter")
    trimmed = p[: out_h * m, : out_w * m]
    if integer:
        out = _integer_block_mean(trimmed, m)
    else:
        # Fixed row-major accumulation over the block, seeded with the
        # (0, 0) sample: m*m - 1 vectorized adds over the output grid.
        acc = trimmed[0::m, 0::m].copy()
        for k in range(m):
            for l in range(m):
                if k == 0 and l == 0:
                    continue
                acc += trimmed[k::m, l::m]
        out = acc * (1.0 / (m * m))
    if counter is not None:
        n_out = out_h * out_w
        counter.record(multiplies=n_out, adds=(m * m - 1) * n_out)
    return out


def _integer_block_mean(trimmed: np.ndarray, m: int) -> np.ndarray:
    """Block means of a uint8 plane whose sides are multiples of ``m``.

    The M rows of each block are added first, over contiguous full-width
    rows (M(M-1) adds per output sample), then the M columns of the
    M-times narrower row sums (M-1 adds). Every partial sum is an integer
    of at most M^2 * 255 and fits ``acc_t``, so the sums are exact.
    """
    acc_t = np.min_scalar_type(m * m * 255)
    cols = trimmed[0::m].astype(acc_t)
    for k in range(1, m):
        cols += trimmed[k::m]
    acc = cols[:, 0::m].copy()
    for l in range(1, m):
        acc += cols[:, l::m]
    # The explicit dtype keeps value-based casting (numpy < 2) from
    # narrowing the result below float64.
    return np.multiply(acc, 1.0 / (m * m), dtype=np.float64)


def separate_filter_then_decimate(plane: np.ndarray, spec: DownsampleSpec) -> np.ndarray:
    """Reference two-stage path: full-grid mean filter, then stride-M sampling.

    The filtered value at (i, j) is the uniform-weight mean of the M x M
    window anchored there, computed at every valid position (no padding);
    the result is then sampled at stride M starting from (0, 0). The
    retained positions and the per-sample accumulation order match
    :func:`block_mean_decimate` exactly, so the two paths are bit-equal.
    """
    p = _as_plane(plane)
    m = spec.factor
    if m == 1:
        return p
    h, w = p.shape
    if h < m or w < m:
        raise ValueError(f"plane {h}x{w} is smaller than the {m}x{m} filter")
    grid_h, grid_w = h - m + 1, w - m + 1
    filtered = p[:grid_h, :grid_w].copy()
    for k in range(m):
        for l in range(m):
            if k == 0 and l == 0:
                continue
            filtered += p[k : k + grid_h, l : l + grid_w]
    filtered *= 1.0 / (m * m)
    return np.ascontiguousarray(filtered[::m, ::m])


def count_decimate_ops(height: int, width: int, spec: DownsampleSpec) -> OpCounter:
    """Closed-form operation count of :func:`block_mean_decimate` on one plane."""
    m = spec.factor
    if m == 1:
        return OpCounter()
    n_out = (height // m) * (width // m)
    return OpCounter(multiplies=n_out, adds=(m * m - 1) * n_out)
