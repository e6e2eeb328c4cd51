"""
The two front-end stages in isolation
=====================================

Stage one multiplies each pixel's (R, G, B) vector by a 3x3 matrix to get
luma and chroma planes. Stage two averages M x M blocks and keeps one
sample per block. Both are linear, which is what later makes their order
swappable.
"""

import numpy as np

from iqprep import (
    DownsampleSpec,
    block_mean_decimate,
    builtin_matrices,
    builtin_matrix,
    compute_factor,
    separate_filter_then_decimate,
    synth_image,
    transform,
)

# --- stage one: the color transform -----------------------------------
for matrix in builtin_matrices():
    print(f"matrix {matrix.name!r}:")
    print(matrix.coefficients)

img = synth_image(6, 6, seed=7)
red, green, blue = (c.astype(np.float64) for c in img.channels)
luma, chroma1, chroma2 = transform(red, green, blue, builtin_matrix("yiq"))
print("luma of first pixel:", luma[0, 0])
print("check against a scalar dot product:",
      0.299 * red[0, 0] + 0.587 * green[0, 0] + 0.114 * blue[0, 0])

# --- stage two: block averaging + decimation ---------------------------
plane = np.arange(25, dtype=float).reshape(5, 5)
reduced = block_mean_decimate(plane, DownsampleSpec(2))
print("5x5 plane reduced by 2 (partial 5th row/col dropped):")
print(reduced)

# The literal two-stage form (filter the full grid, then sample at stride
# M) is kept as an oracle; it agrees with the fused path bit for bit.
literal = separate_filter_then_decimate(plane, DownsampleSpec(2))
print("fused == literal:", np.array_equal(reduced, literal))

# The factor follows the image size: round(min(h, w) / 256), at least 1.
for size in [(256, 256), (384, 512), (1080, 1920), (2160, 3840)]:
    print(f"factor for {size[0]}x{size[1]}: {compute_factor(*size).factor}")
