"""
Deterministic test images and PNM round trips
=============================================

Every other capability needs concrete inputs, so the package ships a tiny
synthetic image generator (SplitMix64-backed, identical bytes on every
platform) and a binary PNM (P6) codec that inverts itself exactly.
"""

import tempfile
from pathlib import Path

import numpy as np

from iqprep import load_pnm, synth_image, to_planes, write_pnm

# Same (height, width, seed) always gives the same image, byte for byte.
img = synth_image(4, 6, seed=42)
again = synth_image(4, 6, seed=42)
print("red channel:")
print(img.red)
print("deterministic:", all(np.array_equal(a, b) for a, b in zip(img.channels, again.channels)))

# Write it out and read it back: the on-disk bytes are fully specified,
# so write -> load -> write reproduces the first file exactly.
with tempfile.TemporaryDirectory() as tmp:
    first = Path(tmp) / "a.ppm"
    second = Path(tmp) / "b.ppm"
    write_pnm(img, first)
    write_pnm(load_pnm(first), second)
    print("file bytes:", first.read_bytes()[:15], "...")
    print("round trip byte-identical:", first.read_bytes() == second.read_bytes())

# float64 planes keep the 0..255 range, so integer sample values survive
# the conversion exactly. (The pipeline itself reads the uint8 channels
# directly and never needs these full-resolution copies.)
red_plane, green_plane, blue_plane = to_planes(img)
print("planes dtype:", red_plane.dtype)
print("values preserved:", np.array_equal(red_plane.astype(np.uint8), img.red))
