"""Lightweight full-reference similarity measures over preprocessed channels.

These are deliberately small stand-ins with the same shape as the
established full-reference metrics: a structure term from gradient
magnitudes on the luminance channel, and a pointwise similarity term on
each chroma channel, combined with a configurable chroma exponent. They
exist so that end-to-end score invariance under a front-end strategy swap
is assertable on something realistic, not to compete on prediction
accuracy.

Both terms run in real float64 arithmetic on whole planes. The Prewitt
responses come from 3-row and 3-column sums of an edge-padded plane, and
the gradient term works on squared magnitudes, so it takes one square
root per sample and holds at most four plane-sized arrays at once. The
chroma exponent takes the real part of the principal-branch power in
closed form, without a complex cast.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Nothing here uses scipy any more. The bare import keeps it in
# sys.modules, where the benchmark harness reads its version for the run
# metadata; scipy.ndimage, which most of the import time went to, is not
# loaded.
import scipy  # noqa: F401

from iqprep.pipeline import PreprocessedChannels

__all__ = [
    "MetricConfig",
    "QualityScore",
    "gradient_similarity",
    "chroma_similarity",
    "score",
    "require_gradient_size",
]

@dataclass(frozen=True)
class MetricConfig:
    """Stability constants and the chroma exponent.

    ``gradient_c`` and ``chroma_t`` guard the similarity ratios against
    division by zero and are sized for the 0..255 dynamic range; they move
    absolute scores but not any of the invariances the tests pin down.
    """

    gradient_c: float = 160.0
    chroma_t: float = 200.0
    chroma_weight: float = 0.5

    def __post_init__(self) -> None:
        if not self.gradient_c > 0:
            raise ValueError(f"gradient_c must be positive, got {self.gradient_c}")
        if not self.chroma_t > 0:
            raise ValueError(f"chroma_t must be positive, got {self.chroma_t}")
        if not 0.0 <= self.chroma_weight <= 1.0:
            raise ValueError(f"chroma_weight must lie in [0, 1], got {self.chroma_weight}")


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


def prewitt_magnitude(plane: np.ndarray) -> np.ndarray:
    """Gradient magnitude from the two Prewitt masks, replicate-edge padded."""
    return np.sqrt(_squared_prewitt(plane))


def gradient_similarity(ref_luma: np.ndarray, dst_luma: np.ndarray, c: float = 160.0) -> np.ndarray:
    """Local structure similarity map from Prewitt gradient magnitudes.

    Parameters
    ----------
    ref_luma, dst_luma : ndarray
      Luminance planes of identical shape, at least 3 x 3.
    c : float
      Positive stability constant.

    Returns
    -------
    ndarray
      Per-pixel scores ``(2*g_r*g_d + c) / (g_r^2 + g_d^2 + c)``, each in
      (0, 1], exactly 1 where the local gradients agree. They are formed
      from the squared magnitudes ``G = g^2`` as
      ``(2*sqrt(G_r*G_d) + c) / (G_r + G_d + c)``. ``sqrt(G*G)`` rounds
      back to ``G`` (or, for ``G`` too small to square, to nothing ``c``
      notices), so equal gradients still give exactly 1.
    """
    if not c > 0:
        raise ValueError(f"stability constant must be positive, got {c}")
    ref, dst = _check_pair(ref_luma, dst_luma)
    require_gradient_size(ref.shape)
    sq_ref = _squared_prewitt(ref)
    sq_dst = _squared_prewitt(dst)
    similarity = np.multiply(sq_ref, sq_dst)
    np.sqrt(similarity, out=similarity)
    similarity *= 2.0
    similarity += c
    sq_ref += sq_dst
    sq_ref += c
    similarity /= sq_ref
    return similarity


def chroma_similarity(ref_chroma: np.ndarray, dst_chroma: np.ndarray, t: float = 200.0) -> np.ndarray:
    """Pointwise chroma similarity map ``(2*r*d + t) / (r^2 + d^2 + t)``.

    Values lie in [-1, 1]: at most 1, exactly 1 where the planes agree,
    and possibly negative where the chroma values have opposite signs and
    dominate the stability constant. Always finite for ``t > 0``.
    """
    if not t > 0:
        raise ValueError(f"stability constant must be positive, got {t}")
    ref, dst = _check_pair(ref_chroma, dst_chroma)
    return (2.0 * ref * dst + t) / (ref**2 + dst**2 + t)


def _chroma_power(product: np.ndarray, weight: float) -> np.ndarray:
    # Real part of the principal-branch power x^w, the real() convention
    # the established metrics use for their chroma exponent. For x >= 0
    # (-0.0 included) it is |x|^w; for x < 0 it is |x|^w * cos(pi*w). Real
    # arithmetic gives it without a complex128 copy of the plane, and
    # weight 0 gives exactly 1 everywhere.
    power = np.abs(product)
    power **= weight
    np.multiply(power, np.cos(np.pi * weight), out=power, where=product < 0)
    return power


def score(
    ref: PreprocessedChannels,
    dst: PreprocessedChannels,
    config: MetricConfig = MetricConfig(),
) -> QualityScore:
    """Pool the similarity maps of two preprocessed images into one scalar.

    The pooled value is the pixel mean of
    ``gradient_map * (chroma1_map * chroma2_map) ** chroma_weight``
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

    gradient_map = gradient_similarity(ref.luma, dst.luma, config.gradient_c)
    chroma_maps: list[np.ndarray] = []
    chroma_means: list[float | None] = []
    for ref_c, dst_c in ((ref.chroma1, dst.chroma1), (ref.chroma2, dst.chroma2)):
        if ref_c is None:
            chroma_means.append(None)
            continue
        cmap = chroma_similarity(ref_c, dst_c, config.chroma_t)
        chroma_maps.append(cmap)
        chroma_means.append(float(cmap.mean()))

    if chroma_maps:
        product = chroma_maps[0]
        for cmap in chroma_maps[1:]:
            product = product * cmap
        composite = gradient_map * _chroma_power(product, config.chroma_weight)
    else:
        composite = gradient_map

    return QualityScore(
        value=float(composite.mean()),
        gradient=float(gradient_map.mean()),
        chroma1=chroma_means[0],
        chroma2=chroma_means[1],
    )
