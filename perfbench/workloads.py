"""Workloads, the float oracle, and the checks every timed pair must pass.

A workload is a closed loop with one caller that evaluates (reference,
distorted) pairs back to back, as when scoring an image quality dataset.
Pair ``k`` takes images ``k mod n`` and ``k + 1 mod n`` from a pool of
``n`` distinct synthetic images generated from the run's seed.

The oracle is computed once per image, untimed: the convert-first order
on float planes cast by the benchmark itself, with ``transform`` and then
the literal two-stage ``separate_filter_then_decimate``. Every channel and
every score of a pair must match it within ``TOL``, the tolerance the
acceptance criteria pin for the two orderings.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from iqprep import colorspace, downsample, image, metrics, pipeline
from iqprep.colorspace import ChannelSet
from iqprep.downsample import DownsampleSpec
from iqprep.pipeline import Strategy

TOL = 1e-9


@dataclass
class Inputs:
    """What one run of a workload works on: the pool and its oracle."""

    matrix: colorspace.ColorMatrix
    channels: ChannelSet
    spec: DownsampleSpec
    pool: list
    oracle: list = field(default_factory=list)  # reduced planes per image
    oracle_scores: list = field(default_factory=list)  # score of pair k mod n

    def pair(self, k: int):
        n = len(self.pool)
        return self.pool[k % n], self.pool[(k + 1) % n]


@dataclass
class PairOutput:
    results: list  # (0 for reference / 1 for distorted, PreprocessedChannels)
    scores: list
    reports: list = field(default_factory=list)


def _scored_pair(inputs: Inputs, ref, dst) -> PairOutput:
    a = pipeline.preprocess(ref, inputs.matrix, inputs.channels)
    b = pipeline.preprocess(dst, inputs.matrix, inputs.channels)
    return PairOutput(results=[(0, a), (1, b)], scores=[metrics.score(a, b)])


def _verify_pair(inputs: Inputs, ref, dst) -> PairOutput:
    """The library calls ``iqprep verify`` makes for one image pair."""
    reports = [
        pipeline.verify_equivalence(img, inputs.matrix, inputs.channels, inputs.spec, tolerance=TOL)
        for img in (ref, dst)
    ]
    out = PairOutput(results=[], scores=[], reports=reports)
    for strategy in (Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST):
        a = pipeline.preprocess(ref, inputs.matrix, inputs.channels, strategy, inputs.spec)
        b = pipeline.preprocess(dst, inputs.matrix, inputs.channels, strategy, inputs.spec)
        out.scores.append(metrics.score(a, b))
        out.results += [(0, a), (1, b)]
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    height: int
    width: int
    matrix: str
    channels: ChannelSet
    factor: int  # M from the paper's rule round(min(h, w) / 256)
    pool: int
    run_pair: Callable[[Inputs, object, object], PairOutput]


# Why these three: see README.md. In short, full-4k stresses the cast and
# the reduction on planes far beyond the caches, luma-1080p the
# full-resolution conversion of the convert-first path, and verify-384 the
# per-call overhead and the metrics layer on cache-resident planes.
# full-4k keeps a pool of two because its untimed oracle costs about 4 s
# per image.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("full-4k", 2160, 3840, "yiq", ChannelSet.all_channels(), 8, 2, _scored_pair),
        Workload("luma-1080p", 1080, 1920, "yiq", ChannelSet.luma_only(), 4, 4, _scored_pair),
        Workload("verify-384", 384, 512, "lmn", ChannelSet.all_channels(), 2, 8, _verify_pair),
    )
}


def image_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


def generate(workload: Workload, seed: int) -> Inputs:
    """Set-up proper: the input pool plus the lookups a caller does once."""
    pool = [
        image.synth_image(workload.height, workload.width, image_seed(seed, i))
        for i in range(workload.pool)
    ]
    return Inputs(
        matrix=colorspace.builtin_matrix(workload.matrix),
        channels=workload.channels,
        spec=downsample.compute_factor(workload.height, workload.width),
        pool=pool,
    )


def oracle_planes(img, matrix, channels: ChannelSet, spec: DownsampleSpec) -> tuple:
    rgb = [np.asarray(c, dtype=np.float64) for c in img.channels]
    converted = colorspace.transform(*rgb, matrix, channels)
    return tuple(
        None if p is None else downsample.separate_filter_then_decimate(p, spec) for p in converted
    )


def attach_oracle(workload: Workload, inputs: Inputs, template) -> None:
    """Compute the oracle planes and scores; ``template`` is any library result.

    The oracle planes are scored by substituting them into a copy of a real
    result, so the score check follows the library's own result type.
    """
    spec = DownsampleSpec(workload.factor)
    inputs.oracle = [oracle_planes(img, inputs.matrix, inputs.channels, spec) for img in inputs.pool]
    wrapped = [replace(template, luma=o[0], chroma1=o[1], chroma2=o[2]) for o in inputs.oracle]
    n = len(wrapped)
    inputs.oracle_scores = [metrics.score(wrapped[k], wrapped[(k + 1) % n]).value for k in range(n)]


def compare_planes(got: tuple, want: tuple) -> tuple[bool, float]:
    """Whether every channel matches the oracle within TOL, and the worst error."""
    ok, worst = True, 0.0
    for a, b in zip(got, want):
        if (a is None) != (b is None):
            ok = False
            continue
        if a is None:
            continue
        if a.shape != b.shape:
            ok = False
            continue
        err = float(np.max(np.abs(a - b)))
        worst = max(worst, err)
        ok = ok and err <= TOL
    return ok, worst


@dataclass
class Checks:
    """Tally of checks; each failure is kept with a one-line description."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    max_abs_err: float = 0.0  # worst channel error of any timed pair

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def check_pair(inputs: Inputs, k: int, out: PairOutput, checks: Checks) -> None:
    """One output check per pair and one exact-counter check per result."""
    n = len(inputs.pool)
    ok = True
    for slot, result in out.results:
        match, err = compare_planes(result.planes, inputs.oracle[(k + slot) % n])
        ok = ok and match
        checks.max_abs_err = max(checks.max_abs_err, err)
        checks.record(result.ops == result.plan.predicted, f"pair {k}: ops differ from the plan")
    want = inputs.oracle_scores[k % n]
    ok = ok and all(abs(s.value - want) <= TOL for s in out.scores)
    ok = ok and all(r.passed for r in out.reports)
    checks.record(ok, f"pair {k}: output differs from the oracle")


def probe_factor_boundary(inputs: Inputs, seed: int, checks: Checks) -> None:
    """Both orderings at M = 16 and M = 17 against the oracle.

    M = 17 is the first factor whose all-255 block sum (289 * 255) no longer
    fits in 16 bits, so an integer kernel with a too-narrow accumulator
    fails here; small images keep the probe cheap.
    """
    height, width = 40, 56
    full = np.full((height, width), 255, dtype=np.uint8)
    probes = {
        "all-255": image.RgbImage8(height, width, full, full, full),
        "random": image.synth_image(height, width, image_seed(seed, 999)),
    }
    channels = ChannelSet.all_channels()
    for label, img in probes.items():
        for m in (16, 17):
            spec = DownsampleSpec(m)
            want = oracle_planes(img, inputs.matrix, channels, spec)
            for strategy in (Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST):
                result = pipeline.preprocess(img, inputs.matrix, channels, strategy, spec)
                match, _ = compare_planes(result.planes, want)
                counted = result.ops == result.plan.predicted
                checks.record(match and counted, f"probe {label} M={m} {strategy.value}")
