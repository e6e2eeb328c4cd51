"""Acceptance suite: one test per shipping criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one PASS line per
criterion on stdout; under plain ``pytest -v`` the per-test PASSED/FAILED
lines carry the same information.
"""

import hashlib
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

from iqprep.bench import PipelineConfig, _time_orderings, emit_report
from iqprep.colorspace import ChannelSet, builtin_matrices, builtin_matrix, transform
from iqprep.downsample import (
    DownsampleSpec,
    block_mean_decimate,
    compute_factor,
    separate_filter_then_decimate,
)
from iqprep.image import load_pnm, synth_image, write_pnm
from iqprep.metrics import score
from iqprep.pipeline import Strategy, preprocess, select_strategy

DATA_DIR = Path(__file__).parent / "data"
TABLE_SIZES = [(384, 512), (1080, 1920), (2160, 3840)]
ALL = ChannelSet.all_channels()


def _passed(number: int, name: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: PASS{suffix}")


def test_c1_strategy_equivalence_randomized():
    """Channel samples and metric scores agree across orderings, <= 1e-9."""
    rng = np.random.default_rng(20260810)
    matrices = builtin_matrices()
    cases = 200
    scored = 0
    worst_channel = 0.0
    worst_score = 0.0
    for case in range(cases):
        height = int(rng.integers(8, 513))
        width = int(rng.integers(8, 513))
        factor = int(rng.choice([1, 2, 3, 4, 8]))
        matrix = matrices[case % len(matrices)]
        channels = ChannelSet(
            luma=True, chroma1=bool(rng.integers(0, 2)), chroma2=bool(rng.integers(0, 2))
        )
        spec = DownsampleSpec(factor)
        seed = int(rng.integers(0, 2**62))
        ref = synth_image(height, width, seed)
        dst = synth_image(height, width, seed + 1)

        cf_ref = preprocess(ref, matrix, channels, Strategy.CONVERT_FIRST, spec)
        cf_dst = preprocess(dst, matrix, channels, Strategy.CONVERT_FIRST, spec)
        df_ref = preprocess(ref, matrix, channels, Strategy.DOWNSAMPLE_FIRST, spec)
        df_dst = preprocess(dst, matrix, channels, Strategy.DOWNSAMPLE_FIRST, spec)

        for cf, df in ((cf_ref, df_ref), (cf_dst, df_dst)):
            for a, b in zip(cf.planes, df.planes):
                if a is None:
                    continue
                diff = float(np.max(np.abs(a - b)))
                worst_channel = max(worst_channel, diff)
                assert diff <= 1e-9, (height, width, factor, matrix.name, channels)

        # the gradient term needs at least a 3x3 reduced plane; score the
        # case whenever the metric is defined on it
        if height // factor >= 3 and width // factor >= 3:
            score_delta = abs(score(cf_ref, cf_dst).value - score(df_ref, df_dst).value)
            worst_score = max(worst_score, score_delta)
            assert score_delta <= 1e-9, (height, width, factor, matrix.name, channels)
            scored += 1
    assert scored >= 150
    _passed(
        1,
        "strategy equivalence",
        f"{cases} cases ({scored} scored), worst channel diff {worst_channel:.2e}, "
        f"worst score diff {worst_score:.2e}",
    )


def test_c2_factor_rule():
    """round(min(h, w) / 256) half-away-from-zero, clamped below to 1."""
    expected = {(384, 512): 2, (1080, 1920): 4, (2160, 3840): 8, (256, 256): 1, (100, 100): 1}
    for (height, width), factor in expected.items():
        assert compute_factor(height, width).factor == factor, (height, width)
    _passed(2, "factor rule", "384x512->2, 1080x1920->4, 2160x3840->8, small->1")


def test_c3_conversion_cost_reduction():
    """Downsample-first conversion multiplies equal h*w*3k/M^2; ratios 4/16/64."""
    ratios = {}
    for height, width in TABLE_SIZES:
        spec = compute_factor(height, width)
        m = spec.factor
        img = synth_image(height, width, 1)
        df = preprocess(img, builtin_matrix("yiq"), ALL, Strategy.DOWNSAMPLE_FIRST, spec)
        cf = preprocess(img, builtin_matrix("yiq"), ALL, Strategy.CONVERT_FIRST, spec)
        k = ALL.count
        assert df.ops.conversion.multiplies == height * width * 3 * k // (m * m)
        assert cf.ops.conversion.multiplies == height * width * 3 * k
        ratio = cf.ops.conversion.multiplies / df.ops.conversion.multiplies
        assert ratio == m * m
        ratios[f"{height}x{width}"] = int(ratio)
    assert list(ratios.values()) == [4, 16, 64]
    _passed(3, "conversion-cost reduction", f"counter ratios {ratios}")


def test_c4_downsampling_parity():
    """With all three channels both orderings filter 3 full-resolution planes."""
    for height, width in [(384, 512), (123, 97)]:
        spec = DownsampleSpec(compute_factor(height, width).factor if height >= 256 else 3)
        img = synth_image(height, width, 2)
        cf = preprocess(img, builtin_matrix("lmn"), ALL, Strategy.CONVERT_FIRST, spec)
        df = preprocess(img, builtin_matrix("lmn"), ALL, Strategy.DOWNSAMPLE_FIRST, spec)
        assert cf.ops.filtering == df.ops.filtering
        per_plane_mul = (height // spec.factor) * (width // spec.factor)
        assert cf.ops.filtering.multiplies == 3 * per_plane_mul
    _passed(4, "downsampling parity", "filter counters equal, 3 full-res passes each")


def test_c5_wall_clock_direction():
    """Downsample-first wins on the clock at 4K, and more than at 384x512.

    Absolute millisecond figures from other hardware/metric internals are
    not reproducible; only the ordering and the >= 1.1 threshold are
    asserted, from medians of 5 repetitions with a warm-up pass.
    """
    yiq_full = PipelineConfig("yiq-full", builtin_matrix("yiq"), ALL)
    speedups = {}
    for size in [(384, 512), (2160, 3840)]:
        ref, dst = synth_image(*size, seed=1), synth_image(*size, seed=2)
        # iqprep bench's loop: one warm-up each, then the orderings alternate
        _, elapsed = _time_orderings(ref, dst, yiq_full, compute_factor(*size), reps=5)
        cf_ms, df_ms = (
            statistics.median(elapsed[s])
            for s in (Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST)
        )
        speedups[size] = cf_ms / df_ms
    assert speedups[(2160, 3840)] > 1.0, "downsample-first must be strictly faster at 4K"
    assert speedups[(2160, 3840)] >= 1.1
    assert speedups[(2160, 3840)] >= speedups[(384, 512)]
    _passed(
        5,
        "wall-clock direction",
        f"speedup 384x512 {speedups[(384, 512)]:.2f}x, "
        f"2160x3840 {speedups[(2160, 3840)]:.2f}x",
    )


def test_c6_selector_caveat():
    """Luminance-only keeps the conventional order; 3 channels + M >= 2 switch."""
    channel_sets = [
        ChannelSet(True, True, True),
        ChannelSet(True, True, False),
        ChannelSet(True, False, True),
        ChannelSet(False, True, True),
        ChannelSet(True, False, False),
        ChannelSet(False, True, False),
        ChannelSet(False, False, True),
    ]
    for factor in (1, 2, 3, 4, 8):
        for channels in channel_sets:
            choice = select_strategy(channels, DownsampleSpec(factor))
            if channels.count == 3 and factor >= 2:
                assert choice is Strategy.DOWNSAMPLE_FIRST, (channels, factor)
            else:
                assert choice is Strategy.CONVERT_FIRST, (channels, factor)
    _passed(6, "selector caveat", "all (k, M) combinations")


def test_c7_oracle_agreement_and_linearity():
    """Fused reduction matches the literal filter-then-stride path; both ops linear."""
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        factor = int(rng.choice([2, 3, 4, 8]))
        height = int(rng.integers(factor, 64))
        width = int(rng.integers(factor, 64))
        plane = rng.uniform(-50.0, 305.0, (height, width))
        spec = DownsampleSpec(factor)
        fused = block_mean_decimate(plane, spec)
        literal = separate_filter_then_decimate(plane, spec)
        assert np.max(np.abs(fused - literal)) <= 1e-10, (height, width, factor)
        checked += 1

    for trial in range(20):
        alpha, beta = rng.uniform(-3, 3, 2)
        a = rng.uniform(0.0, 255.0, (21, 17))
        b = rng.uniform(0.0, 255.0, (21, 17))
        spec = DownsampleSpec(int(rng.choice([2, 3, 4])))
        mixed = block_mean_decimate(alpha * a + beta * b, spec)
        split = alpha * block_mean_decimate(a, spec) + beta * block_mean_decimate(b, spec)
        assert np.max(np.abs(mixed - split)) <= 1e-9

        matrix = builtin_matrices()[trial % 2]
        planes_a = (a, b, a * 0.5 + 3.0)
        planes_b = (b, a, b * 0.25 + 1.0)
        mixed_t = transform(*(alpha * x + beta * y for x, y in zip(planes_a, planes_b)), matrix)
        t_a = transform(*planes_a, matrix)
        t_b = transform(*planes_b, matrix)
        for out, pa, pb in zip(mixed_t, t_a, t_b):
            assert np.max(np.abs(out - (alpha * pa + beta * pb))) <= 1e-9
    _passed(7, "oracle agreement", "100 fused-vs-literal planes, 20 linearity trials")


def test_c8_plumbing(tmp_path):
    """PNM round-trip byte-exact, cross-process synth determinism, stable reports."""
    img = synth_image(13, 9, 202608)
    first = tmp_path / "a.ppm"
    second = tmp_path / "b.ppm"
    write_pnm(img, first)
    write_pnm(load_pnm(first), second)
    assert first.read_bytes() == second.read_bytes()

    local_digest = hashlib.sha256(
        b"".join(chan.tobytes() for chan in synth_image(8, 8, 42).channels)
        + b"".join(chan.tobytes() for chan in synth_image(5, 9, 7).channels)
    ).hexdigest()
    child = subprocess.run(
        [
            sys.executable,
            "-c",
            "import hashlib\n"
            "from iqprep.image import synth_image\n"
            "payload = b''.join(c.tobytes() for c in synth_image(8, 8, 42).channels)\n"
            "payload += b''.join(c.tobytes() for c in synth_image(5, 9, 7).channels)\n"
            "print(hashlib.sha256(payload).hexdigest())",
        ],
        capture_output=True,
        text=True,
        check=True,
    )
    assert child.stdout.strip() == local_digest

    sys.path.insert(0, str(Path(__file__).parent))
    try:
        from test_bench import make_golden_records
    finally:
        sys.path.pop(0)
    report = emit_report(make_golden_records())
    assert report.csv == (DATA_DIR / "golden_report.csv").read_text()
    assert report.markdown == (DATA_DIR / "golden_report.md").read_text()
    _passed(8, "plumbing", "round-trip, cross-process determinism, golden report")
