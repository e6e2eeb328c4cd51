"""
Exact operation counters
========================

Wall-clock numbers depend on hardware; multiply/add counts do not. Every
run of preprocess is instrumented, under either ordering, the counts
match closed-form predictions exactly, and the conversion stage shrinks
by exactly M^2 when it runs after the reduction.
"""

from iqprep import (
    ChannelSet,
    Strategy,
    builtin_matrix,
    compute_factor,
    plan_pipeline,
    predict_ops,
    preprocess,
    synth_image,
)

matrix = builtin_matrix("yiq")
channels = ChannelSet.all_channels()

print(f"{'size':>12} {'M':>2} {'conv-first mul':>16} {'down-first mul':>16} {'ratio':>6}")
for height, width in [(384, 512), (1080, 1920), (2160, 3840)]:
    spec = compute_factor(height, width)
    img = synth_image(height, width, seed=1)
    cf, df = (
        preprocess(img, matrix, channels, strategy, spec)
        for strategy in (Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST)
    )

    # instrumented counts equal the attached predictions, always
    assert cf.ops == cf.plan.predicted
    assert df.ops == df.plan.predicted
    # and the filtering work is identical: three full-resolution passes
    assert cf.ops.filtering == df.ops.filtering

    ratio = cf.ops.conversion.multiplies / df.ops.conversion.multiplies
    print(
        f"{f'{height}x{width}':>12} {spec.factor:>2} {cf.ops.conversion.multiplies:>16,}"
        f" {df.ops.conversion.multiplies:>16,} {ratio:>5.0f}x"
    )

# predict_ops gives either order's counts, so the trade-off is visible
# without running anything: here a luminance-only metric at M=4.
plan = plan_pipeline(1080, 1920, matrix, ChannelSet.luma_only())
print("\nluminance-only at 1080x1920 resolves to:", plan.strategy.value)
for strategy in (Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST):
    ops = predict_ops(1080, 1920, plan.channels, plan.spec, strategy)
    print(f"  {strategy.value:15} filtering adds:", ops.filtering.adds)
print("(downsample-first would filter three RGB planes instead of one)")
