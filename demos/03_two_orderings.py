"""
Convert-first versus downsample-first
=====================================

The conventional front-end converts color at full resolution and then
reduces each converted channel. Running the reduction first and
converting the small RGB planes afterwards produces the same channels,
and therefore the same metric scores. Both orderings sum integers for
every matrix (for the built-in ones, whose coefficients are short
decimals, integer numerators over 10^d; for any other, two fixed-point
limbs of integer numerators), so the channels are bit-identical.
"""

from iqprep import (
    ChannelSet,
    DownsampleSpec,
    Strategy,
    builtin_matrices,
    preprocess,
    score,
    select_strategy,
    synth_image,
    verify_equivalence,
)

ref = synth_image(384, 512, seed=42)
dst = synth_image(384, 512, seed=43)
spec = DownsampleSpec(2)

# Per-channel worst-case disagreement between the orderings, per matrix.
for matrix in builtin_matrices():
    report = verify_equivalence(ref, matrix, spec=spec)
    print(f"{matrix.name}: max per-channel |difference| =", report.per_channel,
          "->", "OK" if report.passed else "VIOLATION")

# The scores built on top are therefore identical as well. preprocess
# runs the ordering its Strategy names, here each one explicitly.
matrix = builtin_matrices()[0]
score_cf, score_df = (
    score(
        preprocess(ref, matrix, strategy=strategy, spec=spec),
        preprocess(dst, matrix, strategy=strategy, spec=spec),
    )
    for strategy in (Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST)
)
print(f"score convert-first    : {score_cf.value:.15f}")
print(f"score downsample-first : {score_df.value:.15f}")
print(f"|delta|                : {abs(score_cf.value - score_df.value):.2e}")

# The selector picks downsample-first only when it actually wins: all
# three channels needed and a factor of at least 2. A luminance-only
# metric would filter one plane instead of three, so it keeps the
# conventional order.
for channels, label in [
    (ChannelSet.all_channels(), "all three channels"),
    (ChannelSet.luma_only(), "luminance only"),
]:
    for factor in (1, 4):
        choice = select_strategy(channels, DownsampleSpec(factor))
        print(f"{label}, M={factor}: {choice.value}")

# AUTO, preprocess's default, is never executed as-is; it always
# resolves first.
assert select_strategy(ChannelSet.all_channels(), spec) is Strategy.DOWNSAMPLE_FIRST
