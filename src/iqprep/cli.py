"""Command-line front-end: ``bench``, ``verify``, and ``score``.

Exit codes: 0 on success, 1 when ``verify`` finds the two orderings
differ in any bit (so it is usable as a CI gate), 2 on usage or input errors.
Each command raises on bad input; :func:`main` is the one place that
turns a ``ValueError`` (``PnmParseError`` included), an ``OSError`` or the
``MemoryError`` of an image too large to allocate into
``error: <message>`` on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import os
import sys

from iqprep.bench import emit_report, run_bench
from iqprep.colorspace import ChannelSet, builtin_matrix
from iqprep.image import load_pnm, synth_image
from iqprep.metrics import score
from iqprep.pipeline import Strategy, channel_differences, preprocess


def _parse_size(text: str) -> tuple[int, int]:
    try:
        h_text, w_text = text.lower().split("x")
        height, width = int(h_text), int(w_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected HxW, got {text!r}") from None
    if height < 1 or width < 1:
        raise argparse.ArgumentTypeError(f"dimensions must be >= 1, got {text!r}")
    return height, width


def _parse_size_list(text: str) -> list[tuple[int, int]]:
    return [_parse_size(part) for part in text.split(",") if part]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iqprep",
        description="Preprocessing front-end of full-reference image quality metrics: "
        "benchmark, verify, and score with either stage ordering.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="time both strategies across image sizes")
    bench.add_argument(
        "--sizes",
        type=_parse_size_list,
        default="384x512,1080x1920,2160x3840",
        help="comma-separated HxW list (default: %(default)s)",
    )
    bench.add_argument("--reps", type=int, default=5, help="timed repetitions, >= 3")
    bench.add_argument("--out", default="report.csv", help="CSV output path")

    verify = sub.add_parser("verify", help="check score equivalence of the two orderings")
    verify.add_argument("--size", type=_parse_size, required=True, help="image size HxW")
    verify.add_argument("--seed", type=int, default=1, help="synthetic image seed")
    verify.add_argument("--matrix", default="yiq", help="built-in matrix name")

    scorer = sub.add_parser("score", help="score a distorted image against a reference")
    scorer.add_argument("--ref", required=True, help="reference image (binary PNM, P6)")
    scorer.add_argument("--dst", required=True, help="distorted image (binary PNM, P6)")
    scorer.add_argument(
        "--strategy",
        choices=sorted(s.value for s in Strategy),
        default="auto",
        help="stage ordering (default: auto)",
    )
    scorer.add_argument(
        "--luma-only",
        action="store_true",
        help="score the luminance channel only (skips the chroma terms)",
    )
    scorer.add_argument("--matrix", default="yiq", help="built-in matrix name")
    return parser


def _cmd_bench(args) -> int:
    if not args.sizes:
        raise ValueError("--sizes must name at least one HxW size")
    # Appending nothing to the CSV fails an unwritable path before anything
    # is timed; a file this creates is removed, so an input error leaves none.
    new = not os.path.lexists(args.out)
    _write(args.out, "a", "")
    if new:
        os.remove(args.out)
    report = emit_report(run_bench(args.sizes, reps=args.reps))
    _write(args.out, "w", report.csv)
    print(report.markdown)
    print(f"CSV written to {args.out}")
    return 0


def _write(path: str, mode: str, text: str) -> None:
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def _cmd_verify(args) -> int:
    matrix = builtin_matrix(args.matrix)
    height, width = args.size
    channels = ChannelSet.all_channels()
    ref = synth_image(height, width, args.seed)
    dst = synth_image(height, width, args.seed + 1)

    # each image is preprocessed once per ordering; the same four results
    # give the channel differences and the two scores
    cf_ref, cf_dst, df_ref, df_dst = (
        preprocess(image, matrix, channels, strategy)
        for strategy in (Strategy.CONVERT_FIRST, Strategy.DOWNSAMPLE_FIRST)
        for image in (ref, dst)
    )
    per_channel = channel_differences((cf_ref, df_ref), (cf_dst, df_dst))
    score_delta = abs(score(cf_ref, cf_dst).value - score(df_ref, df_dst).value)

    print(f"size {height}x{width}  matrix {matrix.name}  M {cf_ref.plan.spec.factor}")
    print("max |convert-first - downsample-first| per channel:")
    for name, diff in per_channel.items():
        print(f"  {name:8s} {diff:.3e}")
    print(f"score delta: {score_delta:.3e}")
    passed = all(d == 0.0 for d in (*per_channel.values(), score_delta))  # NaN fails
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


def _cmd_score(args) -> int:
    matrix = builtin_matrix(args.matrix)
    ref = load_pnm(args.ref)
    dst = load_pnm(args.dst)
    if (ref.height, ref.width) != (dst.height, dst.width):
        raise ValueError(f"image dimensions differ: {ref.height}x{ref.width} vs {dst.height}x{dst.width}")

    channels = ChannelSet.luma_only() if args.luma_only else ChannelSet.all_channels()
    strategy = Strategy(args.strategy)
    pre_ref, pre_dst = (preprocess(image, matrix, channels, strategy) for image in (ref, dst))
    result = score(pre_ref, pre_dst)
    ops = pre_ref.ops + pre_dst.ops

    print(f"score {result.value:.9f}")
    print(f"  gradient {result.gradient:.9f}")
    if result.chroma1 is not None:
        print(f"  chroma1  {result.chroma1:.9f}")
    if result.chroma2 is not None:
        print(f"  chroma2  {result.chroma2:.9f}")
    print(f"strategy {pre_ref.plan.strategy.value}  M {pre_ref.plan.spec.factor}")
    print(f"conversion ops: {ops.conversion.multiplies} mul, {ops.conversion.adds} add")
    print(f"filtering ops:  {ops.filtering.multiplies} mul, {ops.filtering.adds} add")
    return 0


_COMMANDS = {"bench": _cmd_bench, "verify": _cmd_verify, "score": _cmd_score}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, MemoryError) as exc:  # PnmParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
