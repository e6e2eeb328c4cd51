"""
Timed strategy comparison
=========================

Reproduces the run-time phenomenon on this machine: both orderings give
the same scores, downsample-first gives them faster, and the gap widens
with image size. Takes on the order of a minute at the full size list;
pass smaller sizes to iterate quickly.

The same comparison is available from the command line:

    iqprep bench --sizes 384x512,1080x1920,2160x3840 --reps 5 --out report.csv
"""

import sys

from iqprep.bench import emit_report, run_bench

sizes = [(384, 512), (1080, 1920), (2160, 3840)]
if len(sys.argv) > 1:
    sizes = [tuple(int(part) for part in arg.split("x")) for arg in sys.argv[1:]]

print(f"benchmarking sizes {sizes} (median of 3 repetitions + warm-up)...")
records = run_bench(sizes, reps=3)
report = emit_report(records)
print()
print(report.markdown)

# Counters in the CSV are exact and portable; timings are this machine's.
print("CSV preview:")
for line in report.csv.strip().split("\n")[:4]:
    print(" ", line)
