"""Benchmark of the iqprep preprocessing front-end.

Run from the root of a checkout (it imports the library from ``src/``)::

    python3 perfbench/run.py --workload full-4k --seed 1 --seconds 30 --trace 0

``--workload all`` runs the three workloads one after another in the same
process and ends with one combined JSON line.

One process, one thread, one closed-loop caller. Set-up imports the
library, then generates the input pool from ``--seed`` and runs one
warm-up pair, three times over; the import is timed in three fresh child
processes, one after another. The oracle and the factor-boundary probes
follow, untimed. The timed loop then evaluates pairs for
``--seconds`` seconds and at least ``MIN_PAIRS`` pairs, and checks every
pair against the oracle outside the timer.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced pairs and reports the per-layer metrics from the
spans of the traced ones. Both print a human-readable report, write it with
the run metadata (and the spans) under ``.bench_out/``, and end with one
JSON line. Any failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
SETUP_REPS = 3
IMPORT_REPS = 3
# The p90 is reported only with at least ten samples beyond it.
MIN_PAIRS = 100
OUT_DIR = ".bench_out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def fix_allocator() -> str:
    """Serve all memory from one heap that is never trimmed, on glibc.

    By default glibc maps large blocks afresh or trims the heap depending
    on thresholds it moves at run time, and the benchmark's own oracle
    arrays move them too. Whether a pair's temporaries then land on pages
    that must be faulted in and zeroed varies from one process to the
    next: the same verify-384 run measured about 36 ms or 55 ms per pair
    (some 9000 page faults per pair). Reusing the heap measures the
    program's own work the same way in every run.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return "default"
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_max = -1, -4
    if mallopt(m_mmap_max, 0) != 1 or mallopt(m_trim_threshold, 2**31 - 1) != 1:
        return "default"
    return "glibc heap: no mmap, no trim"


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def import_seconds(src: Path) -> list[float]:
    """Time ``import iqprep`` in IMPORT_REPS fresh interpreters, in turn.

    A process can import the library only once, and that one import is the
    noisiest part of a small workload's set-up, so it is repeated in child
    processes; each is waited for before the next starts.
    """
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); "
        "start = time.perf_counter(); import iqprep; print(time.perf_counter() - start)"
    )
    out = []
    for _ in range(IMPORT_REPS):
        child = subprocess.run(
            [sys.executable, "-c", code, str(src)],
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        out.append(float(child.stdout))
    return out


def timed(fn, *args):
    start = time.perf_counter_ns()
    out = fn(*args)
    return out, time.perf_counter_ns() - start


def traced_peak_mb(fn, *args) -> float:
    """tracemalloc peak, in MB, of allocations made during one call."""
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def p90_nearest_rank(sorted_ms: list[float]) -> float:
    rank = math.ceil(0.9 * len(sorted_ms))
    if len(sorted_ms) - rank < 10:
        raise ValueError(f"{len(sorted_ms)} samples leave fewer than ten beyond the p90")
    return sorted_ms[rank - 1]


def run_workload(workload, args, import_s: list[float], allocator: str):
    """Set up, check and time one workload; returns (metrics, meta, checks)."""
    import iqprep
    import numpy as np

    import layers
    import spans
    import workloads

    tracer = spans.Tracer() if args.trace else None

    setup_s = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        with tracer.installed(layers.SETUP_TARGETS) if tracer else nullcontext():
            inputs = workloads.generate(workload, args.seed)
        warm = workload.run_pair(inputs, *inputs.pair(0))
        setup_s.append(time.perf_counter() - start)

    workloads.attach_oracle(workload, inputs, warm.results[0][1])
    checks = workloads.Checks()
    workloads.probe_factor_boundary(inputs, args.seed, checks)
    if not args.trace:
        peak_mb = traced_peak_mb(workload.run_pair, inputs, *inputs.pair(0))
        setup_peak_mb = traced_peak_mb(
            iqprep.image.synth_image,
            workload.height,
            workload.width,
            workloads.image_seed(args.seed, 0),
        )

    untraced_ns: list[int] = []
    traced_ns: list[int] = []
    gc.collect()
    loop_start = time.perf_counter()
    k = 0
    while k < MIN_PAIRS or time.perf_counter() - loop_start < args.seconds:
        ref, dst = inputs.pair(k)
        if tracer is not None and k % 2:
            with tracer.installed(layers.PAIR_TARGETS), tracer.pair(k):
                out, ns = timed(workload.run_pair, inputs, ref, dst)
            traced_ns.append(ns)
        else:
            out, ns = timed(workload.run_pair, inputs, ref, dst)
            untraced_ns.append(ns)
        workloads.check_pair(inputs, k, out, checks)
        k += 1

    # name -> (value; unit; samples behind the value, 0 when absent)
    if tracer is None:
        pair_ms = sorted(ns / 1e6 for ns in untraced_ns)
        n = len(pair_ms)
        metrics = {
            "pairs_per_s": (n / (sum(pair_ms) / 1e3), "1/s", n),
            "pair_ms_p50": (statistics.median(pair_ms), "ms", n),
            "pair_ms_p90": (p90_nearest_rank(pair_ms), "ms", n),
            "setup_s": (statistics.median(import_s) + statistics.median(setup_s), "s", SETUP_REPS),
            "peak_mb": (peak_mb, "MB", 1),
            "setup_peak_mb": (setup_peak_mb, "MB", 1),
            "pass_frac": (1 - len(checks.failures) / checks.attempted, "frac", checks.attempted),
        }
    else:
        metrics = layers.per_pair_metrics(list(spans.profiles(tracer.spans).values()))
        synth_ms = [s.ms for s in tracer.spans if s.name == "image.synth_image"]
        metrics["image.synth_image.ms"] = (
            statistics.median(synth_ms) if synth_ms else 0,
            "ms",
            len(synth_ms),
        )
        metrics["pipeline.max_abs_err"] = (checks.max_abs_err, "abs", k)
        overhead = statistics.median(traced_ns) / statistics.median(untraced_ns) - 1
        metrics["trace.overhead_frac"] = (overhead, "frac", len(traced_ns))

    meta = {
        "workload": workload.name,
        "size": f"{workload.height}x{workload.width}",
        "matrix": workload.matrix,
        "channels": list(workload.channels.names()),
        "factor": workload.factor,
        "pool": workload.pool,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pairs": k,
        "setup_reps": SETUP_REPS,
        "import_s": import_s,
        "setup_reps_s": setup_s,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": sys.modules["scipy"].__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_env": {var: os.environ[var] for var in THREAD_VARS},
        "allocator": allocator,
        "commit": git_commit(Path.cwd()),
        "unwrapped": sorted(tracer.missing) if tracer else [],
    }
    if tracer is not None:
        lines = "".join(json.dumps(asdict(span)) + "\n" for span in tracer.spans)
        write_out(f"{workload.name}-seed{args.seed}-spans.jsonl", lines)
    return metrics, meta, checks


def write_out(name: str, text: str) -> None:
    out_dir = Path.cwd() / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    (out_dir / name).write_text(text)


def report(metrics: dict, meta: dict, checks) -> dict:
    """Print the human-readable report and return the result object."""
    print(f"# perfbench {meta['workload']}, seed {meta['seed']}, trace {meta['trace']}")
    for key, value in meta.items():
        print(f"#   {key}: {value}")
    for name, (value, unit, n) in metrics.items():
        shown = f"{value:.6g}" if n else "absent"
        print(f"{name:38s} {shown:>12s} {unit:10s} n={n}")
    failed = len(checks.failures)
    print(f"{'fail_frac':38s} {failed / checks.attempted:>12.6g} {'frac':10s} n={checks.attempted}")
    for failure in checks.failures[:10]:
        print(f"FAIL {failure}")
    result = {
        "correct": not failed,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit, _) in metrics.items()},
    }
    stem = f"{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}"
    samples = {name: m[2] for name, m in metrics.items()}
    write_out(f"{stem}.json", json.dumps({"meta": meta, **result, "samples": samples}, indent=1))
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "iqprep" / "__init__.py").is_file():
        print(f"error: {src}/iqprep not found; run from the root of a checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    allocator = fix_allocator()
    sys.path.insert(0, str(src))

    # The benchmark's own modules import the library, so check first that it
    # is this checkout's.
    import iqprep

    if Path(iqprep.__file__).resolve().parent != (src / "iqprep").resolve():
        print(f"error: imported iqprep from {iqprep.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads

    # The import is part of set-up time, which only untraced runs report.
    import_s = [] if args.trace else import_seconds(src)
    if args.workload == "all":
        chosen = list(workloads.WORKLOADS.values())
    elif args.workload in workloads.WORKLOADS:
        chosen = [workloads.WORKLOADS[args.workload]]
    else:
        known = ", ".join(["all", *workloads.WORKLOADS])
        print(f"error: unknown workload {args.workload!r} (known: {known})", file=sys.stderr)
        return 2

    results = {}
    for workload in chosen:
        results[workload.name] = report(*run_workload(workload, args, import_s, allocator))
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
