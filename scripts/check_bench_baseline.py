#!/usr/bin/env python3
"""Per-kernel perf-regression gate for bench_micro_kernels (and the
serving-overhead gate for bench_loadgen).

Compares a fresh google-benchmark JSON report against the committed
baseline (bench/baselines/BENCH_micro_kernels.baseline.json) and fails
when any (kernel, variant, shape) row regressed by more than the
threshold (default 20%).

bench_loadgen --json reports are also accepted on either side (the
file is recognized by its "bench": "loadgen" marker): each becomes a
loadgen/net_overhead/<shape> row — the ratio of in-process to
over-TCP throughput for the same frames, a same-run, machine-
independent number — anchored at a synthetic loadgen/anchor/<shape>
row pinned to 1.0. The committed serving baseline lives at
bench/baselines/BENCH_loadgen.baseline.json; refresh it the same way
(--merge with one or more loadgen runs).

Raw times are not comparable across machines, so every gated row is
first normalized by its same-run scalar anchor:

  conv_gemm/<variant>/<shape>  ->  anchored to conv_gemm/scalar/<shape>
  conv_tuned/<shape>           ->  anchored to conv_gemm/scalar/<shape>
  fc/<kind>/<dims>             ->  anchored to fc/scalar/<dims>
  rfbme/<variant>/<shape>      ->  anchored to rfbme/scalar/<shape>
  sad/<kind>/<dims>            ->  anchored to sad/scalar/<dims>

and the gate compares the *ratio* (row / anchor) between the two runs.
A variant that was 3.5x faster than scalar at baseline time but is only
2.5x faster now regressed ~40% and fails, regardless of the absolute
clock speed of either machine. Rows present in only one run (e.g. SIMD
rows on a machine without AVX2) are skipped with a notice.

Measurement methodology: both sides must be generated with many short
*randomly interleaved* repetitions --

  --benchmark_enable_random_interleaving=true \
  --benchmark_repetitions=9 --benchmark_min_time=0.1

-- and the gate takes the per-row MEDIAN across repetitions.
Interleaving spreads a row's repetitions across the whole run, so a
sustained noisy-neighbor window slows a few repetitions of many rows
instead of every repetition of a few; the median then rejects both
those slow outliers and the occasional anomalously *fast* repetition
(some tile shapes are bimodal, and a min would latch onto the rare
fast mode and poison the baseline).

Some rows are additionally bimodal *across processes* (allocation
addresses re-roll the cache aliasing each run), which no statistic
within one run can fix. The committed baseline is therefore the
*merge* of several independent runs: per gated row, the worst (highest)
normalized ratio observed, so the gate compares against each row's
slow mode and best-of-3 on the current side does the rest. Refreshing
the baseline after an intentional kernel change:

  for i in 1 2 3; do \
    ./build/bench_micro_kernels \
      --benchmark_filter='BM_ConvIm2colGemm|conv_gemm|conv_tuned|fc/|warp/|rfbme/|sad/' \
      --benchmark_enable_random_interleaving=true \
      --benchmark_repetitions=9 --benchmark_min_time=0.1 \
      --json /tmp/bench-run$i.json; done && \
  python3 scripts/check_bench_baseline.py \
      --merge bench/baselines/BENCH_micro_kernels.baseline.json \
      /tmp/bench-run1.json /tmp/bench-run2.json /tmp/bench-run3.json

The merged file stores normalized ratios directly (anchor rows pinned
at 1.0), which load_rows/the gate consume unchanged.

Exit codes (the CI retry convention): 0 = pass, 1 = regression past
the threshold (retryable -- CI re-runs the bench up to 3 times, since
shared runners are noisy neighbors), 2 = malformed report or missing
anchor rows (a configuration bug; never retried).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Any, NoReturn


def loadgen_rows(doc: dict[str, Any]) -> dict[str, float]:
    """Synthesize gate rows from a bench_loadgen --json report.

    The serving front end's gated metric is `net_overhead` =
    fps_inproc / fps_net: how much throughput the TCP layer costs over
    direct Session::submit of the same frames. It is a same-run ratio,
    so it is machine-independent by construction; the anchor row is
    pinned at 1.0 purely so the generic ratio gate below applies
    unchanged.
    """
    shape = doc.get("shape", "default")
    overhead = float(doc["net_overhead"])
    if overhead <= 0:
        raise ValueError("loadgen report has no net_overhead measurement")
    rows: dict[str, float] = {
        f"loadgen/net_overhead/{shape}": overhead,
        f"loadgen/anchor/{shape}": 1.0,
    }
    # Soak-phase resident-memory metrics (present once the loadgen ran
    # with --soak-sessions): bytes_per_session is a byte count and
    # machine-independent; hydrate_p99_us is wall time and rides the
    # same noisy-runner retry convention as every timing row.
    for key in ("bytes_per_session", "hydrate_p99_us"):
        if key in doc and float(doc[key]) > 0:
            rows[f"loadgen/{key}/{shape}"] = float(doc[key])
    return rows


def load_rows(path: str) -> dict[str, float]:
    try:
        with open(path) as f:
            doc: dict[str, Any] = json.load(f)
        if doc.get("bench") == "loadgen":
            return loadgen_rows(doc)
        samples: dict[str, list[float]] = {}
        for b in doc["benchmarks"]:
            if b.get("run_type", "iteration") != "iteration":
                continue
            # With --benchmark_repetitions=N each repetition emits a
            # row under the same name; gate on the median (see the
            # module docstring for why not the min).
            samples.setdefault(b["name"], []).append(float(b["real_time"]))
        return {name: statistics.median(ts) for name, ts in samples.items()}
    except (OSError, ValueError, KeyError) as e:
        print(f"error: cannot read benchmark report {path}: {e}")
        sys.exit(2)


def anchor_name(name: str) -> str | None:
    """Same-run scalar anchor for a gated row, or None to skip."""
    parts = name.split("/")
    if name.startswith("conv_gemm/") and len(parts) == 3:
        return f"conv_gemm/scalar/{parts[2]}"
    if name.startswith("conv_tuned/") and len(parts) == 2:
        return f"conv_gemm/scalar/{parts[1]}"
    if name.startswith("fc/") and len(parts) == 3:
        return f"fc/scalar/{parts[2]}"
    if name.startswith("rfbme/") and len(parts) == 3:
        return f"rfbme/scalar/{parts[2]}"
    if name.startswith("sad/") and len(parts) == 3:
        return f"sad/scalar/{parts[2]}"
    if name.startswith("warp/rle/") and len(parts) == 3:
        # Sparse-direct warp is anchored to the same run's
        # decode-then-warp of the identical RLE stream: the committed
        # ratio *is* the required speedup, and the 20% gate keeps it.
        return f"warp/decode/{parts[2]}"
    if len(parts) == 3 and parts[0] == "loadgen" and parts[1] in (
            "net_overhead", "bytes_per_session", "hydrate_p99_us"):
        return f"loadgen/anchor/{parts[2]}"
    return None


def merge(out_path: str, run_paths: list[str]) -> NoReturn:
    """Merge N bench runs into a committed baseline.

    Per gated row, keep the worst (highest) normalized ratio across
    the runs, so the baseline represents each row's slow mode. Emitted
    as a google-benchmark-shaped JSON with anchor rows pinned at 1.0;
    the gate's normalization then reproduces the stored ratios.
    """
    worst: dict[str, float] = {}
    anchors: set[str] = set()
    for path in run_paths:
        rows = load_rows(path)
        for name in rows:
            anchor = anchor_name(name)
            if anchor is None or name == anchor:
                continue
            if anchor not in rows:
                print(f"error: anchor row {anchor} missing for {name} "
                      f"in {path}")
                sys.exit(2)
            ratio = rows[name] / rows[anchor]
            worst[name] = max(worst.get(name, 0.0), ratio)
            anchors.add(anchor)
    if not worst:
        print("error: no gated rows found in the input runs")
        sys.exit(2)
    benchmarks: list[dict[str, object]] = [
        {"name": n, "run_type": "iteration", "real_time": t}
        for n, t in sorted(worst.items())]
    benchmarks += [{"name": a, "run_type": "iteration", "real_time": 1.0}
                   for a in sorted(anchors)]
    with open(out_path, "w") as f:
        json.dump({"context": {"merged_from_runs": len(run_paths)},
                   "benchmarks": benchmarks}, f, indent=1)
        f.write("\n")
    print(f"merged {len(worst)} gated rows from {len(run_paths)} run(s) "
          f"into {out_path}")
    sys.exit(0)


def main() -> NoReturn:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline")
    ap.add_argument("--current")
    ap.add_argument("--threshold", type=float, default=0.20,
                    help="allowed normalized slowdown (0.20 = 20%%)")
    ap.add_argument("--merge", metavar="OUT",
                    help="write a merged baseline from RUNS instead of gating")
    ap.add_argument("runs", nargs="*", metavar="RUN",
                    help="bench JSON reports to merge (with --merge)")
    args = ap.parse_args()

    if args.merge:
        if not args.runs:
            ap.error("--merge requires at least one RUN report")
        merge(args.merge, args.runs)
    if not args.baseline or not args.current:
        ap.error("--baseline and --current are required when gating")

    base = load_rows(args.baseline)
    cur = load_rows(args.current)

    gated: list[tuple[str, str]] = []
    for name in sorted(cur):
        anchor = anchor_name(name)
        if anchor is None or name == anchor:
            continue
        if name not in base:
            print(f"note: {name}: not in baseline, skipped "
                  "(refresh the baseline to start gating it)")
            continue
        for missing in (m for m in {anchor} if m not in cur or m not in base):
            print(f"error: anchor row {missing} missing for {name}")
            sys.exit(2)
        gated.append((name, anchor))

    if not gated:
        print("error: no gated rows found in both reports")
        sys.exit(2)

    failures: list[str] = []
    for name, anchor in gated:
        r_cur = cur[name] / cur[anchor]
        r_base = base[name] / base[anchor]
        delta = r_cur / r_base - 1.0
        status = "FAIL" if delta > args.threshold else "ok"
        print(f"{status:4} {name}: normalized {r_base:.3f} -> {r_cur:.3f} "
              f"({delta:+.1%})")
        if delta > args.threshold:
            failures.append(name)

    if failures:
        print(f"\n{len(failures)} kernel(s) regressed more than "
              f"{args.threshold:.0%} vs the committed baseline:")
        for name in failures:
            print(f"  {name}")
        sys.exit(1)
    print(f"\nall {len(gated)} gated kernels within {args.threshold:.0%} "
          "of baseline")
    sys.exit(0)


if __name__ == "__main__":
    main()
