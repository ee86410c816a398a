#!/usr/bin/env python3
"""Build the evabench program from source and run one workload.

Usage (from the repository root):

    python3 evabench/run.py --workload amc_cams --seed 1 --seconds 20 --trace 0
    python3 evabench/run.py --self-test
    python3 evabench/run.py --compare --seed 1 --seconds 20

The program prints every metric by name with its unit. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; metrics are the end_to_end metrics BENCHMARK.json
declares (--trace 0) or its per_layer metrics (--trace 1).

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
current directory. Trace files go to .bench_out/.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configure and build the program; return its path (None on failure)."""
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                             "evabench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", jobs, "--target", "evabench"],
    ]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("evabench: build step failed:", " ".join(cmd))
            return None
    return os.path.join(build_dir, "evabench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_program(binary, args):
    """Run the program, echo its output, return (exit code, result dict)."""
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("evabench: run exceeded", RUN_TIMEOUT_S, "s")
        return 1, None
    lines = proc.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        print(lines[-1] if lines else "")
        log("evabench: no result line (exit %d)" % proc.returncode)
        return proc.returncode or 1, None
    return proc.returncode, result


def run_workload(binary, a):
    code, result = run_program(binary, [
        "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace)])
    if result is None:
        return 1
    names = declared_metrics(a.trace)
    missing = [n for n in names if n not in result["metrics"]]
    if missing:
        log("evabench: metrics not reported:", ", ".join(missing))
        return 1
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {n: result["metrics"][n] for n in names},
    }))
    return code


def compare(binary, a):
    """AMC against the plain CNN on the same cameras and frames."""
    rows = {}
    for name in ("amc_cams", "plain_cams"):
        for trace in (0, 1):
            code, result = run_program(binary, [
                "--workload", name, "--seed", str(a.seed),
                "--seconds", str(a.seconds), "--trace", str(trace)])
            if result is None or code != 0:
                return 1
            # Untraced figures first; the traced run adds the layers.
            row = rows.setdefault(name, {})
            for k, v in result["metrics"].items():
                row.setdefault(k, v["value"])
    amc, plain = rows["amc_cams"], rows["plain_cams"]
    print("\nAMC vs plain CNN (seed %d, %.0f s runs)" % (a.seed, a.seconds))
    for name, r in rows.items():
        print("  %-10s fps %8.2f  cpu_ms_per_frame %8.3f  key_frac %.4f  "
              "flow.rfbme_ms %.4f  cnn.prefix_ms %.4f"
              % (name, r["fps"], r["cpu_ms_per_frame"], r["core.key_frac"],
                 r["flow.rfbme_ms"], r["cnn.prefix_ms"]))
    print("  amc_cams fps / plain_cams fps = %.4f"
          % (amc["fps"] / plain["fps"]))
    print("  break-even ratio flow.rfbme_ms / cnn.prefix_ms = %.4f (amc_cams),"
          " %.4f (plain_cams)"
          % (amc["flow.rfbme_ms"] / amc["cnn.prefix_ms"],
             plain["flow.rfbme_ms"] / plain["cnn.prefix_ms"]))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=["amc_cams", "plain_cams", "fleet_net"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true",
                   help="run the open-loop generator stall self-test")
    p.add_argument("--compare", action="store_true",
                   help="print amc_cams vs plain_cams fps and break-even")
    a = p.parse_args()
    if not (a.workload or a.self_test or a.compare):
        p.error("one of --workload, --self-test, --compare is required")
    binary = build()
    if binary is None:
        return 1
    if a.self_test:
        return subprocess.run([binary, "--self-test"], timeout=RUN_TIMEOUT_S).returncode
    if a.compare:
        return compare(binary, a)
    return run_workload(binary, a)


if __name__ == "__main__":
    sys.exit(main())
