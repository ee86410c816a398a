#!/usr/bin/env python3
"""Measure one row of the end-to-end perf trajectory and append it to
BENCH_e2e.json.

A row holds the `evabench/run.py --compare` numbers of one code state
and one seed: for amc_cams (the AMC serving case) and plain_cams (the
plain-CNN baseline it must beat), the untraced end-to-end figures
(fps, cpu_ms_per_frame, top1_agree, out_err, peak_rss_mb) and the
traced per-layer ones (flow.rfbme_ms, cnn.prefix_ms, cnn.conv_ms,
core.key_frac, flow.add_ops_per_frame), plus the commit, machine, run
length and seed they came from.

Usage (from the repository root):

    python3 scripts/bench_e2e.py --pr N --label change --seed 1
    python3 scripts/bench_e2e.py --pr N --label parent --seed 1 \\
        --binary /path/to/parent/evabench --commit SHA

Without --binary the program is built from this checkout the way
evabench/run.py builds it. --commit defaults to `git rev-parse --short
HEAD` (with "-dirty" when the tree has uncommitted changes). Standard
library only.
"""
import argparse
import datetime
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.dont_write_bytecode = True  # leave no __pycache__ inside evabench/
sys.path.insert(0, os.path.join(ROOT, "evabench"))
import run as evabench  # noqa: E402  (evabench/run.py)

WORKLOADS = ("amc_cams", "plain_cams")
FIELDS = ("fps", "cpu_ms_per_frame", "flow.rfbme_ms", "cnn.prefix_ms",
          "core.key_frac", "out_err", "top1_agree", "flow.add_ops_per_frame",
          "peak_rss_mb", "cnn.conv_ms")


def git_commit():
    def git(*args):
        return subprocess.run(["git", "-C", ROOT] + list(args),
                              stdout=subprocess.PIPE, text=True).stdout.strip()
    commit = git("rev-parse", "--short", "HEAD")
    if git("status", "--porcelain", "--untracked-files=no"):
        commit += "-dirty"
    return commit


def machine():
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return "%d-vCPU %s, %s" % (os.cpu_count() or 1, platform.machine(), model)


def measure(binary, seed, seconds):
    """The --compare figures: untraced first, the traced run adds layers."""
    rows = {}
    for name in WORKLOADS:
        row = {}
        for trace in (0, 1):
            code, result = evabench.run_program(binary, [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace)])
            if result is None or code != 0 or not result.get("correct"):
                raise SystemExit("bench_e2e: %s (trace %d) failed" % (name, trace))
            for k, v in result["metrics"].items():
                row.setdefault(k, v["value"])
        rows[name] = {k: row.get(k) for k in FIELDS}
    return rows


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--pr", type=int, required=True)
    p.add_argument("--label", required=True,
                   help='what the row measures, e.g. "parent" or "change"')
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--binary", help="prebuilt evabench (default: build it)")
    p.add_argument("--commit", help="commit the binary was built from")
    p.add_argument("--out", default=os.path.join(ROOT, "BENCH_e2e.json"))
    a = p.parse_args()

    binary = a.binary or evabench.build()
    if binary is None:
        return 1
    row = {
        "pr": a.pr,
        "label": a.label,
        "source": "measured",
        "commit": a.commit or git_commit(),
        "machine": machine(),
        "date": datetime.date.today().isoformat(),
        "seconds": a.seconds,
        "seed": a.seed,
        "workloads": measure(binary, a.seed, a.seconds),
    }
    with open(a.out) as f:
        doc = json.load(f)
    doc["rows"].append(row)
    with open(a.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    amc = row["workloads"]["amc_cams"]
    print("appended %s/%s seed %d: amc_cams fps %.1f, rfbme/prefix %.3f"
          % (a.pr, a.label, a.seed, amc["fps"],
             amc["flow.rfbme_ms"] / amc["cnn.prefix_ms"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
