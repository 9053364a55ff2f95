#!/usr/bin/env python3
"""The noise protocol: is the benchmark steady enough for its own bounds?

Runs every workload N times (default 10), each time with another seed,
with the command and run length of ../BENCHMARK.json, and prints for each
end-to-end metric the median and the spread the driver uses: the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median. A spread above a third of the metric's bound is
marked `!`, one above the bound `!!`. `raw_req_per_s` is `req_per_s`
without the host calibration, from the run's `host:` line, for comparison.

    python3 benchmark/noise.py [--runs N] [--first-seed S] [--workload W]

Run it from the repository root on an otherwise idle machine.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed):
    cmd = BENCH["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(BENCH["run_seconds"]),
        "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    values = {name: m["value"] for name, m in result["metrics"].items()}
    host = next(line for line in lines if line.startswith("host:"))
    values["raw_req_per_s"] = float(host.rsplit(None, 1)[-1])
    return values


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in BENCH["workloads"]]

    print(f"{'workload':<13} {'metric':<15} {'median':>16} {'min':>16} {'max':>16} "
          f"{'iqr/median':>10} {'bound':>6}")
    for workload in workloads:
        runs = [run(workload, args.first_seed + i) for i in range(args.runs)]
        for metric in BENCH["end_to_end"] + [{"name": "raw_req_per_s", "bound": 0.10}]:
            values = [r[metric["name"]] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            mark = "!!" if spread > metric["bound"] else "!" if spread > metric["bound"] / 3 else ""
            print(f"{workload:<13} {metric['name']:<15} {median:>16.4f} {min(values):>16.4f} "
                  f"{max(values):>16.4f} {spread:>9.2%} {metric['bound']:>6.1%} {mark}", flush=True)


if __name__ == "__main__":
    main()
