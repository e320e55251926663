"""Run the benchmark on every workload and print one table.

    python3 perfbench/report.py [--seed 1] [--seconds 16] [--trace 0|1]

Prints the metric table of each run.py run, each row prefixed with its
workload: untraced, wall_s, cold_wall_s, setup_s, peak_rss_mib and
fail_frac; traced, every per-layer metric.  Each row gives the median, the
quartiles, the unit and the sample count.  The exit code is non-zero if any
run failed or any operation failed.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    status = 0
    for name in run.WORKLOADS:
        proc = subprocess.run([sys.executable, str(Path(run.__file__)), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            print(f"{name}: run failed with exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            status = 1
            continue
        lines = proc.stdout.splitlines()
        for line in lines:
            if line.startswith("# ") and not line.startswith("# provenance"):
                print(f"{name:17s} {line[2:]}")
        if json.loads(lines[-1])["failed"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
