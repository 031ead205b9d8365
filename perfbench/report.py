"""Print every end-to-end metric, with its unit, for each workload.

Usage, from the root of a checkout::

    python3 perfbench/report.py --seed 1 --seconds 20

Each workload runs through ``run.py`` in its own process.  Besides the
metrics of ``BENCHMARK.json`` this prints each workload's ``error_rate``.
Exits 1 if any workload had a failed op.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run every workload once and print its metrics.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    status = 0
    print(f"{'workload':<10} {'metric':<16} {'value':>14}  unit")
    for workload in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(f"{workload:<10} run failed with exit code {done.returncode}")
            status = 1
            continue
        row = json.loads(lines[-2])["row"]
        metrics = {**row["metrics"], "error_rate": row["error_rate"]}
        for name, metric in metrics.items():
            print(f"{workload:<10} {name:<16} {metric['value']:>14.6g}  {metric['unit']}")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
