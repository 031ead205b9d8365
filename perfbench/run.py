"""Benchmark entry point: one workload, one seed, one run.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload transfer --seed 1 --seconds 20 --trace 0

This process writes the seeded inputs and their reference outputs under
``.perfbench/``, then starts fresh worker processes that do only this
workload's ops: a few that stop after set-up, to time it, and one that runs
the ops.  It prints one row with sizes, run metadata and every metric, then,
as the last line, ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.
It exits 1 when any op failed its gate or the gate self-test did not catch a
wrong output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 10
DEADLINE_S = 170

END_TO_END = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mib": "MiB",
    "setup_s": "s",
}


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def worker(args: list[str], env: dict, timeout: float) -> dict:
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=env,
                          stdout=subprocess.PIPE, text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"worker exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()

    root = Path.cwd()
    if not (root / "src" / "shiftmeasure" / "__init__.py").is_file():
        print("perfbench: src/shiftmeasure not found; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    cases_dir = Path(".perfbench") / f"{args.workload}-{args.seed}"
    shutil.rmtree(cases_dir, ignore_errors=True)
    cases, sizes = workloads.prepare(args.workload, args.seed, cases_dir)
    files = sorted({a for c in cases for a in c["argv"] if a.startswith(cases_dir.as_posix())})
    manifest = {"workload": args.workload, "cases": cases, "files": files}
    (cases_dir / "cases.json").write_text(json.dumps(manifest), encoding="utf-8")

    hash_seed = str(args.seed % 2**32)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    probes = [] if args.trace else [worker([str(cases_dir), "--probe"], env, 60)
                                    for _ in range(SETUP_PROBES)]
    remaining = DEADLINE_S - (time.monotonic() - started)
    run = worker([str(cases_dir), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                 env, remaining)

    selftest = run["gate_selftest"]
    correct = run["failed"] == 0 and selftest["real_passes"] and selftest["mutation_caught"]
    if args.trace:
        metrics = {name: {"value": run["layers"][name], "unit": unit}
                   for name, unit in tracer.METRICS.items()}
        metrics["trace.overhead_pct"] = {"value": run["overhead_pct"], "unit": "%"}
        extra = {"traced_ops": run["traced_ops"]}
    else:
        run["setup_s"] = statistics.median(p["setup_s"] for p in probes + [run])
        run["raw"]["setup_s"] = statistics.median(p["raw_setup_s"] for p in probes + [run])
        metrics = {name: {"value": run[name], "unit": unit} for name, unit in END_TO_END.items()}
        extra = {"ops": run["ops"], "raw": run["raw"]}
    row = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct,
        "error_rate": {"value": run["failed"] / run["attempted"], "unit": "ratio"},
        "metrics": metrics, "gate_selftest": selftest, "sizes": sizes, **extra,
        "meta": {
            "git_sha": git_sha(root), "src_sha256": source_digest(root),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "PYTHONHASHSEED": hash_seed,
        },
    }
    print(json.dumps({"row": row}))
    print(json.dumps({"correct": correct, "attempted": run["attempted"],
                      "failed": run["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
