"""The timed process of one workload run.

Run from the root of a checkout as
``python3 perfbench/worker.py <case dir> [--probe] [--seconds N] [--trace 0|1]``.
It imports the package from ``src/``, reads the input files once (that is
its set-up), then calls ``shiftmeasure.cli.main(argv)`` in-process, one
op at a time with stdout captured, and gates every op on its exact bytes and
exit code.  It prints one JSON object on stdout.

With ``--probe`` it stops after set-up.  With ``--trace 1`` it runs each op
of a fixed prefix of the cases untraced and then traced, and reports the
per-layer metrics and the tracing overhead instead of end-to-end timings.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

import oracle
import tracer

MIN_OPS = 100
TRACE_CASES = 24
HARD_LIMIT_S = 150


def peak_rss_mib() -> float:
    """High-water RSS of this process image.  VmHWM starts afresh at exec,
    unlike ru_maxrss, which can inherit the parent's peak."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_op(cli, case) -> tuple[bool, float, str, object]:
    """One CLI invocation: (passed the gate, seconds, stdout, exit code)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(case["argv"])
        except (Exception, SystemExit) as exc:  # an exception is a failed op
            code = repr(exc)
        elapsed = time.perf_counter() - start
    stdout = out.getvalue()
    return oracle.gate(case["stdout"], case["code"], stdout, code), elapsed, stdout, code


class Counts:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, case, ok: bool, stdout: str, code) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed <= 3:
                print(f"worker: failed op {case['argv']}: exit {code!r}, "
                      f"stdout starts {stdout[:120]!r}", file=sys.stderr)


def warm_up(cli, workload: str, cases, counts: Counts) -> dict:
    """Run cases until one has an output the gate self-test can mutate; the
    mutated output must fail the gate and the real one must pass."""
    for index, case in enumerate(cases):
        ok, _, stdout, code = run_op(cli, case)
        counts.record(case, ok, stdout, code)
        wrong = oracle.mutate(workload, stdout)
        if wrong is not None:
            caught = not oracle.gate(case["stdout"], case["code"], wrong, code)
            return {"case": index, "real_passes": ok, "mutation_caught": caught}
    return {"case": None, "real_passes": False, "mutation_caught": False}


# What calibrate() takes on an idle 2.1 GHz Xeon vCPU under CPython 3.11.
REFERENCE_CALIBRATION_S = 0.0007


def calibrate() -> float:
    """Seconds that one fixed stretch of Fraction and dict work takes now.

    A shared host's speed can drift by a third within minutes.  Dividing an
    op's time by the calibration run around it, and multiplying by the
    reference time, gives the op's time on the reference host.
    """
    start = time.perf_counter()
    table: dict = {}
    for i in range(300):
        key = (i % 7, i % 5, i % 3)
        table[key] = table.get(key, Fraction(0)) + Fraction(i, 7)
    return time.perf_counter() - start


def measure(cli, cases, seconds: float, counts: Counts, started: float) -> dict:
    samples = []  # (passed, wall s, cpu s, reference / calibration around the op)
    before = calibrate()
    calibrations = [before]
    deadline, hard = time.perf_counter() + seconds, started + HARD_LIMIT_S
    while (time.perf_counter() < deadline or len(samples) < MIN_OPS) and time.perf_counter() < hard:
        case = cases[len(samples) % len(cases)]
        cpu0 = time.process_time()
        ok, elapsed, stdout, code = run_op(cli, case)
        cpu = time.process_time() - cpu0
        after = calibrate()
        counts.record(case, ok, stdout, code)
        samples.append((ok, elapsed, cpu, 2 * REFERENCE_CALIBRATION_S / (before + after)))
        calibrations.append(after)
        before = after
    latencies = [elapsed * scale for _, elapsed, _, scale in samples]
    raw = [elapsed for _, elapsed, _, _ in samples]
    return {
        "ops": len(samples),
        "ops_per_s": sum(ok for ok, *_ in samples) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_p90_ms": statistics.quantiles(latencies, n=10)[-1] * 1000,
        "cpu_ms_per_op": sum(c * scale for _, _, c, scale in samples) / len(samples) * 1000,
        "raw": {
            "ops_per_s": sum(ok for ok, *_ in samples) / sum(raw),
            "latency_p50_ms": statistics.median(raw) * 1000,
            "latency_p90_ms": statistics.quantiles(raw, n=10)[-1] * 1000,
            "cpu_ms_per_op": sum(c for _, _, c, _ in samples) / len(samples) * 1000,
            "median_slowdown": statistics.median(calibrations) / REFERENCE_CALIBRATION_S,
        },
    }


def trace_passes(cli, cases, seconds: float, counts: Counts, started: float, out: Path) -> dict:
    """Run each case untraced, then traced, over whole passes of the same
    cases, so that per-op call counts repeat exactly for a seed and the
    overhead compares adjacent runs of one op."""
    subset = cases[:TRACE_CASES]
    spans = tracer.Tracer()
    cpu = {False: 0.0, True: 0.0}
    passes = 0
    deadline, hard = time.perf_counter() + seconds, started + HARD_LIMIT_S
    while not passes or (time.perf_counter() < deadline and time.perf_counter() < hard):
        for case in subset:
            for traced in (False, True):
                if traced:
                    spans.install()
                    spans.begin_op()
                try:
                    cpu0 = time.process_time()
                    ok, _, stdout, code = run_op(cli, case)
                    cpu[traced] += time.process_time() - cpu0
                finally:
                    spans.remove()
                counts.record(case, ok, stdout, code)
        passes += 1
    spans.write(out / "trace.jsonl")
    return {
        "layers": spans.metrics(),
        "overhead_pct": (cpu[True] - cpu[False]) / cpu[False] * 100,
        "traced_ops": passes * len(subset),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cases", type=Path, help="directory written by run.py")
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    manifest = json.loads((args.cases / "cases.json").read_text(encoding="utf-8"))

    started = time.perf_counter()
    sys.path.insert(0, str(Path("src").resolve()))
    from shiftmeasure import cli

    for path in manifest["files"]:
        Path(path).read_bytes()
    raw_setup = time.perf_counter() - started
    calibration = statistics.mean(calibrate() for _ in range(3))
    result = {"setup_s": raw_setup * REFERENCE_CALIBRATION_S / calibration,
              "raw_setup_s": raw_setup}
    if args.probe:
        print(json.dumps(result))
        return 0

    cases, counts = manifest["cases"], Counts()
    result["gate_selftest"] = warm_up(cli, manifest["workload"], cases, counts)
    if args.trace:
        result.update(trace_passes(cli, cases, args.seconds, counts, started, args.cases))
    else:
        result.update(measure(cli, cases, args.seconds, counts, started))
    result.update(attempted=counts.attempted, failed=counts.failed, peak_rss_mib=peak_rss_mib())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
