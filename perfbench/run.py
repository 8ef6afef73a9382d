#!/usr/bin/env python3
"""Runs one FANNet benchmark workload and prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every run configures and builds the driver
(perfbench/CMakeLists.txt compiles libfannet from src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable
is unset; only the first run compiles everything.

With --trace 0 the last line of stdout is the end-to-end result
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
whose metrics are setup_s, latency_p50_ms, latency_tail_ms,
throughput_per_s and peak_rss_mb; setup_s is the median of SETUP_RUNS
separate set-up-only driver processes, each timed from its start.  With
--trace 1 the driver also records spans, writes them as Chrome trace-event
JSON into the build directory, and the metrics are the per-layer numbers
computed from that file by trace_summary.py.  The exit status is 0 only when every output matched the
oracle; a run that cannot build or run exits non-zero without a result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import trace_summary  # noqa: E402  (lives next to this file)

WORKLOADS = ("fig4_pipeline", "serve_closed_loop", "sat_p2")

#: Percentiles the tail metric may report, highest first.  The tail is the
#: highest of them with at least TAIL_BEYOND items above it, so one
#: workload reports the same percentile from run to run.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10

#: Seconds the driver may take, build excluded.
DRIVER_TIMEOUT_S = 150

#: Separate driver processes that time the set-up; setup_s is their median.
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 20


def build_dir() -> pathlib.Path:
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(target: str = "perfbench_driver") -> pathlib.Path:
    """Configures and builds `target`; returns the binary's path."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "--target", target,
                    "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return out / target


def rank(percentile: float, n: int) -> int:
    """The 1-based nearest rank of `percentile` among `n` items."""
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in binary.
    return max(1, math.ceil(round(percentile / 100.0 * n, 6)))


def nearest_rank(ordered: list[float], percentile: float) -> float:
    """The nearest-rank percentile of an ascending list."""
    return ordered[rank(percentile, len(ordered)) - 1]


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least TAIL_BEYOND of `n`
    items above its rank; None when no percentile has (fewer than 11
    items never do)."""
    for p in TAIL_LADDER:
        if n - rank(p, n) >= TAIL_BEYOND:
            return p
    return None


def setup_seconds(command: list[str]) -> float:
    """Seconds from starting a set-up-only driver process until it prints
    `ready`: process start, loading, static initialisation and the
    workload's set-up, all cold."""
    start = time.perf_counter()
    proc = subprocess.Popen(command + ["--setup-only", "1"],
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up run failed (exit {proc.returncode})")
    return seconds


def end_to_end(raw: dict, setup_s: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics of one driver result and its set-up times,
    plus facts for the human-readable report.

    A failed item (wrong answer, error frame, refusal, timeout, resource
    limit) counts as missing any latency limit: it sorts above every
    completed item, and a percentile that lands on one reports the
    item limit, the longest the benchmark waits for an item."""
    outcomes = raw["outcomes"]
    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o != "ok")
    limit = raw["item_limit_ms"]
    ordered = sorted(ms if o == "ok" else math.inf
                     for ms, o in zip(raw["latency_ms"], outcomes))

    def capped(value: float) -> float:
        return limit if math.isinf(value) else value

    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "latency_p50_ms": (capped(nearest_rank(ordered, 50.0)), "ms"),
        "throughput_per_s": ((attempted - failed) / raw["wall_s"], "1/s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MiB"),
    }
    tail = tail_percentile(attempted)
    if tail is not None:
        metrics["latency_tail_ms"] = (capped(nearest_rank(ordered, tail)), "ms")
    facts = {
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted if attempted else 0.0,
        "tail_percentile": tail,
        "failures": {o: outcomes.count(o) for o in sorted(set(outcomes))
                     if o != "ok"},
    }
    return metrics, facts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        driver = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 2

    trace_file = build_dir() / "traces" / f"{args.workload}-seed{args.seed}.json"
    command = [str(driver), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        setup_s = [setup_seconds(command + ["--trace", "0"])
                   for _ in range(SETUP_RUNS)]
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"run.py: {err}", file=sys.stderr)
        return 1
    command += ["--trace", str(args.trace)]
    if args.trace:
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(trace_file)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: driver timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        print(f"run.py: driver failed (exit {proc.returncode})", file=sys.stderr)
        return 1
    raw = json.loads(lines[-1])

    metrics, facts = end_to_end(raw, setup_s)
    correct = (proc.returncode == 0 and not raw["mismatches"]
               and "wrong" not in facts["failures"])
    print(f"workload {args.workload}  seed {args.seed}  "
          f"{facts['attempted']} items, {facts['failed']} failed "
          f"{facts['failures'] or ''}")
    print(f"  error_rate {facts['error_rate']:.6f} ratio")
    if facts["tail_percentile"] is not None:
        print(f"  latency_tail_ms is p{facts['tail_percentile']:g}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value:.6g} {unit}")
    for key, value in raw["info"].items():
        print(f"  {key}: {value}")
    for finding in raw["mismatches"]:
        print(f"  oracle mismatch: {finding}")

    if args.trace:
        spans = trace_summary.load(trace_file)
        trace_summary.print_report(spans)
        print(f"  trace: {trace_file}")
        metrics = trace_summary.per_layer_metrics(spans)

    print(json.dumps({
        "correct": correct,
        "attempted": facts["attempted"],
        "failed": facts["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
