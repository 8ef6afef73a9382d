#!/usr/bin/env python3
"""Summarises a benchmark trace: per-layer self time, call counts, and the
per-layer metrics.

    python3 perfbench/trace_summary.py TRACE.json

TRACE.json is the Chrome trace-event file a traced run writes (it also
opens in Perfetto).  Every span carries args.id, args.parent and args.item,
plus the counts its layer reports.  A layer is a span name; its self time
is its spans' durations minus the part of each span covered by the span's
children, which may run in parallel on other threads.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
from collections import defaultdict


def load(path: pathlib.Path | str) -> list[dict]:
    """The spans of a trace file, as dicts with name, ts, dur (µs), tid,
    id, parent, item and args."""
    with open(path, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    spans = []
    for e in events:
        args = dict(e.get("args", {}))
        spans.append({
            "name": e["name"], "ts": float(e["ts"]), "dur": float(e["dur"]),
            "tid": e.get("tid", 0), "id": int(args.pop("id", 0)),
            "parent": int(args.pop("parent", 0)),
            "item": int(args.pop("item", 0)), "args": args,
        })
    return spans


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of `intervals`."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals
                     if min(e, end) > max(s, start))
    total, cur_s, cur_e = 0.0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_times(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, total µs and self µs."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"]:
            children[s["parent"]].append((s["ts"], s["ts"] + s["dur"]))
    table: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_us": 0.0,
                                                   "self_us": 0.0})
    for s in spans:
        row = table[s["name"]]
        row["calls"] += 1
        row["total_us"] += s["dur"]
        row["self_us"] += s["dur"] - covered(s["ts"], s["ts"] + s["dur"],
                                             children.get(s["id"], []))
    return dict(table)


def _named(spans: list[dict], name: str, **args: float) -> list[dict]:
    return [s for s in spans if s["name"] == name
            and all(s["args"].get(k) == v for k, v in args.items())]


def _median_ms(spans: list[dict]) -> float:
    return statistics.median(s["dur"] for s in spans) / 1e3 if spans else 0.0


def _sum(spans: list[dict], key: str) -> float:
    return sum(s["args"].get(key, 0.0) for s in spans)


def _seconds(spans: list[dict]) -> float:
    return sum(s["dur"] for s in spans) / 1e6


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(spans: list[dict]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of BENCHMARK.json as (value, unit).  A layer
    the run never called reports 0."""
    m: dict[str, tuple[float, str]] = {}
    tol = _named(spans, "core.analyze_tolerance")
    faults = _named(spans, "core.analyze_weight_faults")
    m["core.tolerance_ms"] = (_median_ms(tol), "ms")
    m["core.corpus_ms"] = (_median_ms(_named(spans, "core.extract_corpus")), "ms")
    m["core.sensitivity_ms"] = (
        _median_ms(_named(spans, "core.analyze_sensitivity")), "ms")
    m["core.weight_faults_ms"] = (_median_ms(faults), "ms")
    m["core.p2_queries"] = (
        statistics.median(s["args"]["queries"] for s in tol) if tol else 0.0,
        "count")

    t1 = _median_ms(_named(spans, "scheduler.run_all", threads=1.0))
    t4 = _median_ms(_named(spans, "scheduler.run_all", threads=4.0))
    m["scheduler.run_all_ms.t1"] = (t1, "ms")
    m["scheduler.run_all_ms.t4"] = (t4, "ms")
    m["scheduler.scaling_eff"] = (_ratio(t1, 4 * t4), "ratio")
    m["scheduler.overhead_ms"] = (
        t1 - _median_ms(_named(spans, "scheduler.direct")), "ms")

    for stage in ("interval", "symbolic", "bnb"):
        runs = _named(spans, f"verify.{stage}")
        m[f"{stage}.decided_share"] = (
            _ratio(_sum(runs, "decided"), _sum(runs, "batch")), "ratio")
        if stage != "bnb":
            m[f"{stage}.us_per_query"] = (
                _ratio(_seconds(runs) * 1e6, _sum(runs, "queries")), "us")
        else:
            m["bnb.boxes"] = (_ratio(_sum(runs, "work"), len(runs)), "count")
            m["bnb.boxes_per_s"] = (
                _ratio(_sum(runs, "work"), _seconds(runs)), "1/s")

    batch = _named(spans, "nn.batch_eval")
    for label, wide in (("auto", True), ("1", False)):
        runs = [s for s in batch if (s["args"]["lanes_per_batch"] > 1) == wide]
        m[f"batch_eval.lanes_per_s.{label}"] = (
            _ratio(_sum(runs, "lanes"), _seconds(runs)), "1/s")
        m[f"batch_eval.macs_per_s.{label}"] = (
            _ratio(_sum(runs, "macs"), _seconds(runs)), "1/s")

    m["faults.layer_evaluations"] = (
        statistics.median(s["args"]["layer_evaluations"] for s in faults)
        if faults else 0.0, "count")
    m["faults.evals_per_s"] = (
        _ratio(_sum(faults, "layer_evaluations"), _seconds(faults)), "1/s")

    lookups = _named(spans, "cache.lookup")
    stats = _named(spans, "cache.stats")
    m["cache.hit_ratio"] = (_ratio(_sum(lookups, "hit"), len(lookups)), "ratio")
    m["cache.lookup_us"] = (_median_ms(lookups) * 1e3, "us")
    m["cache.insert_us"] = (_median_ms(_named(spans, "cache.insert")) * 1e3, "us")
    m["cache.entries"] = (stats[-1]["args"]["entries"] if stats else 0.0, "count")

    m["serve.ping_rtt_us"] = (_median_ms(_named(spans, "serve.ping")) * 1e3, "us")
    m["serve.overhead_ms"] = (
        _median_ms(_named(spans, "serve.verify", cold=1.0))
        - _median_ms(_named(spans, "scheduler.verify_one")), "ms")
    for kind in ("verify", "batch", "tolerance"):
        m[f"serve.latency_p50_ms.{kind}"] = (
            _median_ms(_named(spans, f"serve.{kind}")), "ms")
    served = _named(spans, "serve.stats")
    m["serve.rejected"] = (_sum(served, "rejected"), "count")
    m["serve.errors"] = (_sum(served, "errors"), "count")

    queries = _named(spans, "sat.query")
    m["sat.translate_ms"] = (_median_ms(_named(spans, "sat.translate")), "ms")
    m["sat.encode_ms"] = (_median_ms(_named(spans, "sat.encode")), "ms")
    m["sat.decide_ms"] = (_median_ms(_named(spans, "sat.decide")), "ms")
    minimize = _named(spans, "sat.minimize")
    m["sat.minimize_ms"] = (_median_ms(minimize), "ms")
    m["sat.minimize_probes"] = (
        statistics.median(s["args"]["probes"] for s in minimize)
        if minimize else 0.0, "count")
    m["sat.conflicts"] = (
        statistics.median(s["args"]["conflicts"] for s in queries)
        if queries else 0.0, "count")
    m["sat.conflicts_per_s"] = (
        _ratio(_sum(queries, "conflicts"),
               _seconds(_named(spans, "sat.decide")) + _seconds(minimize)),
        "1/s")

    m["setup.case_study_ms"] = (_median_ms(_named(spans, "setup.case_study")), "ms")
    m["setup.server_start_ms"] = (
        _median_ms(_named(spans, "setup.server_start")), "ms")
    m["trace.overhead_share"] = (overhead_share(spans), "ratio")
    return m


def overhead_share(spans: list[dict]) -> float:
    """Median latency of the traced items of the workload loop over that of
    the untraced items, minus one."""
    marks = _named(spans, "trace.overhead")
    if not marks:
        return 0.0
    a = marks[-1]["args"]
    return _ratio(a["traced_ms"], a["untraced_ms"]) - 1.0


def print_report(spans: list[dict]) -> None:
    print(f"  {'layer (span name)':34} {'calls':>8} {'total ms':>11} "
          f"{'self ms':>11}")
    for name, row in sorted(self_times(spans).items(),
                            key=lambda kv: -kv[1]["self_us"]):
        print(f"  {name:34} {row['calls']:8d} {row['total_us'] / 1e3:11.2f} "
              f"{row['self_us'] / 1e3:11.2f}")
    for name, (value, unit) in per_layer_metrics(spans).items():
        print(f"  {name} {value:.6g} {unit}")
    print(f"  tracing overhead: {100 * overhead_share(spans):+.2f}% "
          "median item latency, traced vs untraced")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", type=pathlib.Path)
    print_report(load(parser.parse_args().trace))


if __name__ == "__main__":
    main()
