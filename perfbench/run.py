#!/usr/bin/env python3
"""The repository benchmark: one workload, one run.

    python3 perfbench/run.py --workload cold_grow --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The run pins the environment (see
``common.STRIPPED_ENV``), sets its workload up three times (``setup_s``
is the median), then repeats the workload's cycle until ``--seconds``
have passed.  It prints a report, then as its last line one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, the
per-layer ones with ``--trace 1``.

A traced run alternates untraced and traced cycles.  Spans come from
wrappers around the program's public calls (``spans.py``), and, for
the server workloads, from the traced server process.  The per-layer
self times plus ``trace.other_s`` add up to ``trace.total_s``: the
traced set-ups plus the traced cycles' preparation and thread-seconds.
A traced run whose accounting does not hold fails (see
:func:`check_accounting`).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 3
#: The largest share of ``trace.total_s`` that ``trace.other_s`` (time
#: outside every layer span and every wait on a server) may take.
MAX_OTHER_SHARE = 0.1

from common import (  # noqa: E402
    REFERENCE_CALIBRATION_S,
    Context,
    WrongAnswer,
    provenance,
    strip_env,
    tail_percentile,
)


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def workload_classes() -> Dict[str, Any]:
    from inproc import ColdGrow
    from serving import ClusterJobs, HttpMix

    return {cls.name: cls for cls in (ColdGrow, HttpMix, ClusterJobs)}


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def end_to_end(wl: Any, setup_times: List[float], walls: List[float]) -> Dict[str, float]:
    """The end-to-end metrics as measured (before normalization)."""
    latencies = [op["latency"] for op in wl.ops if op["kind"] in wl.latency_kinds and op["ok"]]
    return {
        "setup_s": statistics.median(setup_times),
        "memory_mb": wl.memory_mb(),
        "answer_s": statistics.median(walls),
        "first_answer_ms": wl.first_answer_ms(),
        "latency_p50_ms": wl.latency_ms(50),
        "latency_p95_ms": wl.latency_ms(95),
        "throughput_qps": len(latencies) / sum(walls),
    }


def normalize(raw: Dict[str, float], calibration: float) -> Dict[str, float]:
    """Scale times and rates to the reference machine speed.

    ``calibration`` is the run's median probe (:meth:`common.Context.probe`);
    a run on a host running at half speed reads twice the reference.
    Memory is not a speed and stays as measured.
    """
    speed = REFERENCE_CALIBRATION_S / calibration
    scaled = {}
    for name, value in raw.items():
        if name == "memory_mb":
            scaled[name] = value
        elif name == "throughput_qps":
            scaled[name] = value / speed
        else:
            scaled[name] = value * speed
    return scaled


def per_layer(
    wl: Any, tracer: Any, traced_total: float, overhead: float
) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Per-layer metrics and the accounting terms that sum to the total."""
    from spans import layer_self_times, root_seconds, span_stats

    local = [s for s in tracer.spans if not s[0].startswith("client.")]
    waits = span_stats(s for s in tracer.spans if s[0].startswith("client."))
    counts = dict(tracer.counts)
    spans = list(local)
    front = launch = 0.0
    remote = wl.remote_trace()
    if remote is not None:
        startup = [s for s in remote["spans"] if s[1] < remote["ready"]]
        requests = [s for s in remote["spans"] if remote["ready"] <= s[1] < remote["stop"]]
        spans += startup + requests
        for name, value in remote["counts"].items():
            counts[name] = counts.get(name, 0.0) + value
        front = waits.get("client.request", {}).get("self_s", 0.0) - root_seconds(requests)
        launch = waits.get("client.launch", {}).get("self_s", 0.0) - root_seconds(startup)
    elif waits:
        raise RuntimeError("client waits recorded without a server trace")

    layers = layer_self_times(spans)
    stats = span_stats(spans)

    def self_of(name: str) -> float:
        return stats.get(name, {}).get("self_s", 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    rr_sets = counts.get("sampling.rr_sets", 0.0)
    answers = [op for op in wl.ops if op["kind"] in wl.latency_kinds and op.get("traced")]
    metrics = {
        "graph.load_s": layers.get("graph", 0.0),
        "sampling.fill_s": layers.get("sampling", 0.0),
        "sampling.rr_sets": rr_sets,
        "sampling.rr_sets_per_s": ratio(rr_sets, layers.get("sampling", 0.0)),
        "sampling.edges_examined": counts.get("sampling.edges", 0.0),
        "sampling.avg_rr_size": ratio(counts.get("sampling.entries", 0.0), rr_sets),
        "collection.build_s": layers.get("collection", 0.0),
        "collection.build_calls": counts.get("collection.build_calls", 0.0),
        "collection.reindex_ratio": ratio(
            counts.get("collection.entries_indexed", 0.0),
            counts.get("collection.entries_new", 0.0),
        ),
        "maxcover.greedy_s": layers.get("maxcover", 0.0),
        "maxcover.greedy_calls": counts.get("maxcover.greedy_calls", 0.0),
        "bounds.eval_s": layers.get("bounds", 0.0),
        "core.queries": counts.get("core.queries", 0.0),
        "core.self_s": layers.get("core", 0.0),
        "core.rr_sets_needed": max((op.get("rr_sets", 0) for op in answers), default=0),
        "engine.answer_s": stats.get("engine.answer", {}).get("total_s", 0.0),
        "engine.self_s": layers.get("engine", 0.0),
        "hop.s": layers.get("hop", 0.0),
        "hop.calls": counts.get("hop.calls", 0.0),
        "index.save_s": self_of("index.save"),
        "index.manifest_save_s": self_of("index.manifest_save"),
        "index.load_s": self_of("index.load"),
        "index.bytes_written": counts.get("index.bytes_written", 0.0),
        "index.write_amplification": ratio(
            counts.get("index.save_bytes", 0.0), counts.get("index.rr_bytes_new", 0.0)
        ),
        "server.cache_hit_ratio": 0.0,
        "server.coalesced": 0.0,
        "server.rejected": 0.0,
        "server.front_ms": 0.0,
        "server.front_s": 0.0,
        "cluster.front_sampled_ms": 0.0,
        "cluster.front_repeat_ms": 0.0,
        "cluster.worker_ms": 0.0,
        "cluster.reply_bytes": 0.0,
        "cluster.requeues": 0.0,
        "cluster.rejected": 0.0,
        "cluster.front_s": 0.0,
        "serve.launch_s": launch,
    }
    metrics.update(wl.layer_metrics())
    if remote is not None:
        metrics[f"{remote['tier']}.front_s"] = front
    terms = {
        name: metrics[name]
        for name in (
            "graph.load_s", "sampling.fill_s", "collection.build_s",
            "maxcover.greedy_s", "bounds.eval_s", "core.self_s", "engine.self_s",
            "hop.s", "index.save_s", "index.manifest_save_s", "index.load_s",
            "server.front_s", "cluster.front_s", "serve.launch_s",
        )
    }
    unknown = set(layers) - {"graph", "sampling", "collection", "maxcover", "bounds",
                             "core", "engine", "hop", "index"}
    if unknown:
        raise RuntimeError(f"spans outside the accounting: {sorted(unknown)}")
    metrics["trace.total_s"] = traced_total
    metrics["trace.other_s"] = traced_total - sum(terms.values())
    metrics["obs.trace_overhead_ratio"] = overhead
    terms["trace.other_s"] = metrics["trace.other_s"]
    return metrics, terms


def check_accounting(other_s: float, total_s: float) -> None:
    """Fail a traced run whose accounting does not hold: ``trace.other_s``
    below zero means some time was counted twice, and above
    MAX_OTHER_SHARE of ``trace.total_s`` it means time no layer covers."""
    if not 0.0 <= other_s <= MAX_OTHER_SHARE * total_s:
        raise RuntimeError(
            f"trace.other_s = {other_s:.4f} s lies outside 0..{MAX_OTHER_SHARE:.0%} "
            f"of trace.total_s = {total_s:.4f} s"
        )


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def run(args: argparse.Namespace) -> int:
    spec = load_spec()
    classes = workload_classes()
    if args.workload not in classes:
        print(f"unknown workload {args.workload!r}; have {sorted(classes)}", file=sys.stderr)
        return 2
    tracer = None
    uninstall = None
    if args.trace:
        from spans import Tracer, install

        tracer = Tracer()
        uninstall = install(tracer)
    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    ctx = Context(ROOT, work, args.seed, tracer)
    os.sched_setaffinity(0, ctx.bench_cpus)
    wl = classes[args.workload](ctx)
    walls: List[float] = []
    traced_walls: List[float] = []
    traced_total = 0.0
    try:
        setup_times = []
        for rep in range(SETUP_REPS):
            ctx.probe(force=True)
            if tracer is not None:
                tracer.enabled = True
            started = time.perf_counter()
            wl.setup(rep, last=rep == SETUP_REPS - 1)
            setup_times.append(time.perf_counter() - started)
            if tracer is not None:
                tracer.enabled = False
        traced_total = sum(setup_times)
        deadline = time.perf_counter() + args.seconds
        index = 0
        while True:
            ctx.probe()
            traced = tracer is not None and index % 2 == 1
            if tracer is not None:
                tracer.enabled = traced
            marker = len(wl.ops)
            # A traced run gives each input draw to an untraced and then
            # a traced cycle, so the overhead ratio compares like with like.
            draw = index // 2 if tracer is not None else index
            prepared = time.perf_counter()
            wl.prepare(draw, traced)
            probing = ctx.probe_seconds
            started = time.perf_counter()
            thread_seconds = wl.cycle(draw, traced)
            wall = time.perf_counter() - started
            # Probes a cycle takes between its operations are not its time.
            probing = ctx.probe_seconds - probing
            wall -= probing
            thread_seconds -= probing
            if tracer is not None:
                tracer.enabled = False
            for op in wl.ops[marker:]:
                op["traced"] = traced
            if traced:
                traced_walls.append(wall)
                # Preparation runs on one thread.
                traced_total += started - prepared + thread_seconds
            else:
                walls.append(wall)
            index += 1
            if time.perf_counter() >= deadline and (tracer is None or index >= 2):
                break
        for op in wl.ops:
            if not op["ok"]:
                print(f"failed operation: {op}")
        attempted = len(wl.ops)
        failed = sum(1 for op in wl.ops if not op["ok"])
        calibration = statistics.median(ctx.probes)
        raw: Dict[str, float] = {}
        if tracer is None:
            raw = end_to_end(wl, setup_times, walls)
            metrics = normalize(raw, calibration)
            declared = spec["end_to_end"]
        else:
            overhead = statistics.median(traced_walls) / statistics.median(walls)
            metrics, terms = per_layer(wl, tracer, traced_total, overhead)
            declared = spec["per_layer"]
            print("accounting (seconds; the terms sum to trace.total_s):")
            for name, value in terms.items():
                print(f"  {name:24s} {value:12.6f}  {100 * value / traced_total:6.2f}%")
            print(f"  {'sum':24s} {sum(terms.values()):12.6f}  trace.total_s={traced_total:.6f}")
            check_accounting(terms["trace.other_s"], traced_total)
        latencies = [op["latency"] for op in wl.ops if op["kind"] in wl.latency_kinds and op["ok"]]
        tail = tail_percentile(latencies)
        report = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "cycles": len(walls) + len(traced_walls),
            "cycle_walls_s": [round(w, 4) for w in walls],
            "calibration_s": calibration,
            "calibration_runs": len(ctx.probes),
            "calibration_by_cpu": {
                cpu: statistics.median(v for v, c in zip(ctx.probes, ctx.probed_cpus) if c == cpu)
                for cpu in sorted(set(ctx.probed_cpus))
            },
            "raw_metrics": raw,
            "setup_times_s": setup_times,
            "failed_ratio": failed / attempted if attempted else 0.0,
            "operations": {
                kind: sum(1 for op in wl.ops if op["kind"] == kind)
                for kind in sorted({op["kind"] for op in wl.ops})
            },
            "latency_tail": {**tail, "value_ms": 1e3 * tail["value"]},
            "provenance": provenance(ROOT, wl.kernel, wl.graphs),
        }
        print("report: " + json.dumps(report, sort_keys=True))
        for decl in declared:
            print(f"{decl['name']:28s} {metrics[decl['name']]:16.6f} {decl['unit']}")
        result = {
            "correct": True,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                decl["name"]: {"value": float(metrics[decl["name"]]), "unit": decl["unit"]}
                for decl in declared
            },
        }
    except WrongAnswer as exc:
        print(f"wrong answer: {exc}")
        attempted = max(1, len(wl.ops))
        print(json.dumps({"correct": False, "attempted": attempted, "failed": attempted, "metrics": {}}))
        return 1
    finally:
        wl.close()
        if uninstall is not None:
            uninstall()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    strip_env()
    if not (ROOT / "src" / "repro").is_dir() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no program to measure: {ROOT} lacks src/repro or BENCHMARK.json", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    try:
        return run(args)
    except Exception:  # noqa: BLE001 - report, exit non-zero, print no result
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
