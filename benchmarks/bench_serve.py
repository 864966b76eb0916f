"""Seed-query serving latency: cold vs. warm-index vs. cached.

The serving layer's pitch is that query latency collapses as the RR
sketch warms up:

* **cold** — a fresh engine answers its first query by sampling the
  sketch from zero;
* **warm** — a new process loads the persisted index and answers the
  same query with *zero* additional sampling;
* **cached** — a repeated ``(k, target)`` query is answered from the
  server's LRU cache, measured end-to-end over HTTP under concurrent
  clients.

It also times a warm ascending ``k = 1..50`` sweep on the saved index
and counts its greedy passes (``maxcover.greedy_runs``): every ``k``
reads a prefix of one shared pass, whose width doubles on a miss, so
the sweep runs 7 passes where per-``k`` passes would run 50.

This benchmark measures all of these on one dataset, asserts the
contract (warm samples nothing; cached p50 under 5 ms), and persists
p50/p95 latencies to ``benchmarks/results/BENCH_serve.json`` — the
table quoted in ``docs/serving.md``.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from pathlib import Path

import pytest

from repro.datasets.registry import load_dataset
from repro.obs import MetricsRegistry
from repro.serve import SeedQueryEngine, SeedQueryServer, ServeClient
from repro.utils.timer import Timer

from conftest import run_once

SCALE = 0.25
SEED = 2018
K = 10
ALPHA_TARGET = 0.3
CLIENTS = 8
REQUESTS_PER_CLIENT = 25
SWEEP_KS = range(1, 51)


@pytest.fixture(scope="module")
def graph():
    return load_dataset("pokec-sim", scale=SCALE)


def _percentiles(samples):
    ordered = sorted(samples)
    return {
        "p50_ms": round(1e3 * statistics.median(ordered), 3),
        "p95_ms": round(1e3 * ordered[int(0.95 * (len(ordered) - 1))], 3),
        "mean_ms": round(1e3 * statistics.fmean(ordered), 3),
        "samples": len(ordered),
    }


def _cold_query(graph, index_dir):
    """Fresh engine, first query: sampling dominates.  Saves the index."""
    timer = Timer()
    with SeedQueryEngine(graph, "IC", seed=SEED, index_dir=index_dir) as engine:
        with timer:
            answer = engine.answer(K, alpha_target=ALPHA_TARGET)
        engine.save_index()
    assert answer["sampled"] > 0
    return timer.elapsed, answer


def _warm_query(graph, index_dir, cold_answer):
    """New engine loading the saved index: no resampling allowed."""
    timer = Timer()
    with SeedQueryEngine(graph, "IC", seed=SEED, index_dir=index_dir) as engine:
        assert engine.loaded_from_index
        with timer:
            answer = engine.answer(K, alpha_target=ALPHA_TARGET)
    assert answer["sampled"] == 0, "warm query must not resample"
    assert answer["seeds"] == cold_answer["seeds"], "determinism contract"
    return timer.elapsed


def _warm_sweep(graph, index_dir):
    """Ascending k-sweep on the loaded index: passes and seconds."""
    registry = MetricsRegistry()
    with SeedQueryEngine(
        graph, "IC", seed=SEED, index_dir=index_dir, registry=registry
    ) as engine:
        budget = engine.num_rr_sets
        started = time.perf_counter()
        for k in SWEEP_KS:
            answer = engine.answer(k, alpha_target=0.01, rr_budget=budget)
            assert answer["sampled"] == 0, "the sweep must not sample"
        seconds = time.perf_counter() - started
    counters = registry.counter_values()
    return {
        "ks": f"{SWEEP_KS.start}..{SWEEP_KS.stop - 1}",
        "greedy_runs": counters["maxcover.greedy_runs"],
        "greedy_reuse": counters["maxcover.greedy_reuse"],
        "seconds": round(seconds, 4),
    }


async def _cached_latencies(graph, index_dir):
    """End-to-end HTTP latency of cached answers under concurrency."""
    engine = SeedQueryEngine(graph, "IC", seed=SEED, index_dir=index_dir)
    server = SeedQueryServer(engine, port=0, own_engine=True)
    await server.start()
    payload = {"k": K, "alpha_target": ALPHA_TARGET}
    try:
        primer = await ServeClient.connect("127.0.0.1", server.port)
        status, first = await primer.request("POST", "/query", payload)
        assert status == 200
        await primer.close()

        async def client_session():
            client = await ServeClient.connect("127.0.0.1", server.port)
            latencies = []
            for _ in range(REQUESTS_PER_CLIENT):
                started = time.perf_counter()
                status, reply = await client.request("POST", "/query", payload)
                latencies.append(time.perf_counter() - started)
                assert status == 200
                assert reply["cached"]
                assert reply["seeds"] == first["seeds"]
            await client.close()
            return latencies

        per_client = await asyncio.gather(
            *(client_session() for _ in range(CLIENTS))
        )
    finally:
        await server.close()
    return [latency for batch in per_client for latency in batch]


def bench_serve_cold_warm_cached(benchmark, graph, tmp_path_factory):
    index_dir = tmp_path_factory.mktemp("rr-index")

    def run():
        cold_seconds, cold_answer = _cold_query(graph, index_dir)
        warm_seconds = _warm_query(graph, index_dir, cold_answer)
        sweep = _warm_sweep(graph, index_dir)
        cached = asyncio.run(_cached_latencies(graph, index_dir))
        return cold_seconds, warm_seconds, sweep, cached, cold_answer

    cold_seconds, warm_seconds, sweep, cached, cold_answer = run_once(
        benchmark, run
    )
    cached_stats = _percentiles(cached)
    summary = {
        "dataset": graph.name,
        "n": graph.n,
        "m": graph.m,
        "scale": SCALE,
        "seed": SEED,
        "k": K,
        "alpha_target": ALPHA_TARGET,
        "num_rr_sets": cold_answer["num_rr_sets"],
        "concurrent_clients": CLIENTS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "cold": {"p50_ms": round(1e3 * cold_seconds, 3), "samples": 1},
        "warm_index": {"p50_ms": round(1e3 * warm_seconds, 3), "samples": 1},
        "sweep": sweep,
        "cached": cached_stats,
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / "BENCH_serve.json"
    path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    assert cached_stats["p50_ms"] < 5.0, (
        f"cached p50 {cached_stats['p50_ms']}ms is over the 5ms budget"
    )
    assert warm_seconds < cold_seconds, (
        "warm-index query should beat the cold query"
    )
