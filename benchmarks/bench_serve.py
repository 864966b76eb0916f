"""Seed-query serving latency: cold vs. warm-index vs. cached.

The serving layer's pitch is that query latency collapses as the RR
sketch warms up:

* **cold** — a fresh engine answers its first query by sampling the
  sketch from zero;
* **warm** — a new process loads the persisted index and answers the
  same query with *zero* additional sampling;
* **cached** — a repeated ``(k, target)`` query is answered from the
  server's LRU cache, measured end-to-end over HTTP under concurrent
  clients;
* **warm_http** — :data:`WARM_HTTP_REQUESTS` distinct queries over HTTP,
  each a cache miss the loaded sketch answers (``rr_budget`` = the index
  size, ``k`` within the held greedy pass), so the server reads them
  off the sketch on its event loop without the engine-thread hop.

``cold`` and ``warm_index`` are medians of :data:`QUERY_TRIALS` trials,
each on a fresh engine (a fresh index directory for ``cold``).

It also times a warm ascending ``k = 1..50`` sweep on the saved index
and counts its greedy passes (``maxcover.greedy_runs``): every ``k``
reads a prefix of one shared pass, whose width doubles on a miss, so
the sweep runs 7 passes where per-``k`` passes would run 50.  The
sweep calls ``engine.checkpoint()`` after every answer, as a cluster
worker does at a job boundary; each answer moves only its ``k``'s
``delta / 2^i`` schedule, so every checkpoint appends to the session
journal and none rewrites the manifest (``checkpoint.manifest_writes``
is 0 where a manifest rewrite per answer would read 50).

And it times the flat RR-set layout on the pokec-sim ×2.5 sketch
(n = 8000): ``layout.append_build_ms`` appends one RR set to an
8000-set sketch and rebuilds its inverted index (a counting sort of the
new entries, not a re-sort of all of them), and ``layout.load_ms``
warm-loads an index of theta and of 4·theta RR sets; their ratio
``layout.load_ratio_4x`` is about 1 because a load wraps the mapped
arrays instead of looping over the sets.  Each is a median of
:data:`LAYOUT_TRIALS` trials.

This benchmark measures all of these on one dataset, asserts the
contract (warm and warm_http sample nothing; cached p50 under 5 ms),
and persists
p50/p95 latencies to ``benchmarks/results/BENCH_serve.json`` — the
table quoted in ``docs/serving.md``.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import tempfile
import time
from pathlib import Path

import pytest

from repro.datasets.registry import load_dataset
from repro.obs import MetricsRegistry
from repro.sampling.service import SamplingPool
from repro.serve import SeedQueryEngine, SeedQueryServer, ServeClient
from repro.serve.index import graph_fingerprint, load_index, save_index
from repro.utils.timer import Timer

from conftest import run_once

SCALE = 0.25
SEED = 2018
K = 10
ALPHA_TARGET = 0.3
CLIENTS = 8
REQUESTS_PER_CLIENT = 25
QUERY_TRIALS = 5
WARM_HTTP_REQUESTS = 240
SWEEP_KS = range(1, 51)
LAYOUT_SCALE = 2.5
LAYOUT_SKETCH = 8000
LAYOUT_THETA = 4000
LAYOUT_TRIALS = 31


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


def _cold_queries(graph, root):
    """:data:`QUERY_TRIALS` cold queries, each into a fresh index
    directory; returns their seconds, the last answer and its index."""
    seconds = []
    for trial in range(QUERY_TRIALS):
        index_dir = root / f"cold-{trial}"
        elapsed, answer = _cold_query(graph, index_dir)
        seconds.append(elapsed)
    return seconds, answer, index_dir


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
    """Ascending k-sweep on the loaded index, checkpointing after every
    answer: passes and answer seconds, and the checkpoints' writes and
    latency."""
    registry = MetricsRegistry()
    answer_seconds = 0.0
    checkpoint_seconds = []
    with SeedQueryEngine(
        graph, "IC", seed=SEED, index_dir=index_dir, registry=registry
    ) as engine:
        budget = engine.num_rr_sets
        for k in SWEEP_KS:
            started = time.perf_counter()
            answer = engine.answer(k, alpha_target=0.01, rr_budget=budget)
            answered = time.perf_counter()
            assert engine.checkpoint() is not None, "the schedule moved"
            checkpoint_seconds.append(time.perf_counter() - answered)
            answer_seconds += answered - started
            assert answer["sampled"] == 0, "the sweep must not sample"
    counters = registry.counter_values()
    sweep = {
        "ks": f"{SWEEP_KS.start}..{SWEEP_KS.stop - 1}",
        "greedy_runs": counters["maxcover.greedy_runs"],
        "greedy_reuse": counters["maxcover.greedy_reuse"],
        "seconds": round(answer_seconds, 4),
    }
    checkpoint = {
        "manifest_writes": counters.get("serve.manifest_saves", 0),
        "journal_appends": counters.get("serve.journal_appends", 0),
        "p50_ms": _median_ms(checkpoint_seconds),
        "samples": len(checkpoint_seconds),
    }
    return sweep, checkpoint


def _median_ms(samples):
    return round(1e3 * statistics.median(samples), 3)


def _layout_timings():
    """Append-and-rebuild and warm-load times of the flat layout."""
    big = load_dataset("pokec-sim", scale=LAYOUT_SCALE)
    # The engine's sampler, in process; its state goes in the manifests.
    sampler = SamplingPool(big, "IC", workers=1, seed=SEED)
    sketch = sampler.new_collection(LAYOUT_SKETCH)
    sketch.build()
    appends = []
    for _ in range(LAYOUT_TRIALS):
        sampler.fill(sketch, 1)
        started = time.perf_counter()
        sketch.build()
        appends.append(time.perf_counter() - started)
    fingerprint = graph_fingerprint(big)
    thetas = (LAYOUT_THETA, 4 * LAYOUT_THETA)
    loads = {theta: [] for theta in thetas}
    with tempfile.TemporaryDirectory() as tmp:
        for theta in thetas:
            save_index(
                Path(tmp) / str(theta), big, "IC",
                r1=sampler.new_collection(theta // 2),
                r2=sampler.new_collection(theta // 2),
                sampler_state=sampler.state(), seed=SEED,
                graph_hash=fingerprint,
            )
        # Interleaved, in alternating order, so host drift hits both.
        for trial in range(LAYOUT_TRIALS):
            for theta in thetas[:: 1 if trial % 2 else -1]:
                started = time.perf_counter()
                load_index(Path(tmp) / str(theta), big, graph_hash=fingerprint)
                loads[theta].append(time.perf_counter() - started)
    at_theta = statistics.median(loads[LAYOUT_THETA])
    at_4theta = statistics.median(loads[4 * LAYOUT_THETA])
    return {
        "n": big.n,
        "sketch_rr_sets": LAYOUT_SKETCH,
        "trials": LAYOUT_TRIALS,
        "append_build_ms": _median_ms(appends),
        "load_ms": {
            "theta": LAYOUT_THETA,
            "at_theta": _median_ms(loads[LAYOUT_THETA]),
            "at_4theta": _median_ms(loads[4 * LAYOUT_THETA]),
        },
        "load_ratio_4x": round(at_4theta / at_theta, 3),
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


async def _warm_http_latencies(graph, index_dir):
    """End-to-end HTTP latency of engine-answered misses on the loaded
    sketch: distinct ``(k, target)`` keys, ``rr_budget`` = index size.
    Metrics are on, so ``/stats`` counts the inline answers."""
    engine = SeedQueryEngine(
        graph, "IC", seed=SEED, index_dir=index_dir,
        registry=MetricsRegistry(),
    )
    server = SeedQueryServer(engine, port=0, own_engine=True)
    await server.start()
    budget = engine.num_rr_sets
    try:
        client = await ServeClient.connect("127.0.0.1", server.port)
        # The primer runs the greedy pass every later k reads a prefix of.
        status, _ = await client.request(
            "POST", "/query",
            {"k": K, "alpha_target": ALPHA_TARGET, "rr_budget": budget},
        )
        assert status == 200
        latencies = []
        for i in range(WARM_HTTP_REQUESTS):
            payload = {
                "k": 1 + i % K,
                "alpha_target": round(0.05 + 0.001 * i, 4),
                "rr_budget": budget,
            }
            started = time.perf_counter()
            status, reply = await client.request("POST", "/query", payload)
            latencies.append(time.perf_counter() - started)
            assert status == 200
            assert not reply["cached"], "every warm_http key is distinct"
            assert reply["sampled"] == 0, "warm_http must not sample"
        _, stats = await client.request("GET", "/stats")
        await client.close()
    finally:
        await server.close()
    return latencies, stats["inline_answers"]


def bench_serve_cold_warm_cached(benchmark, graph, tmp_path_factory):
    root = tmp_path_factory.mktemp("rr-index")

    def run():
        cold_seconds, cold_answer, index_dir = _cold_queries(graph, root)
        warm_seconds = [
            _warm_query(graph, index_dir, cold_answer)
            for _ in range(QUERY_TRIALS)
        ]
        sweep, checkpoint = _warm_sweep(graph, index_dir)
        cached = asyncio.run(_cached_latencies(graph, index_dir))
        warm_http = asyncio.run(_warm_http_latencies(graph, index_dir))
        layout = _layout_timings()
        return (
            cold_seconds, warm_seconds, sweep, checkpoint, cached,
            warm_http, cold_answer, layout,
        )

    (
        cold_seconds, warm_seconds, sweep, checkpoint, cached, warm_http,
        cold_answer, layout,
    ) = run_once(benchmark, run)
    cached_stats = _percentiles(cached)
    warm_http_latencies, inline_answers = warm_http
    warm_http_stats = {
        **_percentiles(warm_http_latencies),
        "inline_answers": inline_answers,
    }
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
        "cold": {
            "p50_ms": _median_ms(cold_seconds), "samples": len(cold_seconds)
        },
        "warm_index": {
            "p50_ms": _median_ms(warm_seconds), "samples": len(warm_seconds)
        },
        "sweep": sweep,
        "checkpoint": checkpoint,
        "cached": cached_stats,
        "warm_http": warm_http_stats,
        "layout": layout,
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / "BENCH_serve.json"
    path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    assert inline_answers == WARM_HTTP_REQUESTS, (
        "a lone client's sketch answers all run on the event loop"
    )
    assert cached_stats["p50_ms"] < 5.0, (
        f"cached p50 {cached_stats['p50_ms']}ms is over the 5ms budget"
    )
    assert statistics.median(warm_seconds) < statistics.median(cold_seconds), (
        "warm-index query should beat the cold query"
    )
