"""Sharded serving tier under load: residency, throughput, crash recovery.

The cluster tier's pitch is that one front end can keep many tenant
graphs warm at once — each graph pinned to a worker shard by content
hash, each worker a long-lived process holding warm
:class:`~repro.serve.engine.SeedQueryEngine` instances — without
giving up either the per-graph memory budget or the determinism
contract.  This benchmark exercises all of it end to end through a
real listening socket and real worker processes:

* **residency** — four graphs registered across four workers; after a
  cold pass every graph is resident simultaneously and the specs span
  at least two distinct shards;
* **warm latency** — repeat queries against warm engines, measured
  end-to-end over HTTP through the front end (p50/p95; includes the
  worker-queue round trip, so it is the number a client actually
  sees);
* **throughput** — a round-robin batch of jobs fanned out over all
  four shards, reported as jobs/s at 4 workers;
* **admission control** — a graph registered with a deliberately tiny
  memory budget accepts its first job and 503s (``Retry-After``) the
  next;
* **constant-size replies** — one client sends the same repeat job to
  one graph ``FLAT_JOBS`` times.  A reply carries only its own claim,
  so neither its latency nor its size may grow with the engine's age:
  the p50 over jobs 270-300 against jobs 10-40, and the reply bytes at
  job 300 against job 10, stay flat;
* **crash recovery** — a fault-injected job kills its worker mid-run;
  the requeued job's answer must be bitwise-identical to an
  uninterrupted single-process reference engine.

Results go to ``benchmarks/results/BENCH_cluster.json``; the warm p95,
jobs/s and both constant-size ratios are gated in
``BENCH_baseline.json``.
"""

from __future__ import annotations

import asyncio
import json
import statistics
import time
from pathlib import Path

import pytest

from repro.graph import assign_wc_weights, power_law_graph
from repro.serve import SeedQueryEngine
from repro.serve.http import ServeClient

from conftest import run_once

SEED = 2018
WORKERS = 4
GRAPHS = 4
N = 240
K = 4
EPSILON = 0.3
RR_BUDGET = 4000
WARM_REQUESTS_PER_GRAPH = 10
THROUGHPUT_JOBS = 24
FLAT_JOBS = 300
#: 1-based job windows whose p50s the constant-size ratio compares.
FLAT_EARLY = (10, 40)
FLAT_LATE = (270, 300)
TENANT = "bench"
HEADERS = {"X-Tenant": TENANT}


@pytest.fixture(scope="module")
def graphs():
    """Four distinct WC-weighted power-law graphs (seeds 100..103 land
    on three distinct shards at 4 workers; see the residency assert)."""
    return [
        assign_wc_weights(power_law_graph(N, 4, seed=100 + i))
        for i in range(GRAPHS)
    ]


@pytest.fixture(scope="module")
def crash_graph():
    """A fifth graph reserved for the crash trial: its engine must see
    exactly the reference engine's query sequence, so the warm and
    throughput passes never touch it."""
    return assign_wc_weights(power_law_graph(N, 4, seed=104))


def _percentiles(samples):
    ordered = sorted(samples)
    return {
        "p50_ms": round(1e3 * statistics.median(ordered), 3),
        "p95_ms": round(1e3 * ordered[int(0.95 * (len(ordered) - 1))], 3),
        "mean_ms": round(1e3 * statistics.fmean(ordered), 3),
        "samples": len(ordered),
    }


async def _job(client, payload, wait=120):
    status, headers, body = await client.request_raw(
        "POST", "/jobs", payload=payload, headers=HEADERS
    )
    if status != 202:
        return status, headers, body
    return await client.request_raw(
        "GET", f"/jobs/{body['job_id']}/result?wait={wait}", headers=HEADERS
    )


def _query(name):
    return {"graph": name, "k": K, "epsilon": EPSILON, "rr_budget": RR_BUDGET}


async def _cluster_scenario(graphs, crash_graph, state_dir, reference):
    from repro.serve.cluster import ClusterFrontend

    front = ClusterFrontend(
        port=0,
        workers=WORKERS,
        state_dir=state_dir,
        fault_injection=True,
    )
    await front.start()
    client = await ServeClient.connect(front.host, front.port)
    try:
        for i, graph in enumerate(graphs):
            front.register_graph(
                graph, f"g{i}", tenant=TENANT, seed=SEED, step=2000
            )
        # Tiny-budget graph for the admission-control probe.
        front.register_graph(
            graphs[0], "g-tiny", tenant=TENANT, seed=SEED, step=2000,
            mem_budget=1024,
        )
        front.register_graph(
            graphs[1], "g-flat", tenant=TENANT, seed=SEED + 1, step=2000
        )
        # Untouched graph for the crash trial (see ``crash_graph``).
        front.register_graph(
            crash_graph, "g-crash", tenant=TENANT, seed=SEED, step=2000
        )

        # Cold pass: one job per graph warms each shard's engine and
        # persists its index; remember the answers for the warm check.
        cold = {}
        for i in range(GRAPHS):
            status, _, body = await _job(client, _query(f"g{i}"))
            assert status == 200, body
            cold[f"g{i}"] = body

        stats = front.stats()
        names = {f"g{i}" for i in range(GRAPHS)}
        resident = [
            view for view in stats["graphs"]
            if view["name"] in names and view["resident"]
        ]
        shards = {view["shard"] for view in resident}
        assert len(resident) >= GRAPHS, stats["graphs"]
        assert len(shards) >= 2, shards

        # Warm latency through the front end: repeat queries hit the
        # warm engines' per-(k, target) sessions.
        latencies = []
        for _ in range(WARM_REQUESTS_PER_GRAPH):
            for i in range(GRAPHS):
                started = time.perf_counter()
                status, _, body = await _job(client, _query(f"g{i}"))
                latencies.append(time.perf_counter() - started)
                assert status == 200, body
                assert body["response"]["seeds"] == (
                    cold[f"g{i}"]["response"]["seeds"]
                )

        # Throughput at 4 workers: fan a round-robin batch over all
        # shards concurrently (one connection per lane — a ServeClient
        # is a single HTTP stream) and count completed jobs per second.
        lanes = [
            [_query(f"g{i % GRAPHS}") for i in range(lane, THROUGHPUT_JOBS, GRAPHS)]
            for lane in range(GRAPHS)
        ]

        async def run_lane(payloads):
            lane_client = await ServeClient.connect(front.host, front.port)
            try:
                return [
                    await _job(lane_client, payload) for payload in payloads
                ]
            finally:
                await lane_client.close()

        started = time.perf_counter()
        replies = await asyncio.gather(*(run_lane(lane) for lane in lanes))
        elapsed = time.perf_counter() - started
        assert all(
            status == 200 for lane in replies for status, _, _ in lane
        )

        # Constant-size replies: the same job, FLAT_JOBS times in a row,
        # on a graph no other phase touches.  Every job after the first
        # is capped at the first one's sketch, so the series times pure
        # repeats under the delta/2^i schedule.
        flat_latencies = []
        flat_bytes = []
        query = _query("g-flat")
        for index in range(FLAT_JOBS):
            started = time.perf_counter()
            status, headers, body = await _job(client, query)
            flat_latencies.append(time.perf_counter() - started)
            assert status == 200, body
            assert index == 0 or body["response"]["sampled"] == 0
            query = {**query, "rr_budget": body["response"]["num_rr_sets"]}
            flat_bytes.append(int(headers["content-length"]))

        # Admission control: the tiny-budget graph takes one job, then
        # rejects with 503 + Retry-After until evicted.
        status, _, body = await _job(client, _query("g-tiny"))
        assert status == 200, body
        status, headers, body = await _job(client, _query("g-tiny"))
        assert status == 503, body
        assert body["error"] == "mem_budget"
        admission = {
            "rejected_status": status,
            "retry_after": headers.get("retry-after"),
        }

        # Crash recovery: warm ``g-crash`` with the reference's first
        # query, then the fault-injected second query kills its worker
        # after partially extending the stream; the requeued job must
        # match the uninterrupted reference bitwise.
        status, _, warm_first = await _job(client, _query("g-crash"))
        assert status == 200, warm_first
        assert warm_first["response"]["seeds"] == (
            reference["first"]["seeds"]
        )
        status, _, crashed = await _job(
            client, {**_query("g-crash"), "k": K + 2, "inject_crash": True}
        )
        assert status == 200, crashed
        assert crashed["requeues"] == 1
        ref = reference["second"]
        identical = all(
            crashed["response"][key] == ref[key]
            for key in (
                "seeds", "alpha", "num_rr_sets", "sigma_low", "sigma_up"
            )
        )
        assert identical, (crashed["response"], ref)
        crash_trial = {
            "requeues": crashed["requeues"],
            "restarts": front.stats()["restarts"],
            "bitwise_identical": identical,
        }

        return {
            "resident_graphs": len(resident),
            "distinct_shards": len(shards),
            "warm_latencies": latencies,
            "throughput_seconds": elapsed,
            "flat_latencies": flat_latencies,
            "flat_bytes": flat_bytes,
            "admission": admission,
            "crash_trial": crash_trial,
            "num_rr_sets": cold["g0"]["response"]["num_rr_sets"],
        }
    finally:
        await client.close()
        await front.close(drain=True)


def _constant_size(latencies, nbytes):
    """Late-vs-early p50 and reply-size ratios of the repeat series."""
    def window(bounds):
        return latencies[bounds[0] - 1:bounds[1]]

    early = statistics.median(window(FLAT_EARLY))
    late = statistics.median(window(FLAT_LATE))
    first, last = FLAT_EARLY[0], FLAT_LATE[1]
    return {
        "jobs": len(latencies),
        "early_p50_ms": round(1e3 * early, 3),
        "late_p50_ms": round(1e3 * late, 3),
        "p50_ratio": round(late / early, 3),
        f"reply_bytes_job{first}": nbytes[first - 1],
        f"reply_bytes_job{last}": nbytes[last - 1],
        "reply_bytes_ratio": round(nbytes[last - 1] / nbytes[first - 1], 3),
    }


def _reference_answers(graph):
    """Uninterrupted single-process engine: the determinism oracle for
    the crash trial (same spec as the cluster's ``g0``)."""
    with SeedQueryEngine(graph, "IC", seed=SEED, step=2000) as engine:
        first = engine.answer(K, epsilon=EPSILON, rr_budget=RR_BUDGET)
        second = engine.answer(K + 2, epsilon=EPSILON, rr_budget=RR_BUDGET)
    return {"first": first, "second": second}


def bench_cluster_tier(benchmark, graphs, crash_graph, tmp_path_factory):
    state_dir = tmp_path_factory.mktemp("cluster-state")

    def run():
        reference = _reference_answers(crash_graph)
        return asyncio.run(
            _cluster_scenario(graphs, crash_graph, state_dir, reference)
        )

    outcome = run_once(benchmark, run)
    warm = _percentiles(outcome["warm_latencies"])
    jobs_per_second = round(
        THROUGHPUT_JOBS / outcome["throughput_seconds"], 3
    )
    summary = {
        "workers": WORKERS,
        "graphs": GRAPHS,
        "graph_n": N,
        "seed": SEED,
        "k": K,
        "epsilon": EPSILON,
        "rr_budget": RR_BUDGET,
        "num_rr_sets": outcome["num_rr_sets"],
        "resident_graphs": outcome["resident_graphs"],
        "distinct_shards": outcome["distinct_shards"],
        "warm": warm,
        "throughput": {
            "jobs": THROUGHPUT_JOBS,
            "seconds": round(outcome["throughput_seconds"], 3),
            "jobs_per_second": jobs_per_second,
        },
        "admission": outcome["admission"],
        "crash_trial": outcome["crash_trial"],
        "constant_size": _constant_size(
            outcome["flat_latencies"], outcome["flat_bytes"]
        ),
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / "BENCH_cluster.json"
    path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    assert summary["resident_graphs"] >= 4
    assert summary["distinct_shards"] >= 2
    assert summary["crash_trial"]["bitwise_identical"]
    assert summary["admission"]["rejected_status"] == 503
    assert summary["constant_size"]["p50_ratio"] <= 1.2
    assert summary["constant_size"]["reply_bytes_ratio"] <= 1.1
