"""Tests for the sharded multi-tenant serving tier (``repro.serve.cluster``).

End-to-end through a real listening socket and real worker processes:

* **Registry** — fingerprint-hash shard routing, tenant-scoped ids,
  registration validation.
* **Admission control** — memory-budget rejection is a 503 with a
  ``Retry-After`` header, at both the front end (last-known memory)
  and the worker (authoritative check before running a job).
* **Eviction** — an evicted graph's next job warm-restarts from the
  persistent index without resampling; a worker over its total budget
  LRU-evicts cold engines.
* **Job accounting** — a threads+asyncio hammer where every submitted
  job is accounted for exactly once.
* **Failure modes** — worker crash triggers respawn + requeue;
  exhausting the restart budget fails pending jobs and the health
  endpoint; graceful drain checkpoints and a new front end serves
  warm from the same state dir.
"""

from __future__ import annotations

import asyncio
import errno
import logging
import os
import signal
import threading
import time

import pytest

from repro.exceptions import ParameterError
from repro.graph import assign_wc_weights, power_law_graph
from repro.graph.build import from_edge_list
from repro.obs import MetricsRegistry, TraceRecorder
from repro.serve.cluster import (
    ClusterFrontend,
    GraphRegistry,
    GraphSpec,
    shard_for,
)
from repro.serve.http import ServeClient


def run(coro):
    return asyncio.run(coro)


def make_graph(index: int = 0, n: int = 60):
    return assign_wc_weights(power_law_graph(n, 4, seed=index))


async def _started_frontend(**kwargs):
    kwargs.setdefault("port", 0)
    kwargs.setdefault("workers", 2)
    front = ClusterFrontend(**kwargs)
    await front.start()
    return front


async def _submit_and_wait(client, graph, headers, wait=60, **fields):
    payload = {"graph": graph, "k": 2, "epsilon": 0.3, "rr_budget": 4000}
    payload.update(fields)
    status, _, body = await client.request_raw(
        "POST", "/jobs", payload=payload, headers=headers
    )
    assert status == 202, body
    status, resp_headers, body = await client.request_raw(
        "GET", f"/jobs/{body['job_id']}/result?wait={wait}", headers=headers
    )
    return status, resp_headers, body


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_shard_routing_is_deterministic(self):
        assert shard_for("ab" * 32, 4) == shard_for("ab" * 32, 4)
        assert shard_for("00" * 32, 3) == 0
        with pytest.raises(ParameterError, match="shards"):
            shard_for("ab" * 32, 0)

    def test_register_assigns_fingerprint_and_shard(self):
        registry = GraphRegistry(shards=3)
        status = registry.register(
            GraphSpec(name="g", tenant="acme", graph=make_graph())
        )
        assert len(status.spec.fingerprint) == 64
        assert 0 <= status.spec.shard < 3
        assert registry.get("acme/g") is status
        assert registry.lookup("acme", "g") is status
        assert registry.lookup("other", "g") is None
        assert "acme/g" in registry

    def test_register_validation(self):
        registry = GraphRegistry(shards=2)
        graph = make_graph()
        with pytest.raises(ParameterError, match="slash-free"):
            registry.register(GraphSpec(name="a/b", tenant="t", graph=graph))
        with pytest.raises(ParameterError, match="slash-free"):
            registry.register(GraphSpec(name="", tenant="t", graph=graph))
        unweighted = from_edge_list([(0, 1), (1, 2)])
        with pytest.raises(ParameterError, match="probabilities"):
            registry.register(
                GraphSpec(name="g", tenant="t", graph=unweighted)
            )
        registry.register(GraphSpec(name="g", tenant="t", graph=graph))
        with pytest.raises(ParameterError, match="already registered"):
            registry.register(GraphSpec(name="g", tenant="t", graph=graph))

    def test_same_name_different_tenants_coexist(self):
        registry = GraphRegistry(shards=2)
        registry.register(GraphSpec(name="g", tenant="a", graph=make_graph()))
        registry.register(GraphSpec(name="g", tenant="b", graph=make_graph()))
        assert len(registry) == 2
        assert [s.spec.tenant for s in registry.by_tenant("a")] == ["a"]


# ----------------------------------------------------------------------
# Job lifecycle through the HTTP API
# ----------------------------------------------------------------------
class TestJobLifecycle:
    def test_submit_status_result_roundtrip(self, tmp_path):
        async def scenario():
            front = await _started_frontend(state_dir=tmp_path)
            client = await ServeClient.connect(front.host, front.port)
            headers = {"X-Tenant": "acme"}
            try:
                front.register_graph(
                    make_graph(), "g", tenant="acme", seed=11, delta=0.2
                )
                status, _, body = await client.request_raw(
                    "POST",
                    "/jobs",
                    payload={"graph": "g", "k": 2, "epsilon": 0.3},
                    headers=headers,
                )
                assert status == 202
                job_id = body["job_id"]
                assert body["status"] == "queued"
                status, _, result = await client.request_raw(
                    "GET", f"/jobs/{job_id}/result?wait=60", headers=headers
                )
                assert status == 200
                assert result["response"]["satisfied"]
                assert result["response"]["seeds"]
                assert result["checkpointed"]
                # The reply carries its own claim; the history is a
                # separate read whose last k=2 entry is that claim.
                assert result["claim"]["query"] == (
                    result["response"]["queries_made"]
                )
                status, _, claims = await client.request_raw(
                    "GET", "/graphs/g/claims", headers=headers
                )
                assert status == 200 and claims["resident"]
                assert claims["claims"]["2"][-1] == result["claim"]
                status, _, body = await client.request_raw(
                    "GET", f"/jobs/{job_id}", headers=headers
                )
                assert status == 200 and body["status"] == "done"
                # Results are idempotent reads.
                status, _, again = await client.request_raw(
                    "GET", f"/jobs/{job_id}/result", headers=headers
                )
                assert status == 200
                assert again["response"]["seeds"] == result["response"]["seeds"]
            finally:
                await client.close()
                await front.close(drain=True)

        run(scenario())

    def test_hop_jobs_route_to_the_guarantee_free_path(self, tmp_path):
        async def scenario():
            front = await _started_frontend(state_dir=tmp_path)
            client = await ServeClient.connect(front.host, front.port)
            headers = {"X-Tenant": "acme"}
            try:
                front.register_graph(
                    make_graph(), "g", tenant="acme", seed=11, delta=0.2
                )
                status, _, body = await client.request_raw(
                    "POST",
                    "/jobs",
                    payload={"graph": "g", "precision": "hop", "k": 3},
                    headers=headers,
                )
                assert status == 202, body
                status, _, result = await client.request_raw(
                    "GET",
                    f"/jobs/{body['job_id']}/result?wait=60",
                    headers=headers,
                )
                assert status == 200
                response = result["response"]
                assert response["precision"] == "hop"
                assert response["no_guarantee"] is True
                assert response["guarantee"] is False
                assert response["sampled"] == 0
                assert len(response["seeds"]) == 3
                # What-if spelling: evaluate the returned seeds.
                status, _, body = await client.request_raw(
                    "POST",
                    "/jobs",
                    payload={
                        "graph": "g",
                        "precision": "hop",
                        "seeds": response["seeds"],
                    },
                    headers=headers,
                )
                assert status == 202, body
                status, _, what_if = await client.request_raw(
                    "GET",
                    f"/jobs/{body['job_id']}/result?wait=60",
                    headers=headers,
                )
                assert status == 200
                assert what_if["response"]["what_if"] is True
                assert what_if["response"]["sigma_hop"] == pytest.approx(
                    response["sigma_hop"]
                )
                # Malformed hop submissions fail fast at the front end.
                status, _, body = await client.request_raw(
                    "POST",
                    "/jobs",
                    payload={"graph": "g", "precision": "hop", "k": 3,
                             "seeds": [0]},
                    headers=headers,
                )
                assert status == 400 and "exactly one" in body["error"]
                status, _, body = await client.request_raw(
                    "POST",
                    "/jobs",
                    payload={"graph": "g", "precision": "exactly", "k": 3},
                    headers=headers,
                )
                assert status == 400, body
            finally:
                await client.close()
                await front.close(drain=True)

        run(scenario())

    def test_unknown_job_and_graph_are_404(self, tmp_path):
        async def scenario():
            front = await _started_frontend(state_dir=tmp_path)
            client = await ServeClient.connect(front.host, front.port)
            try:
                status, _, _ = await client.request_raw("GET", "/jobs/nope")
                assert status == 404
                status, _, _ = await client.request_raw(
                    "GET", "/jobs/nope/result"
                )
                assert status == 404
                status, _, body = await client.request_raw(
                    "POST", "/jobs", payload={"graph": "ghost", "k": 2,
                                              "epsilon": 0.3}
                )
                assert status == 404, body
                status, _, _ = await client.request_raw("GET", "/nothing")
                assert status == 404
            finally:
                await client.close()
                await front.close(drain=True)

        run(scenario())

    def test_bad_requests_are_400(self, tmp_path):
        async def scenario():
            front = await _started_frontend(state_dir=tmp_path)
            client = await ServeClient.connect(front.host, front.port)
            try:
                front.register_graph(make_graph(), "g")
                status, _, body = await client.request_raw(
                    "POST", "/jobs", payload={"graph": "g", "k": "NaN",
                                              "epsilon": 0.3}
                )
                assert status == 400 and "k" in body["error"]
                status, _, body = await client.request_raw(
                    "POST", "/jobs", payload={"graph": "g", "k": 2,
                                              "epsilon": 0.3, "bogus": 1}
                )
                assert status == 400 and "bogus" in body["error"]
                # Fault injection is opt-in at construction time.
                status, _, body = await client.request_raw(
                    "POST", "/jobs", payload={"graph": "g", "k": 2,
                                              "epsilon": 0.3,
                                              "inject_crash": True}
                )
                assert status == 400 and "fault_injection" in body["error"]
            finally:
                await client.close()
                await front.close(drain=True)

        run(scenario())

    def test_tenant_scoping(self, tmp_path):
        async def scenario():
            front = await _started_frontend(state_dir=tmp_path)
            client = await ServeClient.connect(front.host, front.port)
            try:
                front.register_graph(make_graph(0), "shared", tenant="acme")
                front.register_graph(make_graph(1), "shared", tenant="beta")
                front.register_graph(make_graph(2), "only-acme", tenant="acme")
                status, _, body = await client.request_raw(
                    "GET", "/graphs", headers={"X-Tenant": "acme"}
                )
                assert status == 200
                assert {g["graph_id"] for g in body["graphs"]} == {
                    "acme/shared", "acme/only-acme"
                }
                status, _, body = await client.request_raw(
                    "GET", "/graphs", headers={"X-Tenant": "beta"}
                )
                assert {g["graph_id"] for g in body["graphs"]} == {
                    "beta/shared"
                }
                # A tenant cannot reach another tenant's graph by name.
                status, _, body = await client.request_raw(
                    "POST", "/jobs",
                    payload={"graph": "only-acme", "k": 2, "epsilon": 0.3},
                    headers={"X-Tenant": "beta"},
                )
                assert status == 404
            finally:
                await client.close()
                await front.close(drain=True)

        run(scenario())

    def test_job_reads_are_tenant_scoped(self, tmp_path):
        """Job ids are unguessable and, even when known, another
        tenant's job status/result read as 404 — job results carry
        seeds and sigma bounds, so cross-tenant reads are data leaks.
        """
        async def scenario():
            front = await _started_frontend(state_dir=tmp_path)
            client = await ServeClient.connect(front.host, front.port)
            acme = {"X-Tenant": "acme"}
            beta = {"X-Tenant": "beta"}
            try:
                front.register_graph(make_graph(), "g", tenant="acme")
                status, _, body = await client.request_raw(
                    "POST", "/jobs",
                    payload={"graph": "g", "k": 2, "epsilon": 0.3},
                    headers=acme,
                )
                assert status == 202, body
                job_id = body["job_id"]
                # Not enumerable: a uuid payload, not a counter.
                assert job_id.startswith("job-")
                assert len(job_id) == len("job-") + 32
                # The owner can read it; another tenant cannot, even
                # with the exact id — and cannot tell it exists.
                status, _, body = await client.request_raw(
                    "GET", f"/jobs/{job_id}/result?wait=60", headers=acme
                )
                assert status == 200, body
                for path in (f"/jobs/{job_id}", f"/jobs/{job_id}/result"):
                    status, _, body = await client.request_raw(
                        "GET", path, headers=beta
                    )
                    assert status == 404, body
                    assert "unknown job" in body["error"]
                    # The default tenant is a stranger too.
                    status, _, body = await client.request_raw("GET", path)
                    assert status == 404, body
            finally:
                await client.close()
                await front.close(drain=True)

        run(scenario())

    def test_terminal_jobs_age_out_of_the_table(self, tmp_path):
        async def scenario():
            front = await _started_frontend(
                state_dir=tmp_path, completed_jobs_limit=1
            )
            client = await ServeClient.connect(front.host, front.port)
            headers = {"X-Tenant": "t"}
            try:
                front.register_graph(make_graph(), "g", tenant="t")
                ids = []
                for _ in range(2):
                    status, _, body = await client.request_raw(
                        "POST", "/jobs",
                        payload={"graph": "g", "k": 2, "epsilon": 0.3},
                        headers=headers,
                    )
                    assert status == 202, body
                    ids.append(body["job_id"])
                    status, _, body = await client.request_raw(
                        "GET", f"/jobs/{body['job_id']}/result?wait=60",
                        headers=headers,
                    )
                    assert status == 200, body
                # Only the newest terminal job is still readable; the
                # older one was pruned (bounded memory), reading as 404.
                status, _, _ = await client.request_raw(
                    "GET", f"/jobs/{ids[0]}", headers=headers
                )
                assert status == 404
                status, _, _ = await client.request_raw(
                    "GET", f"/jobs/{ids[1]}", headers=headers
                )
                assert status == 200
                assert front.stats()["jobs"] == {"done": 1}
            finally:
                await client.close()
                await front.close(drain=True)

        run(scenario())

    def test_completed_jobs_limit_validation(self):
        with pytest.raises(ParameterError, match="completed_jobs_limit"):
            ClusterFrontend(port=0, completed_jobs_limit=0)


# ----------------------------------------------------------------------
# Admission control + eviction
# ----------------------------------------------------------------------
class TestAdmissionAndEviction:
    def test_mem_budget_rejection_is_503_with_retry_after(self, tmp_path):
        async def scenario():
            front = await _started_frontend(state_dir=tmp_path)
            client = await ServeClient.connect(front.host, front.port)
            headers = {"X-Tenant": "t"}
            try:
                # A budget below any real sketch: the first job makes
                # the engine resident and over budget.
                front.register_graph(
                    make_graph(), "g", tenant="t", mem_budget=1024
                )
                status, _, body = await _submit_and_wait(
                    client, "g", headers
                )
                assert status == 200, body
                assert body["engine"]["memory_bytes"] > 1024
                # Front-end admission now refuses outright.
                status, resp_headers, body = await client.request_raw(
                    "POST", "/jobs",
                    payload={"graph": "g", "k": 2, "epsilon": 0.3},
                    headers=headers,
                )
                assert status == 503
                assert body["error"] == "mem_budget"
                assert resp_headers.get("retry-after") == "5"
            finally:
                await client.close()
                await front.close(drain=True)

        run(scenario())

    def test_worker_side_rejection_when_jobs_race_admission(self, tmp_path):
        async def scenario():
            front = await _started_frontend(state_dir=tmp_path)
            client = await ServeClient.connect(front.host, front.port)
            headers = {"X-Tenant": "t"}
            try:
                front.register_graph(
                    make_graph(), "g", tenant="t", mem_budget=1024
                )
                # Submit two jobs back to back: both pass the front
                # end (memory still unknown), but the worker runs them
                # serially and rejects the second authoritatively.
                ids = []
                for _ in range(2):
                    status, _, body = await client.request_raw(
                        "POST", "/jobs",
                        payload={"graph": "g", "k": 2, "epsilon": 0.3},
                        headers=headers,
                    )
                    assert status == 202, body
                    ids.append(body["job_id"])
                status, _, first = await client.request_raw(
                    "GET", f"/jobs/{ids[0]}/result?wait=60", headers=headers
                )
                assert status == 200, first
                status, resp_headers, second = await client.request_raw(
                    "GET", f"/jobs/{ids[1]}/result?wait=60", headers=headers
                )
                assert status == 503, second
                assert second["error"] == "mem_budget"
                assert resp_headers.get("retry-after") == "5"
            finally:
                await client.close()
                await front.close(drain=True)

        run(scenario())

    def test_queue_limit_overload_is_503(self, tmp_path):
        async def scenario():
            front = await _started_frontend(
                state_dir=tmp_path, queue_limit=1
            )
            client = await ServeClient.connect(front.host, front.port)
            headers = {"X-Tenant": "t"}
            try:
                front.register_graph(
                    make_graph(n=150), "g", tenant="t", seed=5
                )
                # An expensive target keeps job 1 pending long enough
                # for job 2's admission check to see a full table.
                status, _, body = await client.request_raw(
                    "POST", "/jobs",
                    payload={"graph": "g", "k": 3, "alpha_target": 0.62,
                             "rr_budget": 400_000},
                    headers=headers,
                )
                assert status == 202, body
                first = body["job_id"]
                status, resp_headers, body = await client.request_raw(
                    "POST", "/jobs",
                    payload={"graph": "g", "k": 2, "epsilon": 0.3},
                    headers=headers,
                )
                assert status == 503, body
                assert body["error"] == "overloaded"
                assert resp_headers.get("retry-after") == "1"
                status, _, body = await client.request_raw(
                    "GET", f"/jobs/{first}/result?wait=120", headers=headers
                )
                assert status == 200, body
            finally:
                await client.close()
                await front.close(drain=True)

        run(scenario())

    def test_evicted_graph_reloads_from_index_without_resampling(
        self, tmp_path
    ):
        async def scenario():
            front = await _started_frontend(state_dir=tmp_path)
            client = await ServeClient.connect(front.host, front.port)
            headers = {"X-Tenant": "t"}
            try:
                front.register_graph(make_graph(), "g", tenant="t", seed=3)
                status, _, cold = await _submit_and_wait(client, "g", headers)
                assert status == 200 and not cold["engine"]["loaded_from_index"]
                status, _, evicted = await client.request_raw(
                    "POST", "/graphs/g/evict", headers=headers
                )
                assert status == 200 and evicted["resident"]
                status, _, body = await client.request_raw(
                    "GET", "/graphs", headers=headers
                )
                view = body["graphs"][0]
                assert not view["resident"] and view["evictions"] == 1
                status, _, warm = await _submit_and_wait(client, "g", headers)
                assert status == 200
                assert warm["engine"]["loaded_from_index"]
                assert warm["response"]["sampled"] == 0
                assert warm["response"]["seeds"] == cold["response"]["seeds"]
            finally:
                await client.close()
                await front.close(drain=True)

        run(scenario())

    def test_evict_reload_cycle_cannot_bypass_mem_budget(self, tmp_path):
        """The worker's budget check must also hold for a warm reload:
        evicting an over-budget graph and re-querying it used to slip
        past the resident-only check indefinitely."""
        async def scenario():
            front = await _started_frontend(state_dir=tmp_path)
            client = await ServeClient.connect(front.host, front.port)
            headers = {"X-Tenant": "t"}
            try:
                front.register_graph(
                    make_graph(), "g", tenant="t", mem_budget=1024
                )
                status, _, body = await _submit_and_wait(client, "g", headers)
                assert status == 200, body
                assert body["engine"]["memory_bytes"] > 1024
                status, _, body = await client.request_raw(
                    "POST", "/graphs/g/evict", headers=headers
                )
                assert status == 200, body
                # Front-end admission passes (last-known memory was
                # reset by the eviction), but the worker re-measures
                # the warm-loaded sketch and rejects authoritatively.
                status, resp_headers, body = await _submit_and_wait(
                    client, "g", headers
                )
                assert status == 503, body
                assert body["error"] == "mem_budget"
                assert resp_headers.get("retry-after") == "5"
                # The rejection's memory reading reached the registry,
                # so the next submit is refused at the front end.
                status, _, body = await client.request_raw(
                    "POST", "/jobs",
                    payload={"graph": "g", "k": 2, "epsilon": 0.3},
                    headers=headers,
                )
                assert status == 503, body
                assert body["error"] == "mem_budget"
            finally:
                await client.close()
                await front.close(drain=True)

        run(scenario())

    def test_concurrent_evicts_of_same_graph_all_resolve(self, tmp_path):
        async def scenario():
            front = await _started_frontend(state_dir=tmp_path)
            first = await ServeClient.connect(front.host, front.port)
            second = await ServeClient.connect(front.host, front.port)
            headers = {"X-Tenant": "t"}
            try:
                front.register_graph(make_graph(), "g", tenant="t")
                status, _, body = await _submit_and_wait(first, "g", headers)
                assert status == 200, body
                # Two evicts race on separate connections; both must
                # resolve on the worker's acknowledgement (neither may
                # hang on a clobbered waiter slot until timeout).
                results = await asyncio.gather(
                    first.request_raw(
                        "POST", "/graphs/g/evict", headers=headers
                    ),
                    second.request_raw(
                        "POST", "/graphs/g/evict", headers=headers
                    ),
                )
                for status, _, body in results:
                    assert status == 200, body
                    assert body["graph"] == "t/g"
            finally:
                await first.close()
                await second.close()
                await front.close(drain=True)

        run(scenario())

    def test_worker_lru_evicts_cold_engines_under_pressure(self, tmp_path):
        async def scenario():
            # One worker, a total budget below two resident sketches:
            # each new graph's job must LRU-evict the cold one.
            front = await _started_frontend(
                workers=1, worker_mem_budget=1, state_dir=tmp_path
            )
            client = await ServeClient.connect(front.host, front.port)
            headers = {"X-Tenant": "t"}
            try:
                for i in range(3):
                    front.register_graph(
                        make_graph(i), f"g{i}", tenant="t", seed=i + 1
                    )
                seeds = {}
                for i in range(3):
                    status, _, body = await _submit_and_wait(
                        client, f"g{i}", headers
                    )
                    assert status == 200, body
                    seeds[i] = body["response"]["seeds"]
                    resident = body["engine"]["resident"]
                    assert resident == [f"t/g{i}"], resident
                # The first graph was evicted (checkpointed); its next
                # job warm-restarts and answers identically.
                status, _, body = await _submit_and_wait(
                    client, "g0", headers
                )
                assert status == 200
                assert body["engine"]["loaded_from_index"]
                assert body["response"]["sampled"] == 0
                assert body["response"]["seeds"] == seeds[0]
            finally:
                await client.close()
                await front.close(drain=True)

        run(scenario())


# ----------------------------------------------------------------------
# Exact job accounting under concurrency
# ----------------------------------------------------------------------
class TestHammer:
    def test_threads_and_asyncio_hammer_accounts_every_job(self, tmp_path):
        """Three OS threads, each with its own event loop and client,
        hammer one front end.  Every submitted job must terminate and
        be counted exactly once — no lost, duplicated, or phantom jobs.
        """
        threads = 3
        jobs_per_thread = 6
        registry = MetricsRegistry()

        async def prepare():
            front = await _started_frontend(
                state_dir=tmp_path, registry=registry, queue_limit=256
            )
            for i in range(4):
                front.register_graph(
                    make_graph(i), f"g{i}", tenant="t", seed=i + 1
                )
            return front

        async def hammer(port: int, worker_index: int) -> int:
            client = await ServeClient.connect("127.0.0.1", port)
            done = 0
            try:
                for j in range(jobs_per_thread):
                    graph = f"g{(worker_index + j) % 4}"
                    status, _, body = await _submit_and_wait(
                        client, graph, {"X-Tenant": "t"},
                        k=1 + (j % 3),
                    )
                    assert status == 200, body
                    done += 1
            finally:
                await client.close()
            return done

        async def scenario():
            front = await prepare()
            results = []

            def thread_main(index: int) -> None:
                results.append(asyncio.run(hammer(front.port, index)))

            workers = [
                threading.Thread(target=thread_main, args=(i,))
                for i in range(threads)
            ]
            for thread in workers:
                thread.start()
            loop = asyncio.get_running_loop()
            # The pump must keep running while the OS threads block on
            # their sockets, so join them off the event loop.
            for thread in workers:
                await loop.run_in_executor(None, thread.join)
            stats = front.stats()
            await front.close(drain=True)
            return results, stats

        results, stats = run(scenario())
        total = threads * jobs_per_thread
        assert sum(results) == total
        assert stats["jobs"] == {"done": total}
        counters = stats["counters"]
        assert counters["cluster.jobs_submitted"] == total
        assert counters["cluster.jobs_done"] == total
        assert counters.get("cluster.jobs_failed", 0) == 0
        assert counters.get("cluster.jobs_requeued", 0) == 0
        per_graph = sum(g["jobs_done"] for g in stats["graphs"])
        assert per_graph == total


# ----------------------------------------------------------------------
# Failure modes
# ----------------------------------------------------------------------
class TestFailureModes:
    def test_restart_budget_exhaustion_fails_pending_jobs(self, tmp_path):
        async def scenario():
            front = await _started_frontend(
                state_dir=tmp_path, fault_injection=True, max_restarts=0
            )
            client = await ServeClient.connect(front.host, front.port)
            headers = {"X-Tenant": "t"}
            try:
                front.register_graph(make_graph(), "g", tenant="t")
                status, _, body = await client.request_raw(
                    "POST", "/jobs",
                    payload={"graph": "g", "k": 2, "epsilon": 0.3,
                             "inject_crash": True},
                    headers=headers,
                )
                assert status == 202
                status, _, body = await client.request_raw(
                    "GET", f"/jobs/{body['job_id']}/result?wait=60",
                    headers=headers,
                )
                assert status == 500
                assert "restart budget" in body["error"]
                status, _, health = await client.request_raw(
                    "GET", "/healthz", headers=headers
                )
                assert health["status"] == "failed"
            finally:
                await client.close()
                await front.close(drain=True)

        run(scenario())

    def test_unexpected_job_error_fails_the_job(self, tmp_path, monkeypatch):
        """A job task that raises outside the engine's own errors gets a
        ``worker_error`` reply, which must finish the job rather than
        leave it queued."""
        from repro.serve.cluster.worker import _WorkerHost

        def broken_engine(host, graph_id):
            raise RuntimeError("no engine today")

        monkeypatch.setattr(_WorkerHost, "_engine", broken_engine)

        async def scenario():
            front = await _started_frontend(state_dir=tmp_path, workers=1)
            client = await ServeClient.connect(front.host, front.port)
            try:
                front.register_graph(make_graph(), "g", tenant="t")
                status, _, body = await _submit_and_wait(
                    client, "g", {"X-Tenant": "t"}, wait=20
                )
                assert status == 500, body
                assert "no engine today" in body["error"]
                return front.stats()
            finally:
                await client.close()
                await front.close(drain=True)

        stats = run(scenario())
        assert stats["jobs"] == {"failed": 1}

    def test_crash_after_journal_only_checkpoints_requeues_bitwise(
        self, tmp_path
    ):
        """Repeat jobs that sample nothing checkpoint through the session
        journal alone; a crash after them must still requeue into an
        answer bitwise-equal to an uninterrupted engine's."""
        from repro.serve import SeedQueryEngine

        graph = make_graph()
        jobs = [(2, 4000), (2, 4000), (3, 4000), (2, 4000), (3, 4000)]
        with SeedQueryEngine(graph, "IC", seed=7, step=400, delta=0.2) as ref:
            expected = [
                ref.answer(k, epsilon=0.3, rr_budget=budget)
                for k, budget in jobs
            ]
        assert all(answer["sampled"] == 0 for answer in expected[1:-1])

        async def scenario():
            front = await _started_frontend(
                state_dir=tmp_path, fault_injection=True
            )
            client = await ServeClient.connect(front.host, front.port)
            headers = {"X-Tenant": "t"}
            try:
                front.register_graph(
                    graph, "g", tenant="t", seed=7, step=400, delta=0.2
                )
                replies = []
                for k, budget in jobs[:-1]:
                    status, _, body = await _submit_and_wait(
                        client, "g", headers, k=k, rr_budget=budget
                    )
                    assert status == 200, body
                    replies.append(body)
                # The repeats' checkpoints left the manifest alone.
                assert list(tmp_path.rglob("sessions.journal"))
                k, budget = jobs[-1]
                status, _, body = await _submit_and_wait(
                    client, "g", headers, k=k, rr_budget=budget,
                    inject_crash=True,
                )
                assert status == 200, body
                replies.append(body)
                return replies
            finally:
                await client.close()
                await front.close(drain=True)

        replies = run(scenario())
        assert replies[-1]["requeues"] == 1
        assert replies[-1]["engine"]["loaded_from_index"]
        for reply, want in zip(replies, expected):
            for key in (
                "seeds", "alpha", "num_rr_sets", "sigma_low", "sigma_up",
                "theta_cap", "queries_made",
            ):
                assert reply["response"][key] == want[key], key

    @pytest.mark.parametrize("first, then", [(1, 2), (2, 1)])
    def test_evicted_index_continues_at_another_sampler_worker_count(
        self, tmp_path, first, then
    ):
        """A graph evicted under one ``sampler_workers`` and registered
        again under another (in a new front end over the same state
        directory) warm-starts from its index and answers bitwise equal
        to an uninterrupted engine: the stream does not depend on the
        worker count."""
        from repro.serve import SeedQueryEngine

        graph = make_graph(n=400)
        jobs = [(2, 0.3, 2000), (3, 0.1, 6000), (2, 0.3, 6000)]
        with SeedQueryEngine(graph, "LT", seed=7, step=400, delta=0.2) as ref:
            expected = [
                ref.answer(k, epsilon=eps, rr_budget=budget)
                for k, eps, budget in jobs
            ]
        assert expected[1]["sampled"] > 0

        async def serve(sampler_workers, batch, evict):
            front = await _started_frontend(state_dir=tmp_path, workers=1)
            client = await ServeClient.connect(front.host, front.port)
            headers = {"X-Tenant": "t"}
            try:
                front.register_graph(
                    graph, "g", tenant="t", model="LT", seed=7, step=400,
                    delta=0.2, sampler_workers=sampler_workers,
                )
                replies = []
                for k, eps, budget in batch:
                    status, _, body = await _submit_and_wait(
                        client, "g", headers, k=k, epsilon=eps,
                        rr_budget=budget,
                    )
                    assert status == 200, body
                    replies.append(body)
                if evict:
                    status, _, body = await client.request_raw(
                        "POST", "/graphs/g/evict", headers=headers
                    )
                    assert status == 200 and body["evicted"], body
                return replies
            finally:
                await client.close()
                await front.close(drain=True)

        replies = run(serve(first, jobs[:1], evict=True))
        resumed = run(serve(then, jobs[1:], evict=False))
        assert resumed[0]["engine"]["loaded_from_index"]
        for reply, want in zip(replies + resumed, expected):
            for key in (
                "seeds", "alpha", "num_rr_sets", "sigma_low", "sigma_up",
                "sampled", "queries_made",
            ):
                assert reply["response"][key] == want[key], key

    def test_failed_job_boundary_checkpoint_finishes_the_job(
        self, tmp_path, monkeypatch
    ):
        """An ENOSPC at the job-boundary checkpoint still finishes the job
        (200, ``checkpointed: false``); the next job's checkpoint
        retries and writes, and a restart loads that later state."""
        from repro.serve import SeedQueryEngine

        graph = make_graph()
        params = dict(seed=7, step=400, delta=0.2)
        jobs = [(2, 4000), (3, 4000), (2, 4000)]
        with SeedQueryEngine(graph, "IC", **params) as ref:
            expected = [
                ref.answer(k, epsilon=0.3, rr_budget=budget)
                for k, budget in jobs
            ]
        original = SeedQueryEngine.checkpoint
        calls = []

        def enospc_once(engine):
            calls.append(None)  # per process: the forked worker's copy
            if len(calls) == 1:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return original(engine)

        registry = MetricsRegistry()

        async def first_run():
            front = await _started_frontend(
                state_dir=tmp_path, workers=1, registry=registry
            )
            client = await ServeClient.connect(front.host, front.port)
            headers = {"X-Tenant": "t"}
            try:
                front.register_graph(graph, "g", tenant="t", **params)
                replies = []
                for k, budget in jobs[:2]:
                    status, _, body = await _submit_and_wait(
                        client, "g", headers, k=k, rr_budget=budget
                    )
                    assert status == 200, body
                    replies.append(body)
                return replies
            finally:
                await client.close()
                # No drain: the index holds what the job checkpoints wrote.
                await front.close(drain=False)

        async def restart():
            front = await _started_frontend(state_dir=tmp_path, workers=1)
            client = await ServeClient.connect(front.host, front.port)
            try:
                front.register_graph(graph, "g", tenant="t", **params)
                k, budget = jobs[2]
                status, _, body = await _submit_and_wait(
                    client, "g", {"X-Tenant": "t"}, k=k, rr_budget=budget
                )
                assert status == 200, body
                return body
            finally:
                await client.close()
                await front.close(drain=True)

        with monkeypatch.context() as patch:
            patch.setattr(SeedQueryEngine, "checkpoint", enospc_once)
            failed, retried = run(first_run())
        assert failed["checkpointed"] is False
        assert os.strerror(errno.ENOSPC) in failed["checkpoint_error"]
        assert retried["checkpointed"] is True
        assert "checkpoint_error" not in retried
        assert registry.counter("cluster.checkpoint_failures").value == 1
        warm = run(restart())
        assert warm["engine"]["loaded_from_index"]
        for reply, want in zip((failed, retried, warm), expected):
            for key in (
                "seeds", "alpha", "num_rr_sets", "sampled", "queries_made",
            ):
                assert reply["response"][key] == want[key], key

    def test_drain_checkpoints_and_new_frontend_serves_warm(self, tmp_path):
        recorder = TraceRecorder()
        registry = MetricsRegistry(sink=recorder)

        async def first_run():
            front = await _started_frontend(
                state_dir=tmp_path, registry=registry
            )
            client = await ServeClient.connect(front.host, front.port)
            try:
                front.register_graph(make_graph(), "g", tenant="t", seed=9)
                status, _, body = await _submit_and_wait(
                    client, "g", {"X-Tenant": "t"}
                )
                assert status == 200
                return_seeds = body["response"]["seeds"]
            finally:
                await client.close()
                await front.close(drain=True)
            return return_seeds

        async def second_run():
            front = await _started_frontend(state_dir=tmp_path)
            client = await ServeClient.connect(front.host, front.port)
            try:
                front.register_graph(make_graph(), "g", tenant="t", seed=9)
                status, _, body = await _submit_and_wait(
                    client, "g", {"X-Tenant": "t"}
                )
                assert status == 200
                assert body["engine"]["loaded_from_index"]
                assert body["response"]["sampled"] == 0
                return body["response"]["seeds"]
            finally:
                await client.close()
                await front.close(drain=True)

        cold_seeds = run(first_run())
        # Every worker acknowledged the drain sentinel.
        drained = [e for e in recorder.events if e["type"] == "cluster_drained"]
        assert len(drained) == 2
        warm_seeds = run(second_run())
        assert warm_seeds == cold_seeds

    def test_cluster_metrics_and_traces_flow(self, tmp_path):
        recorder = TraceRecorder()
        registry = MetricsRegistry(sink=recorder)

        async def scenario():
            front = await _started_frontend(
                state_dir=tmp_path, registry=registry
            )
            client = await ServeClient.connect(front.host, front.port)
            headers = {"X-Tenant": "t", "X-Trace-Id": "trace-cluster-1"}
            try:
                front.register_graph(make_graph(), "g", tenant="t")
                status, _, body = await _submit_and_wait(
                    client, "g", headers
                )
                assert status == 200
                assert body["trace_id"] == "trace-cluster-1"
                status, text_body = await client.request_text(
                    "GET", "/metrics"
                )
                assert status == 200
                assert "cluster_jobs_done" in text_body.replace(".", "_")
            finally:
                await client.close()
                await front.close(drain=True)

        run(scenario())
        assert registry.counter_values()["cluster.jobs_done"] == 1
        # The worker's engine spans shipped back and were replayed
        # under the client-supplied trace id: the HTTP dispatch span
        # and the worker-side answer span stitch into one trace.
        spans = [e for e in recorder.events if e["type"] == "span"]
        tagged = {
            e["phase"] for e in spans
            if e.get("trace_id") == "trace-cluster-1"
        }
        assert any("cluster/worker_job" in phase for phase in tagged)
        assert any("serve/answer" in phase for phase in tagged)
        # Per-shard job latency histogram exists.
        assert any(
            name.startswith("cluster.job_seconds")
            for name in registry.histogram_values()
        )


# ----------------------------------------------------------------------
# The result path: per-worker pipes read by the event loop
# ----------------------------------------------------------------------
async def _healthz_until(client, predicate, timeout=20.0):
    """Poll ``/healthz`` until *predicate* holds; returns the body."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while True:
        status, _, health = await client.request_raw("GET", "/healthz")
        assert status == 200, health
        if predicate(health) or loop.time() > deadline:
            return health
        await asyncio.sleep(0.05)


class TestResultPath:
    def test_idle_worker_killed_is_respawned(self, tmp_path):
        """A SIGKILL with no job in flight is seen through the worker's
        sentinel alone: the worker is respawned and the next job
        answers."""
        async def scenario():
            front = await _started_frontend(state_dir=tmp_path, workers=1)
            client = await ServeClient.connect(front.host, front.port)
            headers = {"X-Tenant": "t"}
            try:
                front.register_graph(make_graph(), "g", tenant="t", seed=3)
                status, _, first = await _submit_and_wait(
                    client, "g", headers
                )
                assert status == 200, first
                os.kill(first["engine"]["worker_pid"], signal.SIGKILL)
                health = await _healthz_until(
                    client, lambda h: h["restarts"] == 1 and all(h["alive"])
                )
                assert health["restarts"] == 1 and health["status"] == "ok"
                status, _, second = await _submit_and_wait(
                    client, "g", headers
                )
                assert status == 200, second
                assert second["requeues"] == 0
                assert second["engine"]["worker_pid"] != (
                    first["engine"]["worker_pid"]
                )
                assert second["engine"]["loaded_from_index"]
                assert second["response"]["seeds"] == (
                    first["response"]["seeds"]
                )
            finally:
                await client.close()
                await front.close(drain=True)

        run(scenario())

    def test_evict_whose_worker_dies_answers_at_once(
        self, tmp_path, monkeypatch
    ):
        """An evict pending on a worker that is SIGKILLed is answered
        from the respawn path with a 500, not after a 30 s wait."""
        from repro.serve.cluster.worker import _WorkerHost

        marker = tmp_path / "evict-started"

        def hang(host, task):
            marker.touch()
            time.sleep(60)

        monkeypatch.setattr(_WorkerHost, "handle_evict", hang)

        async def scenario():
            front = await _started_frontend(state_dir=tmp_path, workers=1)
            client = await ServeClient.connect(front.host, front.port)
            headers = {"X-Tenant": "t"}
            try:
                front.register_graph(make_graph(), "g", tenant="t", seed=3)
                status, _, first = await _submit_and_wait(
                    client, "g", headers
                )
                assert status == 200, first
                evict = asyncio.ensure_future(
                    client.request_raw(
                        "POST", "/graphs/g/evict", headers=headers
                    )
                )
                deadline = time.monotonic() + 30
                while not marker.exists() and time.monotonic() < deadline:
                    await asyncio.sleep(0.01)
                assert marker.exists() and not evict.done()
                killed = time.monotonic()
                os.kill(first["engine"]["worker_pid"], signal.SIGKILL)
                status, _, body = await asyncio.wait_for(evict, timeout=10)
                assert time.monotonic() - killed < 5
                assert status == 500, body
                assert "died before answering" in body["error"]
                health = await _healthz_until(
                    client, lambda h: h["restarts"] == 1 and all(h["alive"])
                )
                assert health["status"] == "ok"
            finally:
                await client.close()
                await front.close(drain=True)

        run(scenario())

    def test_evict_and_claims_errors_answer_at_once(
        self, tmp_path, monkeypatch
    ):
        """An evict or claims task that raises in the worker comes back
        as a ``worker_error`` naming its graph, which answers the
        request with a 500 at once."""
        from repro.serve.cluster.worker import _WorkerHost

        def broken(host, task):
            raise RuntimeError("no reply today")

        monkeypatch.setattr(_WorkerHost, "handle_evict", broken)
        monkeypatch.setattr(_WorkerHost, "handle_claims", broken)
        registry = MetricsRegistry()

        async def scenario():
            front = await _started_frontend(
                state_dir=tmp_path, workers=1, registry=registry
            )
            client = await ServeClient.connect(front.host, front.port)
            headers = {"X-Tenant": "t"}
            try:
                front.register_graph(make_graph(), "g", tenant="t")
                for method, path in (
                    ("POST", "/graphs/g/evict"),
                    ("GET", "/graphs/g/claims"),
                ):
                    started = time.monotonic()
                    status, _, body = await client.request_raw(
                        method, path, headers=headers
                    )
                    assert time.monotonic() - started < 5
                    assert status == 500, body
                    assert "no reply today" in body["error"]
            finally:
                await client.close()
                await front.close(drain=True)

        run(scenario())
        assert registry.counter_values()["cluster.worker_errors"] == 2

    @pytest.mark.parametrize("client_first", [False, True])
    def test_close_with_a_keep_alive_client_logs_nothing(
        self, tmp_path, caplog, client_first
    ):
        """A connection idle in ``read_request`` when the front end
        closes is closed by ``close``, not cancelled at loop teardown,
        which asyncio would log as "Exception in callback"."""
        async def scenario():
            front = await _started_frontend(state_dir=tmp_path, workers=1)
            client = await ServeClient.connect(front.host, front.port)
            status, _, health = await client.request_raw("GET", "/healthz")
            assert status == 200, health
            if client_first:
                await client.close()
            await front.close(drain=False)
            await client.close()

        with caplog.at_level(logging.DEBUG, logger="asyncio"):
            run(scenario())
        errors = [
            record for record in caplog.records
            if record.name == "asyncio" and record.levelno >= logging.ERROR
        ]
        assert not errors, caplog.text

    def test_keep_alive_client_polls_a_job_through_the_drain(
        self, tmp_path, monkeypatch
    ):
        """A client on a keep-alive connection opened before
        ``close(drain=True)`` can poll its job to the result during the
        drain and gets a 503 for new work; the connection is closed
        only once the drain ends."""
        from repro.serve.cluster.worker import _WorkerHost

        handle_job = _WorkerHost.handle_job

        def slow_job(host, task):
            time.sleep(1.5)
            handle_job(host, task)

        monkeypatch.setattr(_WorkerHost, "handle_job", slow_job)

        async def scenario():
            front = await _started_frontend(state_dir=tmp_path, workers=1)
            client = await ServeClient.connect(front.host, front.port)
            headers = {"X-Tenant": "t"}
            payload = {"graph": "g", "k": 2, "epsilon": 0.3,
                       "rr_budget": 4000}
            try:
                front.register_graph(make_graph(), "g", tenant="t", seed=3)
                status, _, body = await client.request_raw(
                    "POST", "/jobs", payload=payload, headers=headers
                )
                assert status == 202, body
                job_id = body["job_id"]
                closing = asyncio.ensure_future(front.close(drain=True))
                await asyncio.sleep(0.2)
                assert front._draining and not closing.done()
                status, _, body = await client.request_raw(
                    "POST", "/jobs", payload=payload, headers=headers
                )
                assert status == 503 and body["error"] == "draining", body
                status, resp_headers, body = await client.request_raw(
                    "GET", f"/jobs/{job_id}/result?wait=30", headers=headers
                )
                assert status == 200, body
                assert len(body["response"]["seeds"]) == 2, body
                assert resp_headers["connection"] == "keep-alive"
                await asyncio.wait_for(closing, timeout=30)
            finally:
                await client.close()
                await front.close(drain=True)

        run(scenario())

    def test_job_done_written_before_exit_is_delivered(
        self, tmp_path, monkeypatch
    ):
        """A worker that replies and then dies at once: the reply was on
        the pipe before the exit, so the job finishes without a
        requeue and the worker is respawned."""
        from repro.serve.cluster.worker import _WorkerHost

        original = _WorkerHost.handle_job
        marker = tmp_path / "exited-once"

        def reply_then_exit(host, task):
            first = not marker.exists()
            marker.touch()
            original(host, task)
            if first:
                os._exit(0)

        monkeypatch.setattr(_WorkerHost, "handle_job", reply_then_exit)

        async def scenario():
            front = await _started_frontend(state_dir=tmp_path, workers=1)
            client = await ServeClient.connect(front.host, front.port)
            headers = {"X-Tenant": "t"}
            try:
                front.register_graph(make_graph(), "g", tenant="t", seed=3)
                status, _, first = await _submit_and_wait(
                    client, "g", headers
                )
                assert status == 200, first
                assert first["requeues"] == 0
                assert marker.exists()
                health = await _healthz_until(
                    client, lambda h: h["restarts"] == 1 and all(h["alive"])
                )
                assert health["restarts"] == 1
                status, _, second = await _submit_and_wait(
                    client, "g", headers
                )
                assert status == 200, second
                assert second["requeues"] == 0
                assert second["response"]["seeds"] == (
                    first["response"]["seeds"]
                )
                return front.stats()["counters"]
            finally:
                await client.close()
                await front.close(drain=True)

        counters = run(scenario())
        assert counters.get("cluster.jobs_requeued", 0) == 0

    def test_large_register_while_results_are_unread(self, tmp_path):
        """The worker blocks on a full result pipe while the front end
        owes it a task larger than the task pipe: the front end must
        buffer the task and keep reading, not block on the write."""
        from repro.serve.cluster.worker import frame

        big = assign_wc_weights(power_law_graph(6000, 4, seed=4))

        async def scenario():
            front = await _started_frontend(state_dir=tmp_path, workers=1)
            client = await ServeClient.connect(front.host, front.port)
            headers = {"X-Tenant": "t"}
            try:
                front.register_graph(make_graph(), "g", tenant="t", seed=3)
                status, _, body = await _submit_and_wait(
                    client, "g", headers
                )
                assert status == 200, body
                status, _, claims = await client.request_raw(
                    "GET", "/graphs/g/claims", headers=headers
                )
                assert status == 200, claims
                requests = 1000
                reply = len(frame(("claims", 0, claims)))
                assert requests * reply > 1 << 16
                # No await from here to the registration: the loop reads
                # nothing while the worker answers all of these and then
                # blocks on its full result pipe.
                for _ in range(requests):
                    front._supervisor.send(0, "claims", {"graph": "t/g"})
                time.sleep(0.5)
                described = front.register_graph(
                    big, "big", tenant="t", seed=5
                )
                assert described["shard"] == 0
                status, _, body = await asyncio.wait_for(
                    _submit_and_wait(client, "big", headers, rr_budget=400),
                    timeout=60,
                )
                assert status == 200, body
            finally:
                await client.close()
                await front.close(drain=True)

        payload_bytes = len(frame(("register", {"graph": big})))
        assert payload_bytes > 1 << 16
        run(scenario())

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self"), reason="reads process groups from /proc"
    )
    def test_crash_with_a_sampling_pool_is_seen_and_requeued(self, tmp_path):
        """A worker that dies with sampling-pool children alive: the
        children inherited its pipes and would keep them open forever,
        so the death must be seen through the process itself.  The
        children are killed with it, and the job is requeued and
        answered."""
        async def scenario():
            front = await _started_frontend(
                state_dir=tmp_path, workers=1, fault_injection=True
            )
            client = await ServeClient.connect(front.host, front.port)
            headers = {"X-Tenant": "t"}
            try:
                front.register_graph(
                    make_graph(), "g", tenant="t", seed=3, sampler_workers=2
                )
                status, _, first = await _submit_and_wait(
                    client, "g", headers
                )
                assert status == 200, first
                crashed_pid = first["engine"]["worker_pid"]
                assert _live_group_members(crashed_pid)  # worker + pool
                status, _, second = await asyncio.wait_for(
                    _submit_and_wait(
                        client, "g", headers, k=3, inject_crash=True
                    ),
                    timeout=60,
                )
                assert status == 200, second
                assert second["requeues"] == 1
                assert second["engine"]["worker_pid"] != crashed_pid
                assert second["engine"]["loaded_from_index"]
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 10
                while _live_group_members(crashed_pid):
                    assert loop.time() < deadline, "pool children outlived it"
                    await asyncio.sleep(0.05)
                status, _, health = await client.request_raw(
                    "GET", "/healthz", headers=headers
                )
                assert health["restarts"] == 1 and health["status"] == "ok"
            finally:
                await client.close()
                await front.close(drain=True)

        run(scenario())

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self"), reason="reads process groups from /proc"
    )
    def test_sigterm_takes_the_sampling_pool_down(self, tmp_path, monkeypatch):
        """A worker told to stop with SIGTERM (what multiprocessing sends
        its daemonic children when the front end's interpreter exits)
        terminates its pool children itself, with no supervisor help."""
        from repro.serve.cluster.worker import _Link

        monkeypatch.setattr(_Link, "stop_group", lambda link: None)

        async def scenario():
            front = await _started_frontend(state_dir=tmp_path, workers=1)
            client = await ServeClient.connect(front.host, front.port)
            headers = {"X-Tenant": "t"}
            try:
                front.register_graph(
                    make_graph(), "g", tenant="t", seed=3, sampler_workers=2
                )
                status, _, first = await _submit_and_wait(
                    client, "g", headers
                )
                assert status == 200, first
                pid = first["engine"]["worker_pid"]
                assert len(_live_group_members(pid)) >= 3  # worker + pool
                os.kill(pid, signal.SIGTERM)
                loop = asyncio.get_running_loop()
                deadline = loop.time() + 10
                while _live_group_members(pid):
                    assert loop.time() < deadline, "pool children outlived it"
                    await asyncio.sleep(0.05)
            finally:
                await client.close()
                await front.close(drain=True)

        run(scenario())


def _live_group_members(pgid: int) -> list:
    """Pids of the processes in group *pgid* that are not zombies."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        # After the command: state, ppid, pgrp.
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return members


# ----------------------------------------------------------------------
# Failed checkpoints outside the job boundary
# ----------------------------------------------------------------------
def _enospc_on_call(monkeypatch, failing_call):
    """Make the *failing_call*-th ``SeedQueryEngine.checkpoint`` in each
    process raise ENOSPC (patched before the workers fork)."""
    from repro.serve import SeedQueryEngine

    original = SeedQueryEngine.checkpoint
    calls = []

    def checkpoint(engine):
        calls.append(None)
        if len(calls) == failing_call:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return original(engine)

    monkeypatch.setattr(SeedQueryEngine, "checkpoint", checkpoint)


class TestCheckpointFailures:
    def test_lru_eviction_checkpoint_failure_keeps_engine(
        self, tmp_path, monkeypatch
    ):
        # Call 1: g0's job boundary; 2: g1's job boundary; 3: the LRU
        # eviction of g0 after g1's job.
        _enospc_on_call(monkeypatch, 3)
        registry = MetricsRegistry()

        async def scenario():
            front = await _started_frontend(
                workers=1, worker_mem_budget=1, state_dir=tmp_path,
                registry=registry,
            )
            client = await ServeClient.connect(front.host, front.port)
            headers = {"X-Tenant": "t"}
            try:
                for i in range(2):
                    front.register_graph(
                        make_graph(i), f"g{i}", tenant="t", seed=i + 1
                    )
                status, _, first = await _submit_and_wait(
                    client, "g0", headers
                )
                assert status == 200, first
                status, _, second = await asyncio.wait_for(
                    _submit_and_wait(client, "g1", headers), timeout=30
                )
                assert status == 200, second
                assert second["engine"]["resident"] == ["t/g0", "t/g1"]
                # g0 never left memory: its next job needs no reload.
                status, _, again = await _submit_and_wait(
                    client, "g0", headers
                )
                assert status == 200, again
                assert not again["engine"]["loaded_from_index"]
                assert again["response"]["seeds"] == (
                    first["response"]["seeds"]
                )
                return front.stats()
            finally:
                await client.close()
                await front.close(drain=True)

        stats = run(scenario())
        assert registry.counter("cluster.checkpoint_failures").value == 1
        assert stats["jobs"] == {"done": 3}
        views = {view["name"]: view for view in stats["graphs"]}
        assert views["g0"]["evictions"] == 0

    def test_evict_checkpoint_failure_is_reported_at_once(
        self, tmp_path, monkeypatch
    ):
        # Call 1: the job boundary; 2: the requested eviction.
        _enospc_on_call(monkeypatch, 2)
        registry = MetricsRegistry()

        async def scenario():
            front = await _started_frontend(
                state_dir=tmp_path, registry=registry
            )
            client = await ServeClient.connect(front.host, front.port)
            headers = {"X-Tenant": "t"}
            try:
                front.register_graph(make_graph(), "g", tenant="t", seed=3)
                status, _, first = await _submit_and_wait(
                    client, "g", headers
                )
                assert status == 200, first
                status, _, body = await asyncio.wait_for(
                    client.request_raw(
                        "POST", "/graphs/g/evict", headers=headers
                    ),
                    timeout=10,
                )
                assert status == 500, body
                assert body["evicted"] is False
                assert body["checkpointed"] is False
                assert os.strerror(errno.ENOSPC) in body["checkpoint_error"]
                status, _, body = await client.request_raw(
                    "GET", "/graphs", headers=headers
                )
                view = body["graphs"][0]
                assert view["resident"] and view["evictions"] == 0
                status, _, again = await _submit_and_wait(
                    client, "g", headers
                )
                assert status == 200, again
                assert not again["engine"]["loaded_from_index"]
            finally:
                await client.close()
                await front.close(drain=True)

        run(scenario())
        assert registry.counter("cluster.checkpoint_failures").value == 1

    def test_drain_checkpoint_failure_still_drains(
        self, tmp_path, monkeypatch
    ):
        # Call 1: the job boundary; 2: the drain checkpoint.
        _enospc_on_call(monkeypatch, 2)
        recorder = TraceRecorder()
        registry = MetricsRegistry(sink=recorder)

        async def scenario():
            front = await _started_frontend(
                state_dir=tmp_path, registry=registry
            )
            client = await ServeClient.connect(front.host, front.port)
            try:
                front.register_graph(make_graph(), "g", tenant="t", seed=3)
                status, _, body = await _submit_and_wait(
                    client, "g", {"X-Tenant": "t"}
                )
                assert status == 200, body
            finally:
                await client.close()
                await asyncio.wait_for(front.close(drain=True), timeout=30)

        run(scenario())
        drained = [e for e in recorder.events if e["type"] == "cluster_drained"]
        assert len(drained) == 2
        failures = [f for e in drained for f in e["checkpoint_failures"]]
        assert [f["graph"] for f in failures] == ["t/g"]
        assert os.strerror(errno.ENOSPC) in failures[0]["checkpoint_error"]
        assert registry.counter("cluster.checkpoint_failures").value == 1
