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
import os
import threading

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
                assert result["claims"]  # per-k guarantee claims ship back
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
