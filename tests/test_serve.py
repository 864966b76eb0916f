"""Tests for the seed-query serving layer (``repro.serve``).

Covers the serving contracts end to end:

* **Index** — fingerprint stability, save/load roundtrip, and the
  refusal to serve from a sketch built on a different graph, model,
  seed, or sampler kind.
* **Engine** — warm reuse (a repeated query samples nothing), shared
  sketch across ``k``, determinism across engines and across a
  save/load boundary (including post-load stream continuation).
* **Cache** — LRU semantics, eviction, and key normalization.
* **Server** — the asyncio front end: health, cached repeats,
  coalescing of identical in-flight queries, 503 backpressure,
  graceful drain, extend/save endpoints, and malformed-input replies.

The async tests drive a real listening socket via ``asyncio.run`` —
no event-loop plugin needed.
"""

from __future__ import annotations

import asyncio
import json
import os
import time

import numpy as np
import pytest

from repro.exceptions import GraphFormatError, ParameterError, StateError
from repro.graph.build import from_edge_list
from repro.obs import MetricsRegistry, TraceRecorder
from repro.serve import (
    LRUCache,
    SeedQueryEngine,
    SeedQueryServer,
    ServeClient,
    graph_fingerprint,
    load_index,
    make_key,
    save_index,
)
from repro.serve.engine import DEFAULT_STEP


@pytest.fixture
def engine(medium_graph):
    eng = SeedQueryEngine(medium_graph, "IC", seed=42, step=400)
    yield eng
    eng.close()


def run(coro):
    return asyncio.run(coro)


async def _started_server(engine, **kwargs):
    server = SeedQueryServer(engine, port=0, **kwargs)
    await server.start()
    return server


# ----------------------------------------------------------------------
# Index
# ----------------------------------------------------------------------
class TestIndex:
    def test_fingerprint_is_stable_and_name_insensitive(self, medium_graph):
        fp1 = graph_fingerprint(medium_graph)
        fp2 = graph_fingerprint(medium_graph)
        assert fp1 == fp2
        assert len(fp1) == 64

    def test_fingerprint_distinguishes_graphs(self, medium_graph, small_graph):
        assert graph_fingerprint(medium_graph) != graph_fingerprint(small_graph)

    def test_roundtrip(self, engine, medium_graph, tmp_path):
        engine.extend(600)
        manifest = save_index(
            tmp_path,
            medium_graph,
            "IC",
            engine.r1,
            engine.r2,
            sampler_state=engine.sampler.state(),
            seed=42,
        )
        assert manifest["theta1"] == 300
        loaded = load_index(tmp_path, medium_graph)
        assert len(loaded.r1) == 300
        assert len(loaded.r2) == 300
        for i in range(0, 300, 37):
            assert np.array_equal(loaded.r1.get(i), engine.r1.get(i))
            assert np.array_equal(loaded.r2.get(i), engine.r2.get(i))

    def test_graph_mismatch_rejected(self, engine, medium_graph, small_graph, tmp_path):
        engine.extend(100)
        engine.save_index(tmp_path)
        with pytest.raises(ParameterError, match="mismatched sketch"):
            load_index(tmp_path, small_graph)

    def test_missing_manifest_rejected(self, medium_graph, tmp_path):
        with pytest.raises(GraphFormatError, match="no manifest"):
            load_index(tmp_path / "nope", medium_graph)

    def test_corrupt_manifest_rejected(self, medium_graph, tmp_path):
        (tmp_path / "manifest.json").write_text("{not json")
        with pytest.raises(GraphFormatError, match="invalid JSON"):
            load_index(tmp_path, medium_graph)

    def test_count_mismatch_rejected(self, engine, medium_graph, tmp_path):
        engine.extend(100)
        engine.save_index(tmp_path)
        manifest_path = tmp_path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["theta1"] = 999
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(GraphFormatError, match="promises 999"):
            load_index(tmp_path, medium_graph)

    def test_model_and_seed_mismatch_rejected(self, medium_graph, tmp_path):
        with SeedQueryEngine(medium_graph, "IC", seed=42) as eng:
            eng.extend(100)
            eng.save_index(tmp_path)
        with SeedQueryEngine(medium_graph, "LT", seed=42) as eng:
            with pytest.raises(ParameterError, match="sampled under"):
                eng.load_index(tmp_path)
        with SeedQueryEngine(medium_graph, "IC", seed=43) as eng:
            with pytest.raises(ParameterError, match="seed"):
                eng.load_index(tmp_path)

    def test_sampler_kind_mismatch_rejected(self, medium_graph, tmp_path):
        with SeedQueryEngine(medium_graph, "IC", seed=42, workers=2) as eng:
            eng.extend(100)
            eng.save_index(tmp_path)
        with SeedQueryEngine(medium_graph, "IC", seed=42) as eng:
            with pytest.raises(ParameterError, match="deterministic"):
                eng.load_index(tmp_path)

    def test_v1_manifest_asks_for_rebuild(self, medium_graph, tmp_path):
        """An index written before the format bump is a stale cache."""
        manifest = {
            "version": 1,
            "graph_hash": graph_fingerprint(medium_graph),
            "graph_name": medium_graph.name,
            "n": medium_graph.n,
            "m": medium_graph.m,
            "model": "IC",
            "seed": 42,
            "theta1": 0,
            "theta2": 0,
            "sampler_state": {
                "kind": "serial",
                "rng_state": {},
                "sets_generated": 0,
                "edges_examined": 0,
                "nodes_touched": 0,
            },
        }
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(GraphFormatError, match="rebuild the index"):
            load_index(tmp_path, medium_graph)
        with pytest.raises(GraphFormatError, match="rebuild the index"):
            SeedQueryEngine(medium_graph, "IC", seed=42, index_dir=tmp_path)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_legacy_sampler_state_asks_for_rebuild(
        self, medium_graph, tmp_path, workers
    ):
        """A current-version manifest whose stream came from a removed
        sampler (a ``"serial"`` state, or a pool state without a
        kernel) is refused rather than continued on another stream."""
        with SeedQueryEngine(
            medium_graph, "IC", seed=42, workers=workers
        ) as eng:
            eng.extend(100)
            eng.save_index(tmp_path)
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        state = manifest["sampler_state"]
        if workers == 1:
            state["kind"] = "serial"
            del state["kernel"]
        else:
            del state["kernel"]
        path.write_text(json.dumps(manifest))
        with pytest.raises(GraphFormatError, match="rebuild the index"):
            load_index(tmp_path, medium_graph)

    def test_engine_hashes_the_graph_once(
        self, medium_graph, tmp_path, monkeypatch
    ):
        """Checkpoints and warm starts reuse the engine's fingerprint:
        one SHA-256 pass over the graph per engine."""
        import repro.serve.engine as engine_module
        import repro.serve.index as index_module

        calls = []
        original = index_module.graph_fingerprint

        def counting(graph):
            calls.append(graph)
            return original(graph)

        monkeypatch.setattr(index_module, "graph_fingerprint", counting)
        monkeypatch.setattr(engine_module, "graph_fingerprint", counting)
        with SeedQueryEngine(
            medium_graph, "IC", seed=42, step=200, index_dir=tmp_path
        ) as eng:
            for target in (0.1, 0.15, 0.2):
                eng.answer(3, alpha_target=target)
                eng.checkpoint()  # full save, then manifest-only saves
            eng.answer(3, alpha_target=0.2)
            eng.checkpoint()
            eng.save_index()
        assert len(calls) == 1
        with SeedQueryEngine(
            medium_graph, "IC", seed=42, index_dir=tmp_path
        ) as warm:
            assert warm.loaded_from_index
            warm.answer(3, alpha_target=0.2)
            warm.checkpoint()
        assert len(calls) == 2


# ----------------------------------------------------------------------
# Engine
# ----------------------------------------------------------------------
class TestEngine:
    def test_repeated_query_samples_nothing(self, engine):
        first = engine.answer(5, alpha_target=0.2)
        assert first["satisfied"]
        assert first["sampled"] > 0
        again = engine.answer(5, alpha_target=0.2)
        assert again["sampled"] == 0
        assert again["seeds"] == first["seeds"]
        # The re-query is certified under the next (smaller) delta/2^i
        # failure budget, so alpha may dip slightly — but never below
        # the target, and never by resampling.
        assert again["satisfied"]
        assert again["alpha"] <= first["alpha"]

    def test_sketch_shared_across_k(self, engine):
        engine.answer(5, alpha_target=0.2)
        sets_before = engine.num_rr_sets
        other_k = engine.answer(3, alpha_target=0.2)
        # The k=3 session reuses the k=5 session's samples: either no
        # new sampling at all, or far less than a cold start.
        assert engine.num_rr_sets >= sets_before
        assert other_k["num_rr_sets"] >= sets_before

    def test_deterministic_across_engines(self, medium_graph):
        answers = []
        for _ in range(2):
            with SeedQueryEngine(medium_graph, "IC", seed=7, step=400) as eng:
                answers.append(eng.answer(4, alpha_target=0.2))
        assert answers[0]["seeds"] == answers[1]["seeds"]
        assert answers[0]["alpha"] == answers[1]["alpha"]
        assert answers[0]["num_rr_sets"] == answers[1]["num_rr_sets"]

    def test_warm_start_continues_the_stream(self, medium_graph, tmp_path):
        # Reference: one uninterrupted engine.
        with SeedQueryEngine(medium_graph, "IC", seed=7, step=400) as ref:
            ref.answer(4, alpha_target=0.2)
            ref.extend(400)
            expected = ref.answer(6, alpha_target=0.25)
        # Same computation split across a save/load boundary.
        with SeedQueryEngine(
            medium_graph, "IC", seed=7, step=400, index_dir=tmp_path
        ) as eng:
            eng.answer(4, alpha_target=0.2)
            eng.save_index()
        with SeedQueryEngine(
            medium_graph, "IC", seed=7, step=400, index_dir=tmp_path
        ) as eng:
            assert eng.loaded_from_index
            warm = eng.answer(4, alpha_target=0.2)
            assert warm["sampled"] == 0
            eng.extend(400)
            resumed = eng.answer(6, alpha_target=0.25)
        assert resumed["seeds"] == expected["seeds"]
        assert resumed["alpha"] == expected["alpha"]

    def test_warm_start_resumes_the_schedule_at_same_k(
        self, medium_graph, tmp_path
    ):
        """A repeat query at the same ``k`` after a save/load boundary
        must be bitwise-identical to the uninterrupted engine's repeat:
        same ``delta / 2^i`` slice, same certified-OPT Sadeh cap, same
        bounds.  That requires the per-k schedule position to travel
        with the index."""
        with SeedQueryEngine(
            medium_graph, "IC", seed=7, step=400, delta=0.2
        ) as ref:
            ref.answer(4, epsilon=0.3, rr_budget=6000)
            expected = ref.answer(4, epsilon=0.3, rr_budget=6000)
        with SeedQueryEngine(
            medium_graph, "IC", seed=7, step=400, delta=0.2,
            index_dir=tmp_path,
        ) as eng:
            eng.answer(4, epsilon=0.3, rr_budget=6000)
            manifest = eng.save_index()
        assert manifest["extra"]["sessions"]["4"]["queries_made"] == 1
        with SeedQueryEngine(
            medium_graph, "IC", seed=7, step=400, delta=0.2,
            index_dir=tmp_path,
        ) as eng:
            assert eng.loaded_from_index
            warm = eng.answer(4, epsilon=0.3, rr_budget=6000)
        for key in (
            "seeds", "alpha", "num_rr_sets", "sigma_low", "sigma_up",
            "theta_cap", "queries_made",
        ):
            assert warm[key] == expected[key], key

    def test_checkpoint_fires_on_schedule_drift_alone(
        self, medium_graph, tmp_path
    ):
        """A satisfied repeat query samples nothing but still advances
        its session's schedule — the checkpoint must not skip it."""
        with SeedQueryEngine(
            medium_graph, "IC", seed=7, step=400, delta=0.2,
            index_dir=tmp_path,
        ) as eng:
            eng.answer(4, epsilon=0.3, rr_budget=6000)
            assert eng.checkpoint() is not None
            assert eng.checkpoint() is None  # nothing moved
            repeat = eng.answer(4, epsilon=0.3, rr_budget=6000)
            assert repeat["sampled"] == 0
            manifest = eng.checkpoint()
            assert manifest is not None  # schedule moved, stream did not
            assert manifest["extra"]["sessions"]["4"]["queries_made"] == 2

    def test_restore_schedule_guards(self, medium_graph):
        from repro.core.session import OPIMSession

        session = OPIMSession(medium_graph, "IC", k=3, delta=0.2, seed=1)
        with pytest.raises(ParameterError, match="non-negative"):
            session.restore_schedule(-1)
        session.restore_schedule(2, opt_lower=5.0)
        assert session.queries_made == 2
        assert session.certified_opt_lower == 5.0
        assert session.next_query_delta() == pytest.approx(0.2 / 8)
        assert session.ledger.spent == pytest.approx(0.2 / 2 + 0.2 / 4)
        with pytest.raises(StateError, match="fresh"):
            session.restore_schedule(1)
        session.close()

    def test_resolve_target_validation(self):
        resolve = SeedQueryEngine.resolve_target
        assert resolve(0.5, None) == 0.5
        assert resolve(None, 0.1) == pytest.approx(1 - 1 / np.e - 0.1)
        with pytest.raises(ParameterError, match="exactly one"):
            resolve(None, None)
        with pytest.raises(ParameterError, match="exactly one"):
            resolve(0.5, 0.1)
        with pytest.raises(ParameterError, match="epsilon"):
            resolve(None, 1.5)
        with pytest.raises(ParameterError, match="alpha_target"):
            resolve(0.0, None)

    def test_budget_cap_respected(self, engine):
        result = engine.answer(5, alpha_target=0.999, rr_budget=1000)
        assert not result["satisfied"]
        assert result["stop"] == "rr_budget"
        assert engine.num_rr_sets <= 1000 + DEFAULT_STEP

    def test_extend_validation(self, engine):
        with pytest.raises(ParameterError, match="even"):
            engine.extend(3)
        with pytest.raises(ParameterError, match="even"):
            engine.extend(-2)

    def test_closed_engine_refuses_work(self, medium_graph):
        eng = SeedQueryEngine(medium_graph, "IC", seed=1)
        eng.close()
        with pytest.raises(StateError):
            eng.answer(3, alpha_target=0.2)

    def test_stats_shape(self, engine):
        engine.answer(5, alpha_target=0.2)
        stats = engine.stats()
        assert stats["model"] == "IC"
        assert stats["theta1"] == stats["theta2"]
        assert stats["sessions"] == {"5": 1}
        assert stats["num_rr_sets"] == stats["theta1"] + stats["theta2"]


# ----------------------------------------------------------------------
# Vectorized kernel behind the engine
# ----------------------------------------------------------------------
class TestKernelEngine:
    def test_kernel_engines_match_python_kernel_bitwise(self, medium_graph):
        """The serve path is kernel-agnostic: an engine on the
        vectorized kernel answers bitwise-identically to one whose
        sampler runs the python reference kernel (same frozen RNG
        contract)."""
        answers = []
        for kernel in ("python", "vectorized"):
            with SeedQueryEngine(medium_graph, "IC", seed=7, step=400) as eng:
                eng.sampler.kernel = kernel
                answers.append(eng.answer(4, alpha_target=0.2))
        for key in ("seeds", "alpha", "num_rr_sets", "sigma_low"):
            assert answers[0][key] == answers[1][key], key

    def test_warm_start_continues_the_kernel_stream(
        self, medium_graph, tmp_path
    ):
        """Warm-index restart: the manifest records the serial-kernel
        sampler state and the reloaded engine continues the stream
        bitwise-identically to an uninterrupted engine issuing the same
        extend/answer sequence."""
        with SeedQueryEngine(medium_graph, "IC", seed=7, step=400) as ref:
            ref.answer(4, alpha_target=0.2)
            ref.extend(400)
            expected = ref.answer(6, alpha_target=0.25)
        with SeedQueryEngine(
            medium_graph, "IC", seed=7, step=400, index_dir=tmp_path,
        ) as eng:
            eng.answer(4, alpha_target=0.2)
            eng.save_index()
        with SeedQueryEngine(
            medium_graph, "IC", seed=7, step=400, index_dir=tmp_path,
        ) as eng:
            assert eng.loaded_from_index
            warm = eng.answer(4, alpha_target=0.2)
            assert warm["sampled"] == 0
            eng.extend(400)
            resumed = eng.answer(6, alpha_target=0.25)
        assert resumed["seeds"] == expected["seeds"]
        assert resumed["alpha"] == expected["alpha"]
        assert resumed["num_rr_sets"] == expected["num_rr_sets"]

    def test_pool_engine_records_kernel_in_stats(self, medium_graph):
        with SeedQueryEngine(medium_graph, "IC", seed=1, workers=2) as eng:
            eng.answer(3, alpha_target=0.2)
            assert eng.stats()["kernel"] == "vectorized"


# ----------------------------------------------------------------------
# Hop-based fast path
# ----------------------------------------------------------------------
class TestHopServe:
    def test_answer_hop_selects_seeds_without_sampling(self, engine):
        result = engine.answer_hop(k=4)
        assert result["precision"] == "hop"
        assert result["guarantee"] is False
        assert result["no_guarantee"] is True
        assert result["sampled"] == 0
        assert len(result["seeds"]) == 4
        assert result["sigma_hop"] > 0
        assert 0.0 < result["sigma_hop_fraction"] <= 1.0
        assert engine.num_rr_sets == 0  # no RR work happened

    def test_answer_hop_what_if_evaluates_given_seeds(self, engine):
        chosen = engine.answer_hop(k=3)["seeds"]
        what_if = engine.answer_hop(seeds=chosen)
        assert what_if["what_if"] is True
        assert what_if["seeds"] == chosen
        assert what_if["sigma_hop"] == pytest.approx(
            engine.answer_hop(k=3)["sigma_hop"]
        )

    def test_answer_hop_requires_exactly_one_of_k_and_seeds(self, engine):
        with pytest.raises(ParameterError, match="exactly one"):
            engine.answer_hop()
        with pytest.raises(ParameterError, match="exactly one"):
            engine.answer_hop(k=3, seeds=[0, 1])

    def test_hop_query_over_http_is_cacheable(self, engine):
        async def scenario():
            server = await _started_server(engine)
            client = await ServeClient.connect("127.0.0.1", server.port)
            payload = {"precision": "hop", "k": 4}
            status, first = await client.request("POST", "/query", payload)
            assert status == 200
            assert first["no_guarantee"] is True
            assert first["guarantee"] is False
            assert not first["cached"]
            status, second = await client.request("POST", "/query", payload)
            assert status == 200
            assert second["cached"]
            assert second["seeds"] == first["seeds"]
            # what-if spelling with explicit seeds occupies its own
            # cache line.
            status, what_if = await client.request(
                "POST", "/query",
                {"precision": "hop", "seeds": first["seeds"]},
            )
            assert status == 200
            assert not what_if["cached"]
            assert what_if["what_if"] is True
            await client.close()
            await server.close()

        run(scenario())

    def test_hop_query_rejects_bad_params(self, engine):
        async def scenario():
            server = await _started_server(engine)
            client = await ServeClient.connect("127.0.0.1", server.port)
            for payload in (
                {"precision": "exactly"},
                {"precision": "hop"},
                {"precision": "hop", "k": 3, "seeds": [0]},
                {"precision": "hop", "k": 3, "hops": 0},
                {"precision": "hop", "seeds": []},
            ):
                status, body = await client.request(
                    "POST", "/query", payload
                )
                assert status == 400, payload
                assert "error" in body
            await client.close()
            await server.close()

        run(scenario())


# ----------------------------------------------------------------------
# Cache
# ----------------------------------------------------------------------
class TestCache:
    def test_hit_miss_and_lru_eviction(self):
        cache = LRUCache(capacity=2)
        k1 = make_key("g", "IC", 1, "greedy", 0.5)
        k2 = make_key("g", "IC", 2, "greedy", 0.5)
        k3 = make_key("g", "IC", 3, "greedy", 0.5)
        assert cache.get(k1) is None
        cache.put(k1, {"v": 1})
        cache.put(k2, {"v": 2})
        assert cache.get(k1) == {"v": 1}  # refresh k1 -> k2 is LRU
        cache.put(k3, {"v": 3})
        assert cache.get(k2) is None
        assert cache.get(k1) == {"v": 1}
        assert cache.get(k3) == {"v": 3}
        assert cache.evictions == 1

    def test_key_normalizes_float_noise(self):
        base = make_key("g", "IC", 1, "greedy", 0.3)
        noisy = make_key("g", "IC", 1, "greedy", 0.3 + 1e-12)
        assert base == noisy
        assert make_key("g", "IC", 1, "greedy", 0.31) != base

    def test_key_separates_graphs_and_budgets(self):
        a = make_key("g1", "IC", 1, "greedy", 0.5)
        assert make_key("g2", "IC", 1, "greedy", 0.5) != a
        assert make_key("g1", "LT", 1, "greedy", 0.5) != a
        assert make_key("g1", "IC", 1, "greedy", 0.5, rr_budget=10) != a

    def test_capacity_validation(self):
        with pytest.raises(ParameterError):
            LRUCache(capacity=0)

    def test_counters_flow_to_registry(self):
        registry = MetricsRegistry()
        cache = LRUCache(capacity=4, registry=registry)
        key = make_key("g", "IC", 1, "greedy", 0.5)
        cache.get(key)
        cache.put(key, {})
        cache.get(key)
        counters = registry.counter_values()
        assert counters["serve.cache_misses"] == 1
        assert counters["serve.cache_hits"] == 1


# ----------------------------------------------------------------------
# Server
# ----------------------------------------------------------------------
class TestServer:
    def test_healthz_and_stats(self, engine):
        async def scenario():
            server = await _started_server(engine)
            client = await ServeClient.connect("127.0.0.1", server.port)
            status, health = await client.request("GET", "/healthz")
            assert status == 200
            assert health["status"] == "ok"
            status, stats = await client.request("GET", "/stats")
            assert status == 200
            assert stats["engine"]["model"] == "IC"
            assert stats["queue_depth"] == 0
            await client.close()
            await server.close()

        run(scenario())

    def test_second_identical_query_is_cached(self, engine):
        async def scenario():
            server = await _started_server(engine)
            client = await ServeClient.connect("127.0.0.1", server.port)
            payload = {"k": 4, "alpha_target": 0.2}
            status, first = await client.request("POST", "/query", payload)
            assert status == 200
            assert not first["cached"]
            status, second = await client.request("POST", "/query", payload)
            assert status == 200
            assert second["cached"]
            assert second["seeds"] == first["seeds"]
            # epsilon spelling of the same target also hits the cache
            status, aliased = await client.request(
                "POST", "/query", {"k": 4, "epsilon": 1 - 1 / np.e - 0.2}
            )
            assert aliased["cached"]
            assert server.cache.hits >= 2
            await client.close()
            await server.close()

        run(scenario())

    def test_identical_inflight_queries_coalesce(self, engine):
        async def scenario():
            server = await _started_server(engine)
            clients = [
                await ServeClient.connect("127.0.0.1", server.port)
                for _ in range(6)
            ]
            payload = {"k": 5, "alpha_target": 0.25}
            replies = await asyncio.gather(
                *(c.request("POST", "/query", payload) for c in clients)
            )
            seeds = {tuple(reply["seeds"]) for _, reply in replies}
            assert all(status == 200 for status, _ in replies)
            assert len(seeds) == 1
            coalesced = sum(
                1 for _, reply in replies if reply.get("coalesced")
            )
            computed = sum(
                1
                for _, reply in replies
                if not reply.get("coalesced") and not reply["cached"]
            )
            # Exactly one request computed; everyone else rode along
            # (via coalescing or, if they arrived late, via the cache).
            assert computed == 1
            assert coalesced + computed <= 6
            for client in clients:
                await client.close()
            await server.close()

        run(scenario())

    def test_queue_overflow_returns_503(self, engine):
        async def scenario():
            server = await _started_server(engine, queue_limit=1)
            clients = [
                await ServeClient.connect("127.0.0.1", server.port)
                for _ in range(5)
            ]
            # Distinct targets so no two requests coalesce or share a
            # cache line; with queue_limit=1 at least one must be shed.
            replies = await asyncio.gather(
                *(
                    c.request(
                        "POST",
                        "/query",
                        {"k": 3, "alpha_target": 0.05 + 0.01 * i},
                    )
                    for i, c in enumerate(clients)
                )
            )
            statuses = sorted(status for status, _ in replies)
            assert 503 in statuses
            assert 200 in statuses
            rejected = [p for s, p in replies if s == 503]
            assert all(p["error"] == "overloaded" for p in rejected)
            for client in clients:
                await client.close()
            await server.close()

        run(scenario())

    def test_slow_engine_returns_504_but_fills_cache(self, engine, monkeypatch):
        real_answer = engine.answer
        calls = []

        def slow_answer(*args, **kwargs):
            calls.append(1)
            time.sleep(0.4)
            return real_answer(*args, **kwargs)

        monkeypatch.setattr(engine, "answer", slow_answer)

        async def scenario():
            server = await _started_server(engine, request_timeout=0.05)
            client = await ServeClient.connect("127.0.0.1", server.port)
            body = {"k": 3, "alpha_target": 0.2}
            status, reply = await client.request("POST", "/query", body)
            assert status == 504
            assert reply["error"] == "timeout"
            # The shed requester does not cancel the job: once it lands,
            # a repeat of the identical query is served from cache.
            await asyncio.sleep(0.6)
            status, reply = await client.request("POST", "/query", body)
            assert status == 200
            assert reply["cached"] is True
            assert len(calls) == 1
            await client.close()
            await server.close()

        run(scenario())

    def test_extend_and_save_endpoints(self, engine, tmp_path):
        engine.index_dir = tmp_path

        async def scenario():
            server = await _started_server(engine)
            client = await ServeClient.connect("127.0.0.1", server.port)
            status, reply = await client.request(
                "POST", "/extend", {"count": 200}
            )
            assert status == 200
            assert reply["num_rr_sets"] == 200
            status, reply = await client.request("POST", "/save", {})
            assert status == 200
            assert reply["theta1"] == 100
            await client.close()
            await server.close()

        run(scenario())
        assert (tmp_path / "manifest.json").exists()

    def test_drain_rejects_new_queries(self, engine):
        async def scenario():
            server = await _started_server(engine)
            client = await ServeClient.connect("127.0.0.1", server.port)
            server._draining = True
            status, reply = await client.request(
                "POST", "/query", {"k": 3, "alpha_target": 0.2}
            )
            assert status == 503
            assert reply["error"] == "draining"
            status, health = await client.request("GET", "/healthz")
            assert status == 200
            assert health["status"] == "draining"
            server._draining = False
            await client.close()
            await server.close()

        run(scenario())

    def test_close_is_graceful_and_idempotent(self, engine):
        async def scenario():
            server = await _started_server(engine)
            client = await ServeClient.connect("127.0.0.1", server.port)
            status, _ = await client.request(
                "POST", "/query", {"k": 3, "alpha_target": 0.2}
            )
            assert status == 200
            await client.close()
            await server.close()
            await server.close()  # second close is a no-op
            with pytest.raises((ConnectionError, OSError)):
                await ServeClient.connect("127.0.0.1", server.port)

        run(scenario())

    def test_bad_requests_rejected(self, engine):
        async def scenario():
            server = await _started_server(engine)
            client = await ServeClient.connect("127.0.0.1", server.port)
            cases = [
                ("POST", "/query", {}, 400),  # missing k
                ("POST", "/query", {"k": "many", "epsilon": 0.3}, 400),
                ("POST", "/query", {"k": 3}, 400),  # no target
                ("POST", "/query", {"k": 3, "epsilon": 0.3, "x": 1}, 400),
                ("POST", "/query", {"k": 3, "epsilon": 0.3, "bound": "?"}, 400),
                ("POST", "/extend", {}, 400),
                ("GET", "/nope", None, 404),
                ("GET", "/query", None, 405),
            ]
            for method, path, payload, expected in cases:
                status, reply = await client.request(method, path, payload)
                assert status == expected, (path, payload, reply)
                assert "error" in reply
            await client.close()
            await server.close()

        run(scenario())

    def test_malformed_http_is_a_400(self, engine):
        async def scenario():
            server = await _started_server(engine)
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(b"not an http request\r\n\r\n")
            await writer.drain()
            line = await reader.readline()
            assert b"400" in line
            writer.close()
            await server.close()

        run(scenario())

    def test_metrics_flow(self, medium_graph):
        registry = MetricsRegistry()
        engine = SeedQueryEngine(
            medium_graph, "IC", seed=42, step=400, registry=registry
        )

        async def scenario():
            server = await _started_server(engine, registry=registry)
            client = await ServeClient.connect("127.0.0.1", server.port)
            payload = {"k": 4, "alpha_target": 0.2}
            await client.request("POST", "/query", payload)
            await client.request("POST", "/query", payload)
            await client.close()
            await server.close()

        run(scenario())
        engine.close()
        counters = registry.counter_values()
        assert counters["serve.requests"] == 2
        assert counters["serve.queries"] == 2
        assert counters["serve.cache_hits"] == 1
        assert counters["serve.extend_rr_sets"] > 0
        assert registry.stats("span:serve/query").count == 2


# ----------------------------------------------------------------------
# Observability endpoints: /metrics, /healthz, request tracing
# ----------------------------------------------------------------------
class TestObservabilityEndpoints:
    def test_trace_tree_is_stitched_across_processes(
        self, medium_graph, tmp_path
    ):
        trace_path = tmp_path / "trace.jsonl"
        recorder = TraceRecorder(path=str(trace_path))
        registry = MetricsRegistry(sink=recorder)
        engine = SeedQueryEngine(
            medium_graph, "IC", seed=42, step=400, registry=registry, workers=2
        )

        async def scenario():
            server = await _started_server(engine, registry=registry)
            client = await ServeClient.connect("127.0.0.1", server.port)
            status, reply = await client.request(
                "POST", "/query", {"k": 4, "alpha_target": 0.2}
            )
            assert status == 200
            await client.close()
            await server.close()
            return reply

        reply = run(scenario())
        engine.close()
        recorder.close()
        trace_id = reply["trace_id"]
        assert trace_id
        events = [
            json.loads(line)
            for line in trace_path.read_text().splitlines()
        ]
        spans = [
            e
            for e in events
            if e["type"] == "span" and e.get("trace_id") == trace_id
        ]
        phases = {e["phase"] for e in spans}
        # One tree: the HTTP span, the engine span, and worker chunks.
        assert "serve/query" in phases
        assert any(p.startswith("serve/answer") for p in phases)
        chunks = [e for e in spans if e["phase"] == "service/chunk"]
        assert chunks
        for chunk in chunks:
            assert chunk["worker_pid"] != os.getpid()
            assert "chunk_seed" in chunk and "chunk_index" in chunk

    def test_client_supplied_trace_id_is_honored(self, engine):
        async def scenario():
            server = await _started_server(engine)
            client = await ServeClient.connect("127.0.0.1", server.port)
            status, reply = await client.request(
                "POST",
                "/query",
                {"k": 3, "alpha_target": 0.2},
                headers={"x-trace-id": "req-fixed-1"},
            )
            assert status == 200
            assert reply["trace_id"] == "req-fixed-1"
            await client.close()
            await server.close()

        run(scenario())

    def test_metrics_scrape_while_serving(self, medium_graph):
        registry = MetricsRegistry()
        engine = SeedQueryEngine(
            medium_graph, "IC", seed=42, step=400, registry=registry
        )

        async def scenario():
            server = await _started_server(engine, registry=registry)
            query_client = await ServeClient.connect("127.0.0.1", server.port)
            scrape_client = await ServeClient.connect("127.0.0.1", server.port)

            async def scrape_loop():
                texts = []
                for _ in range(5):
                    status, text = await scrape_client.request_text(
                        "GET", "/metrics"
                    )
                    assert status == 200
                    texts.append(text)
                    await asyncio.sleep(0)
                return texts

            payload = {"k": 4, "alpha_target": 0.2}
            (status, reply), _texts = await asyncio.gather(
                query_client.request("POST", "/query", payload),
                scrape_loop(),
            )
            assert status == 200
            await query_client.request("POST", "/query", payload)  # cached
            status, final = await scrape_client.request_text("GET", "/metrics")
            assert status == 200
            await query_client.close()
            await scrape_client.close()
            await server.close()
            return final

        final = run(scenario())
        engine.close()
        assert "# TYPE serve_latency histogram" in final
        assert 'serve_latency_bucket{le="+Inf",outcome="cold"} 1' in final
        assert 'serve_latency_count{outcome="cached"} 1' in final
        assert "engine_sample_seconds_count" in final
        # Exact totals survive concurrent scraping.
        assert registry.counter("serve.queries").value == 2

    def test_healthz_reports_queue_and_index_staleness(self, engine, tmp_path):
        engine.index_dir = tmp_path

        async def scenario():
            server = await _started_server(engine)
            client = await ServeClient.connect("127.0.0.1", server.port)
            status, health = await client.request("GET", "/healthz")
            assert status == 200
            assert health["queue_limit"] == server.queue_limit
            assert health["index"] == {
                "synced": False,
                "stale_rr_sets": None,
                "age_seconds": None,
            }
            await client.request("POST", "/extend", {"count": 200})
            await client.request("POST", "/save", {})
            _, health = await client.request("GET", "/healthz")
            assert health["index"]["synced"] is True
            assert health["index"]["stale_rr_sets"] == 0
            assert health["index"]["age_seconds"] >= 0.0
            await client.request("POST", "/extend", {"count": 200})
            _, health = await client.request("GET", "/healthz")
            assert health["index"]["stale_rr_sets"] == 200
            await client.close()
            await server.close()

        run(scenario())

    def test_queue_depth_gauge_tracks_rejection_and_drain(self, medium_graph):
        registry = MetricsRegistry()
        engine = SeedQueryEngine(
            medium_graph, "IC", seed=42, step=400, registry=registry
        )

        async def scenario():
            server = await _started_server(
                engine, registry=registry, queue_limit=1
            )
            clients = [
                await ServeClient.connect("127.0.0.1", server.port)
                for _ in range(5)
            ]
            replies = await asyncio.gather(
                *(
                    c.request(
                        "POST",
                        "/query",
                        {"k": 3, "alpha_target": 0.05 + 0.01 * i},
                    )
                    for i, c in enumerate(clients)
                )
            )
            assert 503 in [status for status, _ in replies]
            # The rejection path refreshes the gauge too, so it can
            # never report a stale pre-overflow depth.
            assert "serve.queue_depth" in registry.gauge_values()
            for client in clients:
                await client.close()
            await server.close()

        run(scenario())
        engine.close()
        assert registry.counter("serve.rejected").value >= 1
        # After drain the queue is empty and the gauge says so.
        assert registry.gauge_values()["serve.queue_depth"] == 0


# ----------------------------------------------------------------------
# Certified opt_lower feeding theta_sadeh on repeat queries
# ----------------------------------------------------------------------
class TestSadehCap:
    def test_first_query_has_no_cap(self, engine):
        first = engine.answer(4, epsilon=0.3)
        assert first["theta_cap"] is None

    def test_repeat_query_caps_with_certified_opt_lower(self, engine):
        import math as _math

        from repro.core.theta import theta_sadeh

        first = engine.answer(4, epsilon=0.3)
        assert first["sigma_low"] > 0
        session = engine._session(4)
        assert session.certified_opt_lower == pytest.approx(
            max(snap.sigma_low for snap in session.history)
        )
        # The cap the next answer() must apply: theta_sadeh under the
        # next delta/2^i slice, with the certified OPT floor raised to
        # the best sigma_low seen — doubled because theta bounds each
        # collection half and the budget counts both.
        expected = 2 * int(
            _math.ceil(
                theta_sadeh(
                    engine.graph.n,
                    4,
                    0.3,
                    session.next_query_delta(),
                    opt_lower=session.certified_opt_lower,
                )
            )
        )
        again = engine.answer(4, epsilon=0.3)
        assert again["theta_cap"] == expected
        assert again["satisfied"]
        # A certified floor only ever tightens the generic cap.
        assert expected <= 2 * int(
            _math.ceil(
                theta_sadeh(engine.graph.n, 4, 0.3, session.delta / 4.0)
            )
        )

    def test_alpha_target_above_conventional_level_disables_cap(self, engine):
        engine.answer(4, alpha_target=0.62)
        # 0.64 > 1 - 1/e: no positive epsilon equivalent, so the Sadeh
        # bound does not apply and the cap must stay off rather than
        # silently weakening the guarantee.
        again = engine.answer(4, alpha_target=0.64, rr_budget=2000)
        assert again["theta_cap"] is None

    def test_session_certified_opt_lower_starts_at_zero(self, medium_graph):
        from repro.core.session import OPIMSession

        with OPIMSession(medium_graph, "IC", k=3, delta=0.1, seed=5) as s:
            assert s.certified_opt_lower == 0.0
            s.extend(600)
            s.query()
            assert s.certified_opt_lower == s.history[0].sigma_low
            s.extend(600)
            s.query()
            assert s.certified_opt_lower == max(
                snap.sigma_low for snap in s.history
            )


# ----------------------------------------------------------------------
# Multi-process warm-restart oracle (the cluster extension of
# test_warm_start_continues_the_stream)
# ----------------------------------------------------------------------
class TestClusterDeterminism:
    def test_crash_requeued_job_matches_uninterrupted_reference(
        self, medium_graph, tmp_path
    ):
        """Kill a worker mid-job; the requeued job's warm-restarted
        engine must return answers bitwise-identical to an
        uninterrupted single-process engine.

        The determinism anchor is the job-boundary checkpoint: the
        crash discards the partially extended in-memory stream, and
        the respawned worker resumes from the last completed job's
        persisted stream position — exactly where the reference engine
        stood after its first answer.
        """
        from repro.serve.cluster import ClusterFrontend

        # Reference: one uninterrupted engine, two queries.
        with SeedQueryEngine(
            medium_graph, "IC", seed=7, step=400, delta=0.2
        ) as ref:
            ref_first = ref.answer(4, epsilon=0.3, rr_budget=6000)
            ref_second = ref.answer(6, epsilon=0.25, rr_budget=9000)

        async def scenario():
            front = ClusterFrontend(
                port=0,
                workers=2,
                state_dir=tmp_path,
                fault_injection=True,
            )
            await front.start()
            client = await ServeClient.connect(front.host, front.port)
            headers = {"X-Tenant": "t"}
            try:
                front.register_graph(
                    medium_graph, "g", tenant="t", seed=7, step=400,
                    delta=0.2,
                )

                async def job(payload):
                    status, _, body = await client.request_raw(
                        "POST", "/jobs", payload=payload, headers=headers
                    )
                    assert status == 202, body
                    status, _, body = await client.request_raw(
                        "GET",
                        f"/jobs/{body['job_id']}/result?wait=120",
                        headers=headers,
                    )
                    assert status == 200, body
                    return body

                first = await job(
                    {"graph": "g", "k": 4, "epsilon": 0.3,
                     "rr_budget": 6000}
                )
                # The second job crashes the worker after it has
                # extended the stream partway — past the checkpoint,
                # before the answer.
                second = await job(
                    {"graph": "g", "k": 6, "epsilon": 0.25,
                     "rr_budget": 9000, "inject_crash": True}
                )
                return first, second, front.stats()
            finally:
                await client.close()
                await front.close(drain=True)

        first, second, stats = run(scenario())
        assert second["requeues"] == 1
        assert stats["restarts"] == 1
        assert second["engine"]["loaded_from_index"]
        for got, want in ((first, ref_first), (second, ref_second)):
            assert got["response"]["seeds"] == want["seeds"]
            assert got["response"]["alpha"] == want["alpha"]
            assert got["response"]["num_rr_sets"] == want["num_rr_sets"]
            assert got["response"]["sigma_low"] == want["sigma_low"]
            assert got["response"]["sigma_up"] == want["sigma_up"]

    def test_crash_requeued_repeat_query_at_same_k_matches_reference(
        self, medium_graph, tmp_path
    ):
        """Crash recovery for a *repeat* query at an already-served
        ``k``: the respawned engine must resume the per-k ``delta/2^i``
        schedule (and the certified-OPT Sadeh cap) from the job-boundary
        checkpoint, not restart it — otherwise the requeued run spends
        a different failure slice than the uninterrupted reference.
        """
        from repro.serve.cluster import ClusterFrontend

        params = {"k": 4, "epsilon": 0.3, "rr_budget": 6000}
        with SeedQueryEngine(
            medium_graph, "IC", seed=7, step=400, delta=0.2
        ) as ref:
            ref.answer(4, epsilon=0.3, rr_budget=6000)
            ref_second = ref.answer(4, epsilon=0.3, rr_budget=6000)

        async def scenario():
            front = ClusterFrontend(
                port=0,
                workers=2,
                state_dir=tmp_path,
                fault_injection=True,
            )
            await front.start()
            client = await ServeClient.connect(front.host, front.port)
            headers = {"X-Tenant": "t"}
            try:
                front.register_graph(
                    medium_graph, "g", tenant="t", seed=7, step=400,
                    delta=0.2,
                )

                async def job(payload):
                    status, _, body = await client.request_raw(
                        "POST", "/jobs", payload=payload, headers=headers
                    )
                    assert status == 202, body
                    status, _, body = await client.request_raw(
                        "GET",
                        f"/jobs/{body['job_id']}/result?wait=120",
                        headers=headers,
                    )
                    assert status == 200, body
                    return body

                await job({"graph": "g", **params})
                second = await job(
                    {"graph": "g", **params, "inject_crash": True}
                )
                return second
            finally:
                await client.close()
                await front.close(drain=True)

        second = run(scenario())
        assert second["requeues"] == 1
        assert second["engine"]["loaded_from_index"]
        response = second["response"]
        for key in (
            "seeds", "alpha", "num_rr_sets", "sigma_low", "sigma_up",
            "theta_cap", "queries_made",
        ):
            assert response[key] == ref_second[key], key


# ----------------------------------------------------------------------
# Guards on the shared-sketch plumbing in core
# ----------------------------------------------------------------------
class TestAdoptCollections:
    def test_rejects_aliased_halves(self, medium_graph):
        from repro.core import OnlineOPIM
        from repro.sampling.collection import RRCollection

        with OnlineOPIM(medium_graph, "IC", k=3, seed=1) as algo:
            shared = RRCollection(medium_graph.n)
            with pytest.raises(ParameterError, match="distinct"):
                algo.adopt_collections(shared, shared)

    def test_rejects_wrong_node_count(self, medium_graph):
        from repro.core import OnlineOPIM
        from repro.sampling.collection import RRCollection

        other = from_edge_list([(0, 1, 0.5)], name="two")
        with OnlineOPIM(medium_graph, "IC", k=3, seed=1) as algo:
            with pytest.raises(ParameterError, match="nodes"):
                algo.adopt_collections(
                    RRCollection(other.n), RRCollection(other.n)
                )


# ----------------------------------------------------------------------
# One greedy pass per sketch, shared by every k
# ----------------------------------------------------------------------
SWEEP_KS = list(range(1, 101))
SWEEP_RR_SETS = 2_000


@pytest.fixture(scope="module")
def pokec_quarter():
    from repro.datasets import load_dataset

    return load_dataset("pokec-sim", scale=0.25)


def _reference_sessions(engine):
    """Per-k sessions on the engine's sketch, each with its own greedy
    pass (a private holder), i.e. what every k ran before sharing."""
    from repro.core.session import OPIMSession

    sessions = {}
    for k in SWEEP_KS:
        session = OPIMSession(
            engine.graph, engine.model, k=k, delta=engine.delta,
            sampler=engine.sampler,
        )
        session.online.adopt_collections(engine.r1, engine.r2)
        sessions[k] = session
    return sessions


def _sweep(engine, references, order):
    for k in order:
        for bound in ("vanilla", "greedy", "leskovec"):
            got = engine.answer(
                k, bound=bound, alpha_target=0.01, rr_budget=SWEEP_RR_SETS
            )
            want = references[k].query(bound=bound)
            assert got["sampled"] == 0
            assert got["seeds"] == want.seeds, (k, bound)
            for key in ("alpha", "sigma_low", "sigma_up"):
                assert got[key] == getattr(want, key), (k, bound, key)
            assert got["queries_made"] == references[k].queries_made


class TestSharedGreedySweep:
    @pytest.mark.parametrize("model", ["IC", "LT"])
    def test_sweep_matches_per_k_passes_cold_and_warm(
        self, pokec_quarter, model, tmp_path
    ):
        """k = 1..100 ascending then descending, all three bounds: every
        answer equals a per-k session's on the same sketch, before and
        after a warm restart from the index."""
        reg = MetricsRegistry()
        engine = SeedQueryEngine(
            pokec_quarter, model, seed=5, index_dir=tmp_path, registry=reg
        )
        engine.extend(SWEEP_RR_SETS)
        references = _reference_sessions(engine)
        _sweep(engine, references, SWEEP_KS)
        _sweep(engine, references, SWEEP_KS[::-1])
        # Ascending 1..100 doubles 1, 2, 4, ..., 128; descending reads.
        assert reg.counter_values()["maxcover.greedy_runs"] == 8
        engine.save_index()
        engine.close()

        warm = SeedQueryEngine(pokec_quarter, model, seed=5, index_dir=tmp_path)
        try:
            assert warm.loaded_from_index
            _sweep(warm, references, SWEEP_KS[::-1])
            _sweep(warm, references, SWEEP_KS)
        finally:
            warm.close()

    def test_sweep_after_growth_pass_count(self, medium_graph):
        reg = MetricsRegistry()
        with SeedQueryEngine(
            medium_graph, "IC", seed=3, registry=reg
        ) as engine:

            def passes():
                return reg.counter_values().get("maxcover.greedy_runs", 0)

            def sweep(order):
                before = passes()
                for k in order:
                    answer = engine.answer(
                        k, alpha_target=0.01, rr_budget=engine.num_rr_sets
                    )
                    assert answer["sampled"] == 0
                return passes() - before

            engine.extend(2000)
            engine.answer(20, alpha_target=0.01, rr_budget=2000)
            assert passes() == 1
            # k <= 20 on the same sketch: lookups only.
            assert sweep(range(1, 21)) == 0
            engine.extend(2000)
            # A grown sketch keeps width 20, then 21 -> 40 and 41 -> 80.
            assert sweep(range(1, 51)) == 3
            engine.extend(2000)
            # Descending after growth: one pass at the held width 80,
            # i.e. 80 argmax scans of n marginals.
            evals = reg.counter_values()["maxcover.coverage_evals"]
            assert sweep(range(50, 0, -1)) == 1
            assert (
                reg.counter_values()["maxcover.coverage_evals"] - evals
                == 80 * medium_graph.n
            )
            reuse = reg.counter_values()["maxcover.greedy_reuse"]
            assert reuse == 20 + 47 + 49
