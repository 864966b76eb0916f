"""Tests for the persistent shared-memory sampling service.

Covers the service's three contracts:

* **Determinism** — for a fixed seed the RR-set stream is bitwise
  identical across worker counts and across injected worker crashes,
  and equal to its definition: batch ``b`` of the fills' split filled
  by a fresh ``RRSampler`` seeded with ``SeedSequence(seed,
  spawn_key=(b,))``.
* **Crash recovery** — a killed worker is respawned and only its
  outstanding chunk is re-issued, with the same batches.
* **Resource hygiene** — every ``SharedMemory`` segment is unlinked on
  ``close()``, on exceptions inside the context manager, and no
  ``resource_tracker`` leak warnings escape a full create/use/close
  cycle (checked in a subprocess, where the tracker's exit-time report
  is observable); ``workers=1`` creates none.
"""

from __future__ import annotations

import os
import subprocess
import sys
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ParameterError, ServiceError
from repro.graph import assign_wc_weights, power_law_graph
from repro.obs import MetricsRegistry
from repro.sampling.collection import RRCollection
from repro.sampling.kernel import RRSampler, batch_cap
from repro.sampling.service import SamplingPool, batch_rng, batch_schedule


def _sets(collection):
    return [collection.get(i).copy() for i in range(len(collection))]


def _identical(a, b):
    return len(a) == len(b) and all(
        np.array_equal(x, y) for x, y in zip(a, b)
    )


@pytest.fixture(scope="module")
def wide_graph():
    """A graph wide enough that a batch holds 559 sets, so a fill of a
    few thousand spans several batches (and dispatch chunks)."""
    return assign_wc_weights(power_law_graph(30_000, 2, seed=5, name="wide"))


def _batch_reference(graph, model, seed, quotas, kernel="vectorized"):
    """The stream by its definition: each fill splits into batches of
    at most ``batch_cap(n)`` sets, and batch ``b`` (counted across
    fills) is filled by a fresh sampler seeded with
    ``SeedSequence(seed, spawn_key=(b,))``.  Returns the sets and the
    edges examined per batch."""
    cap = batch_cap(graph.n)
    sets, edges = [], []
    index = 0
    for quota in quotas:
        remaining = quota
        while remaining:
            size = min(cap, remaining)
            sampler = RRSampler(
                graph,
                model,
                seed=np.random.SeedSequence(seed, spawn_key=(index,)),
                kernel=kernel,
            )
            sets.extend(sampler.new_collection(size).sets())
            edges.append(sampler.edges_examined)
            index += 1
            remaining -= size
    return sets, edges


def _pool_sets(graph, model, seed, quotas, **kwargs):
    with SamplingPool(graph, model, seed=seed, **kwargs) as pool:
        collection = pool.new_collection()
        for quota in quotas:
            pool.fill(collection, quota)
    return _sets(collection)


class TestBatchSchedule:
    """The batch split and the batch seeds are the determinism
    contract — property-test them."""

    @given(
        count=st.integers(min_value=0, max_value=50_000),
        start=st.integers(min_value=0, max_value=1_000),
        cap=st.integers(min_value=1, max_value=4_096),
    )
    @settings(max_examples=200, deadline=None)
    def test_schedule_partitions_the_quota(self, count, start, cap):
        schedule = batch_schedule(count, start, cap)
        assert sum(c for _, c in schedule) == count
        assert [i for i, _ in schedule] == list(
            range(start, start + len(schedule))
        )
        # RRSampler.fill's split: full batches, then the remainder.
        assert len(schedule) == -(-count // cap)
        assert all(c == cap for _, c in schedule[:-1])
        if schedule:
            assert 1 <= schedule[-1][1] <= cap

    def test_schedule_is_the_sampler_fill_split(self, wide_graph):
        registry = MetricsRegistry()
        sampler = RRSampler(wide_graph, "IC", seed=1, registry=registry)
        sampler.new_collection(2000)
        cap = batch_cap(wide_graph.n)
        assert registry.counter_values()["kernel.batches"] == len(
            batch_schedule(2000, 0, cap)
        )

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            batch_schedule(-1, 0, 10)
        with pytest.raises(ParameterError):
            batch_schedule(10, 0, 0)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        index=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_batch_rng_is_a_pure_function(self, seed, index):
        expected = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(index,))
        ).random(4)
        assert np.array_equal(batch_rng(seed, index).random(4), expected)

    def test_batch_streams_differ_across_indices(self):
        draws = {int(batch_rng(7, i).integers(2**62)) for i in range(64)}
        assert len(draws) == 64


class TestDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_bitwise_identical_across_worker_counts(
        self, wide_graph, workers
    ):
        reference = _pool_sets(wide_graph, "IC", 42, (1500, 700), workers=1)
        parallel = _pool_sets(
            wide_graph, "IC", 42, (1500, 700), workers=workers
        )
        assert _identical(reference, parallel)

    def test_lt_identical_across_worker_counts(self, wide_graph):
        outputs = [
            _pool_sets(wide_graph, "LT", 9, (1300,), workers=workers)
            for workers in (1, 2)
        ]
        assert _identical(outputs[0], outputs[1])

    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("model", ["IC", "LT"])
    def test_pool_matches_batch_by_batch_reference(
        self, wide_graph, model, workers
    ):
        """The pool's stream is its definition, at every worker count:
        fills split into batches, each from its own seed sequence."""
        quotas = (1500, 40, 700)
        expected, _ = _batch_reference(wide_graph, model, 11, quotas)
        got = _pool_sets(wide_graph, model, 11, quotas, workers=workers)
        assert _identical(expected, got)

    def test_pool_matches_batch_reference_under_crashes(self, wide_graph):
        quotas = (1500, 40, 700)
        expected, _ = _batch_reference(wide_graph, "IC", 11, quotas)
        with SamplingPool(
            wide_graph, "IC", workers=2, seed=11, inject_crash_chunks={1, 4}
        ) as pool:
            collection = pool.new_collection()
            for quota in quotas:
                pool.fill(collection, quota)
            assert pool.restarts == 2
        assert _identical(expected, _sets(collection))

    def test_repeated_fill_sequences_reproduce(self, small_graph):
        def run():
            return _pool_sets(small_graph, "IC", 3, (40, 90, 10), workers=2)

        assert _identical(run(), run())

    def test_seeded_pools_with_different_seeds_differ(self, small_graph):
        with SamplingPool(small_graph, "IC", workers=1, seed=1) as pool:
            a = _sets(pool.new_collection(100))
        with SamplingPool(small_graph, "IC", workers=1, seed=2) as pool:
            b = _sets(pool.new_collection(100))
        assert not _identical(a, b)

    def test_from_state_hands_off_the_stream(self, small_graph):
        """``from_state`` resumes another pool's stream position in a
        fresh process's pool — the cluster worker-respawn handoff —
        and the continuation is bitwise-identical to never handing
        off, even across a different worker count."""
        with SamplingPool(small_graph, "IC", workers=2, seed=42) as pool:
            reference = pool.new_collection()
            pool.fill(reference, 100)
            state = pool.state()
            pool.fill(reference, 120)
        with SamplingPool.from_state(
            small_graph, "IC", state, workers=4
        ) as resumed:
            # Rebuild the first 100 independently, then continue the
            # stream from the handed-off position.
            with SamplingPool(small_graph, "IC", workers=2, seed=42) as p0:
                continued = p0.new_collection()
                p0.fill(continued, 100)
            resumed.fill(continued, 120)
        assert _identical(_sets(reference), _sets(continued))

    @pytest.mark.parametrize("first, then", [(1, 2), (2, 1)])
    def test_state_continues_at_another_worker_count(
        self, wide_graph, first, then
    ):
        quotas = (1500, 700)
        expected, _ = _batch_reference(wide_graph, "LT", 5, quotas)
        with SamplingPool(wide_graph, "LT", workers=first, seed=5) as pool:
            collection = pool.new_collection(quotas[0])
            state = pool.state()
        with SamplingPool.from_state(
            wide_graph, "LT", state, workers=then
        ) as resumed:
            resumed.fill(collection, quotas[1])
            assert resumed.sets_generated == sum(quotas)
        assert _identical(expected, _sets(collection))

    def test_from_state_rejects_foreign_kind(self, small_graph):
        with pytest.raises(ParameterError, match="kind"):
            SamplingPool.from_state(
                small_graph, "IC", {"kind": "serial", "seed": 1}
            )

    def test_restore_rejects_another_seed(self, small_graph):
        with SamplingPool(small_graph, "IC", workers=1, seed=1) as pool:
            state = pool.state()
        with SamplingPool(small_graph, "IC", workers=1, seed=2) as pool:
            with pytest.raises(ParameterError, match="seed"):
                pool.restore_state(state)


class TestVectorizedKernelDeterminism:
    """Every pool batch runs the vectorized kernel, which obeys the
    frozen RNG contract: batches are bitwise identical to the python
    reference kernel, and the pool's determinism contracts (worker
    counts, injected crashes, ``from_state`` handoff) hold on it."""

    @pytest.mark.parametrize("workers", [2, 4])
    def test_bitwise_identical_across_worker_counts(
        self, small_graph, workers
    ):
        with SamplingPool(small_graph, "IC", workers=1, seed=42) as pool:
            reference = pool.new_collection(150)
            pool.fill(reference, 70)
        with SamplingPool(
            small_graph, "IC", workers=workers, seed=42
        ) as pool:
            parallel = pool.new_collection(150)
            pool.fill(parallel, 70)
        assert _identical(_sets(reference), _sets(parallel))

    @pytest.mark.parametrize("model", ["IC", "LT"])
    def test_kernel_chunks_match_python_kernel(self, wide_graph, model):
        """Per-batch bitwise oracle: the pool's batches equal fills of
        python-kernel samplers seeded with the batch seeds, and so do
        the edges examined."""
        expected, edges = _batch_reference(
            wide_graph, model, 17, (1200,), kernel="python"
        )
        with SamplingPool(wide_graph, model, workers=1, seed=17) as pool:
            got = _sets(pool.new_collection(1200))
            assert pool.edges_examined == sum(edges)
        assert len(edges) == 3
        assert _identical(expected, got)

    def test_output_identical_under_injected_crashes(self, wide_graph):
        reference = _pool_sets(wide_graph, "IC", 42, (2500,), workers=1)
        registry = MetricsRegistry()
        with SamplingPool(
            wide_graph,
            "IC",
            workers=2,
            seed=42,
            registry=registry,
            inject_crash_chunks={0, 4},
        ) as pool:
            recovered = _sets(pool.new_collection(2500))
            assert pool.restarts == 2
        assert _identical(reference, recovered)
        assert registry.counter_values()["service.worker_restarts"] == 2

    def test_from_state_hands_off_a_kernel_stream(self, small_graph):
        """Warm handoff: the state records the kernel, and the
        continuation is bitwise identical to an uninterrupted run with
        the same fill sequence."""
        with SamplingPool(small_graph, "IC", workers=2, seed=42) as pool:
            reference = pool.new_collection()
            pool.fill(reference, 100)
            state = pool.state()
            pool.fill(reference, 120)
        assert state["kernel"] == "vectorized"
        with SamplingPool.from_state(
            small_graph, "IC", state, workers=4
        ) as resumed:
            assert resumed.kernel == "vectorized"
            with SamplingPool(small_graph, "IC", workers=2, seed=42) as p0:
                continued = p0.new_collection()
                p0.fill(continued, 100)
            resumed.fill(continued, 120)
        assert _identical(_sets(reference), _sets(continued))


class TestCrashRecovery:
    def test_output_identical_under_injected_crashes(self, wide_graph):
        reference = _pool_sets(wide_graph, "IC", 42, (2500,), workers=1)
        registry = MetricsRegistry()
        with SamplingPool(
            wide_graph,
            "IC",
            workers=2,
            seed=42,
            registry=registry,
            inject_crash_chunks={0, 4},
        ) as pool:
            recovered = _sets(pool.new_collection(2500))
            assert pool.restarts == 2
        assert _identical(reference, recovered)
        counters = registry.counter_values()
        assert counters["service.worker_restarts"] == 2

    def test_pool_remains_usable_after_recovery(self, small_graph):
        with SamplingPool(
            small_graph, "IC", workers=2, seed=5, inject_crash_chunks={1}
        ) as pool:
            first = pool.new_collection(100)
            second = pool.new_collection(100)
            assert pool.restarts == 1
        assert len(first) == 100 and len(second) == 100

    def test_restart_budget_exhaustion_raises(self, wide_graph):
        # Crash every chunk of a five-batch fill with a budget of 1.
        with SamplingPool(
            wide_graph,
            "IC",
            workers=2,
            seed=5,
            inject_crash_chunks=set(range(8)),
            max_restarts=1,
        ) as pool:
            with pytest.raises(ServiceError, match="restart budget"):
                pool.fill(pool.new_collection(), 2500)


class TestSamplerInterface:
    def test_duck_type_counters(self, small_graph):
        with SamplingPool(small_graph, "IC", workers=2, seed=1) as pool:
            collection = pool.new_collection(120)
            assert pool.sets_generated == 120
            assert pool.edges_examined > 0
            assert pool.nodes_touched >= 120
            assert pool.universe_weight == float(small_graph.n)
        assert len(collection) == 120

    def test_online_opim_streams_through_pool(self, small_graph):
        from repro.core.opim import OnlineOPIM

        with OnlineOPIM(
            small_graph, "IC", k=3, delta=0.1, seed=4, workers=2
        ) as algo:
            algo.extend(400)
            snapshot = algo.query()
        assert 0.0 <= snapshot.alpha <= 1.0
        assert snapshot.num_rr_sets == 400

    def test_opimc_with_pool_reuse_reports_per_run_counts(self, small_graph):
        from repro.core.opimc import OPIMC

        with SamplingPool(small_graph, "IC", workers=2, seed=6) as pool:
            runner = OPIMC(small_graph, "IC", seed=6, pool=pool)
            first = runner.run(2, 0.4, delta=0.1)
            second = runner.run(2, 0.4, delta=0.1)
        assert first.num_rr_sets > 0
        # Per-run accounting: the second run must not absorb the
        # first run's cumulative pool counters.
        assert second.num_rr_sets < first.num_rr_sets * 3
        assert pool.sets_generated == first.num_rr_sets + second.num_rr_sets

    def test_parameter_validation(self, small_graph):
        from repro.graph.build import from_edge_list

        with pytest.raises(ParameterError):
            SamplingPool(small_graph, "bogus")
        with pytest.raises(ParameterError):
            SamplingPool(small_graph, "IC", workers=0)
        with pytest.raises(ParameterError):
            SamplingPool(from_edge_list([(0, 1)]), "IC")
        with SamplingPool(small_graph, "IC", workers=1, seed=1) as pool:
            with pytest.raises(ParameterError):
                pool.fill(pool.new_collection(), -1)
            with pytest.raises(ParameterError):
                pool.fill(RRCollection(3), 10)

    def test_closed_pool_refuses_to_fill(self, small_graph):
        pool = SamplingPool(small_graph, "IC", workers=1, seed=1)
        pool.close()
        with pytest.raises(ServiceError, match="closed"):
            pool.fill(RRCollection(small_graph.n), 10)


class TestSharedMemoryHygiene:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_segments_unlinked_after_close(self, small_graph, workers):
        pool = SamplingPool(small_graph, "IC", workers=workers, seed=1)
        names = pool.segment_names
        # The six CSR arrays, shared only with worker processes.
        assert len(names) == (6 if workers > 1 else 0)
        pool.fill(pool.new_collection(), 50)
        pool.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_segments_unlinked_after_exception_in_context(self, small_graph):
        names = []
        with pytest.raises(RuntimeError, match="boom"):
            with SamplingPool(small_graph, "IC", workers=2, seed=1) as pool:
                names = pool.segment_names
                pool.fill(pool.new_collection(), 40)
                raise RuntimeError("boom")
        assert names
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)

    def test_in_process_pool_shares_no_memory(self, small_graph):
        """``workers=1`` samples in the caller's process: no worker
        reads a segment, so none is created."""
        registry = MetricsRegistry()
        with SamplingPool(
            small_graph, "IC", workers=1, seed=1, registry=registry
        ) as pool:
            pool.fill(pool.new_collection(), 50)
            assert pool.segment_names == []
        assert "service.shm_bytes" not in registry.gauge_values()

    def test_close_is_idempotent(self, small_graph):
        pool = SamplingPool(small_graph, "IC", workers=2, seed=1)
        pool.close()
        pool.close()
        assert pool.closed

    def test_no_resource_tracker_leak_warnings(self):
        """Full lifecycle in a subprocess: the resource tracker reports
        leaked segments on interpreter exit, so a clean stderr is the
        oracle that close() returned every segment."""
        script = (
            "from repro.graph import power_law_graph, assign_wc_weights\n"
            "from repro.sampling.service import SamplingPool\n"
            "g = assign_wc_weights(power_law_graph(60, 4, seed=3))\n"
            "with SamplingPool(g, 'IC', workers=2, seed=1) as pool:\n"
            "    pool.fill(pool.new_collection(), 80)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONWARNINGS"] = "always"
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert "leaked shared_memory" not in result.stderr
        assert "resource_tracker" not in result.stderr
