"""Tests for the persistent shared-memory sampling service.

Covers the service's three contracts:

* **Determinism** — for a fixed seed the RR-set stream is bitwise
  identical across worker counts, across injected worker crashes, and
  (for ``workers=1``) identical to running the chunk schedule serially
  in-process.
* **Crash recovery** — a killed worker is respawned and only its
  outstanding chunk is re-issued, with the same chunk seed.
* **Resource hygiene** — every ``SharedMemory`` segment is unlinked on
  ``close()``, on exceptions inside the context manager, and no
  ``resource_tracker`` leak warnings escape a full create/use/close
  cycle (checked in a subprocess, where the tracker's exit-time report
  is observable).
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
from repro.obs import MetricsRegistry
from repro.sampling.collection import RRCollection
from repro.sampling.kernel import RRSampler
from repro.sampling.service import (
    SamplingPool,
    chunk_schedule,
    chunk_seed,
    generate_chunk,
)


def _sets(collection):
    return [collection.get(i).copy() for i in range(len(collection))]


def _identical(a, b):
    return len(a) == len(b) and all(
        np.array_equal(x, y) for x, y in zip(a, b)
    )


class TestChunkSchedule:
    """The chunk policy is the determinism contract — property-test it."""

    @given(
        count=st.integers(min_value=0, max_value=50_000),
        start=st.integers(min_value=0, max_value=1_000),
        min_chunk=st.integers(min_value=1, max_value=512),
        target=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=200, deadline=None)
    def test_schedule_partitions_the_quota(
        self, count, start, min_chunk, target
    ):
        schedule = chunk_schedule(count, start, min_chunk, target)
        assert sum(c for _, c in schedule) == count
        assert [i for i, _ in schedule] == list(
            range(start, start + len(schedule))
        )
        # Quota-proportional with a floor: every chunk but the last is
        # exactly max(min_chunk, ceil(count/target)).
        if schedule:
            size = max(min_chunk, -(-count // target))
            assert all(c == size for _, c in schedule[:-1])
            assert 1 <= schedule[-1][1] <= size
            assert len(schedule) <= max(1, -(-count // min_chunk))

    def test_schedule_is_independent_of_worker_count(self):
        # No ``workers`` argument exists at all; the policy only sees
        # the quota. This is what makes output worker-count invariant.
        assert chunk_schedule(1000, 0) == chunk_schedule(1000, 0)

    def test_invalid_parameters(self):
        with pytest.raises(ParameterError):
            chunk_schedule(-1)
        with pytest.raises(ParameterError):
            chunk_schedule(10, min_chunk=0)
        with pytest.raises(ParameterError):
            chunk_schedule(10, target_chunks=0)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        index=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_chunk_seed_is_a_pure_function(self, seed, index):
        assert chunk_seed(seed, index) == chunk_seed(seed, index)

    def test_chunk_seeds_differ_across_indices(self):
        seeds = {chunk_seed(7, i) for i in range(64)}
        assert len(seeds) == 64


class TestDeterminism:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_bitwise_identical_across_worker_counts(
        self, small_graph, workers
    ):
        with SamplingPool(small_graph, "IC", workers=1, seed=42) as pool:
            reference = pool.new_collection(150)
            pool.fill(reference, 70)
        with SamplingPool(small_graph, "IC", workers=workers, seed=42) as pool:
            parallel = pool.new_collection(150)
            pool.fill(parallel, 70)
        assert _identical(_sets(reference), _sets(parallel))

    def test_lt_identical_across_worker_counts(self, small_graph):
        outputs = []
        for workers in (1, 2):
            with SamplingPool(
                small_graph, "LT", workers=workers, seed=9
            ) as pool:
                outputs.append(_sets(pool.new_collection(80)))
        assert _identical(outputs[0], outputs[1])

    def test_workers_1_matches_serial_chunk_generation(self, small_graph):
        """``workers=1`` IS the serial generator: the same pure
        ``generate_chunk`` calls over the same schedule and seeds."""
        count, seed = 100, 11
        with SamplingPool(small_graph, "IC", workers=1, seed=seed) as pool:
            out = pool.new_collection(count)
        serial = []
        for index, chunk in chunk_schedule(count):
            flat, offsets, _, _ = generate_chunk(
                small_graph, "IC", chunk_seed(seed, index), chunk
            )
            serial.extend(
                flat[offsets[i] : offsets[i + 1]]
                for i in range(offsets.shape[0] - 1)
            )
        assert _identical(serial, _sets(out))

    def test_repeated_fill_sequences_reproduce(self, small_graph):
        def run():
            with SamplingPool(small_graph, "IC", workers=2, seed=3) as pool:
                collection = pool.new_collection()
                for quota in (40, 90, 10):
                    pool.fill(collection, quota)
            return _sets(collection)

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

    def test_from_state_rejects_foreign_kind(self, small_graph):
        with pytest.raises(ParameterError, match="kind"):
            SamplingPool.from_state(
                small_graph, "IC", {"kind": "serial", "seed": 1}
            )


class TestVectorizedKernelDeterminism:
    """Every pool chunk runs the vectorized kernel, which obeys the
    frozen RNG contract: chunks are bitwise identical to the python
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
    def test_kernel_chunks_match_python_kernel(self, small_graph, model):
        """Per-chunk bitwise oracle: ``generate_chunk`` equals one fill
        of a python-kernel sampler seeded with the chunk seed."""
        for index, chunk in chunk_schedule(120):
            seed = chunk_seed(17, index)
            flat, offsets, edges, _ = generate_chunk(
                small_graph, model, seed, chunk
            )
            oracle = RRSampler(small_graph, model, seed=seed, kernel="python")
            expected = oracle.new_collection(chunk).sets()
            assert _identical(
                [flat[offsets[i] : offsets[i + 1]] for i in range(chunk)],
                expected,
            )
            assert edges == oracle.edges_examined

    def test_output_identical_under_injected_crashes(self, small_graph):
        with SamplingPool(small_graph, "IC", workers=1, seed=42) as pool:
            reference = _sets(pool.new_collection(200))
        registry = MetricsRegistry()
        with SamplingPool(
            small_graph,
            "IC",
            workers=2,
            seed=42,
            registry=registry,
            inject_crash_chunks={0, 4},
        ) as pool:
            recovered = _sets(pool.new_collection(200))
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
    def test_output_identical_under_injected_crashes(self, small_graph):
        with SamplingPool(small_graph, "IC", workers=1, seed=42) as pool:
            reference = _sets(pool.new_collection(200))
        registry = MetricsRegistry()
        with SamplingPool(
            small_graph,
            "IC",
            workers=2,
            seed=42,
            registry=registry,
            inject_crash_chunks={0, 4},
        ) as pool:
            recovered = _sets(pool.new_collection(200))
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
        assert len(first) == 100 and len(second) == 100

    def test_restart_budget_exhaustion_raises(self, small_graph):
        # Crash every chunk of the first fill with a budget of 1.
        with SamplingPool(
            small_graph,
            "IC",
            workers=2,
            seed=5,
            inject_crash_chunks=set(range(8)),
            max_restarts=1,
        ) as pool:
            with pytest.raises(ServiceError, match="restart budget"):
                pool.fill(pool.new_collection(), 200)


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
        assert len(names) == 6  # the six CSR arrays
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
