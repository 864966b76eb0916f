"""Equivalence oracle for the frontier-batched sampling kernels.

The whole point of :mod:`repro.sampling.kernel` is a frozen
RNG-consumption contract with interchangeable implementations, so the
tests here are bitwise, not statistical: for the same generator state,
``kernel="python"`` (the explicit-loop reference) and
``kernel="vectorized"`` must produce

* identical RR collections — same sets, same node order within each
  set,
* identical ``edges_examined`` (Borgs' gamma cost measure) and level
  counts,
* identical post-call generator states (they consumed the exact same
  randomness),

across the IC, LT, and triggering models, through
:class:`RRSampler` (including fills that span several capped batches
and weighted roots), and through pool chunking.

Also here: the hop estimator's closed-form guarantees-free spread
(:mod:`repro.sampling.hop`), checked against exact values on graphs
small enough to reason about.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError, StateError
from repro.graph.generators import power_law_graph
from repro.graph.weights import assign_constant_weights, assign_wc_weights
from repro.obs import MetricsRegistry
from repro.sampling import kernel as kernel_module
from repro.sampling.hop import HopEstimator
from repro.sampling.kernel import (
    AUTO_KERNEL,
    KERNELS,
    SAMPLE_ONE_BATCH,
    RRSampler,
    batch_cap,
    resolve_kernel,
    sample_rr_sets_ic_kernel,
    sample_rr_sets_kernel,
    sample_rr_sets_lt_kernel,
    sample_rr_sets_triggering_kernel,
)
from repro.sampling.rrset_lt import LTAliasTables
from repro.sampling.rrset_triggering import (
    fixed_size_triggering_sets,
    ic_triggering_sets,
)
from repro.weighted.sampler import WeightedRRSampler


def _identical(a, b):
    return len(a) == len(b) and all(
        x.shape == y.shape and np.array_equal(x, y) for x, y in zip(a, b)
    )


def _flat_identical(a, b):
    """Two kernels' ``(nodes, offsets)``: same dtypes, same bytes."""
    return all(
        x.dtype == y.dtype and x.shape == y.shape and np.array_equal(x, y)
        for x, y in zip(a, b)
    )


def _sets(nodes, offsets):
    return [nodes[offsets[i] : offsets[i + 1]] for i in range(len(offsets) - 1)]


@pytest.fixture(scope="module")
def oracle_graph():
    return assign_wc_weights(power_law_graph(300, 6, seed=31, name="oracle"))


class TestResolveKernel:
    def test_auto_is_vectorized(self, oracle_graph, monkeypatch):
        # No environment variable selects a sampler any more.
        monkeypatch.setenv("REPRO_KERNEL", "python")
        assert resolve_kernel() == "vectorized"
        assert resolve_kernel(AUTO_KERNEL) == "vectorized"
        assert RRSampler(oracle_graph, "IC", seed=0).kernel == "vectorized"

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "vectorized")
        assert resolve_kernel("python") == "python"

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ParameterError, match="kernel"):
            resolve_kernel("fortran")

    def test_numba_without_numba_rejected(self):
        # The numba variant is gone: "numba" is an unknown kernel.
        with pytest.raises(ParameterError, match="kernel"):
            resolve_kernel("numba")


class TestEquivalenceOracle:
    """python vs vectorized: bitwise identity."""

    @pytest.mark.parametrize("fast", [k for k in KERNELS if k != "python"])
    def test_ic_bitwise_identical(self, oracle_graph, fast):
        roots = np.random.default_rng(5).integers(0, oracle_graph.n, 120)
        rng_a = np.random.default_rng(77)
        rng_b = np.random.default_rng(77)
        *flat_a, gamma_a, levels_a = sample_rr_sets_ic_kernel(
            oracle_graph, roots, rng_a, "python"
        )
        *flat_b, gamma_b, levels_b = sample_rr_sets_ic_kernel(
            oracle_graph, roots, rng_b, fast
        )
        assert _flat_identical(flat_a, flat_b)
        assert gamma_a == gamma_b
        assert levels_a == levels_b
        # Same randomness consumed: the streams stay aligned after the
        # call, which is what makes kernels swappable mid-stream.
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize("fast", [k for k in KERNELS if k != "python"])
    def test_lt_bitwise_identical(self, oracle_graph, fast):
        tables = LTAliasTables(oracle_graph)
        roots = np.random.default_rng(6).integers(0, oracle_graph.n, 120)
        rng_a = np.random.default_rng(78)
        rng_b = np.random.default_rng(78)
        *flat_a, gamma_a, steps_a = sample_rr_sets_lt_kernel(
            oracle_graph, roots, rng_a, tables, "python"
        )
        *flat_b, gamma_b, steps_b = sample_rr_sets_lt_kernel(
            oracle_graph, roots, rng_b, tables, fast
        )
        assert _flat_identical(flat_a, flat_b)
        assert gamma_a == gamma_b
        assert steps_a == steps_b
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize(
        "factory", [ic_triggering_sets, lambda g: fixed_size_triggering_sets(g, 2)]
    )
    @pytest.mark.parametrize("fast", [k for k in KERNELS if k != "python"])
    def test_triggering_bitwise_identical(self, oracle_graph, fast, factory):
        triggering = factory(oracle_graph)
        roots = np.random.default_rng(8).integers(0, oracle_graph.n, 60)
        rng_a = np.random.default_rng(79)
        rng_b = np.random.default_rng(79)
        *flat_a, gamma_a, levels_a = sample_rr_sets_triggering_kernel(
            oracle_graph, roots, rng_a, triggering, "python"
        )
        *flat_b, gamma_b, levels_b = sample_rr_sets_triggering_kernel(
            oracle_graph, roots, rng_b, triggering, fast
        )
        assert _flat_identical(flat_a, flat_b)
        assert gamma_a == gamma_b
        assert levels_a == levels_b
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_rr_sets_are_root_first_and_level_sorted(self, oracle_graph):
        roots = np.arange(50, dtype=np.int64)
        nodes, offsets, _, _ = sample_rr_sets_ic_kernel(
            oracle_graph, roots, np.random.default_rng(3), "vectorized"
        )
        assert offsets.dtype == np.int64 and offsets.shape == (51,)
        for root, rr in zip(roots, _sets(nodes, offsets)):
            assert rr.dtype == np.int32
            assert rr[0] == root
            assert len(set(rr.tolist())) == rr.shape[0]

    def test_dispatch_requires_triggering_callable(self, oracle_graph):
        with pytest.raises(ParameterError, match="triggering_sets"):
            sample_rr_sets_kernel(
                oracle_graph,
                "triggering",
                np.arange(3),
                np.random.default_rng(0),
            )

    def test_empty_batch(self, oracle_graph):
        nodes, offsets, gamma, levels = sample_rr_sets_ic_kernel(
            oracle_graph, np.empty(0, dtype=np.int64), np.random.default_rng(0)
        )
        assert nodes.dtype == np.int32 and nodes.shape == (0,)
        assert offsets.tolist() == [0]
        assert gamma == 0 and levels == 0


class TestKernelRRSampler:
    @pytest.mark.parametrize("model", ["IC", "LT"])
    @pytest.mark.parametrize("fast", [k for k in KERNELS if k != "python"])
    def test_fill_streams_bitwise_identical(self, oracle_graph, model, fast):
        a = RRSampler(oracle_graph, model, seed=11, kernel="python")
        b = RRSampler(oracle_graph, model, seed=11, kernel=fast)
        ca, cb = a.new_collection(), b.new_collection()
        for quota in (40, 7, 153):
            a.fill(ca, quota)
            b.fill(cb, quota)
        assert _identical(
            [ca.get(i) for i in range(len(ca))],
            [cb.get(i) for i in range(len(cb))],
        )
        assert a.edges_examined == b.edges_examined
        assert a.nodes_touched == b.nodes_touched
        assert a.sets_generated == b.sets_generated == 200

    def test_triggering_model_through_facade(self, oracle_graph):
        triggering = ic_triggering_sets(oracle_graph)
        a = RRSampler(
            oracle_graph, "TRIGGERING", seed=4, kernel="python",
            triggering_sets=triggering,
        )
        b = RRSampler(
            oracle_graph, "TRIGGERING", seed=4, kernel="vectorized",
            triggering_sets=triggering,
        )
        assert _identical(
            [a.sample_one() for _ in range(50)],
            [b.sample_one() for _ in range(50)],
        )
        assert a.edges_examined == b.edges_examined

    def test_explicit_root(self, oracle_graph):
        sampler = RRSampler(oracle_graph, "IC", seed=1)
        rr = sampler.sample_one(root=17)
        assert rr[0] == 17
        with pytest.raises(ParameterError, match="out of range"):
            sampler.sample_one(root=oracle_graph.n)

    def test_state_roundtrip_continues_stream(self, oracle_graph):
        reference = RRSampler(oracle_graph, "IC", seed=9)
        coll = reference.new_collection()
        reference.fill(coll, 64)
        reference.fill(coll, 64)

        first = RRSampler(oracle_graph, "IC", seed=9)
        c1 = first.new_collection()
        first.fill(c1, 64)
        state = first.state()
        second = RRSampler(oracle_graph, "IC", seed=123)
        second.restore_state(state)
        c2 = second.new_collection()
        second.fill(c2, 64)
        assert _identical(
            [coll.get(i) for i in range(64, 128)],
            [c2.get(i) for i in range(64)],
        )
        assert second.edges_examined == reference.edges_examined

    def test_state_refuses_buffered_sets(self, oracle_graph):
        sampler = RRSampler(oracle_graph, "IC", seed=2)
        sampler.sample_one()  # leaves the rest of its batch buffered
        assert sampler.buffered == SAMPLE_ONE_BATCH - 1
        with pytest.raises(StateError, match="buffered"):
            sampler.state()

    def test_restore_refuses_kernel_mismatch(self, oracle_graph):
        first = RRSampler(oracle_graph, "IC", seed=9, kernel="vectorized")
        state = first.state()
        other = RRSampler(oracle_graph, "IC", seed=9, kernel="python")
        with pytest.raises(ParameterError, match="deterministic"):
            other.restore_state(state)

    def test_requires_weighted_graph(self):
        bare = power_law_graph(40, 3, seed=1)
        with pytest.raises(ParameterError, match="weighting"):
            RRSampler(bare, "IC", seed=0)


class TestBatchCap:
    """RNG-contract item 1: fills draw batches of at most
    ``max(1, 2 MiB // n)`` sets, a pure function of ``(n, count)``."""

    def test_cap_is_a_byte_budget(self):
        assert batch_cap(8000) == 262
        assert batch_cap(300) == 2 * 1024 * 1024 // 300
        assert batch_cap(10**8) == 1

    @pytest.mark.parametrize("extra", [0, 1, 5])
    def test_fill_issues_ceil_count_over_cap_batches(self, oracle_graph, extra):
        registry = MetricsRegistry()
        sampler = RRSampler(oracle_graph, "IC", seed=3, registry=registry)
        cap = sampler.batch_cap
        count = 2 * cap + extra
        collection = sampler.new_collection(count)
        assert len(collection) == count
        assert registry.counter_values()["kernel.batches"] == -(-count // cap)

    @pytest.mark.parametrize("model", ["IC", "LT", "TRIGGERING"])
    def test_multi_batch_fill_bitwise_identical(
        self, oracle_graph, model, monkeypatch
    ):
        monkeypatch.setattr(kernel_module, "BATCH_BYTES", 32 * oracle_graph.n)
        triggering = (
            fixed_size_triggering_sets(oracle_graph, 2)
            if model == "TRIGGERING" else None
        )
        samplers = [
            RRSampler(
                oracle_graph, model, seed=21, kernel=kernel,
                triggering_sets=triggering,
            )
            for kernel in ("python", "vectorized")
        ]
        collections = []
        for sampler in samplers:
            assert sampler.batch_cap == 32
            collection = sampler.new_collection()
            for quota in (70, 5, 33):  # batches of 32, 32, 6, 5, 32, 1
                sampler.fill(collection, quota)
            collections.append(collection.sets())
        a, b = samplers
        assert _identical(*collections)
        assert a.edges_examined == b.edges_examined
        assert a.levels_advanced == b.levels_advanced
        assert a.rng.bit_generator.state == b.rng.bit_generator.state

    def test_multi_batch_weighted_roots_bitwise_identical(
        self, oracle_graph, monkeypatch
    ):
        monkeypatch.setattr(kernel_module, "BATCH_BYTES", 25 * oracle_graph.n)
        weights = np.random.default_rng(4).random(oracle_graph.n)
        weights[:100] = 0.0  # these nodes can never be roots
        samplers = [
            WeightedRRSampler(oracle_graph, "LT", weights, seed=5)
            for _ in range(2)
        ]
        samplers[0].kernel = "python"
        collections = [s.new_collection(90) for s in samplers]
        a, b = samplers
        assert _identical(collections[0].sets(), collections[1].sets())
        assert all(rr[0] >= 100 for rr in collections[0].sets())
        assert a.edges_examined == b.edges_examined
        assert a.rng.bit_generator.state == b.rng.bit_generator.state


class TestHopEstimator:
    def test_scores_on_a_line(self):
        from repro.graph.build import from_edge_list

        # 0 ->(0.5) 1 ->(0.5) 2: s_1 = [1.5, 1.5, 1]; the 2-hop score
        # of 0 adds the 2-step path through 1: 1 + 0.5 * 1.5 = 1.75.
        graph = from_edge_list(
            [(0, 1, 0.5), (1, 2, 0.5)], name="hopline"
        )
        est = HopEstimator(graph)
        assert np.allclose(est.scores(1), [1.5, 1.5, 1.0])
        assert np.allclose(est.scores(2), [1.75, 1.5, 1.0])

    def test_spread_exact_on_a_line(self):
        from repro.graph.build import from_edge_list

        graph = from_edge_list(
            [(0, 1, 0.5), (1, 2, 0.5)], name="hopline"
        )
        est = HopEstimator(graph)
        # Two hops from {0}: node 1 w.p. 0.5, node 2 w.p. 0.25.
        assert est.spread([0], hops=2) == pytest.approx(1.75)
        # Seeds are always counted as active.
        assert est.spread([0, 1, 2], hops=1) == pytest.approx(3.0)

    def test_select_prefers_influential_nodes(self, oracle_graph):
        est = HopEstimator(oracle_graph)
        seeds, sigma = est.select(5, hops=2)
        assert len(seeds) == len(set(seeds)) == 5
        assert sigma >= 5.0
        # The chosen set cannot be worse than a random one (hop spread
        # is deterministic, so this is a strict statement, not a flaky
        # statistical one — compare against the 5 lowest scorers).
        worst = np.argsort(est.scores(2))[:5].tolist()
        assert sigma >= est.spread(worst, hops=2)

    def test_spread_monotone_in_hops(self, oracle_graph):
        est = HopEstimator(oracle_graph)
        seeds = [0, 1, 2]
        values = [est.spread(seeds, hops=h) for h in (1, 2, 3, 4)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert all(len(seeds) <= v <= oracle_graph.n for v in values)

    def test_parameter_validation(self, oracle_graph):
        est = HopEstimator(oracle_graph)
        with pytest.raises(ParameterError, match="hops"):
            est.scores(0)
        with pytest.raises(ParameterError, match="k must"):
            est.select(0)
        with pytest.raises(ParameterError, match="non-empty"):
            est.spread([])
        with pytest.raises(ParameterError, match="duplicates"):
            est.spread([1, 1])
        with pytest.raises(ParameterError, match="node ids"):
            est.spread([oracle_graph.n])

    def test_requires_weighted_graph(self):
        bare = power_law_graph(40, 3, seed=1)
        with pytest.raises(ParameterError, match="weighting"):
            HopEstimator(bare)

    def test_scores_cached_per_depth(self, oracle_graph):
        est = HopEstimator(oracle_graph)
        assert est.scores(2) is est.scores(2)


class TestConstantWeightCrossCheck:
    """The kernels also hold on constant-weight (non-WC) graphs."""

    def test_ic_constant_weights(self):
        graph = assign_constant_weights(
            power_law_graph(150, 5, seed=13, name="const"), 0.2
        )
        roots = np.random.default_rng(1).integers(0, graph.n, 80)
        rng_a = np.random.default_rng(55)
        rng_b = np.random.default_rng(55)
        *flat_a, gamma_a, _ = sample_rr_sets_ic_kernel(
            graph, roots, rng_a, "python"
        )
        *flat_b, gamma_b, _ = sample_rr_sets_ic_kernel(
            graph, roots, rng_b, "vectorized"
        )
        assert _flat_identical(flat_a, flat_b)
        assert gamma_a == gamma_b
