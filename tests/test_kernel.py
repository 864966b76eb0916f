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

from repro.exceptions import ParameterError
from repro.graph.build import from_edge_list
from repro.graph.generators import power_law_graph
from repro.graph.weights import assign_constant_weights, assign_wc_weights
from repro.obs import MetricsRegistry
from repro.sampling import kernel as kernel_module
from repro.sampling.hop import HopEstimator
from repro.sampling.kernel import (
    AUTO_KERNEL,
    KERNELS,
    ICSkipTables,
    RRSampler,
    batch_cap,
    resolve_kernel,
    resolve_seed,
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
from repro.utils.rng import auto_entropy_log, last_auto_entropy
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
        ca, cb = a.new_collection(), b.new_collection()
        for quota in (1, 49):
            a.fill(ca, quota)
            b.fill(cb, quota)
        assert _identical(ca.sets(), cb.sets())
        assert a.edges_examined == b.edges_examined

    def test_explicit_root(self, oracle_graph):
        rng = np.random.default_rng(1)
        rr, _, _, _ = sample_rr_sets_kernel(oracle_graph, "IC", [17], rng)
        assert rr[0] == 17
        for root in (-1, oracle_graph.n):
            with pytest.raises(ParameterError, match="out of range"):
                sample_rr_sets_kernel(oracle_graph, "IC", [root], rng)

    def test_requires_weighted_graph(self):
        bare = power_law_graph(40, 3, seed=1)
        with pytest.raises(ParameterError, match="weighting"):
            RRSampler(bare, "IC", seed=0)


def _row_bytes(n):
    """Bytes of one set's row of the bit-packed visited matrix."""
    return (n + 7) // 8


class TestResolveSeed:
    """Every seed form names one root seed, hence one stream."""

    def test_seed_forms(self):
        assert resolve_seed(7) == resolve_seed(np.int64(7)) == 7
        assert resolve_seed(np.random.SeedSequence(7)) == 7
        generators = np.random.default_rng(3), np.random.default_rng(3)
        assert resolve_seed(generators[0]) == resolve_seed(generators[1])
        with pytest.raises(TypeError):
            resolve_seed("7")

    def test_spawned_siblings_draw_different_streams(self, oracle_graph):
        """A spawn key is part of the seed: children of one
        ``SeedSequence`` share its entropy but not their streams."""
        streams = [
            RRSampler(oracle_graph, "IC", seed=child).new_collection(50)
            for child in np.random.SeedSequence(7).spawn(2)
        ]
        assert not _identical(streams[0].sets(), streams[1].sets())

    def test_auto_seed_is_logged_and_replayable(self, oracle_graph):
        sampler = RRSampler(oracle_graph, "LT")
        assert auto_entropy_log()[-1].origin == "RRSampler"
        replay = RRSampler(oracle_graph, "LT", seed=last_auto_entropy())
        assert _identical(
            sampler.new_collection(40).sets(), replay.new_collection(40).sets()
        )


class TestBatchCap:
    """RNG-contract item 1: fills draw batches of at most
    ``max(1, 2 MiB // ((n + 7) // 8))`` sets, a pure function of
    ``(n, count)``."""

    def test_cap_is_a_byte_budget(self):
        assert batch_cap(8000) == 2097
        assert batch_cap(300) == 2 * 1024 * 1024 // 38
        assert batch_cap(1) == 2 * 1024 * 1024
        assert batch_cap(10**8) == 1
        assert batch_cap(8 * 2 * 1024 * 1024) == 1
        assert batch_cap(8 * 2 * 1024 * 1024 + 1) == 1

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
        monkeypatch.setattr(
            kernel_module, "BATCH_BYTES", 32 * _row_bytes(oracle_graph.n)
        )
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
        assert a.next_batch == b.next_batch

    def test_multi_batch_weighted_roots_bitwise_identical(
        self, oracle_graph, monkeypatch
    ):
        monkeypatch.setattr(
            kernel_module, "BATCH_BYTES", 25 * _row_bytes(oracle_graph.n)
        )
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
        assert a.next_batch == b.next_batch


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

    @staticmethod
    def _dense_spread(graph, seeds, hops):
        """The what-if over every out-edge, each round's sums by
        ``np.add.at`` in CSR order: the reference :meth:`spread` must
        equal bit for bit."""
        owner = np.repeat(np.arange(graph.n), np.diff(graph.out_offsets))
        targets = graph.out_targets.astype(np.int64)
        reach = np.zeros(graph.n)
        reach[seeds] = 1.0
        for _ in range(hops):
            factor = np.clip(graph.out_probs * reach[owner], 0.0, 1.0 - 1e-15)
            log_miss = np.zeros(graph.n)
            np.add.at(log_miss, targets, np.log1p(-factor))
            new_reach = np.maximum(reach, 1.0 - np.exp(log_miss))
            new_reach[seeds] = 1.0
            if np.allclose(new_reach, reach, rtol=0.0, atol=1e-12):
                break
            reach = new_reach
        return float(reach.sum())

    def test_spread_equals_the_dense_reference(self, oracle_graph):
        from repro.datasets.registry import load_dataset

        rng = np.random.default_rng(300)
        for graph in (oracle_graph, load_dataset("pokec-sim", scale=0.25)):
            est = HopEstimator(graph)
            # The highest out-degree nodes holding over half the edges:
            # the first round already sums over every edge.
            by_degree = np.argsort(-np.diff(graph.out_offsets), kind="stable")
            held = np.cumsum(np.diff(graph.out_offsets)[by_degree])
            hubs = by_degree[: int(np.searchsorted(held, graph.m // 2)) + 1]
            cases = [rng.choice(graph.n, size=k, replace=False)
                     for k in (1, 5, 10, 20, 50)]
            for seeds in cases + [hubs]:
                for hops in (1, 2, 3):
                    assert est.spread(seeds.tolist(), hops) == (
                        self._dense_spread(graph, seeds, hops)
                    )


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


# ----------------------------------------------------------------------
# RNG contract v2: skip-and-thin IC on awkward graphs
# ----------------------------------------------------------------------
def _contract_graph():
    """A graph that reaches every branch of contract item 2.

    Nodes 0-59 carry non-uniform in-probabilities that sum to at most 1
    per node (so LT accepts them and IC thins); node 60 has in-edges of
    p = 1 and p = 0 (p_max = 1: gaps of 1, then thinning at ratio 0);
    node 61 has only p = 0 in-edges (p_max = 0: no draws); nodes 62
    and 63 are isolated; node 64's in-probabilities are so small that
    its gaps overflow to the ceiling.
    """
    base = power_law_graph(60, 5, seed=17, name="contract")
    sources, targets, _ = base.edge_array()
    weights = np.random.default_rng(23).random(sources.size) + 0.05
    totals = np.bincount(targets, weights=weights, minlength=64)
    scale = np.random.default_rng(29).uniform(0.3, 1.0, 64)
    probs = weights * scale[targets] / totals[targets]
    edges = list(zip(sources.tolist(), targets.tolist(), probs.tolist()))
    edges += [(3, 60, 1.0), (7, 60, 0.0), (60, 61, 0.0), (5, 61, 0.0)]
    edges += [(60, 1, 0.0), (61, 2, 0.0)]
    edges += [(1, 64, 1e-300), (2, 64, 5e-324), (64, 0, 0.1)]
    return from_edge_list(edges, n=65, name="contract")


@pytest.fixture(scope="module")
def contract_graph():
    return _contract_graph()


def _kernel_pair(call):
    """Run *call(kernel, rng)* for both kernels on one seed."""
    runs = []
    for kernel in ("python", "vectorized"):
        rng = np.random.default_rng(404)
        runs.append((call(kernel, rng), rng.bit_generator.state))
    return runs


class TestContractV2:
    """The python oracle equals the vectorized kernel on nodes, offsets,
    ``edges_examined`` and generator state, wherever item 2 branches."""

    def test_tables_on_the_contract_graph(self, contract_graph):
        tables = ICSkipTables(contract_graph)
        assert tables.live[60] and tables.log_miss[60] == -np.inf
        assert not tables.live[61] and not tables.live[62]
        assert tables.thinning is not None
        thin, ratio = tables.thinning
        lo = contract_graph.in_offsets[60]
        probs = contract_graph.in_probs[lo : lo + 2]
        assert sorted(probs.tolist()) == [0.0, 1.0]
        assert thin[lo : lo + 2].tolist() == (probs < 1.0).tolist()
        assert ratio[lo : lo + 2].tolist() == probs.tolist()

    def test_wc_graph_keeps_no_thinning_table(self, oracle_graph):
        assert ICSkipTables(oracle_graph).thinning is None

    @pytest.mark.parametrize("model", ["IC", "LT", "TRIGGERING"])
    @pytest.mark.parametrize("size", [1, 64, 600])
    def test_kernels_bitwise_identical(self, contract_graph, model, size):
        roots = np.random.default_rng(size).integers(0, 65, size)
        roots[: min(size, 5)] = [60, 61, 62, 63, 64][: min(size, 5)]
        triggering = ic_triggering_sets(contract_graph)
        tables = LTAliasTables(contract_graph) if model == "LT" else None

        def call(kernel, rng):
            return sample_rr_sets_kernel(
                contract_graph, model, roots, rng, kernel=kernel,
                lt_tables=tables, triggering_sets=triggering,
            )

        (a, state_a), (b, state_b) = _kernel_pair(call)
        assert _flat_identical(a[:2], b[:2])
        assert a[2:] == b[2:]
        assert state_a == state_b

    @pytest.mark.parametrize("model", ["IC", "LT", "TRIGGERING"])
    def test_fills_of_one_cap_and_cap_plus_one(
        self, contract_graph, model, monkeypatch
    ):
        monkeypatch.setattr(kernel_module, "BATCH_BYTES", 40 * _row_bytes(65))
        triggering = (
            ic_triggering_sets(contract_graph) if model == "TRIGGERING" else None
        )
        samplers = [
            RRSampler(
                contract_graph, model, seed=8, kernel=kernel,
                triggering_sets=triggering,
            )
            for kernel in ("python", "vectorized")
        ]
        flats = []
        for sampler in samplers:
            assert sampler.batch_cap == 40
            collection = sampler.new_collection()
            for count in (1, 40, 41):
                sampler.fill(collection, count)
            flats.append(collection.flat())
        a, b = samplers
        assert _flat_identical(*flats)
        assert a.edges_examined == b.edges_examined
        assert a.levels_advanced == b.levels_advanced
        assert a.next_batch == b.next_batch

    def test_zero_probability_nodes_draw_nothing(self):
        graph = assign_constant_weights(power_law_graph(50, 4, seed=2), 0.0)
        rng = np.random.default_rng(12)
        before = rng.bit_generator.state
        nodes, offsets, gamma, levels = sample_rr_sets_ic_kernel(
            graph, np.arange(50), rng
        )
        assert rng.bit_generator.state == before
        assert nodes.tolist() == list(range(50))
        assert gamma == graph.m and levels == 1

    def test_edges_examined_is_in_degree_of_expanded_nodes(
        self, contract_graph
    ):
        roots = np.arange(65, dtype=np.int64)
        nodes, _, gamma, _ = sample_rr_sets_ic_kernel(
            contract_graph, roots, np.random.default_rng(9)
        )
        degrees = np.diff(contract_graph.in_offsets)
        # Every node of every set is expanded exactly once.
        assert gamma == int(degrees[nodes].sum())


# ----------------------------------------------------------------------
# Contract v2 against v1: same distribution, different stream
# ----------------------------------------------------------------------
def _ic_v1(graph, count, seed, batch=2000):
    """Contract v1's IC sampler, kept as the statistical reference: one
    coin per in-edge of every frontier node, a dense visited matrix.
    Returns per-node inclusion counts and the RR-set sizes."""
    n = graph.n
    offsets, sources, probs = graph.in_offsets, graph.in_sources, graph.in_probs
    rng = np.random.default_rng(seed)
    inclusion = np.zeros(n, dtype=np.int64)
    sizes = []
    for start in range(0, count, batch):
        b = min(batch, count - start)
        visited = np.zeros((b, n), dtype=bool)
        sets = np.arange(b)
        frontier = rng.integers(0, n, size=b)
        visited[sets, frontier] = True
        while frontier.size:
            starts = offsets[frontier]
            lengths = offsets[frontier + 1] - starts
            total = int(lengths.sum())
            if total == 0:
                break
            index = np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
            index += np.arange(total)
            live = rng.random(total) < probs[index]
            hit_sets = np.repeat(sets, lengths)[live]
            hit_nodes = sources[index][live].astype(np.int64)
            fresh = ~visited[hit_sets, hit_nodes]
            codes = np.unique(hit_sets[fresh] * n + hit_nodes[fresh])
            sets, frontier = codes // n, codes % n
            visited[sets, frontier] = True
        inclusion += visited.sum(axis=0)
        sizes.append(visited.sum(axis=1))
    return inclusion, np.concatenate(sizes)


def _ic_v2(graph, count, seed):
    sampler = RRSampler(graph, "IC", seed=seed)
    nodes, offsets = sampler.new_collection(count).flat()
    return np.bincount(nodes, minlength=graph.n), np.diff(offsets)


#: Family-wise significance level of each two-sample check.
TWO_SAMPLE_ALPHA = 1e-3


def _assert_same_distribution(graph, count, entropy):
    """Two-sample tests of contract v2 against v1 at TWO_SAMPLE_ALPHA.

    * Node inclusion: a two-proportion z-test per node (each set
      includes a node or not, independently across sets), Bonferroni
      over the nodes any set reached.
    * RR-set size: a two-sample Kolmogorov-Smirnov test on the size
      histograms, asymptotic critical value (conservative for discrete
      sizes).
    """
    from statistics import NormalDist

    seeds = np.random.SeedSequence(entropy).generate_state(2)
    inc_new, sizes_new = _ic_v2(graph, count, int(seeds[0]))
    inc_old, sizes_old = _ic_v1(graph, count, int(seeds[1]))
    reached = (inc_new + inc_old) > 0
    pooled = (inc_new + inc_old)[reached] / (2.0 * count)
    spread = np.sqrt(pooled * (1.0 - pooled) * 2.0 / count)
    spread[spread == 0.0] = np.inf  # every set included the node
    z = np.abs(inc_new - inc_old)[reached] / count / spread
    z_crit = NormalDist().inv_cdf(1.0 - TWO_SAMPLE_ALPHA / (2 * reached.sum()))
    worst = int(np.argmax(z))
    assert z[worst] < z_crit, (
        f"node inclusion differs: z={z[worst]:.2f} >= {z_crit:.2f}"
    )
    top = int(max(sizes_new.max(), sizes_old.max())) + 1
    cdf_new = np.cumsum(np.bincount(sizes_new, minlength=top)) / count
    cdf_old = np.cumsum(np.bincount(sizes_old, minlength=top)) / count
    distance = float(np.abs(cdf_new - cdf_old).max())
    critical = np.sqrt(-0.5 * np.log(TWO_SAMPLE_ALPHA / 2)) * np.sqrt(2.0 / count)
    assert distance < critical, (
        f"RR-size histograms differ: KS {distance:.4f} >= {critical:.4f}"
    )
    # Means within four standard errors, for a readable failure.
    se = np.sqrt(sizes_new.var() / count + sizes_old.var() / count)
    assert abs(sizes_new.mean() - sizes_old.mean()) < 4 * se


def _two_sample_graphs():
    from repro.datasets.registry import load_dataset

    return {
        "pokec-wc": load_dataset("pokec-sim", scale=0.25),
        "non-uniform": _contract_graph(),
    }


class TestContractV2Distribution:
    """Skip-and-thin draws the same RR-set distribution as v1's coin per
    in-edge, on a WC graph (no thinning) and a thinned one."""

    @pytest.mark.parametrize("name", ["pokec-wc", "non-uniform"])
    def test_two_sample_20k(self, name, stat_entropy):
        _assert_same_distribution(_two_sample_graphs()[name], 20_000, stat_entropy)

    @pytest.mark.slow
    @pytest.mark.parametrize("name", ["pokec-wc", "non-uniform"])
    def test_two_sample_200k(self, name, stat_entropy):
        _assert_same_distribution(
            _two_sample_graphs()[name], 200_000, stat_entropy
        )
