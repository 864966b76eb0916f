"""Tests for RR-set sampling: alias tables, IC/LT kernels on single
roots, collections, and the streaming RRSampler."""

from __future__ import annotations

import hashlib
import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.registry import load_dataset
from repro.diffusion.spread import exact_spread_ic
from repro.exceptions import ParameterError
from repro.graph.build import from_edge_list
from repro.graph.digraph import DiGraph
from repro.graph.generators import complete_graph, cycle_graph
from repro.graph.weights import assign_constant_weights
from repro.sampling import alias as alias_module
from repro.sampling.alias import (
    AliasTable,
    build_alias_arrays,
    build_alias_segments,
)
from repro.sampling.collection import RRCollection
from repro.sampling.kernel import (
    RRSampler,
    sample_rr_sets_ic_kernel,
    sample_rr_sets_lt_kernel,
)
from repro.sampling.rrset_lt import LTAliasTables
from repro.sampling.rrset_triggering import lt_triggering_sets


def _sets(nodes, offsets):
    return [nodes[offsets[i] : offsets[i + 1]] for i in range(len(offsets) - 1)]


def sample_rr_set_ic(graph, root, rng):
    nodes, _, edges, _ = sample_rr_sets_ic_kernel(graph, np.array([root]), rng)
    return nodes, edges


def sample_rr_set_lt(graph, root, rng, tables):
    nodes, _, edges, _ = sample_rr_sets_lt_kernel(
        graph, np.array([root]), rng, tables
    )
    return nodes, edges


class TestAliasTable:
    def test_uniform_weights(self, rng):
        table = AliasTable(np.ones(4))
        draws = table.sample(8000, seed=rng)
        counts = np.bincount(draws, minlength=4) / 8000
        assert np.allclose(counts, 0.25, atol=0.03)

    def test_skewed_weights(self, rng):
        table = AliasTable([1.0, 9.0])
        draws = table.sample(8000, seed=rng)
        assert np.mean(draws) == pytest.approx(0.9, abs=0.02)

    def test_single_outcome(self):
        table = AliasTable([3.0])
        assert table.sample(seed=1) == 0

    def test_scalar_sample(self):
        table = AliasTable([1.0, 1.0])
        value = table.sample(seed=5)
        assert value in (0, 1)

    def test_probabilities_reconstruction_exact(self):
        weights = np.array([1.0, 2.0, 3.0, 4.0])
        table = AliasTable(weights)
        assert np.allclose(table.probabilities(), weights / weights.sum())

    @given(
        weights=st.lists(
            st.floats(0.01, 100.0, allow_nan=False), min_size=1, max_size=12
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_probabilities_reconstruction_property(self, weights):
        weights = np.asarray(weights)
        table = AliasTable(weights)
        assert np.allclose(
            table.probabilities(), weights / weights.sum(), atol=1e-9
        )

    @pytest.mark.parametrize(
        "weights", [[], [-1.0], [0.0], [float("nan")], [float("inf")]]
    )
    def test_invalid_weights(self, weights):
        with pytest.raises(ParameterError):
            build_alias_arrays(np.asarray(weights, dtype=float))

    def test_2d_rejected(self):
        with pytest.raises(ParameterError):
            build_alias_arrays(np.ones((2, 2)))

    def test_zero_weight_entry_never_sampled(self):
        table = AliasTable([0.0, 1.0])
        draws = table.sample(2000, seed=3)
        assert np.all(draws == 1)


def per_segment_tables(weights, offsets):
    """The per-node reference: one ``build_alias_arrays`` per segment
    with a positive sum; other segments keep accept 1 and alias 0."""
    accept = np.ones(weights.size, dtype=np.float64)
    alias = np.zeros(weights.size, dtype=np.int64)
    totals = np.zeros(offsets.size - 1, dtype=np.float64)
    for u in range(offsets.size - 1):
        lo, hi = int(offsets[u]), int(offsets[u + 1])
        if hi == lo:
            continue
        totals[u] = weights[lo:hi].sum()
        if totals[u] > 0.0:
            accept[lo:hi], alias[lo:hi] = build_alias_arrays(weights[lo:hi])
    return accept, alias, totals


def layout(degrees):
    return np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)


def random_lt_graph(n, degrees, seed):
    """A graph whose node ``v`` has ``degrees[v]`` in-edges with random
    non-uniform LT weights (in-sums 0.9)."""
    rng = np.random.default_rng(seed)
    targets = np.repeat(np.arange(n), degrees)
    sources = np.concatenate(
        [rng.choice(np.delete(np.arange(n), v), d, replace=False)
         for v, d in enumerate(degrees)]
    )
    weights = rng.random(targets.size) ** 2 + 1e-3
    sums = np.bincount(targets, weights=weights, minlength=n)
    return DiGraph(n, sources, targets, 0.9 * weights / sums[targets])


class ScriptedRng:
    """Returns the scripted draws in order, for ``random`` and
    ``integers`` alike."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)

    def integers(self, low, high):
        return self.draws.pop(0)


#: Cut-overs that force the all-lockstep path, the default split and
#: the all-scalar path.
FINISHES = [0, alias_module.SCALAR_FINISH, 10**9]

#: A hub far above the default cut-over: it outlives the lockstep phase.
HUB_DEGREE = 20 * alias_module.SCALAR_FINISH + 3000


class TestSegmentedAliasTables:
    """``build_alias_segments`` against the per-node reference, bit for
    bit: the python/vectorized kernel oracle reads one set of tables on
    both sides, so only this comparison catches a table change."""

    def assert_matches(self, weights, offsets):
        weights = np.asarray(weights, dtype=np.float64)
        for got, want in zip(
            build_alias_segments(weights, offsets),
            per_segment_tables(weights, offsets),
        ):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)

    @pytest.fixture(params=FINISHES, ids=["lockstep", "default", "scalar"])
    def finish(self, request, monkeypatch):
        monkeypatch.setattr(alias_module, "SCALAR_FINISH", request.param)

    def test_pokec_wc(self, finish):
        g = load_dataset("pokec-sim", scale=0.25)
        self.assert_matches(g.in_probs, g.in_offsets)

    def test_random_weights_with_hub(self, finish):
        rng = np.random.default_rng(5)
        degrees = rng.integers(0, 20, size=400)
        degrees[17] = HUB_DEGREE
        self.assert_matches(rng.random(degrees.sum()) ** 3, layout(degrees))

    def test_one_long_distribution(self, finish):
        rng = np.random.default_rng(6)
        self.assert_matches(rng.random(9000), layout([9000]))

    def test_zero_in_degree_nodes(self, finish):
        rng = np.random.default_rng(7)
        degrees = np.tile([0, 3, 0, 0, 5, 1], 20)
        self.assert_matches(rng.random(degrees.sum()), layout(degrees))

    def test_all_zero_probability_nodes(self, finish):
        rng = np.random.default_rng(8)
        degrees = np.tile([4, 2, 6], 20)
        weights = rng.random(degrees.sum())
        weights[:4] = 0.0
        weights[layout(degrees)[7] : layout(degrees)[9]] = 0.0
        weights[rng.random(weights.size) < 0.2] = 0.0
        accept, alias, totals = build_alias_segments(weights, layout(degrees))
        assert totals[0] == 0.0 and totals[7] == 0.0 and totals[8] == 0.0
        assert np.all(accept[:4] == 1.0) and np.all(alias[:4] == 0)
        self.assert_matches(weights, layout(degrees))

    def test_single_in_edge_nodes(self, finish):
        rng = np.random.default_rng(9)
        degrees = np.ones(100, dtype=np.int64)
        accept, alias, _ = build_alias_segments(rng.random(100), layout(degrees))
        assert np.all(accept == 1.0) and np.all(alias == 0)
        self.assert_matches(rng.random(100), layout(degrees))

    def test_all_equal_weights_pair_nothing(self, finish):
        degrees = np.arange(1, 60)
        weights = np.repeat(1.0 / degrees, degrees)
        offsets = layout(degrees)
        _, alias, _ = build_alias_segments(weights, offsets)
        local = np.arange(offsets[-1]) - np.repeat(offsets[:-1], degrees)
        assert np.array_equal(alias, local)
        self.assert_matches(weights, offsets)

    def test_columns_scaled_to_exactly_one(self, finish):
        # [1, 2, 3] scales to [0.5, 1.0, 1.5]: a column at exactly 1.0
        # starts on the large stack, as in the list loop.
        degrees = np.tile([3, 4, 5], 20)
        weights = np.concatenate([np.arange(1.0, d + 1) for d in degrees])
        self.assert_matches(weights, layout(degrees))

    def test_empty_layout(self):
        self.assert_matches(np.zeros(0), layout([0, 0, 0]))

    @given(
        rows=st.lists(
            st.lists(
                st.one_of(
                    st.just(0.0),
                    st.floats(1e-6, 1.0),
                    st.integers(1, 4).map(float),
                ),
                max_size=40,
            ),
            max_size=60,
        ),
        finish=st.sampled_from(FINISHES),
    )
    @settings(max_examples=80, deadline=None)
    def test_random_layouts_property(self, rows, finish):
        weights = np.asarray([w for row in rows for w in row], dtype=np.float64)
        offsets = layout([len(row) for row in rows])
        with mock.patch.object(alias_module, "SCALAR_FINISH", finish):
            self.assert_matches(weights, offsets)

    def test_lt_alias_tables_use_the_reference_tables(self):
        g = random_lt_graph(300, np.arange(300) % 13, seed=10)
        tables = LTAliasTables(g)
        accept, alias, totals = per_segment_tables(g.in_probs, g.in_offsets)
        assert np.array_equal(tables.accept, accept)
        assert np.array_equal(tables.alias, alias)
        expected = np.minimum(g.in_prob_sums(), 1.0)
        expected[totals <= 0.0] = 0.0
        assert np.array_equal(tables.continue_prob, expected)

    def test_lt_triggering_sets_yield_the_same_tables(self):
        """Script each column's coins: the draw equal to the reference
        accept falls to the alias, the float just below keeps the column,
        so the sampler's accept and alias match the reference exactly."""
        g = random_lt_graph(120, np.arange(120) % 9, seed=11)
        sample = lt_triggering_sets(g)
        accept, alias, _ = per_segment_tables(g.in_probs, g.in_offsets)
        sources = g.in_sources
        for u in range(g.n):
            lo, hi = int(g.in_offsets[u]), int(g.in_offsets[u + 1])
            for column in range(hi - lo):
                keep = np.nextafter(accept[lo + column], 0.0)
                for coin, picked in (
                    (accept[lo + column], lo + alias[lo + column]),
                    (keep, lo + column),
                ):
                    got = sample(u, ScriptedRng([0.0, column, coin]))
                    assert got.tolist() == [sources[picked]]


def stream_digest(sampler, count=4000):
    """sha256 of the first *count* RR sets (flat nodes, then offsets)
    and of the generator state after them."""
    collection = sampler.new_collection(count)
    sets = [np.asarray(collection.get(i), dtype=np.int64) for i in range(count)]
    offsets = np.cumsum([0] + [s.size for s in sets], dtype=np.int64)
    digest = hashlib.sha256()
    digest.update(np.concatenate(sets).tobytes())
    digest.update(offsets.tobytes())
    state = sampler.rng.bit_generator.state
    digest.update(json.dumps(state, sort_keys=True).encode())
    return digest.hexdigest()


class TestPinnedLTStreams:
    """The LT streams of RNG contract v2 (index format 4), pinned: tables
    built another way must leave every RR set and the generator state
    where they were.  Contract v2 changed them only through the wider
    batches of its bit-packed visited matrix."""

    @pytest.fixture(scope="class")
    def pokec(self):
        return load_dataset("pokec-sim", scale=0.25)

    def test_lt_stream(self, pokec):
        sampler = RRSampler(pokec, "LT", seed=2018)
        assert stream_digest(sampler) == (
            "7a3574008908fa261b980ae1c2ae21b94452a74cd40af2410b319024f5a1c05d"
        )

    def test_lt_triggering_stream(self, pokec):
        sampler = RRSampler(
            pokec, "TRIGGERING", seed=2018,
            triggering_sets=lt_triggering_sets(pokec),
        )
        assert stream_digest(sampler) == (
            "48c917a26293bd69ffdc1c2c8975b8081efa76467776db743d19b52ccc369d9b"
        )


class TestPinnedICStream:
    """The IC stream of RNG contract v2 (skip and thin, index format 4),
    pinned: a kernel change must leave every RR set and the generator
    state where they were."""

    def test_ic_stream(self):
        sampler = RRSampler(load_dataset("pokec-sim", scale=0.25), "IC", seed=2018)
        assert stream_digest(sampler) == (
            "cf2eb0773a40b5fe1c5265aa889f071fcbc8cd6b58db8ffae99ee5e52444ee9c"
        )


class TestICSampler:
    def test_root_always_included(self, tiny_weighted_graph, rng):
        nodes, _ = sample_rr_set_ic(tiny_weighted_graph, 3, rng)
        assert nodes[0] == 3

    def test_certain_edges_give_ancestors(self, line_graph, rng):
        # p = 1 everywhere: RR set of node 3 is all its ancestors.
        nodes, edges = sample_rr_set_ic(line_graph, 3, rng)
        assert sorted(nodes.tolist()) == [0, 1, 2, 3]
        assert edges == 3

    def test_zero_edges_gives_singleton(self, rng):
        g = assign_constant_weights(cycle_graph(4), 0.0)
        nodes, edges = sample_rr_set_ic(g, 2, rng)
        assert nodes.tolist() == [2]
        assert edges == 1  # the root's single in-edge was examined

    def test_no_duplicate_nodes(self, cliques_graph, rng):
        for _ in range(50):
            nodes, _ = sample_rr_set_ic(cliques_graph, 0, rng)
            assert len(nodes) == len(set(nodes.tolist()))

    def test_scratch_reuse_isolated_between_samples(self, cliques_graph, rng):
        """Sets sharing one batch keep separate visited rows: the same
        root twice may reach the same nodes in both sets."""
        sets = _sets(*sample_rr_sets_ic_kernel(
            cliques_graph, np.array([0, 5, 0]), rng
        )[:2])
        assert [s[0] for s in sets] == [0, 5, 0]
        for nodes in sets:
            assert len(nodes) == len(set(nodes.tolist()))

    def test_edges_examined_counts_inspected_edges(self, rng):
        g = assign_constant_weights(complete_graph(5), 0.0)
        _, edges = sample_rr_set_ic(g, 0, rng)
        assert edges == 4  # in-degree of the root, all failing


class TestLTSampler:
    @pytest.fixture
    def wc_cycle_tables(self, wc_cycle):
        return LTAliasTables(wc_cycle)

    def test_walk_is_a_path(self, wc_cycle, wc_cycle_tables, rng):
        nodes, _ = sample_rr_set_lt(wc_cycle, 0, rng, wc_cycle_tables)
        assert len(nodes) == len(set(nodes.tolist()))
        assert nodes[0] == 0

    def test_wc_cycle_walk_stops_at_cycle(self, wc_cycle, wc_cycle_tables, rng):
        # Continuation probability is 1 on every node, so the walk only
        # stops by revisiting: the RR set is the entire cycle.
        nodes, edges = sample_rr_set_lt(wc_cycle, 0, rng, wc_cycle_tables)
        assert sorted(nodes.tolist()) == list(range(6))
        assert edges == 6

    def test_no_in_edges_singleton(self, rng):
        g = from_edge_list([(0, 1, 0.5)], n=3)
        tables = LTAliasTables(g)
        nodes, edges = sample_rr_set_lt(g, 0, rng, tables)
        assert nodes.tolist() == [0]
        assert edges == 0

    def test_stop_probability(self, rng):
        # Node 1 has one in-edge weight 0.3: walk continues w.p. 0.3.
        g = from_edge_list([(0, 1, 0.3)])
        tables = LTAliasTables(g)
        lengths = [
            sample_rr_set_lt(g, 1, rng, tables)[0].size for _ in range(4000)
        ]
        assert np.mean([x == 2 for x in lengths]) == pytest.approx(0.3, abs=0.03)

    def test_in_neighbor_choice_proportional(self, rng):
        g = from_edge_list([(0, 2, 0.75), (1, 2, 0.25)])
        tables = LTAliasTables(g)
        sets = _sets(*sample_rr_sets_lt_kernel(
            g, np.full(4000, 2), rng, tables
        )[:2])
        # In-weights sum to 1, so every walk takes one step from node 2.
        picks = [int(nodes[1]) for nodes in sets]
        assert np.mean([p == 0 for p in picks]) == pytest.approx(0.75, abs=0.03)

    def test_invalid_lt_graph_rejected(self):
        g = from_edge_list([(0, 2, 0.7), (1, 2, 0.7)])
        with pytest.raises(Exception):
            LTAliasTables(g)


class TestRRCollection:
    def test_append_and_len(self):
        c = RRCollection(5)
        c.append(np.array([0, 1]))
        c.append(np.array([2]))
        assert len(c) == 2
        assert c.total_size == 3

    def test_empty_rr_set_rejected(self):
        c = RRCollection(5)
        with pytest.raises(ParameterError):
            c.append(np.array([], dtype=np.int32))

    def test_invalid_n(self):
        with pytest.raises(ParameterError):
            RRCollection(0)

    def test_coverage_manual(self):
        c = RRCollection(6)
        c.extend([np.array([0, 1]), np.array([1, 2]), np.array([3])])
        assert c.coverage([1]) == 2
        assert c.coverage([0, 3]) == 2
        assert c.coverage([5]) == 0
        assert c.coverage([]) == 0

    def test_coverage_fraction(self):
        c = RRCollection(4)
        c.extend([np.array([0]), np.array([1])])
        assert c.coverage_fraction([0]) == 0.5
        assert RRCollection(4).coverage_fraction([0]) == 0.0

    def test_estimate_spread(self):
        c = RRCollection(10)
        c.extend([np.array([0]), np.array([0]), np.array([1]), np.array([2])])
        # Lambda({0}) = 2 of 4 -> spread = 10 * 2/4 = 5.
        assert c.estimate_spread([0]) == pytest.approx(5.0)

    def test_estimate_spread_empty_collection(self):
        with pytest.raises(ParameterError):
            RRCollection(4).estimate_spread([0])

    def test_seed_out_of_range(self):
        c = RRCollection(3)
        c.append(np.array([0]))
        with pytest.raises(ParameterError):
            c.coverage([7])

    def test_node_coverage_counts(self):
        c = RRCollection(4)
        c.extend([np.array([0, 1]), np.array([1]), np.array([1, 3])])
        assert c.node_coverage_counts().tolist() == [1, 3, 0, 1]

    def test_rr_sets_containing(self):
        c = RRCollection(4)
        c.extend([np.array([0, 1]), np.array([1]), np.array([2])])
        assert sorted(c.rr_sets_containing(1).tolist()) == [0, 1]
        assert c.rr_sets_containing(3).size == 0

    def test_incremental_build(self):
        c = RRCollection(4)
        c.append(np.array([0]))
        assert c.coverage([0]) == 1
        c.append(np.array([0, 1]))  # after a build
        assert c.coverage([0]) == 2
        assert c.coverage([1]) == 1

    def test_get_and_sets(self):
        c = RRCollection(4)
        c.append(np.array([2, 3]))
        assert c.get(0).tolist() == [2, 3]
        assert len(c.sets()) == 1

    @given(
        data=st.lists(
            st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True),
            min_size=1,
            max_size=15,
        ),
        seeds=st.lists(st.integers(0, 7), min_size=0, max_size=3, unique=True),
    )
    @settings(max_examples=60, deadline=None)
    def test_coverage_matches_naive(self, data, seeds):
        c = RRCollection(8)
        for nodes in data:
            c.append(np.array(nodes, dtype=np.int32))
        naive = sum(1 for nodes in data if set(nodes) & set(seeds))
        assert c.coverage(seeds) == naive


class TestRRSampler:
    def test_models_dispatch(self, medium_graph):
        for model in ("IC", "LT", "ic", "lt"):
            sampler = RRSampler(medium_graph, model, seed=1)
            nodes = sampler.sample_one()
            assert nodes.size >= 1

    def test_unknown_model(self, medium_graph):
        with pytest.raises(ParameterError):
            RRSampler(medium_graph, "XYZ")

    def test_unweighted_graph_rejected(self):
        with pytest.raises(ParameterError):
            RRSampler(from_edge_list([(0, 1)]), "IC")

    def test_fill_and_counters(self, medium_graph):
        sampler = RRSampler(medium_graph, "IC", seed=2)
        c = sampler.new_collection(100)
        assert len(c) == 100
        assert sampler.sets_generated == 100
        assert sampler.edges_examined > 0

    def test_explicit_root(self, medium_graph):
        sampler = RRSampler(medium_graph, "IC", seed=3)
        nodes = sampler.sample_one(root=5)
        assert nodes[0] == 5

    def test_root_out_of_range(self, medium_graph):
        sampler = RRSampler(medium_graph, "IC", seed=3)
        with pytest.raises(ParameterError):
            sampler.sample_one(root=10**6)

    def test_negative_count(self, medium_graph):
        sampler = RRSampler(medium_graph, "IC", seed=3)
        with pytest.raises(ParameterError):
            sampler.fill(sampler.new_collection(), -1)

    def test_mismatched_collection(self, medium_graph, tiny_weighted_graph):
        sampler = RRSampler(medium_graph, "IC", seed=3)
        wrong = RRCollection(tiny_weighted_graph.n)
        with pytest.raises(ParameterError):
            sampler.fill(wrong, 1)

    def test_deterministic_given_seed(self, medium_graph):
        a = RRSampler(medium_graph, "LT", seed=77).sample_one()
        b = RRSampler(medium_graph, "LT", seed=77).sample_one()
        assert np.array_equal(a, b)


class TestLemma31Unbiasedness:
    """sigma(S) = n * Pr[S covers a random RR set] (Lemma 3.1)."""

    @pytest.mark.parametrize("seed_set", [[0], [3], [0, 3]])
    def test_ic_rr_estimate_matches_exact(self, tiny_weighted_graph, seed_set):
        sampler = RRSampler(tiny_weighted_graph, "IC", seed=11)
        collection = sampler.new_collection(30000)
        exact = exact_spread_ic(tiny_weighted_graph, seed_set)
        estimate = collection.estimate_spread(seed_set)
        assert estimate == pytest.approx(exact, rel=0.05)

    def test_lt_rr_estimate_matches_mc(self, small_graph):
        from repro.diffusion.spread import monte_carlo_spread

        sampler = RRSampler(small_graph, "LT", seed=13)
        collection = sampler.new_collection(15000)
        seeds = [int(np.argmax(collection.node_coverage_counts()))]
        estimate = collection.estimate_spread(seeds)
        mc = monte_carlo_spread(small_graph, seeds, "LT", num_samples=8000, seed=14)
        low, high = mc.confidence_interval(z=4.0)
        assert low * 0.95 <= estimate <= high * 1.05
