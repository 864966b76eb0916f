"""Tests for batched RR-set sampling: the vectorized kernel's per-model
functions and the batch-drawing :class:`RRSampler`."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.opim import OnlineOPIM
from repro.diffusion.spread import exact_spread_ic
from repro.exceptions import ParameterError
from repro.graph.build import from_edge_list
from repro.graph.generators import cycle_graph
from repro.graph.weights import assign_constant_weights
from repro.sampling.kernel import (
    SAMPLE_ONE_BATCH,
    RRSampler,
    sample_rr_sets_ic_kernel,
    sample_rr_sets_lt_kernel,
)
from repro.sampling.rrset_lt import LTAliasTables


def _sets(nodes, offsets):
    return [nodes[offsets[i] : offsets[i + 1]] for i in range(len(offsets) - 1)]


def sample_rr_sets_ic_batch(graph, roots, rng):
    nodes, offsets, edges, _ = sample_rr_sets_ic_kernel(graph, roots, rng)
    return _sets(nodes, offsets), edges


def sample_rr_sets_lt_batch(graph, roots, rng, tables):
    nodes, offsets, edges, _ = sample_rr_sets_lt_kernel(
        graph, roots, rng, tables
    )
    return _sets(nodes, offsets), edges


class TestBatchICPrimitives:
    def test_roots_lead_each_set(self, tiny_weighted_graph, rng):
        roots = np.array([0, 2, 4, 4])
        sets, _ = sample_rr_sets_ic_batch(tiny_weighted_graph, roots, rng)
        assert len(sets) == 4
        for root, nodes in zip(roots, sets):
            assert nodes[0] == root

    def test_empty_batch(self, tiny_weighted_graph, rng):
        sets, edges = sample_rr_sets_ic_batch(
            tiny_weighted_graph, np.array([], dtype=np.int64), rng
        )
        assert sets == []
        assert edges == 0

    def test_no_duplicates_within_sets(self, cliques_graph, rng):
        roots = rng.integers(0, cliques_graph.n, size=32)
        sets, _ = sample_rr_sets_ic_batch(cliques_graph, roots, rng)
        for nodes in sets:
            assert len(nodes) == len(set(nodes.tolist()))

    def test_certain_edges(self, line_graph, rng):
        sets, edges = sample_rr_sets_ic_batch(line_graph, np.array([3, 0]), rng)
        assert sorted(sets[0].tolist()) == [0, 1, 2, 3]
        assert sets[1].tolist() == [0]
        assert edges == 3  # only node-3's chain has in-edges

    def test_zero_probability(self, rng):
        g = assign_constant_weights(cycle_graph(5), 0.0)
        sets, _ = sample_rr_sets_ic_batch(g, np.arange(5), rng)
        for i, nodes in enumerate(sets):
            assert nodes.tolist() == [i]

    def test_distribution_matches_exact(self, tiny_weighted_graph):
        rng = np.random.default_rng(3)
        roots = rng.integers(0, tiny_weighted_graph.n, size=30000)
        sets, _ = sample_rr_sets_ic_batch(tiny_weighted_graph, roots, rng)
        covered = sum(1 for nodes in sets if 0 in nodes or 3 in nodes)
        estimate = tiny_weighted_graph.n * covered / len(sets)
        exact = exact_spread_ic(tiny_weighted_graph, [0, 3])
        assert estimate == pytest.approx(exact, rel=0.05)


class TestBatchLTPrimitives:
    def test_walks_are_paths(self, wc_cycle, rng):
        tables = LTAliasTables(wc_cycle)
        sets, _ = sample_rr_sets_lt_batch(wc_cycle, np.arange(6), rng, tables)
        # WC cycle: every walk traverses the full cycle then closes.
        for nodes in sets:
            assert sorted(nodes.tolist()) == list(range(6))

    def test_stop_probability(self, rng):
        g = from_edge_list([(0, 1, 0.3)])
        tables = LTAliasTables(g)
        roots = np.ones(4000, dtype=np.int64)
        sets, _ = sample_rr_sets_lt_batch(g, roots, rng, tables)
        lengths = np.array([s.size for s in sets])
        assert np.mean(lengths == 2) == pytest.approx(0.3, abs=0.03)

    def test_distribution_matches_scalar(self, small_graph):
        """One 8000-root kernel call and a sampler drawing capped
        batches (independent streams) estimate the same spread."""
        sampler = RRSampler(small_graph, "LT", seed=5)
        c_sampler = sampler.new_collection(8000)
        rng = np.random.default_rng(6)
        tables = LTAliasTables(small_graph)
        roots = rng.integers(0, small_graph.n, size=8000)
        sets, _ = sample_rr_sets_lt_batch(small_graph, roots, rng, tables)
        c_batch = sampler.new_collection()
        for nodes in sets:
            c_batch.append(nodes)
        v = int(np.argmax(c_sampler.node_coverage_counts()))
        assert c_batch.estimate_spread([v]) == pytest.approx(
            c_sampler.estimate_spread([v]), rel=0.12
        )


class TestBatchSamplerFacade:
    def test_fill_counts(self, small_graph):
        sampler = RRSampler(small_graph, "IC", seed=1)
        collection = sampler.new_collection(300)
        assert len(collection) == 300
        assert sampler.sets_generated == 300
        assert sampler.edges_examined > 0

    def test_sample_one_uses_buffer(self, small_graph):
        sampler = RRSampler(small_graph, "IC", seed=2)
        first = sampler.sample_one()
        assert first.size >= 1
        assert sampler.buffered == SAMPLE_ONE_BATCH - 1

    def test_explicit_root(self, small_graph):
        sampler = RRSampler(small_graph, "LT", seed=3)
        nodes = sampler.sample_one(root=7)
        assert nodes[0] == 7

    def test_invalid_params(self, small_graph):
        with pytest.raises(ParameterError):
            RRSampler(small_graph, "XYZ")
        with pytest.raises(ParameterError):
            RRSampler(small_graph, "IC", kernel="fortran")
        sampler = RRSampler(small_graph, "IC", seed=4)
        with pytest.raises(ParameterError):
            sampler.sample_one(root=10**6)
        with pytest.raises(ParameterError):
            sampler.fill(sampler.new_collection(), -1)

    def test_unweighted_rejected(self):
        with pytest.raises(ParameterError):
            RRSampler(from_edge_list([(0, 1)]), "IC")

    def test_injectable_into_opim(self, small_graph):
        sampler = RRSampler(small_graph, "IC", seed=5)
        algo = OnlineOPIM(small_graph, "IC", k=3, delta=0.1, sampler=sampler)
        algo.extend(2000)
        snap = algo.query()
        assert snap.alpha > 0.2

    def test_matches_scalar_sampler_statistics(self, small_graph):
        """Sets drawn one at a time (``sample_one`` with explicit
        uniform roots, one kernel call each) and in capped batches
        estimate the same spread."""
        rng = np.random.default_rng(8)
        single = RRSampler(small_graph, "IC", seed=7)
        scalar = single.new_collection()
        for root in rng.integers(0, small_graph.n, size=6000):
            scalar.append(single.sample_one(root=int(root)))
        batch = RRSampler(small_graph, "IC", seed=7).new_collection(6000)
        v = int(np.argmax(scalar.node_coverage_counts()))
        assert batch.estimate_spread([v]) == pytest.approx(
            scalar.estimate_spread([v]), rel=0.12
        )
