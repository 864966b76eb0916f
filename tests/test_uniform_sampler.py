"""IC sampling on per-node-uniform probabilities (WC and constant
weights), checked against exact spreads and the cost model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.diffusion.spread import exact_spread_ic
from repro.exceptions import ParameterError
from repro.graph.generators import complete_graph, star_graph
from repro.graph.weights import assign_constant_weights
from repro.sampling.kernel import (
    RRSampler,
    sample_rr_sets_ic_kernel,
    sample_rr_sets_kernel,
)


def sample_rr_set_ic_uniform(graph, root, rng):
    nodes, _, edges, _ = sample_rr_sets_ic_kernel(graph, np.array([root]), rng)
    return nodes, edges


class TestDistribution:
    def test_matches_exact_spread(self):
        g = assign_constant_weights(star_graph(6), 0.35)
        sampler = RRSampler(g, "IC", seed=1)
        collection = sampler.new_collection(30000)
        exact = exact_spread_ic(g, [0])
        assert collection.estimate_spread([0]) == pytest.approx(exact, rel=0.05)

    def test_matches_generic_sampler_on_wc(self, medium_graph):
        """Two independent streams on WC weights agree on the spread of
        the most-covered node."""
        generic = RRSampler(medium_graph, "IC", seed=2).new_collection(6000)
        uniform = RRSampler(medium_graph, "IC", seed=3).new_collection(6000)
        v = int(np.argmax(generic.node_coverage_counts()))
        assert uniform.estimate_spread([v]) == pytest.approx(
            generic.estimate_spread([v]), rel=0.12
        )

    def test_no_duplicates(self, medium_graph):
        rng = np.random.default_rng(4)
        for root in range(0, 50, 7):
            nodes, _ = sample_rr_set_ic_uniform(medium_graph, root, rng)
            assert len(nodes) == len(set(nodes.tolist()))
            assert nodes[0] == root

    def test_p_one_reaches_all_ancestors(self, line_graph):
        rng = np.random.default_rng(5)
        nodes, edges = sample_rr_set_ic_uniform(line_graph, 3, rng)
        assert sorted(nodes.tolist()) == [0, 1, 2, 3]
        assert edges == 3

    def test_p_zero_stays_at_root(self):
        g = assign_constant_weights(complete_graph(4), 0.0)
        rng = np.random.default_rng(6)
        nodes, edges = sample_rr_set_ic_uniform(g, 1, rng)
        assert nodes.tolist() == [1]
        assert edges == 3  # cost model still charges the in-degree


class TestSamplerFacade:
    def test_counters_and_injection(self, medium_graph):
        from repro.core.opim import OnlineOPIM

        sampler = RRSampler(medium_graph, "IC", seed=7)
        algo = OnlineOPIM(medium_graph, "IC", k=3, delta=0.1, sampler=sampler)
        algo.extend(2000)
        snap = algo.query()
        assert snap.alpha > 0.2
        assert sampler.sets_generated == 2000
        assert sampler.edges_examined > 0

    def test_invalid_root(self, medium_graph):
        with pytest.raises(ParameterError):
            sample_rr_sets_kernel(
                medium_graph, "IC", [-1], np.random.default_rng(8)
            )
