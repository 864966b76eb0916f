"""Tests for induced subgraphs and graph reversal."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.graph.build import from_edge_list
from repro.graph.generators import power_law_graph
from repro.graph.transform import induced_subgraph, reverse_graph
from repro.graph.weights import assign_wc_weights


class TestInducedSubgraph:
    def test_keeps_internal_edges_only(self):
        g = from_edge_list([(0, 1, 0.1), (1, 2, 0.2), (2, 3, 0.3), (3, 0, 0.4)])
        sub, kept = induced_subgraph(g, [0, 1, 2])
        assert kept.tolist() == [0, 1, 2]
        assert sub.n == 3
        assert sub.m == 2  # 0->1 and 1->2; edges touching 3 dropped
        assert sub.edge_probability(0, 1) == pytest.approx(0.1)

    def test_relabeling(self):
        g = from_edge_list([(2, 5, 0.7)], n=6)
        sub, kept = induced_subgraph(g, [5, 2])
        assert kept.tolist() == [2, 5]
        assert sub.has_edge(0, 1)  # 2 -> 0, 5 -> 1

    def test_duplicate_nodes_collapse(self):
        g = from_edge_list([(0, 1)], n=3)
        sub, kept = induced_subgraph(g, [1, 1, 0])
        assert sub.n == 2

    def test_unweighted_stays_unweighted(self):
        g = from_edge_list([(0, 1)])
        sub, _ = induced_subgraph(g, [0, 1])
        assert not sub.weighted

    def test_invalid_nodes(self):
        g = from_edge_list([(0, 1)])
        with pytest.raises(ParameterError):
            induced_subgraph(g, [])
        with pytest.raises(ParameterError):
            induced_subgraph(g, [99])

    def test_giant_component_slicing(self):
        from repro.graph.components import (
            component_sizes,
            weakly_connected_components,
        )

        g = from_edge_list([(0, 1), (1, 2), (3, 4)], n=6)
        labels = weakly_connected_components(g)
        giant = int(np.argmax(component_sizes(labels)))
        sub, kept = induced_subgraph(g, np.flatnonzero(labels == giant))
        assert sub.n == 3
        assert sub.m == 2


class TestReverseGraph:
    def test_edges_flipped(self):
        g = from_edge_list([(0, 1, 0.5), (1, 2, 0.25)])
        rev = reverse_graph(g)
        assert rev.has_edge(1, 0)
        assert rev.has_edge(2, 1)
        assert not rev.has_edge(0, 1)
        assert rev.edge_probability(1, 0) == 0.5

    def test_degree_swap(self):
        g = power_law_graph(100, 4, seed=1)
        rev = reverse_graph(g)
        assert np.array_equal(rev.in_degree(), g.out_degree())
        assert np.array_equal(rev.out_degree(), g.in_degree())

    def test_involution(self):
        g = from_edge_list([(0, 1, 0.5), (2, 0, 0.3)])
        assert reverse_graph(reverse_graph(g)) == g

    def test_rr_forward_duality(self):
        """An IC RR set rooted at v on G has the distribution of a
        forward cascade from v on reverse(G): check the expected sizes
        agree."""
        from repro.diffusion.spread import monte_carlo_spread
        from repro.sampling.kernel import sample_rr_sets_ic_kernel

        g = assign_wc_weights(power_law_graph(150, 5, seed=3))
        rev = reverse_graph(g)
        root = int(np.argmax(g.in_degree()))
        rng = np.random.default_rng(4)
        _, offsets, _, _ = sample_rr_sets_ic_kernel(g, np.full(4000, root), rng)
        rr_mean = np.mean(np.diff(offsets))
        forward = monte_carlo_spread(rev, [root], "IC", num_samples=4000, seed=5)
        assert rr_mean == pytest.approx(forward.mean, rel=0.08)
