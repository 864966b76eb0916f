"""Tests for general triggering-model RR-set sampling and its
injection into OPIM (paper, Section 6 / Appendix A)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.opim import OnlineOPIM
from repro.diffusion.spread import exact_spread_ic
from repro.exceptions import ParameterError
from repro.graph.build import from_edge_list
from repro.graph.generators import complete_graph, cycle_graph
from repro.graph.weights import assign_constant_weights, assign_wc_weights
from repro.sampling.kernel import (
    RRSampler,
    sample_rr_sets_kernel,
    sample_rr_sets_triggering_kernel,
)
from repro.sampling.rrset_triggering import (
    fixed_size_triggering_sets,
    ic_triggering_sets,
    lt_triggering_sets,
)


def triggering_sampler(graph, triggering_sets, seed=None):
    return RRSampler(
        graph, "TRIGGERING", seed=seed, triggering_sets=triggering_sets
    )


def sample_rr_set_triggering(graph, root, rng, triggering_sets):
    nodes, _, edges, _ = sample_rr_sets_triggering_kernel(
        graph, np.array([root]), rng, triggering_sets
    )
    return nodes, edges


class TestTriggeringSetSamplers:
    def test_ic_sets_marginals(self, rng):
        g = from_edge_list([(0, 2, 0.3), (1, 2, 0.8)])
        sampler = ic_triggering_sets(g)
        hits = np.zeros(2)
        trials = 4000
        for _ in range(trials):
            t = sampler(2, rng)
            if 0 in t:
                hits[0] += 1
            if 1 in t:
                hits[1] += 1
        assert hits[0] / trials == pytest.approx(0.3, abs=0.03)
        assert hits[1] / trials == pytest.approx(0.8, abs=0.03)

    def test_ic_sets_unweighted_rejected(self):
        with pytest.raises(ParameterError):
            ic_triggering_sets(from_edge_list([(0, 1)]))

    def test_lt_sets_at_most_one(self, rng):
        g = assign_wc_weights(complete_graph(5))
        sampler = lt_triggering_sets(g)
        for _ in range(100):
            assert sampler(0, rng).size <= 1

    def test_lt_sets_marginals(self, rng):
        g = from_edge_list([(0, 2, 0.25), (1, 2, 0.5)])
        sampler = lt_triggering_sets(g)
        counts = {0: 0, 1: 0, "none": 0}
        trials = 4000
        for _ in range(trials):
            t = sampler(2, rng)
            if t.size == 0:
                counts["none"] += 1
            else:
                counts[int(t[0])] += 1
        assert counts[0] / trials == pytest.approx(0.25, abs=0.03)
        assert counts[1] / trials == pytest.approx(0.5, abs=0.03)
        assert counts["none"] / trials == pytest.approx(0.25, abs=0.03)

    def test_fixed_size_sets(self, rng):
        g = assign_constant_weights(complete_graph(6), 0.5)
        sampler = fixed_size_triggering_sets(g, 2)
        for _ in range(50):
            t = sampler(0, rng)
            assert t.size == 2
            assert len(set(t.tolist())) == 2

    def test_fixed_size_caps_at_degree(self, rng):
        g = assign_constant_weights(cycle_graph(4), 0.5)
        sampler = fixed_size_triggering_sets(g, 10)
        assert sampler(1, rng).size == 1  # in-degree is 1

    def test_fixed_size_zero(self, rng):
        g = assign_constant_weights(cycle_graph(4), 0.5)
        sampler = fixed_size_triggering_sets(g, 0)
        assert sampler(1, rng).size == 0

    def test_fixed_size_negative_rejected(self):
        g = assign_constant_weights(cycle_graph(4), 0.5)
        with pytest.raises(ParameterError):
            fixed_size_triggering_sets(g, -1)


class TestTriggeringRRSets:
    def test_root_included(self, tiny_weighted_graph, rng):
        sampler = ic_triggering_sets(tiny_weighted_graph)
        nodes, _ = sample_rr_set_triggering(tiny_weighted_graph, 3, rng, sampler)
        assert nodes[0] == 3

    def test_no_duplicates(self, cliques_graph, rng):
        sampler = ic_triggering_sets(cliques_graph)
        for _ in range(50):
            nodes, _ = sample_rr_set_triggering(cliques_graph, 0, rng, sampler)
            assert len(nodes) == len(set(nodes.tolist()))

    def test_edges_examined_charged_per_in_degree(self, rng):
        g = assign_constant_weights(complete_graph(4), 0.0)
        sampler = ic_triggering_sets(g)
        _, edges = sample_rr_set_triggering(g, 0, rng, sampler)
        assert edges == 3  # root's in-degree, nothing triggered

    def test_ic_equivalence_in_distribution(self, tiny_weighted_graph):
        """Triggering-based IC RR sets give unbiased spread estimates
        (Lemma 3.1), checked against the exact spread."""
        generic = triggering_sampler(
            tiny_weighted_graph, ic_triggering_sets(tiny_weighted_graph), seed=5
        )
        collection = generic.new_collection(20000)
        exact = exact_spread_ic(tiny_weighted_graph, [0])
        assert collection.estimate_spread([0]) == pytest.approx(exact, rel=0.05)

    def test_lt_equivalence_in_distribution(self, small_graph):
        """Triggering-based LT RR sets match the dedicated LT random-walk
        kernel's spread estimates."""
        generic = triggering_sampler(
            small_graph, lt_triggering_sets(small_graph), seed=6
        )
        dedicated = RRSampler(small_graph, "LT", seed=7)
        c1 = generic.new_collection(8000)
        c2 = dedicated.new_collection(8000)
        seeds = [int(np.argmax(c2.node_coverage_counts()))]
        assert c1.estimate_spread(seeds) == pytest.approx(
            c2.estimate_spread(seeds), rel=0.12
        )


class TestTriggeringSamplerFacade:
    def test_counters(self, small_graph):
        sampler = triggering_sampler(
            small_graph, ic_triggering_sets(small_graph), seed=1
        )
        sampler.new_collection(50)
        assert sampler.sets_generated == 50
        assert sampler.edges_examined > 0

    def test_bad_root(self, small_graph):
        with pytest.raises(ParameterError):
            sample_rr_sets_kernel(
                small_graph, "TRIGGERING", [10**6], np.random.default_rng(1),
                triggering_sets=ic_triggering_sets(small_graph),
            )

    def test_negative_count(self, small_graph):
        sampler = triggering_sampler(
            small_graph, ic_triggering_sets(small_graph), seed=1
        )
        with pytest.raises(ParameterError):
            sampler.fill(sampler.new_collection(), -1)

    def test_mismatched_collection(self, small_graph, tiny_weighted_graph):
        from repro.sampling.collection import RRCollection

        sampler = triggering_sampler(
            small_graph, ic_triggering_sets(small_graph), seed=1
        )
        with pytest.raises(ParameterError):
            sampler.fill(RRCollection(tiny_weighted_graph.n), 1)


class TestOPIMInjection:
    def test_opim_with_generic_ic_sampler(self, small_graph):
        sampler = triggering_sampler(
            small_graph, ic_triggering_sets(small_graph), seed=9
        )
        algo = OnlineOPIM(small_graph, "IC", k=3, delta=0.1, sampler=sampler)
        algo.extend(2000)
        assert algo.query().alpha > 0.2

    def test_opim_with_non_standard_triggering(self, small_graph):
        """OPIM's guarantees are triggering-model generic (Section 6):
        a non-IC/LT instance runs through the same machinery."""
        sampler = triggering_sampler(
            small_graph, fixed_size_triggering_sets(small_graph, 1), seed=10
        )
        algo = OnlineOPIM(small_graph, "IC", k=3, delta=0.1, sampler=sampler)
        algo.extend(2000)
        snap = algo.query()
        assert 0.0 <= snap.alpha <= 1.0
        assert len(snap.seeds) == 3

    def test_sampler_graph_mismatch_rejected(self, small_graph, medium_graph):
        sampler = triggering_sampler(
            medium_graph, ic_triggering_sets(medium_graph), seed=11
        )
        with pytest.raises(ParameterError):
            OnlineOPIM(small_graph, "IC", k=3, sampler=sampler)
