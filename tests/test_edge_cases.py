"""Edge-case and failure-injection tests across the library."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.opim import OnlineOPIM
from repro.core.opimc import opim_c
from repro.exceptions import (
    BudgetExceededError,
    ConvergenceError,
    GraphError,
    GraphFormatError,
    ParameterError,
    ReproError,
    StateError,
    WeightError,
)
from repro.graph.build import from_edge_list
from repro.graph.generators import complete_graph, star_graph
from repro.graph.weights import assign_constant_weights, assign_wc_weights
from repro.maxcover.greedy import greedy_max_coverage
from repro.sampling.collection import RRCollection
from repro.sampling.generator import RRSampler
from repro.sampling.kernel import sample_rr_sets_kernel


class TestExceptionHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            GraphError,
            GraphFormatError,
            WeightError,
            ParameterError,
            ConvergenceError,
            StateError,
            BudgetExceededError,
        ],
    )
    def test_all_derive_from_base(self, exc):
        assert issubclass(exc, ReproError)

    def test_format_error_is_graph_error(self):
        assert issubclass(GraphFormatError, GraphError)

    def test_weight_error_is_graph_error(self):
        assert issubclass(WeightError, GraphError)

    def test_budget_error_carries_count(self):
        error = BudgetExceededError("over", num_rr_sets=42)
        assert error.num_rr_sets == 42

    def test_budget_error_default_count(self):
        assert BudgetExceededError("over").num_rr_sets == 0


class TestKEqualsN:
    def test_opim_with_k_equals_n(self):
        g = assign_wc_weights(star_graph(6))
        algo = OnlineOPIM(g, "IC", k=6, delta=0.2, seed=1)
        algo.extend(4000)
        snap = algo.query()
        # Seeding everything covers everything: alpha approaches 1 as
        # the concentration slack shrinks with the sample size.
        assert sorted(snap.seeds) == list(range(6))
        assert snap.alpha > 0.85

    def test_greedy_with_k_equals_n(self):
        c = RRCollection(3)
        c.extend([np.array([0]), np.array([1]), np.array([2])])
        result = greedy_max_coverage(c, 3)
        assert result.coverage == 3

    def test_opimc_with_k_equals_n(self):
        g = assign_wc_weights(star_graph(5))
        result = opim_c(g, "IC", k=5, epsilon=0.5, delta=0.3, seed=2)
        assert sorted(result.seeds) == list(range(5))


class TestExtremeParameters:
    def test_tiny_delta(self, small_graph):
        algo = OnlineOPIM(small_graph, "IC", k=2, delta=1e-12, seed=1)
        algo.extend(1000)
        snap = algo.query()
        # Extremely small delta: looser bounds, but still valid output.
        assert 0.0 <= snap.alpha <= 1.0

    def test_delta_near_one(self, small_graph):
        algo = OnlineOPIM(small_graph, "IC", k=2, delta=0.999, seed=1)
        algo.extend(1000)
        assert algo.query().alpha > 0.0

    def test_epsilon_near_bound(self, small_graph):
        # epsilon close to 1 - 1/e makes the target trivial.
        result = opim_c(small_graph, "IC", k=2, epsilon=0.63, delta=0.3, seed=3)
        assert result.iterations == 1

    def test_alpha_increases_with_delta(self, small_graph):
        """A more permissive failure probability yields a tighter
        (larger) reported guarantee on the same data."""
        strict = OnlineOPIM(small_graph, "IC", k=3, delta=1e-6, seed=9)
        strict.extend(1000)
        loose = OnlineOPIM(small_graph, "IC", k=3, delta=0.5, seed=9)
        loose.extend(1000)
        assert loose.query().alpha > strict.query().alpha


class TestDegenerateGraphs:
    def test_graph_with_no_edges(self):
        g = assign_constant_weights(star_graph(4), 0.0).reweighted(
            lambda s, t: np.zeros(s.shape[0])
        )
        algo = OnlineOPIM(g, "IC", k=1, delta=0.2, seed=1)
        algo.extend(400)
        snap = algo.query()
        # Every RR set is a singleton; the best seed covers ~1/n of
        # them and sigma bounds stay consistent.
        assert snap.sigma_low <= snap.sigma_up

    def test_fully_deterministic_graph(self):
        g = assign_constant_weights(complete_graph(5), 1.0)
        algo = OnlineOPIM(g, "IC", k=1, delta=0.1, seed=2)
        algo.extend(4000)
        snap = algo.query()
        # Any single seed reaches everyone: alpha approaches 1.
        assert snap.alpha > 0.85

    def test_two_node_graph(self):
        g = from_edge_list([(0, 1, 0.5)])
        algo = OnlineOPIM(g, "IC", k=1, delta=0.2, seed=3)
        algo.extend(400)
        assert algo.query().seeds in ([0], [1])

    def test_isolated_nodes_never_harm(self):
        g = from_edge_list([(0, 1, 0.9)], n=10)
        sampler = RRSampler(g, "IC", seed=4)
        collection = sampler.new_collection(500)
        result = greedy_max_coverage(collection, 2)
        assert 0 in result.seeds or 1 in result.seeds


class TestNumericalStability:
    def test_log_binomial_huge_n(self):
        from repro.core.theta import log_binomial

        value = log_binomial(10**7, 50)
        assert math.isfinite(value)
        assert value > 0

    def test_theta_max_huge_graph(self):
        from repro.core.theta import theta_max

        value = theta_max(10**7, 50, 0.01, 1e-7)
        assert math.isfinite(value)

    def test_bounds_with_zero_ln(self):
        from repro.bounds.concentration import sigma_lower_bound

        # delta -> 1 means a -> 0: the bound degrades to the estimate.
        value = sigma_lower_bound(100, 1000, 500, 1 - 1e-12)
        assert value == pytest.approx(500 * 100 / 1000, rel=1e-6)

    def test_probabilities_at_exact_bounds(self):
        g = from_edge_list([(0, 1, 0.0), (1, 2, 1.0)])
        rng = np.random.default_rng(5)
        for _ in range(20):
            nodes, _, _, _ = sample_rr_sets_kernel(g, "IC", [2], rng)
            assert 1 in nodes  # p = 1 edge always crossed
            assert 0 not in nodes  # p = 0 edge never crossed
