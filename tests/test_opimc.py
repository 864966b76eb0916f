"""Tests for OPIM-C (Algorithm 2) and the theta sample-size formulas."""

from __future__ import annotations

import math

import pytest

from repro.core.opimc import OPIMC, opim_c
from repro.core.theta import i_max_iterations, log_binomial, theta_0, theta_max
from repro.diffusion.spread import exact_spread_ic
from repro.exceptions import BudgetExceededError, ParameterError
from tests.conftest import brute_force_best_spread_ic


class TestTheta:
    def test_log_binomial_matches_comb(self):
        for n, k in [(10, 3), (50, 10), (100, 1), (7, 7), (5, 0)]:
            assert log_binomial(n, k) == pytest.approx(
                math.log(math.comb(n, k)), abs=1e-9
            )

    def test_log_binomial_invalid(self):
        with pytest.raises(ParameterError):
            log_binomial(5, 6)
        with pytest.raises(ParameterError):
            log_binomial(5, -1)

    def test_theta_relationship(self):
        """theta_0 = theta_max * eps^2 k / n  (Eq. 17)."""
        n, k, eps, delta = 1000, 10, 0.2, 0.01
        assert theta_0(n, k, eps, delta) == pytest.approx(
            theta_max(n, k, eps, delta) * eps * eps * k / n
        )

    def test_theta_max_grows_with_smaller_eps(self):
        assert theta_max(1000, 10, 0.05, 0.01) > theta_max(1000, 10, 0.2, 0.01)

    def test_theta_max_grows_with_smaller_delta(self):
        assert theta_max(1000, 10, 0.1, 1e-6) > theta_max(1000, 10, 0.1, 0.1)

    def test_i_max_positive(self):
        assert i_max_iterations(1000, 10, 0.1, 0.01) >= 1

    def test_i_max_matches_log_formula(self):
        n, k, eps, delta = 5000, 20, 0.1, 0.01
        expected = math.ceil(
            math.log2(theta_max(n, k, eps, delta) / theta_0(n, k, eps, delta))
        )
        assert i_max_iterations(n, k, eps, delta) == max(1, expected)

    def test_invalid_params(self):
        with pytest.raises(ParameterError):
            theta_max(10, 0, 0.1, 0.1)
        with pytest.raises(ParameterError):
            theta_max(10, 2, 1.5, 0.1)
        with pytest.raises(ParameterError):
            theta_max(10, 2, 0.1, 0.0)


class TestOPIMCBasics:
    def test_returns_k_unique_seeds(self, medium_graph):
        result = opim_c(medium_graph, "IC", k=6, epsilon=0.3, delta=0.05, seed=1)
        assert len(result.seeds) == 6
        assert len(set(result.seeds)) == 6

    def test_alpha_meets_target_or_last_iteration(self, medium_graph):
        result = opim_c(medium_graph, "IC", k=6, epsilon=0.3, delta=0.05, seed=1)
        target = result.extra["target_alpha"]
        assert (
            result.alpha_achieved >= target
            or result.iterations == result.extra["i_max"]
        )

    def test_variant_names(self, medium_graph):
        for bound, name in [
            ("greedy", "OPIM-C+"),
            ("vanilla", "OPIM-C0"),
            ("leskovec", "OPIM-C'"),
        ]:
            result = opim_c(
                medium_graph, "IC", k=3, epsilon=0.4, delta=0.1, bound=bound, seed=2
            )
            assert result.algorithm == name

    def test_invalid_bound(self, medium_graph):
        with pytest.raises(ParameterError):
            OPIMC(medium_graph, "IC", bound="nope")

    def test_invalid_epsilon(self, medium_graph):
        with pytest.raises(ParameterError):
            opim_c(medium_graph, "IC", k=3, epsilon=0.0)

    def test_default_delta(self, medium_graph):
        result = opim_c(medium_graph, "IC", k=3, epsilon=0.4, seed=3)
        assert result.delta == pytest.approx(1.0 / medium_graph.n)

    def test_lt_model(self, medium_graph):
        result = opim_c(medium_graph, "LT", k=4, epsilon=0.3, delta=0.05, seed=4)
        assert len(result.seeds) == 4

    def test_result_accounting(self, medium_graph):
        result = opim_c(medium_graph, "IC", k=4, epsilon=0.3, delta=0.05, seed=5)
        assert result.num_rr_sets >= 2  # at least 2 * theta_0
        assert result.edges_examined > 0
        assert result.elapsed > 0
        assert 1 <= result.iterations <= result.extra["i_max"]

    def test_reusable_runner(self, medium_graph):
        runner = OPIMC(medium_graph, "IC", seed=6)
        r1 = runner.run(3, 0.4, delta=0.1)
        r2 = runner.run(3, 0.4, delta=0.1)
        assert len(r1.seeds) == len(r2.seeds) == 3


class TestOPIMCEfficiency:
    def test_plus_needs_no_more_samples_than_vanilla(self, medium_graph):
        """With a shared RNG stream, the OPIM+ bound dominates OPIM0's
        every iteration, so OPIM-C+ stops no later (the paper's
        Figure 6(b) mechanism)."""
        plus = opim_c(
            medium_graph, "IC", k=5, epsilon=0.2, delta=0.05, bound="greedy", seed=7
        )
        vanilla = opim_c(
            medium_graph, "IC", k=5, epsilon=0.2, delta=0.05, bound="vanilla", seed=7
        )
        assert plus.num_rr_sets <= vanilla.num_rr_sets

    def test_smaller_epsilon_needs_more_samples(self, medium_graph):
        loose = opim_c(medium_graph, "IC", k=5, epsilon=0.4, delta=0.05, seed=8)
        tight = opim_c(medium_graph, "IC", k=5, epsilon=0.1, delta=0.05, seed=8)
        assert tight.num_rr_sets >= loose.num_rr_sets

    def test_budget_exceeded_raises(self, medium_graph):
        with pytest.raises(BudgetExceededError) as info:
            opim_c(
                medium_graph,
                "IC",
                k=5,
                epsilon=0.05,
                delta=0.05,
                seed=9,
                rr_budget=10,
            )
        assert info.value.num_rr_sets <= 10

    def test_pool_mode_matches_quality(self, medium_graph):
        """Sampling through a two-worker pool (a different RR stream)
        returns seeds of equivalent quality and meets the same target."""
        from repro.diffusion.spread import monte_carlo_spread

        slow = opim_c(medium_graph, "IC", k=5, epsilon=0.3, delta=0.05, seed=77)
        fast = opim_c(
            medium_graph, "IC", k=5, epsilon=0.3, delta=0.05, seed=77, workers=2
        )
        s1 = monte_carlo_spread(
            medium_graph, slow.seeds, "IC", num_samples=500, seed=78
        ).mean
        s2 = monte_carlo_spread(
            medium_graph, fast.seeds, "IC", num_samples=500, seed=78
        ).mean
        assert s2 >= 0.85 * s1
        assert fast.alpha_achieved >= fast.extra["target_alpha"] or (
            fast.iterations == fast.extra["i_max"]
        )

    def test_generous_budget_succeeds(self, medium_graph):
        result = opim_c(
            medium_graph, "IC", k=3, epsilon=0.4, delta=0.1, seed=10, rr_budget=10**7
        )
        assert result.num_rr_sets <= 10**7


class TestOPIMCTelemetry:
    def test_alpha_trajectory_one_row_per_iteration(self, medium_graph):
        result = opim_c(medium_graph, "IC", k=5, epsilon=0.3, delta=0.05, seed=21)
        trajectory = result.extra["alpha_trajectory"]
        assert len(trajectory) == result.iterations
        assert [row["iteration"] for row in trajectory] == list(
            range(1, result.iterations + 1)
        )

    def test_alpha_trajectory_monotone_in_samples(self, medium_graph):
        """Each doubling iteration draws strictly more RR sets, and the
        recorded rows keep |R1| == |R2| (the paper's invariant)."""
        result = opim_c(medium_graph, "IC", k=5, epsilon=0.2, delta=0.05, seed=22)
        trajectory = result.extra["alpha_trajectory"]
        thetas = [row["theta1"] for row in trajectory]
        assert all(a < b for a, b in zip(thetas, thetas[1:]))
        for row in trajectory:
            assert row["theta1"] == row["theta2"]
            assert row["sigma_low"] <= row["sigma_up"]
            assert 0.0 <= row["alpha"] <= 1.0

    def test_alpha_trajectory_matches_result(self, medium_graph):
        result = opim_c(medium_graph, "IC", k=5, epsilon=0.3, delta=0.05, seed=23)
        last = result.extra["alpha_trajectory"][-1]
        assert last["alpha"] == pytest.approx(result.alpha_achieved)
        assert last["theta1"] + last["theta2"] == result.num_rr_sets
        assert last["target"] == pytest.approx(result.extra["target_alpha"])


class TestOPIMCQuality:
    def test_approximation_holds_on_exact_instance(self, tiny_weighted_graph):
        """Seed quality must meet (1 - 1/e - eps) * OPT with frequency
        >= 1 - delta on an exactly-solvable instance."""
        k, epsilon, delta = 2, 0.2, 0.2
        opt, _ = brute_force_best_spread_ic(tiny_weighted_graph, k)
        target = (1 - 1 / math.e - epsilon) * opt
        failures = 0
        trials = 40
        for trial in range(trials):
            result = opim_c(
                tiny_weighted_graph,
                "IC",
                k=k,
                epsilon=epsilon,
                delta=delta,
                seed=500 + trial,
            )
            achieved = exact_spread_ic(tiny_weighted_graph, result.seeds)
            if achieved < target - 1e-9:
                failures += 1
        assert failures <= delta * trials + 4
