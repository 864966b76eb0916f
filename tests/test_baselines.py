"""Tests for the conventional-IM baselines: IMM, TIM+, SSA-Fix,
D-SSA-Fix, and CELF."""

from __future__ import annotations

import math

import pytest

from repro.baselines.celf import celf_greedy
from repro.baselines.dssa import dssa_fix
from repro.baselines.imm import imm
from repro.baselines.ssa import ssa_fix
from repro.baselines.tim import _rr_widths, tim_plus
from repro.diffusion.spread import exact_spread_ic
from repro.exceptions import BudgetExceededError, ParameterError
from repro.sampling.kernel import RRSampler
from tests.conftest import brute_force_best_spread_ic

RIS_ALGORITHMS = [imm, tim_plus, ssa_fix, dssa_fix]


@pytest.mark.parametrize("algorithm", RIS_ALGORITHMS)
class TestRISCommonContract:
    """Behaviour every RIS baseline must satisfy."""

    def test_returns_k_unique_seeds(self, algorithm, small_graph):
        result = algorithm(small_graph, "IC", 4, 0.4, delta=0.1, seed=1)
        assert len(result.seeds) == 4
        assert len(set(result.seeds)) == 4
        assert all(0 <= s < small_graph.n for s in result.seeds)

    def test_accounting_fields(self, algorithm, small_graph):
        result = algorithm(small_graph, "IC", 3, 0.4, delta=0.1, seed=2)
        assert result.num_rr_sets > 0
        assert result.edges_examined > 0
        assert result.elapsed > 0
        assert result.iterations >= 1
        assert result.epsilon == 0.4

    def test_lt_model(self, algorithm, small_graph):
        result = algorithm(small_graph, "LT", 3, 0.4, delta=0.1, seed=3)
        assert len(result.seeds) == 3

    def test_invalid_epsilon(self, algorithm, small_graph):
        with pytest.raises(ParameterError):
            algorithm(small_graph, "IC", 3, 1.5, delta=0.1)

    def test_invalid_k(self, algorithm, small_graph):
        with pytest.raises(ParameterError):
            algorithm(small_graph, "IC", 0, 0.3, delta=0.1)

    def test_default_delta(self, algorithm, small_graph):
        result = algorithm(small_graph, "IC", 3, 0.4, seed=4)
        assert result.delta == pytest.approx(1.0 / small_graph.n)

    def test_budget_abort(self, algorithm, small_graph):
        with pytest.raises(BudgetExceededError) as info:
            algorithm(small_graph, "IC", 3, 0.05, delta=0.01, seed=5, rr_budget=5)
        assert info.value.num_rr_sets <= 5

    def test_quality_against_brute_force(self, algorithm, tiny_weighted_graph):
        """Seeds reach (1 - 1/e - eps) * OPT on an exact instance."""
        k, epsilon = 2, 0.3
        opt, _ = brute_force_best_spread_ic(tiny_weighted_graph, k)
        result = algorithm(
            tiny_weighted_graph, "IC", k, epsilon, delta=0.05, seed=6
        )
        achieved = exact_spread_ic(tiny_weighted_graph, result.seeds)
        assert achieved >= (1 - 1 / math.e - epsilon) * opt - 1e-9


class TestIMMSpecifics:
    def test_algorithm_name(self, small_graph):
        assert imm(small_graph, "IC", 3, 0.4, delta=0.1, seed=1).algorithm == "IMM"

    def test_smaller_epsilon_more_samples(self, small_graph):
        loose = imm(small_graph, "IC", 4, 0.5, delta=0.1, seed=2)
        tight = imm(small_graph, "IC", 4, 0.15, delta=0.1, seed=2)
        assert tight.num_rr_sets > loose.num_rr_sets

    def test_lower_bound_recorded(self, small_graph):
        result = imm(small_graph, "IC", 3, 0.4, delta=0.1, seed=3)
        assert 1.0 <= result.extra["lower_bound"] <= small_graph.n

    def test_theta_consistent(self, small_graph):
        result = imm(small_graph, "IC", 3, 0.4, delta=0.1, seed=4)
        assert result.num_rr_sets >= result.extra["theta"]


class TestTIMSpecifics:
    def test_algorithm_name(self, small_graph):
        result = tim_plus(small_graph, "IC", 3, 0.4, delta=0.1, seed=1)
        assert result.algorithm == "TIM+"

    def test_kpt_positive(self, small_graph):
        result = tim_plus(small_graph, "IC", 3, 0.4, delta=0.1, seed=2)
        assert result.extra["kpt"] >= 1.0

    def test_refinement_can_be_disabled(self, small_graph):
        result = tim_plus(small_graph, "IC", 3, 0.4, delta=0.1, seed=3, refine=False)
        assert len(result.seeds) == 3

    def test_widths_match_a_per_set_loop(self, small_graph):
        """A KPT round's widths, read in one ``reduceat``, are each RR
        set's in-degree sum."""
        collection = RRSampler(small_graph, "LT", seed=6).new_collection(300)
        in_degree = small_graph.in_degree()
        expected = [int(in_degree[nodes].sum()) for nodes in collection.sets()]
        assert _rr_widths(small_graph, collection).tolist() == expected

    def test_refinement_reduces_theta_typically(self, small_graph):
        refined = tim_plus(small_graph, "IC", 3, 0.4, delta=0.1, seed=4, refine=True)
        plain = tim_plus(small_graph, "IC", 3, 0.4, delta=0.1, seed=4, refine=False)
        assert refined.extra["kpt"] >= plain.extra["kpt"]


class TestSSASpecifics:
    def test_algorithm_name(self, small_graph):
        result = ssa_fix(small_graph, "IC", 3, 0.4, delta=0.1, seed=1)
        assert result.algorithm == "SSA-Fix"

    def test_budget_never_exceeded(self, small_graph):
        """The stare fills blocks, but never past ``rr_budget``: under
        any budget below an unbounded run's count, the run either
        aborts or finishes within it (the blocks split differently
        under a budget, so the stream, and the count, can differ)."""
        full = ssa_fix(small_graph, "IC", 3, 0.4, delta=0.1, seed=8)
        for budget in (full.num_rr_sets - 1, full.num_rr_sets // 2):
            try:
                used = ssa_fix(
                    small_graph, "IC", 3, 0.4, delta=0.1, seed=8,
                    rr_budget=budget,
                ).num_rr_sets
            except BudgetExceededError as error:
                used = error.num_rr_sets
            assert used <= budget

    def test_validation_metadata(self, small_graph):
        result = ssa_fix(small_graph, "IC", 3, 0.4, delta=0.1, seed=2)
        assert "validated" in result.extra
        assert result.extra["lambda_1"] > 0
        assert result.extra["lambda_2"] > 0


class TestDSSASpecifics:
    def test_algorithm_name(self, small_graph):
        result = dssa_fix(small_graph, "IC", 3, 0.4, delta=0.1, seed=1)
        assert result.algorithm == "D-SSA-Fix"

    def test_epsilon_i_recorded_when_stopping_early(self, small_graph):
        result = dssa_fix(small_graph, "IC", 3, 0.4, delta=0.1, seed=2)
        if result.num_rr_sets < result.extra["theta_prime_max"]:
            assert result.extra["epsilon_i"] <= 0.4

    def test_equal_halves(self, small_graph):
        result = dssa_fix(small_graph, "IC", 3, 0.4, delta=0.1, seed=3)
        assert result.num_rr_sets % 2 == 0

    def test_fewer_samples_than_imm(self, medium_graph):
        """D-SSA's instance-adaptive stopping typically undercuts IMM
        (the relation the paper's experiments show)."""
        d = dssa_fix(medium_graph, "IC", 5, 0.3, delta=0.05, seed=4)
        i = imm(medium_graph, "IC", 5, 0.3, delta=0.05, seed=4)
        assert d.num_rr_sets < i.num_rr_sets


class TestCELF:
    def test_matches_brute_force_on_exact_instance(self, tiny_weighted_graph):
        opt_value, opt_set = brute_force_best_spread_ic(tiny_weighted_graph, 2)
        result = celf_greedy(
            tiny_weighted_graph, "IC", 2, num_samples=3000, seed=1
        )
        achieved = exact_spread_ic(tiny_weighted_graph, result.seeds)
        # Greedy is (1 - 1/e)-optimal; with good estimates it usually
        # nails the optimum on this instance — allow the greedy bound.
        assert achieved >= (1 - 1 / math.e) * opt_value - 0.1

    def test_seed_count(self, small_graph):
        result = celf_greedy(small_graph, "IC", 3, num_samples=50, seed=2)
        assert len(result.seeds) == 3
        assert result.algorithm == "CELF"

    def test_candidates_restriction(self, small_graph):
        candidates = [0, 1, 2, 3, 4]
        result = celf_greedy(
            small_graph, "IC", 2, num_samples=50, seed=3, candidates=candidates
        )
        assert set(result.seeds) <= set(candidates)

    def test_simulation_accounting(self, small_graph):
        result = celf_greedy(
            small_graph, "IC", 2, num_samples=20, seed=4, candidates=[0, 1, 2]
        )
        assert result.extra["simulations"] >= 3 * 20

    def test_invalid_k(self, small_graph):
        with pytest.raises(ParameterError):
            celf_greedy(small_graph, "IC", 0, num_samples=10)

    def test_lt_model(self, small_graph):
        result = celf_greedy(
            small_graph, "LT", 2, num_samples=30, seed=5, candidates=list(range(10))
        )
        assert len(result.seeds) == 2
