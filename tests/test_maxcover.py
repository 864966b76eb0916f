"""Tests for greedy maximum coverage and the coverage upper bounds
(Lemmas 5.1 / 5.2)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ParameterError
from repro.maxcover.bounds import (
    coverage_upper_bound_greedy,
    coverage_upper_bound_leskovec,
    coverage_upper_bound_pessimistic,
    coverage_upper_bound_pessimistic_e,
)
from repro.maxcover.greedy import GreedyResult, SharedGreedy, greedy_max_coverage
from repro.sampling.collection import RRCollection
from tests.conftest import brute_force_best_coverage


def make_collection(n, sets):
    c = RRCollection(n)
    for nodes in sets:
        c.append(np.array(nodes, dtype=np.int32))
    return c


class TestGreedyBasics:
    def test_picks_best_single_node(self):
        c = make_collection(4, [[0], [0], [0, 1], [2]])
        result = greedy_max_coverage(c, 1)
        assert result.seeds == [0]
        assert result.coverage == 3

    def test_second_pick_is_marginal_best(self):
        # Node 0 covers sets {0,1}; node 1 covers {0,1,2}; node 2 covers {3}.
        c = make_collection(4, [[0, 1], [0, 1], [1], [2]])
        result = greedy_max_coverage(c, 2)
        assert result.seeds == [1, 2]
        assert result.coverage == 4

    def test_tie_break_smallest_id(self):
        c = make_collection(4, [[0], [1]])
        result = greedy_max_coverage(c, 1)
        assert result.seeds == [0]

    def test_k_larger_than_useful_nodes(self):
        c = make_collection(5, [[0], [0]])
        result = greedy_max_coverage(c, 3)
        assert result.coverage == 2
        assert len(result.seeds) == 3
        assert result.gains[1:] == [0, 0]

    def test_full_coverage(self):
        c = make_collection(3, [[0], [1], [2]])
        result = greedy_max_coverage(c, 3)
        assert result.coverage == 3
        assert result.coverage_fraction() == 1.0

    def test_empty_collection_rejected(self):
        with pytest.raises(ParameterError):
            greedy_max_coverage(RRCollection(4), 1)

    def test_bad_k(self):
        c = make_collection(3, [[0]])
        with pytest.raises(ParameterError):
            greedy_max_coverage(c, 0)
        with pytest.raises(ParameterError):
            greedy_max_coverage(c, 4)

    def test_num_rr_sets_recorded(self):
        c = make_collection(3, [[0], [1]])
        assert greedy_max_coverage(c, 1).num_rr_sets == 2


class TestGreedyHistory:
    def test_prefix_arrays_lengths(self):
        c = make_collection(5, [[0, 1], [2], [3]])
        result = greedy_max_coverage(c, 3)
        assert len(result.prefix_coverages) == 4
        assert len(result.prefix_topk_sums) == 4
        assert result.prefix_coverages[0] == 0
        assert result.prefix_coverages[-1] == result.coverage

    def test_prefix_coverages_monotone(self):
        c = make_collection(6, [[0, 1], [1, 2], [3], [4], [0, 4]])
        result = greedy_max_coverage(c, 4)
        diffs = np.diff(result.prefix_coverages)
        assert np.all(diffs >= 0)

    def test_gains_match_prefix_diffs(self):
        c = make_collection(6, [[0, 1], [1, 2], [3], [4], [0, 4]])
        result = greedy_max_coverage(c, 4)
        assert result.gains == list(np.diff(result.prefix_coverages))

    def test_gains_non_increasing(self):
        """Submodularity: greedy marginal gains never increase."""
        c = make_collection(8, [[0, 1, 2], [1, 2], [2, 3], [4], [5], [0, 5]])
        result = greedy_max_coverage(c, 5)
        assert all(a >= b for a, b in zip(result.gains, result.gains[1:]))

    def test_topk_sum_at_start_counts_best_k_nodes(self):
        # Singleton coverages: node0=3, node1=2, node2=1.
        c = make_collection(4, [[0], [0], [0, 1], [1, 2]])
        result = greedy_max_coverage(c, 2)
        assert result.prefix_topk_sums[0] == 5  # 3 + 2

    def test_final_topk_sum_zero_when_all_covered(self):
        c = make_collection(3, [[0], [1]])
        result = greedy_max_coverage(c, 2)
        assert result.prefix_topk_sums[-1] == 0


@st.composite
def random_collections(draw):
    n = draw(st.integers(3, 8))
    num_sets = draw(st.integers(1, 14))
    sets = [
        draw(
            st.lists(
                st.integers(0, n - 1), min_size=1, max_size=n, unique=True
            )
        )
        for _ in range(num_sets)
    ]
    k = draw(st.integers(1, min(3, n)))
    return n, sets, k


@st.composite
def prefix_cases(draw):
    """A random collection, a pass width K and a prefix k <= K.

    Small node ranges and few sets make zero-gain ties common; K = n
    and k = K are drawn often."""
    n = draw(st.integers(1, 9))
    num_sets = draw(st.integers(1, 12))
    sets = [
        draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        for _ in range(num_sets)
    ]
    big_k = draw(st.one_of(st.just(n), st.integers(1, n)))
    k = draw(st.one_of(st.just(big_k), st.integers(1, big_k)))
    return n, sets, big_k, k


def assert_same_result(got, want):
    assert got.seeds == want.seeds
    assert got.coverage == want.coverage
    assert got.prefix_coverages == want.prefix_coverages
    assert got.prefix_topk_sums == want.prefix_topk_sums
    assert got.gains == want.gains
    assert got.num_rr_sets == want.num_rr_sets
    assert got.k == want.k
    assert np.array_equal(got.topk_cumsums, want.topk_cumsums)
    assert all(type(v) is int for v in got.prefix_topk_sums)


class TestGreedyPrefix:
    @given(prefix_cases())
    @settings(max_examples=150, deadline=None)
    def test_prefix_equals_k_pass(self, case):
        """One K-pass holds every k <= K pass: seeds, coverages, gains
        and the Eq. 10 sums are equal field by field."""
        n, sets, big_k, k = case
        c = make_collection(n, sets)
        assert_same_result(
            greedy_max_coverage(c, big_k).prefix(k), greedy_max_coverage(c, k)
        )

    def test_zero_gain_ties_and_full_width(self):
        # Node 4 is in no set: after three picks every gain ties at 0.
        c = make_collection(5, [[0, 1], [1], [2], [3, 0]])
        full = greedy_max_coverage(c, 5)
        assert full.gains[-2:] == [0, 0]
        for k in range(1, 6):
            assert_same_result(full.prefix(k), greedy_max_coverage(c, k))
        assert full.prefix(5) is full

    def test_topk_table_columns(self):
        c = make_collection(4, [[0], [0], [0, 1], [1, 2]])
        result = greedy_max_coverage(c, 3)
        # Singleton coverages 3, 2, 1, 0: top-1..3 sums at prefix 0.
        assert result.topk_cumsums[0].tolist() == [3, 5, 6]
        assert result.prefix_topk_sums == result.topk_cumsums[:, 2].tolist()

    def test_prefix_bounds(self):
        c = make_collection(3, [[0], [1]])
        result = greedy_max_coverage(c, 2)
        for bad in (0, 3):
            with pytest.raises(ParameterError):
                result.prefix(bad)
        hand_built = GreedyResult(
            seeds=[0], coverage=1, prefix_coverages=[0, 1], prefix_topk_sums=[1, 0]
        )
        with pytest.raises(ParameterError):
            hand_built.prefix(1)


class TestSharedGreedy:
    def test_width_policy(self):
        c = make_collection(100, [[v] for v in range(100)])
        shared = SharedGreedy()
        assert shared.lookup(100, 1) is None
        assert shared.width(100, 3, 100) == 3
        widths = []
        for k in range(1, 51):
            if shared.lookup(100, k) is None:
                widths.append(shared.width(100, k, 100))
                shared.result = greedy_max_coverage(c, widths[-1])
        assert widths == [1, 2, 4, 8, 16, 32, 64]
        # A grown R1 keeps the held width; the cap is n.
        assert shared.width(101, 5, 100) == 64
        assert shared.width(100, 65, 100) == 100
        shared.clear()
        assert shared.result is None


class TestGreedyApproximation:
    @given(random_collections())
    @settings(max_examples=60, deadline=None)
    def test_greedy_dominates_1_minus_1_over_e(self, case):
        """Greedy coverage >= (1 - (1-1/k)^k) * optimum, hence >= (1-1/e)."""
        n, sets, k = case
        c = make_collection(n, sets)
        result = greedy_max_coverage(c, k)
        optimum, _ = brute_force_best_coverage(c, k)
        ratio = 1.0 - (1.0 - 1.0 / k) ** k
        assert result.coverage >= ratio * optimum - 1e-9

    @given(random_collections())
    @settings(max_examples=60, deadline=None)
    def test_upper_bounds_dominate_optimum(self, case):
        """Every coverage upper bound must be >= the true optimum
        (Lemma 5.1 instantiated on the empirical collection)."""
        n, sets, k = case
        c = make_collection(n, sets)
        result = greedy_max_coverage(c, k)
        optimum, _ = brute_force_best_coverage(c, k)
        assert coverage_upper_bound_pessimistic(result) >= optimum - 1e-9
        assert coverage_upper_bound_greedy(result) >= optimum - 1e-9
        assert coverage_upper_bound_leskovec(result) >= optimum - 1e-9

    @given(random_collections())
    @settings(max_examples=60, deadline=None)
    def test_lemma_5_2_ordering(self, case):
        """Lambda_1^u(S^o) <= Lambda_1(S*) / (1 - (1-1/k)^k)  (Lemma 5.2)."""
        n, sets, k = case
        c = make_collection(n, sets)
        result = greedy_max_coverage(c, k)
        assert (
            coverage_upper_bound_greedy(result)
            <= coverage_upper_bound_pessimistic(result) + 1e-9
        )

    @given(random_collections())
    @settings(max_examples=60, deadline=None)
    def test_greedy_bound_never_worse_than_leskovec(self, case):
        """The Eq. 10 minimum includes the final prefix, so it is at
        most the Leskovec bound."""
        n, sets, k = case
        c = make_collection(n, sets)
        result = greedy_max_coverage(c, k)
        assert (
            coverage_upper_bound_greedy(result)
            <= coverage_upper_bound_leskovec(result) + 1e-9
        )


class TestBoundEdgeCases:
    def test_pessimistic_e_form_is_looser(self):
        c = make_collection(4, [[0], [0, 1], [2]])
        result = greedy_max_coverage(c, 2)
        assert coverage_upper_bound_pessimistic_e(
            result
        ) >= coverage_upper_bound_pessimistic(result) * (
            (1 - (1 - 1 / 2) ** 2) / (1 - 1 / math.e)
        ) - 1e-9

    def test_k1_pessimistic_equals_coverage(self):
        # k = 1: ratio is 1 - (1-1)^1 = 1, so the bound equals coverage.
        c = make_collection(3, [[0], [0], [1]])
        result = greedy_max_coverage(c, 1)
        assert coverage_upper_bound_pessimistic(result) == pytest.approx(2.0)

    def test_empty_result_rejected(self):
        empty = GreedyResult(
            seeds=[], coverage=0, prefix_coverages=[0], prefix_topk_sums=[0]
        )
        for bound in (
            coverage_upper_bound_pessimistic,
            coverage_upper_bound_greedy,
            coverage_upper_bound_leskovec,
        ):
            with pytest.raises(ParameterError):
                bound(empty)

    def test_leskovec_can_be_looser_than_pessimistic(self):
        """The paper's motivation for OPIM+ over OPIM': there exist
        instances where Leskovec's bound exceeds Lambda/(1 - 1/e)."""
        # k=1: pessimistic bound equals greedy coverage (exact), while
        # Leskovec adds the runner-up's marginal on top.
        c = make_collection(4, [[0], [1]])
        result = greedy_max_coverage(c, 1)
        assert coverage_upper_bound_leskovec(result) > coverage_upper_bound_pessimistic(
            result
        )
