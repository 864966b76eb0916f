"""Tests for greedy maximum coverage and the coverage upper bounds
(Lemmas 5.1 / 5.2)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ParameterError
from repro.maxcover import greedy as greedy_module
from repro.maxcover.bounds import (
    coverage_upper_bound_greedy,
    coverage_upper_bound_leskovec,
    coverage_upper_bound_pessimistic,
    coverage_upper_bound_pessimistic_e,
)
from repro.maxcover.greedy import GreedyResult, SharedGreedy, greedy_max_coverage
from repro.sampling.collection import RRCollection
from repro.sampling.kernel import RRSampler
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


def full_vector_greedy(collection, k):
    """The reference pass: every prefix reads all n marginals, its
    top-k by ``np.partition`` and its argmax with selected nodes masked
    out.  ``greedy_max_coverage`` must equal it field by field."""
    collection.build()
    n = collection.n
    rr_offsets, rr_nodes = collection.rr_offsets, collection.rr_nodes
    cov = np.bincount(rr_nodes, minlength=n).astype(np.int64)
    selected = np.zeros(n, dtype=bool)
    covered = np.zeros(len(collection), dtype=bool)
    table = np.empty((k + 1, k), dtype=np.int64)

    def top_k(row):
        top = cov if k >= n else np.partition(cov, n - k)[n - k :]
        table[row] = np.cumsum(np.sort(top)[::-1])

    seeds, gains, prefix_coverages = [], [], [0]
    top_k(0)
    for i in range(1, k + 1):
        u = int(np.argmax(np.where(selected, np.int64(-1), cov)))
        seeds.append(u)
        gains.append(int(cov[u]))
        selected[u] = True
        for rr in collection.rr_sets_containing(u):
            if not covered[rr]:
                covered[rr] = True
                cov[rr_nodes[rr_offsets[rr] : rr_offsets[rr + 1]]] -= 1
        prefix_coverages.append(int(covered.sum()))
        top_k(i)
    return GreedyResult(
        seeds=seeds,
        coverage=prefix_coverages[-1],
        prefix_coverages=prefix_coverages,
        prefix_topk_sums=table[:, k - 1].tolist(),
        gains=gains,
        num_rr_sets=len(collection),
        topk_cumsums=table,
    )


@st.composite
def tied_collections(draw):
    """Collections over a few of the n nodes, so that marginals tie
    heavily, many nodes never gain, and pools both form and refresh."""
    n = draw(st.integers(1, 60))
    used = draw(st.integers(1, n))
    sets = draw(
        st.lists(
            st.lists(st.integers(0, used - 1), min_size=1, max_size=4, unique=True),
            min_size=1,
            max_size=80,
        )
    )
    k = draw(st.one_of(st.integers(1, min(6, n)), st.just(n), st.integers(1, n)))
    return n, sets, k


def record_pools(monkeypatch):
    """Record each candidate-pool refresh's floor during a pass."""
    floors = []
    real = greedy_module._candidate_pool

    def recording(cov, k):
        pool, floor = real(cov, k)
        floors.append((floor, int(cov.max())))
        return pool, floor

    monkeypatch.setattr(greedy_module, "_candidate_pool", recording)
    return floors


class TestCandidatePool:
    """The candidate pool changes no field of any result."""

    @given(tied_collections())
    @settings(max_examples=300, deadline=None)
    def test_equals_full_vector_pass(self, case):
        n, sets, k = case
        c = make_collection(n, sets)
        assert_same_result(greedy_max_coverage(c, k), full_vector_greedy(c, k))

    @pytest.mark.parametrize(
        "n, sets, k",
        [
            (1, [[0], [0]], 1),
            (5, [[0, 1], [1], [2], [3, 0]], 1),
            (5, [[0, 1], [1], [2], [3, 0]], 5),
            (40, [[v % 7, 7 + v % 5] for v in range(60)], 40),
            (40, [[v % 7, 7 + v % 5] for v in range(60)], 1),
        ],
    )
    def test_edge_widths(self, n, sets, k):
        c = make_collection(n, sets)
        assert_same_result(greedy_max_coverage(c, k), full_vector_greedy(c, k))

    def test_pool_refreshes_several_times(self, monkeypatch):
        # Node v < 200 is in about 3000 / (v + 1) sets of two to six
        # nodes, so marginals fall unevenly as seeds cover sets.
        rng = np.random.default_rng(0)
        weights = 1.0 / np.arange(1, 201)
        weights /= weights.sum()
        sets = [
            rng.choice(200, size=rng.integers(2, 7), replace=False, p=weights)
            for _ in range(3000)
        ]
        c = make_collection(300, sets)
        floors = record_pools(monkeypatch)
        result = greedy_max_coverage(c, 40)
        pooled = [floor for floor, _ in floors]
        assert len(pooled) >= 5 and min(pooled) >= 1
        assert pooled == sorted(pooled, reverse=True)
        assert_same_result(result, full_vector_greedy(c, 40))

    def test_falls_back_until_all_covered(self, monkeypatch):
        # Every set holds one of the 20 hub nodes, so a 60-seed pass
        # covers all of them and its last gains tie at 0.
        rng = np.random.default_rng(0)
        weights = 1.0 / np.arange(1, 121)
        weights /= weights.sum()
        sets = []
        for _ in range(2000):
            fillers = rng.choice(120, size=rng.integers(1, 5), replace=False, p=weights)
            sets.append([int(rng.integers(0, 20)), *(20 + fillers)])
        c = make_collection(300, sets)
        floors = record_pools(monkeypatch)
        result = greedy_max_coverage(c, 60)
        assert floors[0][0] >= 1 and floors[-1][0] == 0
        assert result.coverage == len(c) and result.gains[-1] == 0
        assert_same_result(result, full_vector_greedy(c, 60))

    def test_pools_on_sampled_sketches(self, monkeypatch, medium_graph):
        for model in ("IC", "LT"):
            sampler = RRSampler(medium_graph, model, seed=11)
            c = sampler.new_collection()
            sampler.fill(c, 1500)
            floors = record_pools(monkeypatch)
            for k in (1, 2, 5, 10, 50):
                del floors[:]
                result = greedy_max_coverage(c, k)
                assert floors[0][0] > 0
                assert_same_result(result, full_vector_greedy(c, k))


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
