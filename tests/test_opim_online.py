"""Tests for the online OPIM algorithm (the paper's main contribution)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.opim import BOUND_VARIANTS, OnlineOPIM
from repro.exceptions import ParameterError
from repro.obs import MetricsRegistry


@pytest.fixture
def online(medium_graph):
    return OnlineOPIM(medium_graph, "IC", k=5, delta=0.05, seed=31)


class TestLifecycle:
    def test_query_before_extend_rejected(self, online):
        with pytest.raises(ParameterError, match="extend"):
            online.query()

    def test_extend_splits_evenly(self, online):
        online.extend(100)
        assert len(online.r1) == 50
        assert len(online.r2) == 50
        assert online.num_rr_sets == 100

    def test_odd_extend_rejected(self, online):
        with pytest.raises(ParameterError, match="even"):
            online.extend(7)

    def test_negative_extend_rejected(self, online):
        with pytest.raises(ParameterError):
            online.extend(-2)

    def test_extend_to(self, online):
        online.extend_to(1000)
        assert online.num_rr_sets >= 1000
        before = online.num_rr_sets
        online.extend_to(500)  # already satisfied: no-op
        assert online.num_rr_sets == before

    def test_default_delta_is_one_over_n(self, medium_graph):
        algo = OnlineOPIM(medium_graph, "IC", k=3)
        assert algo.delta == pytest.approx(1.0 / medium_graph.n)

    def test_invalid_k(self, medium_graph):
        with pytest.raises(ParameterError):
            OnlineOPIM(medium_graph, "IC", k=0)

    def test_invalid_bound(self, medium_graph):
        with pytest.raises(ParameterError):
            OnlineOPIM(medium_graph, "IC", k=2, bound="magic")

    def test_query_invalid_bound(self, online):
        online.extend(200)
        with pytest.raises(ParameterError):
            online.query(bound="magic")


class TestSnapshots:
    def test_snapshot_fields(self, online):
        online.extend(2000)
        snap = online.query()
        assert len(snap.seeds) == 5
        assert len(set(snap.seeds)) == 5
        assert 0.0 <= snap.alpha <= 1.0
        assert snap.theta1 == snap.theta2 == 1000
        assert snap.num_rr_sets == 2000
        assert snap.sigma_low <= snap.sigma_up
        assert snap.coverage_r1 <= snap.theta1
        assert snap.coverage_r2 <= snap.theta2
        assert snap.edges_examined > 0
        assert snap.elapsed > 0.0
        assert snap.variant == "greedy"

    def test_all_variants_share_seeds(self, online):
        online.extend(2000)
        snaps = online.query_all()
        assert set(snaps) == set(BOUND_VARIANTS)
        seed_sets = {tuple(s.seeds) for s in snaps.values()}
        assert len(seed_sets) == 1

    def test_plus_dominates_vanilla(self, online):
        """Lemma 5.2: the OPIM+ bound is never worse than OPIM0's."""
        online.extend(2000)
        snaps = online.query_all()
        assert snaps["greedy"].alpha >= snaps["vanilla"].alpha - 1e-12

    def test_plus_dominates_leskovec(self, online):
        online.extend(2000)
        snaps = online.query_all()
        assert snaps["greedy"].alpha >= snaps["leskovec"].alpha - 1e-12

    def test_guarantee_improves_with_budget(self, medium_graph):
        algo = OnlineOPIM(medium_graph, "IC", k=5, delta=0.05, seed=3)
        algo.extend(400)
        early = algo.query().alpha
        algo.extend_to(8000)
        late = algo.query().alpha
        assert late > early

    def test_guarantee_can_exceed_1_minus_1_over_e(self, medium_graph):
        """The paper's headline: instance-specific guarantees break the
        1 - 1/e ceiling of worst-case analyses (Section 8.2)."""
        algo = OnlineOPIM(medium_graph, "IC", k=5, delta=0.05, seed=9)
        algo.extend_to(30000)
        assert algo.query().alpha > 1 - 1 / np.e

    def test_lt_model_works(self, medium_graph):
        algo = OnlineOPIM(medium_graph, "LT", k=5, delta=0.05, seed=5)
        algo.extend(2000)
        assert algo.query().alpha > 0.0

    def test_greedy_cache_reused_within_budget(self, medium_graph):
        """A second query on the same R1 reads the held pass."""
        reg = MetricsRegistry()
        online = OnlineOPIM(
            medium_graph, "IC", k=5, delta=0.05, seed=31, registry=reg
        )
        online.extend(500)
        online.query()
        held = online.shared_greedy.result
        assert (held.num_rr_sets, held.k) == (250, online.k)
        online.query(bound="vanilla")
        assert online.shared_greedy.result is held
        counters = reg.counter_values()
        assert counters["maxcover.greedy_runs"] == 1
        assert counters["maxcover.greedy_reuse"] == 1

    def test_greedy_cache_invalidated_by_extend(self, online):
        """Growing R1 replaces the held pass; a standalone instance keeps
        its width at its own k."""
        online.extend(500)
        online.query()
        first = online.shared_greedy.result
        online.extend(500)
        snap = online.query()
        held = online.shared_greedy.result
        assert held is not first
        assert snap.theta1 == 500
        assert (held.num_rr_sets, held.k) == (500, online.k)
        assert snap.seeds == held.seeds

    def test_shared_greedy_serves_smaller_k_as_prefix(self, medium_graph):
        """Two instances on one sketch and one holder: the larger k's
        pass answers the smaller k, bit for bit."""
        big = OnlineOPIM(medium_graph, "IC", k=8, delta=0.05, seed=31)
        big.extend(2000)
        small = OnlineOPIM(
            medium_graph, "IC", k=3, delta=0.05, sampler=big.sampler
        )
        small.adopt_collections(big.r1, big.r2, big.shared_greedy)
        reference = OnlineOPIM(
            medium_graph, "IC", k=3, delta=0.05, sampler=big.sampler
        )
        reference.adopt_collections(big.r1, big.r2)
        big.query()
        held = big.shared_greedy.result
        for variant in BOUND_VARIANTS:
            got = small.query(bound=variant)
            want = reference.query(bound=variant)
            assert got.seeds == want.seeds
            assert (got.alpha, got.sigma_low, got.sigma_up) == (
                want.alpha, want.sigma_low, want.sigma_up
            )
        assert big.shared_greedy.result is held
        assert reference.shared_greedy.result is not held


class TestDeltaSplit:
    def test_custom_split_accepted(self, online):
        online.extend(1000)
        snap = online.query(delta1=0.02, delta2=0.03)
        assert 0.0 <= snap.alpha <= 1.0

    def test_partial_split_rejected(self, online):
        online.extend(1000)
        with pytest.raises(ParameterError, match="both"):
            online.query(delta1=0.02)

    def test_overbudget_split_rejected(self, online):
        online.extend(1000)
        with pytest.raises(ParameterError, match="exceeds"):
            online.query(delta1=0.04, delta2=0.04)

    def test_default_split_is_half(self, online):
        """delta1 = delta2 = delta/2 must reproduce the explicit call."""
        online.extend(1000)
        default = online.query()
        explicit = online.query(delta1=online.delta / 2, delta2=online.delta / 2)
        assert default.alpha == pytest.approx(explicit.alpha)


class TestGuaranteeValidity:
    def test_alpha_holds_against_brute_force(self, tiny_weighted_graph):
        """On an exactly-solvable instance the reported alpha must be a
        valid approximation factor w.p. >= 1 - delta: check that
        sigma(S*) >= alpha * OPT holds in (almost) all repetitions."""
        from repro.diffusion.spread import exact_spread_ic
        from tests.conftest import brute_force_best_spread_ic

        k = 2
        opt, _ = brute_force_best_spread_ic(tiny_weighted_graph, k)
        delta = 0.1
        trials = 60
        failures = 0
        for trial in range(trials):
            algo = OnlineOPIM(
                tiny_weighted_graph, "IC", k=k, delta=delta, seed=1000 + trial
            )
            algo.extend(600)
            snap = algo.query()
            achieved = exact_spread_ic(tiny_weighted_graph, snap.seeds)
            if achieved < snap.alpha * opt:
                failures += 1
        assert failures <= delta * trials + 5
