"""Tests for node-weighted influence maximization (future-work
extension: weighted RR roots, weighted spread, weighted OPIM)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.opim import OnlineOPIM
from repro.exceptions import ParameterError
from repro.graph.generators import star_graph, two_cliques
from repro.graph.weights import assign_constant_weights, assign_wc_weights
from repro.weighted.sampler import WeightedRRSampler
from repro.weighted.spread import monte_carlo_weighted_spread


class TestWeightedSampler:
    def test_universe_weight_is_total(self, small_graph):
        weights = np.ones(small_graph.n) * 2.0
        sampler = WeightedRRSampler(small_graph, "IC", weights, seed=1)
        assert sampler.universe_weight == pytest.approx(2.0 * small_graph.n)

    def test_zero_weight_nodes_never_roots(self, rng):
        g = assign_wc_weights(star_graph(5))
        weights = np.array([0.0, 1.0, 1.0, 1.0, 1.0])
        sampler = WeightedRRSampler(g, "IC", weights, seed=2)
        # Node 0 (the hub) has weight 0: with p=1 edges every RR set of
        # a leaf contains the hub, but no RR set is *rooted* at it.
        collection = sampler.new_collection()
        for quota in (1, 1, 48, 50):  # four batches, four streams
            sampler.fill(collection, quota)
        assert all(collection.get(i)[0] != 0 for i in range(100))
        assert sampler.next_batch == 4

    def test_root_distribution_follows_weights(self, rng):
        g = assign_constant_weights(star_graph(3), 0.0)  # p=0: RR = {root}
        weights = np.array([0.5, 0.25, 0.25])
        sampler = WeightedRRSampler(g, "IC", weights, seed=3)
        collection = sampler.new_collection()
        for _ in range(100):  # 100 batches of 40, each its own stream
            sampler.fill(collection, 40)
        roots, offsets = collection.flat()
        assert np.array_equal(offsets, np.arange(4001))
        freq = np.bincount(roots, minlength=3) / 4000
        assert np.allclose(freq, weights, atol=0.03)

    def test_wrong_length_rejected(self, small_graph):
        with pytest.raises(ParameterError, match="length"):
            WeightedRRSampler(small_graph, "IC", [1.0, 2.0], seed=1)

    def test_negative_weight_rejected(self, small_graph):
        weights = np.ones(small_graph.n)
        weights[0] = -1.0
        with pytest.raises(ParameterError, match="non-negative"):
            WeightedRRSampler(small_graph, "IC", weights, seed=1)

    def test_nan_weight_rejected(self, small_graph):
        weights = np.ones(small_graph.n)
        weights[0] = np.nan
        with pytest.raises(ParameterError):
            WeightedRRSampler(small_graph, "IC", weights, seed=1)

    def test_all_zero_weights_rejected(self, small_graph):
        with pytest.raises(ParameterError, match="positive sum"):
            WeightedRRSampler(small_graph, "IC", np.zeros(small_graph.n), seed=1)

    def test_weighted_lemma31(self, tiny_weighted_graph):
        """Weighted Lemma 3.1: W * Pr[S covers R_w] = sigma_w(S),
        checked against weighted Monte Carlo."""
        n = tiny_weighted_graph.n
        node_weights = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        sampler = WeightedRRSampler(
            tiny_weighted_graph, "IC", node_weights, seed=4
        )
        collection = sampler.new_collection(30000)
        estimate = sampler.estimate_weighted_spread(collection, [0])
        mc = monte_carlo_weighted_spread(
            tiny_weighted_graph, [0], node_weights, "IC", num_samples=30000, seed=5
        )
        low, high = mc.confidence_interval(z=4.0)
        assert low * 0.97 <= estimate <= high * 1.03

    def test_uniform_weights_match_plain_sampler(self, small_graph):
        """All-ones weights reduce to the standard estimator."""
        sampler = WeightedRRSampler(
            small_graph, "IC", np.ones(small_graph.n), seed=6
        )
        collection = sampler.new_collection(5000)
        v = int(np.argmax(collection.node_coverage_counts()))
        weighted = sampler.estimate_weighted_spread(collection, [v])
        plain = collection.estimate_spread([v])
        assert weighted == pytest.approx(plain)

    def test_empty_collection_rejected(self, small_graph):
        sampler = WeightedRRSampler(
            small_graph, "IC", np.ones(small_graph.n), seed=7
        )
        with pytest.raises(ParameterError):
            sampler.estimate_weighted_spread(sampler.new_collection(), [0])


class TestWeightedSpread:
    def test_uniform_reduces_to_plain(self, tiny_weighted_graph):
        from repro.diffusion.spread import monte_carlo_spread

        plain = monte_carlo_spread(
            tiny_weighted_graph, [0], "IC", num_samples=5000, seed=8
        )
        weighted = monte_carlo_weighted_spread(
            tiny_weighted_graph,
            [0],
            np.ones(tiny_weighted_graph.n),
            "IC",
            num_samples=5000,
            seed=8,
        )
        assert weighted.mean == pytest.approx(plain.mean)

    def test_zero_weights_give_zero(self, tiny_weighted_graph):
        estimate = monte_carlo_weighted_spread(
            tiny_weighted_graph,
            [0],
            np.zeros(tiny_weighted_graph.n),
            "IC",
            num_samples=100,
            seed=9,
        )
        assert estimate.mean == 0.0

    def test_empty_seeds(self, tiny_weighted_graph):
        estimate = monte_carlo_weighted_spread(
            tiny_weighted_graph,
            [],
            np.ones(tiny_weighted_graph.n),
            "IC",
            num_samples=10,
            seed=1,
        )
        assert estimate.mean == 0.0

    def test_wrong_length_rejected(self, tiny_weighted_graph):
        with pytest.raises(ParameterError):
            monte_carlo_weighted_spread(
                tiny_weighted_graph, [0], [1.0, 2.0], "IC", num_samples=10
            )


class TestWeightedOPIM:
    def test_weighted_opim_runs(self, small_graph):
        rng_weights = np.random.default_rng(10).uniform(0.5, 2.0, small_graph.n)
        sampler = WeightedRRSampler(small_graph, "IC", rng_weights, seed=11)
        algo = OnlineOPIM(small_graph, "IC", k=3, delta=0.1, sampler=sampler)
        algo.extend(3000)
        snap = algo.query()
        assert 0.0 < snap.alpha <= 1.0
        # The sigma bounds are on the weighted scale.
        assert snap.sigma_up <= rng_weights.sum() * 1.5

    def test_weighted_opim_targets_valuable_nodes(self):
        """Only one clique carries benefit weight: weighted OPIM must
        seed that clique."""
        g = assign_constant_weights(two_cliques(8, bridge=False), 0.6)
        weights = np.zeros(g.n)
        weights[8:] = 1.0  # only the second clique is worth reaching
        sampler = WeightedRRSampler(g, "IC", weights, seed=12)
        algo = OnlineOPIM(g, "IC", k=1, delta=0.1, sampler=sampler)
        algo.extend(2000)
        snap = algo.query()
        assert snap.seeds[0] >= 8

    def test_weighted_alpha_validity(self, tiny_weighted_graph):
        """alpha <= sigma_w(S*) / sigma_w(S_w^o) w.h.p., brute-forced."""
        import itertools

        node_weights = np.array([1.0, 1.0, 1.0, 10.0, 10.0])

        def exact_weighted(seeds):
            # Exact weighted spread by live-edge enumeration.
            from repro.diffusion.triggering import live_edge_spread

            total = 0.0
            probs = tiny_weighted_graph.in_probs
            for outcome in itertools.product(
                (False, True), repeat=tiny_weighted_graph.m
            ):
                mask = np.asarray(outcome, dtype=bool)
                weight = float(np.prod(np.where(mask, probs, 1.0 - probs)))
                if weight == 0.0:
                    continue
                reached = live_edge_spread(tiny_weighted_graph, seeds, mask)
                total += weight * node_weights[reached].sum()
            return total

        k = 2
        opt = max(
            exact_weighted(list(c))
            for c in itertools.combinations(range(tiny_weighted_graph.n), k)
        )
        failures = 0
        trials = 25
        delta = 0.2
        for trial in range(trials):
            sampler = WeightedRRSampler(
                tiny_weighted_graph, "IC", node_weights, seed=100 + trial
            )
            algo = OnlineOPIM(
                tiny_weighted_graph, "IC", k=k, delta=delta, sampler=sampler
            )
            algo.extend(600)
            snap = algo.query()
            if exact_weighted(snap.seeds) < snap.alpha * opt - 1e-9:
                failures += 1
        assert failures <= delta * trials + 3
