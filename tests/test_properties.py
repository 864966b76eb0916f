"""Cross-module property-based tests (hypothesis).

These complement the per-module suites by fuzzing whole pipelines:
random graph -> weighting -> sampling -> greedy -> bounds -> alpha.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.opim import OnlineOPIM
from repro.graph.build import from_edge_list
from repro.graph.generators import power_law_graph
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.weights import assign_uniform_weights, assign_wc_weights
from repro.maxcover.greedy import greedy_max_coverage
from repro.sampling.collection import RRCollection
from repro.sampling.generator import RRSampler


@st.composite
def weighted_graphs(draw):
    n = draw(st.integers(8, 40))
    avg_degree = draw(st.floats(1.5, 5.0))
    seed = draw(st.integers(0, 10**6))
    scheme = draw(st.sampled_from(["wc", "uniform"]))
    g = power_law_graph(n, avg_degree, seed=seed)
    if scheme == "wc":
        return assign_wc_weights(g)
    return assign_uniform_weights(g, 0.0, 0.5, seed=seed)


class TestPipelineInvariants:
    @given(weighted_graphs(), st.sampled_from(["IC", "LT"]), st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_rr_sets_are_valid(self, graph, model, seed):
        """Every sampled RR set: non-empty, unique, in-range nodes,
        root first."""
        if model == "LT":
            # Uniform weights may violate the LT constraint; skip those.
            sums = graph.in_prob_sums()
            if np.any(sums > 1.0 + 1e-9):
                return
        collection = RRSampler(graph, model, seed=seed).new_collection(20)
        for nodes in collection.sets():
            assert nodes.size >= 1
            assert len(set(nodes.tolist())) == nodes.size
            assert nodes.min() >= 0 and nodes.max() < graph.n

    @given(weighted_graphs(), st.integers(0, 100), st.integers(1, 5))
    @settings(max_examples=20, deadline=None)
    def test_alpha_always_in_unit_interval(self, graph, seed, k):
        k = min(k, graph.n)
        algo = OnlineOPIM(graph, "IC", k=k, delta=0.1, seed=seed)
        algo.extend(200)
        for variant in ("vanilla", "greedy", "leskovec"):
            snap = algo.query(bound=variant)
            assert 0.0 <= snap.alpha <= 1.0
            assert snap.sigma_low <= snap.sigma_up + 1e-9

    @given(weighted_graphs(), st.integers(0, 100))
    @settings(max_examples=20, deadline=None)
    def test_coverage_is_monotone_submodular(self, graph, seed):
        """Lambda(.) over a sampled collection is monotone and
        submodular — the properties Lemma 5.1's proof uses."""
        sampler = RRSampler(graph, "IC", seed=seed)
        collection = sampler.new_collection(60)
        rng = np.random.default_rng(seed)
        nodes = rng.choice(graph.n, size=min(4, graph.n), replace=False)
        a = list(nodes[:1])
        b = list(nodes[: max(2, nodes.size // 2)])
        v = int(nodes[-1])
        # Monotone: Lambda(A) <= Lambda(B) for A subset of B.
        assert collection.coverage(a) <= collection.coverage(b)
        # Submodular: marginal of v w.r.t. A >= w.r.t. B (A subset B).
        gain_a = collection.coverage(a + [v]) - collection.coverage(a)
        gain_b = collection.coverage(b + [v]) - collection.coverage(b)
        if v not in b:
            assert gain_a >= gain_b

    @given(weighted_graphs(), st.integers(0, 100), st.integers(1, 4))
    @settings(max_examples=20, deadline=None)
    def test_greedy_coverage_bounded_by_collection(self, graph, seed, k):
        k = min(k, graph.n)
        sampler = RRSampler(graph, "IC", seed=seed)
        collection = sampler.new_collection(80)
        result = greedy_max_coverage(collection, k)
        assert 0 <= result.coverage <= len(collection)
        # Greedy's first pick covers the max singleton coverage.
        counts = collection.node_coverage_counts()
        assert result.gains[0] == counts.max()


class TestIORoundTripProperty:
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)),
            min_size=1,
            max_size=20,
            unique=True,
        ),
        probs_seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_weighted_round_trip(self, edges, probs_seed, tmp_path_factory):
        edges = [(u, v) for u, v in edges if u != v]
        if not edges:
            return
        rng = np.random.default_rng(probs_seed)
        weighted = [(u, v, float(rng.random())) for u, v in edges]
        g = from_edge_list(weighted, n=10)
        path = tmp_path_factory.mktemp("io") / "g.txt"
        write_edge_list(g, path)
        assert read_edge_list(path) == g


class TestCollectionBuildProperty:
    @given(
        sets=st.lists(
            st.lists(st.integers(0, 11), min_size=1, max_size=6, unique=True),
            min_size=1,
            max_size=25,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_inverted_index_consistency(self, sets):
        """node -> RR ids and RR id -> nodes must describe the same
        bipartite membership relation."""
        c = RRCollection(12)
        for nodes in sets:
            c.append(np.array(nodes, dtype=np.int32))
        c.build()
        for rr_id, nodes in enumerate(sets):
            stored = c.get(rr_id).tolist()
            assert sorted(stored) == sorted(nodes)
            for node in nodes:
                assert rr_id in c.rr_sets_containing(node).tolist()
        for node in range(12):
            for rr_id in c.rr_sets_containing(node).tolist():
                assert node in c.get(rr_id).tolist()
