"""Tests for one-shot multiprocess RR-set generation.

Each fill opens a :class:`SamplingPool`, draws one quota and closes it
again (the persistent use is covered in ``test_service.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ParameterError
from repro.graph.build import from_edge_list
from repro.sampling.collection import RRCollection
from repro.sampling.service import SamplingPool


def pool_fill(graph, model, count, workers=2, seed=None, collection=None):
    """Draw *count* RR sets through a fresh pool; returns the
    collection and the edges examined."""
    with SamplingPool(graph, model, workers=workers, seed=seed) as pool:
        if collection is None:
            collection = pool.new_collection()
        pool.fill(collection, count)
        return collection, pool.edges_examined


class TestParallelFill:
    def test_count_and_universe(self, small_graph):
        collection, edges = pool_fill(small_graph, "IC", 200, workers=2, seed=1)
        assert len(collection) == 200
        assert collection.n == small_graph.n
        assert edges > 0

    def test_deterministic_for_fixed_seed_and_workers(self, small_graph):
        a, _ = pool_fill(small_graph, "IC", 150, workers=3, seed=5)
        b, _ = pool_fill(small_graph, "IC", 150, workers=3, seed=5)
        assert all(
            np.array_equal(a.get(i), b.get(i)) for i in range(150)
        )

    def test_single_worker_inline(self, small_graph):
        collection, _ = pool_fill(small_graph, "LT", 50, workers=1, seed=2)
        assert len(collection) == 50

    def test_uneven_quota(self, small_graph):
        collection, _ = pool_fill(small_graph, "IC", 7, workers=3, seed=3)
        assert len(collection) == 7

    def test_deterministic_across_worker_counts(self, small_graph):
        """Output depends only on the seed, not on the worker count."""
        a, _ = pool_fill(small_graph, "IC", 120, workers=2, seed=9)
        b, _ = pool_fill(small_graph, "IC", 120, workers=4, seed=9)
        assert all(
            np.array_equal(a.get(i), b.get(i)) for i in range(120)
        )

    def test_append_to_existing(self, small_graph):
        collection = RRCollection(small_graph.n)
        pool_fill(small_graph, "IC", 30, workers=2, seed=5, collection=collection)
        pool_fill(small_graph, "IC", 30, workers=2, seed=6, collection=collection)
        assert len(collection) == 60

    def test_zero_count(self, small_graph):
        collection, edges = pool_fill(small_graph, "IC", 0, workers=2)
        assert len(collection) == 0
        assert edges == 0

    def test_statistics_match_sequential(self, small_graph):
        from repro.sampling.generator import RRSampler

        sequential = RRSampler(small_graph, "IC", seed=8).new_collection(4000)
        parallel, _ = pool_fill(small_graph, "IC", 4000, workers=2, seed=8)
        v = int(np.argmax(sequential.node_coverage_counts()))
        assert parallel.estimate_spread([v]) == pytest.approx(
            sequential.estimate_spread([v]), rel=0.15
        )

    def test_invalid_params(self, small_graph):
        with pytest.raises(ParameterError):
            pool_fill(small_graph, "IC", -1)
        with pytest.raises(ParameterError):
            pool_fill(small_graph, "IC", 10, workers=0)
        with pytest.raises(ParameterError):
            pool_fill(from_edge_list([(0, 1)]), "IC", 10)
        wrong = RRCollection(3)
        with pytest.raises(ParameterError):
            pool_fill(small_graph, "IC", 10, collection=wrong)
