"""Weighted-root RR-set sampling.

The weighted analogue of Lemma 3.1: if the RR root is drawn with
probability ``w_v / W`` then for any seed set ``S``

    ``sigma_w(S) = W * Pr[S intersects R]``,

because ``Pr[S covers R | root = v] = Pr[S activates v]``.  The proof
is the paper's Lemma 3.1 argument verbatim with the uniform root
distribution replaced by ``w / W`` — every downstream component
(greedy coverage, Lemma 4.1 martingale bounds, the OPIM split) only
sees i.i.d. RR sets and a scale factor, so the whole pipeline carries
over by swapping ``n`` for ``W``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import ParameterError
from repro.graph.digraph import DiGraph
from repro.sampling.alias import AliasTable
from repro.sampling.collection import RRCollection
from repro.sampling.kernel import RRSampler
from repro.utils.rng import SeedLike


class WeightedRRSampler(RRSampler):
    """An :class:`RRSampler` whose roots follow node benefit weights.

    Parameters
    ----------
    graph, model, seed:
        As for :class:`RRSampler`.
    node_weights:
        Non-negative benefit per node; at least one must be positive.
        ``universe_weight`` (the ``W`` replacing ``n`` in estimates and
        bounds) is their sum.

    >>> from repro.graph import star_graph, assign_wc_weights
    >>> g = assign_wc_weights(star_graph(4))
    >>> weights = [0.0, 1.0, 1.0, 1.0]   # the hub itself is worthless
    >>> sampler = WeightedRRSampler(g, "IC", weights, seed=1)
    >>> sampler.sample_one() is not None
    True
    """

    def __init__(
        self,
        graph: DiGraph,
        model: str,
        node_weights,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(graph, model, seed=seed)
        weights = np.asarray(node_weights, dtype=np.float64)
        if weights.shape != (graph.n,):
            raise ParameterError(
                f"node_weights must have length n={graph.n}, got {weights.shape}"
            )
        if np.any(weights < 0) or not np.all(np.isfinite(weights)):
            raise ParameterError("node_weights must be finite and non-negative")
        total = float(weights.sum())
        if total <= 0:
            raise ParameterError("node_weights must have positive sum")
        self.node_weights = weights
        self.universe_weight = total
        self._root_table = AliasTable(weights)

    def _draw_roots(self, size: int) -> np.ndarray:
        """Roots of one batch: one vectorized draw from ``w / W``."""
        return self._root_table.sample(size=size, seed=self.rng)

    def estimate_weighted_spread(
        self, collection: RRCollection, seeds
    ) -> float:
        """``W * Lambda(S) / theta`` — the weighted Lemma 3.1 estimate."""
        if len(collection) == 0:
            raise ParameterError("cannot estimate from an empty collection")
        return self.universe_weight * collection.coverage(seeds) / len(collection)
