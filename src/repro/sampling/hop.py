"""Hop-bounded spread approximation (Tang et al., arXiv:1705.10442).

RR sampling gives the paper's ``(1-1/e-eps, 1-delta)`` guarantee but
pays for it in samples; many serving queries (previews, what-if
explorations, candidate triage) only need a cheap, *directionally
correct* spread number.  Following the hop-based approach of Tang,
Tang & Xiao (*Influence Maximization Meets Efficiency and
Effectiveness: A Hop-Based Approach*), this module truncates the
cascade at ``h`` hops and evaluates it deterministically in closed
form instead of by Monte-Carlo sampling:

* :meth:`HopEstimator.scores` — Algorithm 1's per-node hop scores,

  .. math:: s_h(u) = 1 + \\sum_{v: u \\to v} p(u, v)\\, s_{h-1}(v)

  with :math:`s_0(u) = 1`, computed by ``h`` backward sweeps over the
  out-CSR arrays (``O(h \\cdot m)``, no randomness).  ``s_h`` upper
  bounds the exact ``h``-hop spread because shared reachable nodes are
  counted once per path.
* :meth:`HopEstimator.spread` — what-if evaluation of a *given* seed
  set: activation probabilities are propagated forward for ``h`` hops
  under the standard independent-activation approximation

  .. math:: r_{t+1}(v) = \\max\\Bigl(r_t(v),\\; 1 - \\prod_{u \\to v}
            \\bigl(1 - p(u, v)\\, r_t(u)\\bigr)\\Bigr)

  (seeds pinned at 1) with products taken in log space for numerical
  stability.  Each round *recomputes* the activation probability from
  the previous round's values rather than compounding into them —
  every IC edge fires at most once, so re-applying the same
  in-neighbour evidence round after round would double-count.  The
  max keeps "reached within :math:`t` hops" monotone in :math:`t`.
* :meth:`HopEstimator.select` — greedy seed choice by hop score with a
  one-hop overlap discount (selecting ``u`` removes ``u``'s term from
  every in-neighbour's score), the cheap analogue of coverage-greedy.

None of these carries the sampling guarantee: every serve response
derived from them must set ``guarantee: false`` (the serve layer's
``precision="hop"`` route does exactly that).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.exceptions import ParameterError
from repro.graph.digraph import DiGraph

__all__ = ["HopEstimator", "DEFAULT_HOPS"]

#: Default truncation depth; arXiv:1705.10442 reports 2-3 hops capture
#: most of the spread mass on social graphs.
DEFAULT_HOPS = 2


class HopEstimator:
    """Deterministic h-hop spread scores, spread, and seed selection.

    Per-``hops`` score vectors are cached on the instance, so a warm
    serve engine pays the ``O(hops * m)`` sweep once per depth.
    """

    def __init__(self, graph: DiGraph) -> None:
        if not graph.weighted:
            raise ParameterError(
                "graph has no edge probabilities; apply a weighting scheme first"
            )
        self.graph = graph
        # Edge owner array for backward accumulation: edge e belongs to
        # source node repeat(u, out_degree(u)).
        self._edge_owner = np.repeat(
            np.arange(graph.n, dtype=np.int64), np.diff(graph.out_offsets)
        )
        self._scores: Dict[int, np.ndarray] = {}

    @staticmethod
    def _check_hops(hops: int) -> int:
        hops = int(hops)
        if not 1 <= hops <= 16:
            raise ParameterError(f"hops must be in [1, 16], got {hops}")
        return hops

    def scores(self, hops: int = DEFAULT_HOPS) -> np.ndarray:
        """Per-node hop scores ``s_hops`` (Algorithm 1), cached."""
        hops = self._check_hops(hops)
        cached = self._scores.get(hops)
        if cached is not None:
            return cached
        graph = self.graph
        s = np.ones(graph.n, dtype=np.float64)
        for _ in range(hops):
            acc = np.ones(graph.n, dtype=np.float64)
            np.add.at(
                acc,
                self._edge_owner,
                graph.out_probs * s[graph.out_targets],
            )
            s = acc
        s.setflags(write=False)
        self._scores[hops] = s
        return s

    def spread(self, seeds: List[int], hops: int = DEFAULT_HOPS) -> float:
        """Approximate spread of *seeds* after ``hops`` activation rounds.

        Deterministic what-if evaluation: returns the expected number of
        active nodes under the independent-activation approximation, a
        value in ``[len(seeds), n]``.  No sampling guarantee.
        """
        hops = self._check_hops(hops)
        graph = self.graph
        seed_array = self._validate_seeds(seeds)
        reach = np.zeros(graph.n, dtype=np.float64)
        reach[seed_array] = 1.0
        offsets = graph.out_offsets
        for _ in range(hops):
            # log(1 - p(u,v) * r(u)) summed per target v, over the
            # out-edges of reached nodes only: an edge whose source has
            # reach 0 adds log1p(-0) = -0.0, which changes no sum.  The
            # edges keep CSR order, so each sum adds the same terms in the
            # same order as a pass over every edge.
            sources = np.flatnonzero(reach)
            starts = offsets[sources]
            degrees = offsets[sources + 1] - starts
            reached = int(degrees.sum())
            edges = np.repeat(starts - (np.cumsum(degrees) - degrees), degrees)
            edges += np.arange(reached, dtype=np.int64)
            # In place: one float array per reached edge.
            factor = np.repeat(reach[sources], degrees)
            factor *= graph.out_probs[edges]
            np.clip(factor, 0.0, 1.0 - 1e-15, out=factor)
            np.negative(factor, out=factor)
            log_miss = np.bincount(
                graph.out_targets[edges],
                weights=np.log1p(factor, out=factor),
                minlength=graph.n,
            )
            new_reach = np.maximum(reach, 1.0 - np.exp(log_miss))
            new_reach[seed_array] = 1.0
            if np.allclose(new_reach, reach, rtol=0.0, atol=1e-12):
                break
            reach = new_reach
        return float(reach.sum())

    def select(
        self, k: int, hops: int = DEFAULT_HOPS
    ) -> Tuple[List[int], float]:
        """Greedily pick ``k`` seeds by hop score with overlap discount.

        Returns ``(seeds, sigma_hop)`` where ``sigma_hop`` is the hop
        spread of the chosen set (via :meth:`spread`).  After selecting
        ``u``, every in-neighbour ``w`` loses ``p(w, u) * s_{hops-1}(u)``
        from its working score — the term ``u`` contributed — so tightly
        clustered high scorers are not all picked.
        """
        graph = self.graph
        if not 1 <= k <= graph.n:
            raise ParameterError(f"k must be in [1, {graph.n}], got {k}")
        hops = self._check_hops(hops)
        working = self.scores(hops).copy()
        inner = (
            self.scores(hops - 1)
            if hops > 1
            else np.ones(graph.n, dtype=np.float64)
        )
        in_offsets = graph.in_offsets
        in_sources = graph.in_sources
        in_probs = graph.in_probs
        seeds: List[int] = []
        for _ in range(k):
            u = int(np.argmax(working))
            seeds.append(u)
            working[u] = -np.inf
            lo, hi = int(in_offsets[u]), int(in_offsets[u + 1])
            if hi > lo:
                np.subtract.at(
                    working,
                    in_sources[lo:hi].astype(np.int64),
                    in_probs[lo:hi] * inner[u],
                )
        return seeds, self.spread(seeds, hops)

    def _validate_seeds(self, seeds: List[int]) -> np.ndarray:
        seed_array = np.asarray(list(seeds), dtype=np.int64)
        if seed_array.size == 0:
            raise ParameterError("seeds must be a non-empty node list")
        if seed_array.min() < 0 or seed_array.max() >= self.graph.n:
            raise ParameterError(
                f"seeds must be node ids in [0, {self.graph.n})"
            )
        if np.unique(seed_array).size != seed_array.size:
            raise ParameterError("seeds must not contain duplicates")
        return seed_array

    def __repr__(self) -> str:
        return (
            f"HopEstimator(graph={self.graph.name!r}, "
            f"cached_hops={sorted(self._scores)})"
        )
