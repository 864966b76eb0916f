"""Random RR-set generation under the general triggering model.

The triggering model (Kempe et al. 2003; paper Section 6 and Appendix
A) subsumes IC and LT: each node ``v`` independently samples a
*triggering set* ``T(v)`` from a distribution over subsets of its
in-neighbors, and a live-edge graph keeps exactly the edges
``<w, v>`` with ``w in T(v)``.

A random RR set rooted at ``v`` is then the set of nodes that reach
``v`` in the live-edge graph — computable *lazily* by a reverse BFS
that samples ``T(u)`` only for nodes ``u`` it actually reaches.
:func:`repro.sampling.kernel.sample_rr_sets_triggering_kernel` runs
that lazy reverse traversal for an arbitrary triggering-set sampler,
so ``RRSampler(graph, "TRIGGERING", triggering_sets=...)`` (and
therefore OPIM / OPIM-C, via their ``sampler`` injection point) runs
on any triggering-model instance, exactly as the paper's Section 6
analysis permits.

Provided triggering-set samplers:

* :func:`ic_triggering_sets` — each in-edge enters independently with
  its probability (recovers the IC RR distribution);
* :func:`lt_triggering_sets` — at most one in-edge, chosen with
  probability proportional to its weight (recovers LT);
* :func:`fixed_size_triggering_sets` — a uniform random subset of
  exactly ``min(r, in_degree)`` in-neighbors, a simple non-IC/LT
  instance used in tests and ablations.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.exceptions import ParameterError
from repro.graph.digraph import DiGraph
from repro.sampling.rrset_lt import LTAliasTables

#: ``f(node, rng) -> array of sampled in-neighbors`` (the node's T(v)).
TriggeringSetSampler = Callable[[int, np.random.Generator], np.ndarray]


def ic_triggering_sets(graph: DiGraph) -> TriggeringSetSampler:
    """IC as a triggering model: independent per-edge inclusion."""
    if not graph.weighted:
        raise ParameterError("graph must be weighted")
    offsets, sources, probs = graph.in_offsets, graph.in_sources, graph.in_probs

    def sample(node: int, rng: np.random.Generator) -> np.ndarray:
        lo, hi = offsets[node], offsets[node + 1]
        if hi == lo:
            return sources[:0]
        keep = rng.random(int(hi - lo)) < probs[lo:hi]
        return sources[lo:hi][keep]

    return sample


def lt_triggering_sets(graph: DiGraph) -> TriggeringSetSampler:
    """LT as a triggering model: at most one in-neighbor, alias-sampled."""
    tables = LTAliasTables(graph)
    offsets, sources = graph.in_offsets, graph.in_sources
    accept, alias, continue_prob = tables.accept, tables.alias, tables.continue_prob

    def sample(node: int, rng: np.random.Generator) -> np.ndarray:
        cp = continue_prob[node]
        if cp <= 0.0 or rng.random() >= cp:
            return sources[:0]
        lo, hi = int(offsets[node]), int(offsets[node + 1])
        column = int(rng.integers(0, hi - lo))
        if rng.random() >= accept[lo + column]:
            column = int(alias[lo + column])
        return sources[lo + column : lo + column + 1]

    return sample


def fixed_size_triggering_sets(graph: DiGraph, r: int) -> TriggeringSetSampler:
    """Each node's T(v) is a uniform subset of ``min(r, d)`` in-neighbors.

    Not an IC/LT instance (inclusion is negatively correlated), which
    is exactly why tests use it to exercise the generic path.
    """
    if r < 0:
        raise ParameterError(f"r must be non-negative, got {r}")
    offsets, sources = graph.in_offsets, graph.in_sources

    def sample(node: int, rng: np.random.Generator) -> np.ndarray:
        lo, hi = int(offsets[node]), int(offsets[node + 1])
        d = hi - lo
        if d == 0 or r == 0:
            return sources[:0]
        if r >= d:
            return sources[lo:hi]
        picks = rng.choice(d, size=r, replace=False)
        return sources[lo + picks]

    return sample
