"""Alias tables for LT-model RR sets (paper, Appendix A).

An LT RR set rooted at ``v`` is a *reverse random walk*: at the current
node ``u`` the walk stops with probability ``1 - sum_w p(w, u)`` and
otherwise moves to one in-neighbor ``x`` chosen with probability
proportional to ``p(x, u)``.  The walk also stops upon revisiting a
node (under the LT live-edge interpretation each node selects at most
one incoming edge, so the reverse reachable subgraph is a path until it
closes a cycle).  The walks themselves run in
:func:`repro.sampling.kernel.sample_rr_sets_lt_kernel`.

Per-node alias tables (:class:`LTAliasTables`) make each step O(1), as
in the paper's Appendix A, after an O(n + m) preprocessing pass.  That
pass is :func:`repro.sampling.alias.build_alias_segments`: one
vectorized build over every node's in-edge segment, bitwise equal to
building each node's table with
:func:`~repro.sampling.alias.build_alias_arrays`, so the RR streams do
not depend on which of the two built the tables.
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import DiGraph
from repro.sampling.alias import build_alias_segments


class LTAliasTables:
    """Per-node alias tables over in-neighbors, laid out flat in CSR order.

    For node ``u`` with in-edges in ``[lo, hi)`` of the in-CSR arrays:

    * ``continue_prob[u]`` is ``sum_w p(w, u)`` (clipped to 1), the
      probability that the reverse walk continues past ``u``;
    * ``accept[lo:hi]`` / ``alias[lo:hi]`` are Walker tables over the
      local in-neighbor indices ``0 .. hi-lo-1``.
    """

    __slots__ = ("accept", "alias", "continue_prob")

    def __init__(self, graph: DiGraph) -> None:
        graph.validate_lt()
        self.accept, self.alias, totals = build_alias_segments(
            graph.in_probs, graph.in_offsets
        )
        self.continue_prob = np.minimum(graph.in_prob_sums(), 1.0)
        # All-zero in-probabilities: the walk never continues past the
        # node, and its table (accept 1, alias 0) is never read.
        self.continue_prob[totals <= 0.0] = 0.0
