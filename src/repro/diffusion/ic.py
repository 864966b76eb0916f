"""Independent cascade (IC) model: forward simulation."""

from __future__ import annotations

import numpy as np

from repro.diffusion.base import DiffusionModel, register_model
from repro.utils.arrays import gather_slice_index


class Scratch:
    """Reusable per-graph working memory for cascade BFS.

    A stamped visited array and a preallocated queue, so no O(n)
    clearing happens between cascades.
    """

    __slots__ = ("visited", "stamp", "queue")

    def __init__(self, n: int) -> None:
        self.visited = np.zeros(n, dtype=np.int64)
        self.stamp = 0
        self.queue = np.empty(n, dtype=np.int32)

    def next_stamp(self) -> int:
        self.stamp += 1
        return self.stamp


@register_model
class IndependentCascade(DiffusionModel):
    """The IC model of Kempe et al. (2003).

    When a node ``u`` first activates at step ``i``, it gets a single
    chance to activate each currently-inactive out-neighbor ``v`` at
    step ``i + 1``, succeeding independently with probability
    ``p(u, v)``.
    """

    name = "IC"

    def __init__(self, graph) -> None:
        super().__init__(graph)
        self._scratch = Scratch(graph.n)

    def simulate(self, seeds, rng: np.random.Generator) -> np.ndarray:
        """Run one forward cascade; returns activated node ids.

        The BFS is frontier-batched: each round gathers the out-edges
        of the whole frontier in one vectorized pass, so the Python
        loop runs once per cascade *level*, not per node.
        """
        graph = self.graph
        scratch = self._scratch
        stamp = scratch.next_stamp()
        visited = scratch.visited
        queue = scratch.queue

        frontier = np.unique(np.asarray(list(seeds), dtype=np.int64))
        if frontier.size == 0:
            return frontier
        visited[frontier] = stamp
        tail = frontier.size
        queue[:tail] = frontier

        out_offsets = graph.out_offsets
        out_targets = graph.out_targets
        out_probs = graph.out_probs

        while frontier.size:
            index, _ = gather_slice_index(out_offsets, frontier)
            if index.size == 0:
                break
            coins = rng.random(index.size)
            hit = out_targets[index][coins < out_probs[index]]
            if hit.size == 0:
                break
            # Duplicates within one level collapse to one activation.
            fresh = np.unique(hit[visited[hit] != stamp]).astype(np.int64)
            if fresh.size == 0:
                break
            visited[fresh] = stamp
            queue[tail : tail + fresh.size] = fresh
            tail += fresh.size
            frontier = fresh

        return queue[:tail].copy()
