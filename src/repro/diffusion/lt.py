"""Linear threshold (LT) model: forward simulation."""

from __future__ import annotations

import numpy as np

from repro.diffusion.base import DiffusionModel, register_model
from repro.utils.arrays import gather_slice_index


@register_model
class LinearThreshold(DiffusionModel):
    """The LT model of Kempe et al. (2003).

    Each node ``v`` draws a threshold ``lambda_v ~ U[0, 1]``.  An
    inactive node activates once the summed probabilities of its
    *activated* in-neighbors reach the threshold.  The model requires
    each node's incoming probabilities to sum to at most 1, which is
    validated at construction time.
    """

    name = "LT"

    def __init__(self, graph) -> None:
        super().__init__(graph)
        graph.validate_lt()
        self._acc = np.zeros(graph.n, dtype=np.float64)

    def simulate(self, seeds, rng: np.random.Generator) -> np.ndarray:
        """Run one forward cascade; returns activated node ids.

        Frontier-batched: each round adds the frontier's out-edge
        weights to the targets' accumulators in one ``np.add.at`` and
        activates every touched node whose accumulator crossed its
        threshold.  Because a node enters the frontier exactly once,
        each edge's weight is accumulated exactly once — the LT
        dynamics.  Thresholds are drawn up front per cascade.
        """
        graph = self.graph
        n = graph.n
        frontier = np.unique(np.asarray(list(seeds), dtype=np.int64))
        if frontier.size == 0:
            return frontier

        # Per-cascade state: activation flags and weight accumulators.
        active = np.zeros(n, dtype=bool)
        acc = self._acc
        acc[:] = 0.0
        # U[0,1); a zero threshold would self-activate, so nudge it up.
        thresholds = rng.random(n)
        np.maximum(thresholds, 1e-15, out=thresholds)

        active[frontier] = True
        activated = [frontier]

        out_offsets = graph.out_offsets
        out_targets = graph.out_targets
        out_probs = graph.out_probs

        while frontier.size:
            index, _ = gather_slice_index(out_offsets, frontier)
            if index.size == 0:
                break
            targets = out_targets[index].astype(np.int64)
            np.add.at(acc, targets, out_probs[index])
            touched = np.unique(targets)
            fresh = touched[
                ~active[touched] & (acc[touched] >= thresholds[touched])
            ]
            if fresh.size == 0:
                break
            active[fresh] = True
            activated.append(fresh)
            frontier = fresh

        return np.concatenate(activated)
