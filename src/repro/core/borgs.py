"""Borgs et al.'s online algorithm for OPIM (paper, Section 3.2).

The algorithm streams RR sets while counting the total number of edges
examined, ``gamma``.  Whenever ``gamma`` crosses a power of two it
freezes a checkpoint: the greedy seed set over everything sampled so
far, with reported guarantee

    ``min(1/4, beta)``,   ``beta = gamma / (1492992 (n + m) ln n)``.

A user query returns the latest checkpoint.  The constant ``1492992``
comes from Borgs et al.'s analysis; it is why the reported guarantee is
essentially zero at any practical budget (the paper's Figures 2–5 show
the flat-zero curves this reproduces).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.results import OnlineSnapshot
from repro.exceptions import ParameterError, StateError
from repro.graph.digraph import DiGraph
from repro.maxcover.greedy import greedy_max_coverage
from repro.sampling.kernel import RRSampler
from repro.utils.rng import SeedLike
from repro.utils.timer import Timer
from repro.utils.validation import check_k

#: The constant in Borgs et al.'s beta formula.
BORGS_CONSTANT = 1_492_992

#: The hard cap on the reported approximation ratio.
BORGS_CAP = 0.25


def borgs_beta(gamma: int, n: int, m: int) -> float:
    """``beta = gamma / (1492992 (n + m) ln n)`` — Borgs et al.'s
    reported-guarantee formula as used in the paper's Section 3.2."""
    if n < 2:
        raise ParameterError("Borgs' beta needs n >= 2 (ln n > 0)")
    return gamma / (BORGS_CONSTANT * (n + m) * math.log(n))


class BorgsOnline:
    """Streaming Borgs et al. online algorithm.

    The reproduction exposes the same driving interface as
    :class:`~repro.core.opim.OnlineOPIM` (``extend`` / ``extend_to`` /
    ``query``) so the experiment harness can checkpoint all online
    algorithms at identical RR-set budgets.
    """

    def __init__(
        self,
        graph: DiGraph,
        model: str,
        k: int,
        delta: Optional[float] = None,
        seed: SeedLike = None,
    ) -> None:
        check_k(k, graph.n)
        self.graph = graph
        self.k = k
        # delta is accepted for interface parity; Borgs et al.'s base
        # guarantee holds w.p. 3/5 and is boosted by repetition, which
        # the reported beta does not depend on.
        self.delta = delta if delta is not None else 1.0 / graph.n
        self.sampler = RRSampler(graph, model, seed=seed)
        self.collection = self.sampler.new_collection()
        self.timer = Timer()
        self._checkpoint: Optional[OnlineSnapshot] = None
        self._next_gamma_power = 1

    @property
    def num_rr_sets(self) -> int:
        return len(self.collection)

    @property
    def gamma(self) -> int:
        """Total edges examined during RR-set construction."""
        return self.sampler.edges_examined

    def extend(self, count: int) -> None:
        """Generate *count* more RR sets, freezing power-of-two checkpoints."""
        if count < 0:
            raise ParameterError(f"count must be non-negative, got {count}")
        with self.timer:
            for _ in range(count):
                # One-set fills keep gamma exact per RR set: a batched
                # draw would charge edges of sets not yet collected.
                self.sampler.fill(self.collection, 1)
                if self.gamma >= self._next_gamma_power:
                    self._freeze_checkpoint()
                    while self._next_gamma_power <= self.gamma:
                        self._next_gamma_power *= 2

    def extend_to(self, total: int) -> None:
        missing = total - self.num_rr_sets
        if missing > 0:
            self.extend(missing)

    def _freeze_checkpoint(self) -> None:
        greedy = greedy_max_coverage(self.collection, self.k)
        beta = borgs_beta(self.gamma, self.graph.n, self.graph.m)
        self._checkpoint = OnlineSnapshot(
            seeds=list(greedy.seeds),
            alpha=min(BORGS_CAP, beta),
            variant="borgs",
            num_rr_sets=self.num_rr_sets,
            coverage_r1=greedy.coverage,
            edges_examined=self.gamma,
            elapsed=self.timer.elapsed,
        )

    def query(self) -> OnlineSnapshot:
        """Return the most recent power-of-two checkpoint."""
        if self._checkpoint is None:
            raise StateError(
                "no checkpoint frozen yet; call extend() before query()"
            )
        return self._checkpoint
