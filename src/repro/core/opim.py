"""The paper's online OPIM algorithm (Sections 4–5).

:class:`OnlineOPIM` streams random RR sets into two disjoint
collections of equal size — ``R1`` (the *nominators*, from which the
seed set is selected greedily) and ``R2`` (the *judges*, on which the
seed set's spread is lower-bounded).  At any point the user may call
:meth:`OnlineOPIM.query` to obtain a seed set and an instance-specific
approximation guarantee

    ``alpha = sigma_l(S*) / sigma_u(S^o)``

that holds with probability at least ``1 - delta``, where

* ``sigma_l`` is Eq. 5 evaluated on ``R2`` with ``delta_2 = delta/2``;
* ``sigma_u`` is Eq. 8 / 13 / 15 evaluated on ``R1`` with
  ``delta_1 = delta/2``, depending on the *bound variant*:

  - ``"vanilla"``  (OPIM⁰): pessimistic ``Lambda_1(S*)/(1 - 1/e)``;
  - ``"greedy"``   (OPIM⁺): Eq. 10 greedy-history bound — the default;
  - ``"leskovec"`` (OPIM′): Leskovec-style final-prefix bound.

The three variants share the sampling stream and the greedy pass, so
:meth:`query_all` evaluates all of them for the cost of one.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional, Tuple

from repro.bounds.concentration import (
    approximation_guarantee,
    sigma_lower_bound,
    sigma_upper_bound,
)
from repro.core.results import OnlineSnapshot
from repro.exceptions import ParameterError
from repro.graph.digraph import DiGraph
from repro.maxcover.bounds import (
    coverage_upper_bound_greedy,
    coverage_upper_bound_leskovec,
)
from repro.maxcover.greedy import GreedyResult, greedy_max_coverage
from repro.obs import resolve_registry
from repro.sampling.collection import RRCollection
from repro.sampling.kernel import RRSampler
from repro.sampling.service import SamplingPool
from repro.utils.rng import SeedLike
from repro.utils.timer import Timer
from repro.utils.validation import check_delta, check_k

#: Bound variants in the paper's naming: OPIM0, OPIM+, OPIM'.
BOUND_VARIANTS = ("vanilla", "greedy", "leskovec")


class OnlineOPIM:
    """Pause-anytime influence maximization (the paper's main algorithm).

    Parameters
    ----------
    graph:
        Weighted directed graph.
    model:
        Diffusion model, ``"IC"`` or ``"LT"``.
    k:
        Seed-set size.
    delta:
        Per-query failure probability (paper default ``1/n``).
    bound:
        Default bound variant for :meth:`query`.
    seed:
        RNG seed / generator for the sampling stream.
    registry:
        Optional :class:`~repro.obs.MetricsRegistry` for phase tracing
        and counters; every query also appends one telemetry row to
        :attr:`alpha_trajectory` and emits an ``alpha_row`` event.
    workers:
        When ``> 1``, stream RR sets through a persistent
        :class:`~repro.sampling.service.SamplingPool` owned by this
        instance — the worker pool and the shared-memory graph stay
        warm across every ``extend``/``query`` pause/resume step.
        Call :meth:`close` (or use the instance as a context manager)
        when done; an externally managed pool can be passed via
        ``sampler=`` instead.

    Examples
    --------
    >>> from repro.graph import power_law_graph, assign_wc_weights
    >>> g = assign_wc_weights(power_law_graph(300, 6, seed=7))
    >>> algo = OnlineOPIM(g, "IC", k=5, delta=1/300, seed=7)
    >>> algo.extend(2000)
    >>> snap = algo.query()
    >>> 0.0 <= snap.alpha <= 1.0
    True
    """

    def __init__(
        self,
        graph: DiGraph,
        model: str,
        k: int,
        delta: Optional[float] = None,
        bound: str = "greedy",
        seed: SeedLike = None,
        sampler: Optional[Any] = None,
        registry: Optional[object] = None,
        workers: Optional[int] = None,
    ) -> None:
        check_k(k, graph.n)
        if delta is None:
            delta = 1.0 / graph.n
        check_delta(delta)
        if bound not in BOUND_VARIANTS:
            raise ParameterError(
                f"bound must be one of {BOUND_VARIANTS}, got {bound!r}"
            )
        if workers is not None and workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        if sampler is not None and workers is not None and workers > 1:
            raise ParameterError(
                "pass either a custom sampler or workers > 1, not both"
            )
        self.graph = graph
        self.k = k
        self.delta = float(delta)
        self.bound = bound
        self.obs = resolve_registry(registry)
        self._owns_pool = False
        if sampler is not None:
            # Custom sampler injection (e.g. an RRSampler on a
            # non-IC/LT triggering model, per the paper's Section 6,
            # or an externally managed SamplingPool).
            if sampler.graph is not graph:
                raise ParameterError("sampler must be bound to the same graph")
            self.sampler = sampler
        elif workers is not None and workers > 1:
            self.sampler = SamplingPool(
                graph,
                model,
                workers=workers,
                seed=seed,
                registry=self.obs,
            )
            self._owns_pool = True
        else:
            self.sampler = RRSampler(graph, model, seed=seed, registry=self.obs)
        self.r1 = self.sampler.new_collection()
        self.r2 = self.sampler.new_collection()
        self.timer = Timer()
        #: Telemetry rows (one dict per snapshot taken), in query order.
        self.alpha_trajectory: list = []
        self._greedy_cache: Optional[Tuple[int, GreedyResult]] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the owned sampling pool, if ``workers > 1`` created
        one (no-op otherwise; Section 4's pause/resume loop holds the
        pool open until the session is over)."""
        if self._owns_pool:
            self.sampler.close()

    def __enter__(self) -> "OnlineOPIM":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Streaming
    # ------------------------------------------------------------------
    @property
    def num_rr_sets(self) -> int:
        """Total RR sets generated so far (``theta_1 + theta_2``)."""
        return len(self.r1) + len(self.r2)

    def extend(self, count: int) -> None:
        """Generate *count* more RR sets, split evenly over R1 and R2.

        An odd *count* is rejected so ``|R1| == |R2|`` always holds, as
        the paper's analysis assumes.
        """
        if count < 0:
            raise ParameterError(f"count must be non-negative, got {count}")
        if count % 2 != 0:
            raise ParameterError(
                f"count must be even to keep |R1| == |R2|, got {count}"
            )
        with self.timer, self.obs.trace("opim/extend"):
            self.sampler.fill(self.r1, count // 2)
            self.sampler.fill(self.r2, count // 2)

    def extend_to(self, total: int) -> None:
        """Grow the stream until ``num_rr_sets`` reaches *total*."""
        missing = total - self.num_rr_sets
        if missing > 0:
            self.extend(missing + (missing % 2))

    def adopt_collections(self, r1: RRCollection, r2: RRCollection) -> None:
        """Adopt externally owned nominator/judge collections.

        The serving layer (:mod:`repro.serve`) keeps **one** RR-sketch
        stream per ``(graph, model, seed)`` and shares it across many
        per-``k`` algorithm instances: RR sets are ``k``-independent
        (Section 3.1), so only the greedy pass and the Eq. 5 / Eq. 8
        bound evaluations are per query.  Adopting replaces this
        instance's collections with the shared pair; subsequent
        ``extend`` calls grow the shared pair through this instance's
        sampler.

        The collections must be distinct objects (the nominator/judge
        role split of Section 4.1 is what the guarantee rests on) and
        defined over this graph's node universe.
        """
        if r1 is r2:
            raise ParameterError(
                "R1 and R2 must be distinct collections (the guarantee "
                "requires disjoint nominator/judge samples)"
            )
        if r1.n != self.graph.n or r2.n != self.graph.n:
            raise ParameterError(
                f"collections are over {r1.n}/{r2.n} nodes; "
                f"graph has {self.graph.n}"
            )
        self.r1 = r1
        self.r2 = r2
        self._greedy_cache = None

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def _run_greedy(self) -> GreedyResult:
        """Greedy over R1, cached per collection size."""
        if len(self.r1) == 0:
            raise ParameterError(
                "no RR sets generated yet; call extend() before query()"
            )
        size = len(self.r1)
        if self._greedy_cache is None or self._greedy_cache[0] != size:
            with self.obs.trace("greedy"):
                result = greedy_max_coverage(self.r1, self.k, registry=self.obs)
            self._greedy_cache = (size, result)
        return self._greedy_cache[1]

    def _coverage_upper(self, greedy: GreedyResult, variant: str) -> float:
        if variant == "vanilla":
            # The paper's Eq. 6/8 uses the asymptotic 1 - 1/e ratio.
            return greedy.coverage / (1.0 - 1.0 / math.e)
        if variant == "greedy":
            return coverage_upper_bound_greedy(greedy)
        if variant == "leskovec":
            return coverage_upper_bound_leskovec(greedy)
        raise ParameterError(f"unknown bound variant {variant!r}")

    def query(
        self,
        bound: Optional[str] = None,
        delta1: Optional[float] = None,
        delta2: Optional[float] = None,
    ) -> OnlineSnapshot:
        """Pause and report ``(S*, alpha)`` for one bound variant.

        ``delta1``/``delta2`` default to ``delta/2`` each (the
        near-optimal split per Lemma 4.4); custom values must satisfy
        ``delta1 + delta2 <= delta`` for the guarantee to hold.
        """
        variant = bound or self.bound
        if variant not in BOUND_VARIANTS:
            raise ParameterError(
                f"bound must be one of {BOUND_VARIANTS}, got {variant!r}"
            )
        if delta1 is None and delta2 is None:
            delta1 = delta2 = self.delta / 2.0
        elif delta1 is None or delta2 is None:
            raise ParameterError("provide both delta1 and delta2 or neither")
        elif delta1 + delta2 > self.delta + 1e-12:
            raise ParameterError(
                f"delta1 + delta2 = {delta1 + delta2} exceeds delta = {self.delta}"
            )

        with self.timer, self.obs.trace("opim/query"):
            greedy = self._run_greedy()
            snapshot = self._snapshot(greedy, variant, delta1, delta2)
        return snapshot

    def query_all(self) -> Dict[str, OnlineSnapshot]:
        """Evaluate all three bound variants on the shared greedy pass."""
        with self.timer, self.obs.trace("opim/query_all"):
            greedy = self._run_greedy()
            d = self.delta / 2.0
            snapshots = {
                variant: self._snapshot(greedy, variant, d, d)
                for variant in BOUND_VARIANTS
            }
        return snapshots

    def _snapshot(
        self,
        greedy: GreedyResult,
        variant: str,
        delta1: float,
        delta2: float,
    ) -> OnlineSnapshot:
        # "n" in the paper's formulas is the universe scale factor; a
        # weighted-root sampler substitutes the total node weight W.
        n = self.sampler.universe_weight
        theta1 = len(self.r1)
        theta2 = len(self.r2)
        coverage_r2 = self.r2.coverage(greedy.seeds) if theta2 else 0
        sigma_low = (
            sigma_lower_bound(coverage_r2, theta2, n, delta2) if theta2 else 0.0
        )
        coverage_upper = self._coverage_upper(greedy, variant)
        sigma_up = sigma_upper_bound(coverage_upper, theta1, n, delta1)
        alpha = approximation_guarantee(sigma_low, sigma_up)
        row = {
            "algorithm": "OPIM",
            "variant": variant,
            "query": len(self.alpha_trajectory) + 1,
            "theta1": theta1,
            "theta2": theta2,
            "sigma_low": sigma_low,
            "sigma_up": sigma_up,
            "alpha": alpha,
        }
        self.alpha_trajectory.append(row)
        self.obs.record("alpha_row", **row)
        return OnlineSnapshot(
            seeds=list(greedy.seeds),
            alpha=alpha,
            variant=variant,
            num_rr_sets=self.num_rr_sets,
            theta1=theta1,
            theta2=theta2,
            sigma_low=sigma_low,
            sigma_up=sigma_up,
            coverage_r1=greedy.coverage,
            coverage_r2=coverage_r2,
            edges_examined=self.sampler.edges_examined,
            elapsed=self.timer.elapsed,
            metadata={
                "alpha_row": row,
                "alpha_trajectory": list(self.alpha_trajectory),
            },
        )
