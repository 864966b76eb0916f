"""OPIM-C: conventional influence maximization via OPIM (Algorithm 2).

Given ``(G, k, epsilon, delta)``, OPIM-C returns a seed set that is a
``(1 - 1/e - epsilon)``-approximation with probability >= ``1 - delta``:

1. compute ``theta_max`` (Eq. 16) and ``theta_0`` (Eq. 17), and
   ``i_max = ceil(log2(theta_max / theta_0))``;
2. sample ``|R1| = |R2| = theta_0``;
3. for ``i = 1 .. i_max``: run greedy on ``R1``; compute
   ``alpha = sigma_l(S*) / sigma_u_hat(S^o)`` with
   ``delta_1 = delta_2 = delta / (3 i_max)``; return ``S*`` once
   ``alpha >= 1 - 1/e - epsilon`` (or unconditionally at ``i_max``,
   where ``|R1| >= theta_max`` makes Lemma 6.1 apply); otherwise double
   both collections.

Correctness budget: each early iteration errs w.p. at most
``2 delta/(3 i_max)`` (union over ``i_max - 1`` early exits: ``2/3
delta``); the final iteration errs w.p. at most ``delta / 3``.

The three variants mirror the online algorithm's bound choices:
``OPIM-C+`` (default, Eq. 13), ``OPIM-C0`` (Eq. 8), ``OPIM-C'``
(Eq. 15).  They differ only in how many RR sets they need before the
early-exit test fires — the quantity Figures 6(b)/7(b) compare.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from repro.bounds.concentration import (
    approximation_guarantee,
    sigma_lower_bound,
    sigma_upper_bound,
)
from repro.core.results import IMResult
from repro.core.theta import i_max_iterations, theta_0, theta_max, theta_sadeh
from repro.exceptions import BudgetExceededError, ParameterError
from repro.graph.digraph import DiGraph
from repro.maxcover.bounds import (
    coverage_upper_bound_greedy,
    coverage_upper_bound_leskovec,
)
from repro.maxcover.greedy import GreedyResult, greedy_max_coverage
from repro.obs import resolve_registry
from repro.sampling.kernel import RRSampler
from repro.sampling.service import SamplingPool
from repro.utils.rng import SeedLike
from repro.utils.timer import Timer
from repro.utils.validation import check_delta, check_epsilon, check_k

_VARIANT_NAMES = {
    "vanilla": "OPIM-C0",
    "greedy": "OPIM-C+",
    "leskovec": "OPIM-C'",
}

#: Stopping rules: the paper's Eq. 16 worst case, or the Sadeh et al.
#: sample-complexity cap (see :func:`repro.core.theta.theta_sadeh`).
STOPPING_RULES = ("paper", "sadeh")


class OPIMC:
    """Reusable OPIM-C runner bound to a graph and diffusion model.

    ``registry`` is an optional :class:`~repro.obs.MetricsRegistry`;
    when given, every run emits nested phase spans
    (``opimc/iter_<i>/sampling`` / ``greedy`` / ``bounds``), sampling
    counters, and one ``alpha_row`` event per doubling iteration.

    ``workers > 1`` runs all sampling through a persistent
    :class:`~repro.sampling.service.SamplingPool` that stays warm
    across every doubling iteration of a run (Algorithm 2 regenerates
    RR sets each iteration, so amortizing the pool setup is what makes
    the parallel path pay off).  Alternatively an already-open ``pool``
    may be injected and shared across multiple runs; the caller owns
    its lifetime.

    ``stopping`` selects the unconditional-acceptance cap on ``|R1|``:
    ``"paper"`` (Eq. 16's ``theta_max``) or ``"sadeh"`` (the
    sample-complexity bound of arXiv:1907.13301, refined each
    iteration with the Eq. 5 certified lower bound on ``OPT`` — see
    :func:`~repro.core.theta.theta_sadeh`).
    """

    def __init__(
        self,
        graph: DiGraph,
        model: str,
        bound: str = "greedy",
        seed: SeedLike = None,
        registry: Optional[object] = None,
        workers: Optional[int] = None,
        pool: Optional[SamplingPool] = None,
        stopping: str = "paper",
    ) -> None:
        if bound not in _VARIANT_NAMES:
            raise ParameterError(
                f"bound must be one of {tuple(_VARIANT_NAMES)}, got {bound!r}"
            )
        if stopping not in STOPPING_RULES:
            raise ParameterError(
                f"stopping must be one of {STOPPING_RULES}, got {stopping!r}"
            )
        if workers is not None and workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        if pool is not None and pool.graph is not graph:
            raise ParameterError("pool must be bound to the same graph")
        self.graph = graph
        self.model = model
        self.bound = bound
        self.stopping = stopping
        self.obs = resolve_registry(registry)
        self.workers = workers
        self.pool = pool
        self._seed = seed

    def _make_sampler(self) -> Any:
        if self.pool is not None:
            return self.pool
        if self.workers is not None and self.workers > 1:
            return SamplingPool(
                self.graph,
                self.model,
                workers=self.workers,
                seed=self._seed,
                registry=self.obs,
            )
        return RRSampler(
            self.graph, self.model, seed=self._seed, registry=self.obs
        )

    def _coverage_upper(
        self, greedy_result: GreedyResult, variant: str
    ) -> float:
        if variant == "vanilla":
            return greedy_result.coverage / (1.0 - 1.0 / math.e)
        if variant == "greedy":
            return coverage_upper_bound_greedy(greedy_result)
        return coverage_upper_bound_leskovec(greedy_result)

    def run(
        self,
        k: int,
        epsilon: float,
        delta: Optional[float] = None,
        rr_budget: Optional[int] = None,
    ) -> IMResult:
        """Execute Algorithm 2.

        Parameters
        ----------
        rr_budget:
            Optional hard cap on total RR sets; exceeded caps raise
            :class:`BudgetExceededError` (used by the OPIM-adoption
            wrapper and by tests).
        """
        graph = self.graph
        check_k(k, graph.n)
        check_epsilon(epsilon)
        if delta is None:
            delta = 1.0 / graph.n
        check_delta(delta)

        obs = self.obs
        algorithm = _VARIANT_NAMES[self.bound]
        trajectory = []
        timer = Timer()
        sampler = self._make_sampler()
        # A pool injected via ``pool=`` may carry counts from earlier
        # runs; account in deltas so num_rr_sets stays per-run.
        base_sets = sampler.sets_generated
        base_edges = sampler.edges_examined
        owns_pool = isinstance(sampler, SamplingPool) and sampler is not self.pool
        try:
            with timer, obs.trace("opimc"):
                t_max = theta_max(graph.n, k, epsilon, delta)
                t_0 = max(1, math.ceil(theta_0(graph.n, k, epsilon, delta)))
                i_max = i_max_iterations(graph.n, k, epsilon, delta)
                delta_iter = delta / (3.0 * i_max)
                target = 1.0 - 1.0 / math.e - epsilon
                # The stopping cap on |R1|: Eq. 16 for the paper rule;
                # the Sadeh et al. sample-complexity bound (refined
                # each iteration with the certified OPT lower bound)
                # for stopping="sadeh".  theta_sadeh <= theta_max
                # always, so the cap only ever shrinks.
                cap = t_max
                if self.stopping == "sadeh":
                    cap = min(cap, theta_sadeh(graph.n, k, epsilon, delta))

                r1 = sampler.new_collection()
                r2 = sampler.new_collection()

                size = t_0
                alpha = 0.0
                greedy_result = None
                stopped_by = "i_max"
                for iteration in range(1, i_max + 1):
                    with obs.trace(f"iter_{iteration}"):
                        grow = size - len(r1)
                        generated = sampler.sets_generated - base_sets
                        if rr_budget is not None and (
                            generated + 2 * grow > rr_budget
                        ):
                            raise BudgetExceededError(
                                f"OPIM-C would exceed the RR budget of "
                                f"{rr_budget}",
                                num_rr_sets=generated,
                            )
                        with obs.trace("sampling"):
                            sampler.fill(r1, grow)
                            sampler.fill(r2, grow)

                        with obs.trace("greedy"):
                            greedy_result = greedy_max_coverage(
                                r1, k, registry=obs
                            )
                        with obs.trace("bounds"):
                            coverage_r2 = r2.coverage(greedy_result.seeds)
                            sigma_low = sigma_lower_bound(
                                coverage_r2, len(r2), graph.n, delta_iter
                            )
                            coverage_upper = self._coverage_upper(
                                greedy_result, self.bound
                            )
                            sigma_up = sigma_upper_bound(
                                coverage_upper, len(r1), graph.n, delta_iter
                            )
                            alpha = approximation_guarantee(sigma_low, sigma_up)

                        if self.stopping == "sadeh":
                            # sigma_low <= sigma(S*) <= OPT holds on
                            # the same high-probability event already
                            # budgeted for this iteration's alpha test,
                            # so refining the cap spends no extra delta
                            # (the martingale-reuse caveat of
                            # arXiv:1808.09363 concerns reusing *RR
                            # sets* across adaptive decisions, which
                            # Algorithm 2's per-iteration budget
                            # already accounts for).
                            cap = min(
                                cap,
                                theta_sadeh(
                                    graph.n, k, epsilon, delta,
                                    opt_lower=sigma_low,
                                ),
                            )

                        row = {
                            "algorithm": algorithm,
                            "iteration": iteration,
                            "theta1": len(r1),
                            "theta2": len(r2),
                            "sigma_low": sigma_low,
                            "sigma_up": sigma_up,
                            "alpha": alpha,
                            "target": target,
                            "theta_cap": cap,
                        }
                        trajectory.append(row)
                        obs.record("alpha_row", **row)
                    if alpha >= target:
                        stopped_by = "alpha"
                        break
                    if iteration == i_max:
                        break
                    if self.stopping == "sadeh" and len(r1) >= cap:
                        stopped_by = "theta_cap"
                        break
                    size = min(size * 2, max(1, math.ceil(cap)))
        finally:
            if owns_pool:
                sampler.close()

        obs.set_gauge("opimc.alpha_achieved", alpha)
        return IMResult(
            algorithm=algorithm,
            seeds=list(greedy_result.seeds),
            k=k,
            epsilon=epsilon,
            delta=delta,
            num_rr_sets=sampler.sets_generated - base_sets,
            elapsed=timer.elapsed,
            iterations=iteration,
            alpha_achieved=alpha,
            edges_examined=sampler.edges_examined - base_edges,
            extra={
                "theta_max": t_max,
                "theta_0": t_0,
                "i_max": i_max,
                "target_alpha": target,
                "alpha_trajectory": trajectory,
                "stopping": self.stopping,
                "theta_cap": cap,
                "stopped_by": stopped_by,
            },
        )


def opim_c(
    graph: DiGraph,
    model: str,
    k: int,
    epsilon: float,
    delta: Optional[float] = None,
    bound: str = "greedy",
    seed: SeedLike = None,
    rr_budget: Optional[int] = None,
    registry: Optional[object] = None,
    workers: Optional[int] = None,
    pool: Optional[SamplingPool] = None,
    stopping: str = "paper",
) -> IMResult:
    """One-shot functional interface to :class:`OPIMC` (Algorithm 2).

    ``registry`` injects a :class:`~repro.obs.MetricsRegistry` for
    phase tracing and counters.
    ``workers > 1`` samples through a persistent
    :class:`~repro.sampling.service.SamplingPool` kept warm across the
    doubling iterations (pass an open ``pool`` instead to share one
    across calls).  ``stopping="sadeh"`` caps the doubling loop at the
    Sadeh et al. sample-complexity bound
    (:func:`~repro.core.theta.theta_sadeh`) instead of Eq. 16's
    ``theta_max``, sampling strictly fewer RR sets when the bound
    binds; the empirical guarantee is refereed by
    :mod:`repro.stats_harness`.
    """
    return OPIMC(
        graph,
        model,
        bound=bound,
        seed=seed,
        registry=registry,
        workers=workers,
        pool=pool,
        stopping=stopping,
    ).run(k, epsilon, delta=delta, rr_budget=rr_budget)
