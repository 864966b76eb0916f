"""TIM+ — Two-phase Influence Maximization (Tang, Xiao, Shi 2014).

TIM predates IMM and is included as an additional baseline (the paper
cites it as [39] and uses its RR-set cost analysis).  Its two phases:

1. **KPT estimation.** Estimate ``KPT = E[width-based kappa] * n / 2``,
   a lower bound on the optimum ``OPT``, by measuring for sampled RR
   sets ``R`` the quantity ``kappa(R) = 1 - (1 - w(R)/m)^k`` where
   ``w(R)`` is the number of edges pointing into ``R``.  Rounds double
   precision until the mean estimate clears ``1 / 2^i``.
2. **Selection.** Generate ``theta = lambda / KPT`` RR sets with
   ``lambda = (8 + 2 eps) n (ell ln n + ln C(n,k) + ln 2) / eps^2`` and
   run greedy.

We implement the TIM+ *intermediate refinement* as an option
(``refine=True``): the phase-1 greedy seed set's spread is re-estimated
on fresh RR sets to tighten KPT before phase 2.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.results import IMResult
from repro.core.theta import log_binomial
from repro.exceptions import BudgetExceededError
from repro.graph.digraph import DiGraph
from repro.maxcover.greedy import greedy_max_coverage
from repro.sampling.collection import RRCollection
from repro.sampling.kernel import RRSampler
from repro.utils.rng import SeedLike
from repro.utils.timer import Timer
from repro.utils.validation import check_delta, check_epsilon, check_k


def _rr_widths(graph: DiGraph, collection: RRCollection) -> np.ndarray:
    """``w(R)`` of every RR set: the number of edges entering its nodes."""
    nodes, offsets = collection.flat()
    return np.add.reduceat(graph.in_degree()[nodes], offsets[:-1])


def tim_plus(
    graph: DiGraph,
    model: str,
    k: int,
    epsilon: float,
    delta: Optional[float] = None,
    seed: SeedLike = None,
    refine: bool = True,
    rr_budget: Optional[int] = None,
) -> IMResult:
    """Run TIM+; returns a ``(1-1/e-epsilon)``-approximation w.p. ``1-delta``."""
    n, m = graph.n, graph.m
    check_k(k, n)
    check_epsilon(epsilon)
    if delta is None:
        delta = 1.0 / n
    check_delta(delta)

    timer = Timer()
    with timer:
        ell = math.log(1.0 / delta) / math.log(n)
        log_nk = log_binomial(n, k)
        lambda_full = (
            (8.0 + 2.0 * epsilon)
            * n
            * (ell * math.log(n) + log_nk + math.log(2.0))
            / (epsilon * epsilon)
        )

        sampler = RRSampler(graph, model, seed=seed)

        def budget_check(extra: int) -> None:
            if rr_budget is not None and sampler.sets_generated + extra > rr_budget:
                raise BudgetExceededError(
                    f"TIM+ would exceed the RR budget of {rr_budget}",
                    num_rr_sets=sampler.sets_generated,
                )

        # Phase 1: KPT estimation (TIM paper, Algorithm 2).
        kpt = 1.0
        max_rounds = max(1, int(math.log2(n)) - 1)
        for i in range(1, max_rounds + 1):
            c_i = math.ceil(
                (6.0 * ell * math.log(n) + 6.0 * math.log(math.log2(n)))
                * (2.0**i)
            )
            budget_check(c_i)
            widths = _rr_widths(graph, sampler.new_collection(c_i))
            total_kappa = float((1.0 - (1.0 - widths / m) ** k).sum()) if m else 0.0
            if total_kappa / c_i > 1.0 / (2.0**i):
                kpt = n * total_kappa / (2.0 * c_i)
                break

        # Optional TIM+ refinement: tighten KPT using a greedy seed set
        # evaluated on fresh samples (TIM paper, Section 4.3).
        if refine:
            eps_prime = 5.0 * (ell * epsilon * epsilon / (k + ell)) ** (1.0 / 3.0)
            eps_prime = min(max(eps_prime, 1e-3), 1.0)
            theta_prime = math.ceil(
                (2.0 + eps_prime)
                * ell
                * n
                * math.log(n)
                / (eps_prime * eps_prime * kpt)
            )
            theta_prime = min(theta_prime, math.ceil(lambda_full / kpt))
            budget_check(max(0, theta_prime))
            pilot = sampler.new_collection(theta_prime)
            pilot_greedy = greedy_max_coverage(pilot, k)
            budget_check(theta_prime)
            fresh = sampler.new_collection(theta_prime)
            spread_est = fresh.estimate_spread(pilot_greedy.seeds)
            kpt_star = spread_est / (1.0 + eps_prime)
            kpt = max(kpt, kpt_star)

        # Phase 2: selection.
        theta = math.ceil(lambda_full / kpt)
        budget_check(theta)
        collection = sampler.new_collection(theta)
        greedy_result = greedy_max_coverage(collection, k)

    return IMResult(
        algorithm="TIM+",
        seeds=list(greedy_result.seeds),
        k=k,
        epsilon=epsilon,
        delta=delta,
        num_rr_sets=sampler.sets_generated,
        elapsed=timer.elapsed,
        iterations=i,
        edges_examined=sampler.edges_examined,
        extra={"kpt": kpt, "theta": theta},
    )
