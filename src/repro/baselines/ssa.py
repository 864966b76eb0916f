"""SSA-Fix — the repaired Stop-and-Stare algorithm.

SSA (Nguyen et al. 2016) alternates *stop* (run greedy over the RR sets
collected so far) and *stare* (validate the greedy seed set's spread on
an independent sample via a stopping-rule estimator); collections double
until validation succeeds.  Huang et al. (2017) showed the original
analysis was flawed and published SSA-Fix, which restores the
``(1 - 1/e - epsilon)`` guarantee.

This reproduction keeps SSA-Fix's architecture and Chernoff machinery
with the conservative error split ``eps_1 = eps_2 = eps_3 = eps / 3``
(documented in DESIGN.md):

* ``eps_1`` — slack between the greedy-side estimate and the validated
  estimate (the stop condition ``sigma_1 <= (1 + eps_1) sigma_2``);
* ``eps_2`` — error of the stopping-rule validation estimate;
* ``eps_3`` — error of the optimum's coverage on the greedy-side
  collection (union-bounded over C(n, k) seed sets, which sizes the
  precondition threshold ``Lambda_1``).

The stopping-rule estimator follows Dagum et al. (2000): sample until
the seed set covers ``Lambda_2 = 1 + 4(1 + eps_2)(e - 2)
ln(2/delta') / eps_2^2`` RR sets, then estimate
``sigma ~= n * Lambda_2 / theta_used``.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.results import IMResult
from repro.core.theta import log_binomial, theta_max
from repro.exceptions import BudgetExceededError
from repro.graph.digraph import DiGraph
from repro.maxcover.greedy import greedy_max_coverage
from repro.sampling.kernel import RRSampler
from repro.utils.rng import SeedLike
from repro.utils.timer import Timer
from repro.utils.validation import check_delta, check_epsilon, check_k


def ssa_fix(
    graph: DiGraph,
    model: str,
    k: int,
    epsilon: float,
    delta: Optional[float] = None,
    seed: SeedLike = None,
    rr_budget: Optional[int] = None,
) -> IMResult:
    """Run SSA-Fix; returns a ``(1-1/e-epsilon)``-approximation w.p.
    ``1 - delta``."""
    n = graph.n
    check_k(k, n)
    check_epsilon(epsilon)
    if delta is None:
        delta = 1.0 / n
    check_delta(delta)

    timer = Timer()
    with timer:
        eps1 = eps2 = eps3 = epsilon / 3.0

        # Worst-case sample cap (Lemma 6.1 with delta/3), bounding the
        # number of stop-and-stare rounds.
        t_cap = theta_max(n, k, epsilon, delta)
        # Precondition threshold: the greedy collection must be large
        # enough that a Chernoff + union bound over C(n, k) seed sets
        # controls the optimum's coverage estimate to within eps3.
        log_nk = log_binomial(n, k)
        lambda_1 = (
            (2.0 + 2.0 * eps3 / 3.0)
            * (log_nk + math.log(3.0 / delta))
            / (eps3 * eps3)
        )
        t_max_rounds = max(
            1, math.ceil(math.log2(max(2.0, t_cap / max(lambda_1, 1.0)))) + 1
        )
        delta_iter = delta / (3.0 * t_max_rounds)
        # Stopping-rule coverage target (Dagum et al. 2000).
        lambda_2 = 1.0 + 4.0 * (1.0 + eps2) * (math.e - 2.0) * math.log(
            2.0 / delta_iter
        ) / (eps2 * eps2)

        sampler = RRSampler(graph, model, seed=seed)
        r1 = sampler.new_collection()

        def budget_check(extra: int) -> None:
            if rr_budget is not None and sampler.sets_generated + extra > rr_budget:
                raise BudgetExceededError(
                    f"SSA-Fix would exceed the RR budget of {rr_budget}",
                    num_rr_sets=sampler.sets_generated,
                )

        size = max(1, math.ceil(lambda_1))
        greedy_result = None
        validated = False
        for round_index in range(1, t_max_rounds + 1):
            budget_check(size - len(r1))
            sampler.fill(r1, size - len(r1))
            greedy_result = greedy_max_coverage(r1, k)

            if greedy_result.coverage >= lambda_1:
                # Stare: stopping-rule estimate on an independent
                # stream, in blocks of fresh sets.  A set adds at most 1
                # to the covered count, so a block of at most
                # ceil(lambda_2 - covered) sets can reach lambda_2 only
                # with its last set: the blocks stop exactly where a
                # one-set-at-a-time loop would, and leave no unread sets.
                covered = read = 0
                cap = 4 * len(r1) + 1000
                while covered < lambda_2 and read < cap:
                    block = min(math.ceil(lambda_2 - covered), cap - read)
                    if rr_budget is not None:
                        block = min(block, rr_budget - sampler.sets_generated)
                    budget_check(max(block, 1))
                    block_sets = sampler.new_collection(block)
                    covered += block_sets.coverage(greedy_result.seeds)
                    read += block
                if covered >= lambda_2:
                    sigma_validated = n * covered / read
                    sigma_greedy = n * greedy_result.coverage / len(r1)
                    if sigma_greedy <= (1.0 + eps1) * sigma_validated:
                        validated = True
                        break
            if len(r1) >= t_cap:
                break
            size *= 2

        # Final round fallback: with |R1| >= theta_max the greedy seed
        # set is guaranteed by Lemma 6.1 regardless of validation.
        if not validated and len(r1) < t_cap:
            budget_check(math.ceil(t_cap) - len(r1))
            sampler.fill(r1, math.ceil(t_cap) - len(r1))
            greedy_result = greedy_max_coverage(r1, k)

    return IMResult(
        algorithm="SSA-Fix",
        seeds=list(greedy_result.seeds),
        k=k,
        epsilon=epsilon,
        delta=delta,
        num_rr_sets=sampler.sets_generated,
        elapsed=timer.elapsed,
        iterations=round_index,
        edges_examined=sampler.edges_examined,
        extra={
            "validated": validated,
            "lambda_1": lambda_1,
            "lambda_2": lambda_2,
        },
    )
