"""D-SSA-Fix, implemented verbatim from the paper's Appendix C
(Algorithm 3), using the paper's own notation.

D-SSA-Fix splits one RR-set stream into two equal halves ``R1``
(greedy) and ``R2`` (estimation), doubling both each round, and stops
when the instance-derived error

    ``eps_i = (eps_a + eps_b + eps_a eps_b)(1 - 1/e - eps)
              + (1 - 1/e) eps_c``

drops to ``eps``.  Appendix C proves the derivation of ``eps_b`` /
``eps_c`` does not actually certify the concentration events it needs
(the ``eps_b < eps_hat`` regime), which is why D-SSA-Fix cannot be
turned into an OPIM algorithm; as a *conventional* IM baseline it still
terminates with valid output at ``theta_1 >= theta'_max`` (Lemma 6.1).
"""

from __future__ import annotations

import math
from typing import Optional

from repro.core.results import IMResult
from repro.core.theta import log_binomial
from repro.exceptions import BudgetExceededError
from repro.graph.digraph import DiGraph
from repro.maxcover.greedy import greedy_max_coverage
from repro.sampling.kernel import RRSampler
from repro.utils.rng import SeedLike
from repro.utils.timer import Timer
from repro.utils.validation import check_delta, check_epsilon, check_k


def dssa_fix(
    graph: DiGraph,
    model: str,
    k: int,
    epsilon: float,
    delta: Optional[float] = None,
    seed: SeedLike = None,
    rr_budget: Optional[int] = None,
) -> IMResult:
    """Run D-SSA-Fix (Algorithm 3)."""
    n = graph.n
    check_k(k, n)
    check_epsilon(epsilon)
    if delta is None:
        delta = 1.0 / n
    check_delta(delta)

    timer = Timer()
    with timer:
        one_minus_inv_e = 1.0 - 1.0 / math.e
        log_nk = log_binomial(n, k)

        # Line 1: theta'_max.
        theta_prime_max = (
            8.0
            * one_minus_inv_e
            * (math.log(6.0 / delta) + log_nk)
            * n
            / (epsilon * epsilon * k)
        )
        # Line 2: i'_max.
        i_prime_max = max(
            1,
            math.ceil(
                math.log2(
                    2.0
                    * theta_prime_max
                    * epsilon
                    * epsilon
                    / ((2.0 + 2.0 * epsilon / 3.0) * math.log(3.0 / delta))
                )
            ),
        )
        # Line 3: theta'_0 and the precondition threshold Lambda_1.
        theta_prime_0 = (
            (2.0 + 2.0 * epsilon / 3.0)
            * math.log(3.0 * i_prime_max / delta)
            / (epsilon * epsilon)
        )
        lambda_1_threshold = 1.0 + (1.0 + epsilon) * theta_prime_0

        sampler = RRSampler(graph, model, seed=seed)
        # One shared stream split positionally, exactly as lines 5-6:
        # R1 = first half of the 2^i * theta'_0 sets, R2 = second half.
        r1 = sampler.new_collection()
        r2 = sampler.new_collection()

        base = max(1, math.ceil(theta_prime_0))
        greedy_result = None
        epsilon_i = float("inf")
        i = 0
        while True:
            i += 1
            half = base * (2 ** (i - 1))
            grow = half - len(r1)
            if rr_budget is not None and sampler.sets_generated + 2 * grow > rr_budget:
                raise BudgetExceededError(
                    f"D-SSA-Fix would exceed the RR budget of {rr_budget}",
                    num_rr_sets=sampler.sets_generated,
                )
            sampler.fill(r1, grow)
            sampler.fill(r2, grow)

            greedy_result = greedy_max_coverage(r1, k)  # line 7
            if greedy_result.coverage >= lambda_1_threshold:  # line 8
                sigma_1 = greedy_result.coverage * n / len(r1)  # line 10
                coverage_2 = r2.coverage(greedy_result.seeds)
                sigma_2 = coverage_2 * n / len(r2)
                if sigma_2 > 0.0:
                    eps_a = sigma_1 / sigma_2 - 1.0  # line 11
                    eps_b = epsilon * math.sqrt(  # line 12
                        n * (1.0 + epsilon) / (2.0 ** (i - 1) * sigma_2)
                    )
                    eps_c = epsilon * math.sqrt(  # line 13
                        n
                        * (1.0 + epsilon)
                        * (one_minus_inv_e - epsilon)
                        / ((1.0 + epsilon / 3.0) * 2.0 ** (i - 1) * sigma_2)
                        if one_minus_inv_e > epsilon
                        else 0.0
                    )
                    epsilon_i = (eps_a + eps_b + eps_a * eps_b) * (  # line 14
                        one_minus_inv_e - epsilon
                    ) + one_minus_inv_e * eps_c
                    if epsilon_i <= epsilon:  # lines 15-16
                        break
            if len(r1) >= theta_prime_max:  # line 17
                break

    return IMResult(
        algorithm="D-SSA-Fix",
        seeds=list(greedy_result.seeds),
        k=k,
        epsilon=epsilon,
        delta=delta,
        num_rr_sets=sampler.sets_generated,
        elapsed=timer.elapsed,
        iterations=i,
        edges_examined=sampler.edges_examined,
        extra={
            "epsilon_i": epsilon_i,
            "theta_prime_max": theta_prime_max,
            "i_prime_max": i_prime_max,
        },
    )
