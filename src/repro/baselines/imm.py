"""IMM — Influence Maximization via Martingales (Tang, Shi, Xiao 2015).

IMM is the strongest conventional baseline in the paper's experiments.
It runs in two phases over a *single* shared collection of RR sets
(whose reuse across phases is what the martingale analysis licenses):

1. **Sampling.** Estimate a lower bound ``LB`` on ``OPT = sigma(S^o)``
   by statistical testing: for ``x_i = n / 2^i``, generate
   ``theta_i = lambda' / x_i`` RR sets, run greedy, and accept
   ``LB = n * F(S) / (1 + eps')`` once the greedy coverage estimate
   beats ``(1 + eps') * x_i``, where ``eps' = sqrt(2) * eps``.
2. **Selection.** Grow the collection to ``theta = lambda* / LB`` RR
   sets and return the greedy seed set.

Failure probabilities follow the paper's ``delta = n^-ell``
parameterization; we convert a caller-supplied ``delta`` into ``ell``
and apply IMM's ``ell' = ell * (1 + log 2 / log n)`` inflation so the
two phases' union bound lands back at ``delta``.

Because the seed set is selected on the *same* samples that certify its
quality, IMM must union-bound over all C(n, k) seed sets — the factor
OPIM avoids with its nominator/judge split, and the reason OPIM-C needs
far fewer samples in practice (paper, Section 6 "Comparison with IMM").
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


def _ell_from_delta(delta: float, n: int) -> float:
    """Solve ``n^-ell = delta`` for IMM's ell parameter."""
    return math.log(1.0 / delta) / math.log(n)


def imm(
    graph: DiGraph,
    model: str,
    k: int,
    epsilon: float,
    delta: Optional[float] = None,
    seed: SeedLike = None,
    rr_budget: Optional[int] = None,
) -> IMResult:
    """Run IMM; returns a ``(1-1/e-epsilon)``-approximation w.p. ``1-delta``.

    Parameters
    ----------
    rr_budget:
        Optional cap on generated RR sets; raises
        :class:`BudgetExceededError` when the next growth step would
        cross it (used by the OPIM-adoption wrapper).
    """
    n = graph.n
    check_k(k, n)
    check_epsilon(epsilon)
    if delta is None:
        delta = 1.0 / n
    check_delta(delta)

    timer = Timer()
    with timer:
        ell = _ell_from_delta(delta, n)
        # Phase union-bound inflation (IMM paper, Section 4.2).
        ell = ell * (1.0 + math.log(2.0) / math.log(n))

        eps_prime = math.sqrt(2.0) * epsilon
        log_nk = log_binomial(n, k)
        log_n = math.log(n)
        max_rounds = max(1, int(math.log2(n)) - 1)

        # lambda' for the LB-estimation phase (IMM paper, Eq. 9).
        lambda_prime = (
            (2.0 + 2.0 * eps_prime / 3.0)
            * (log_nk + ell * log_n + math.log(max(math.log2(n), 1.0)))
            * n
            / (eps_prime * eps_prime)
        )
        # lambda* for the selection phase (IMM paper, Eq. 6).
        alpha_term = math.sqrt(ell * log_n + math.log(2.0))
        beta_term = math.sqrt(
            (1.0 - 1.0 / math.e) * (log_nk + ell * log_n + math.log(2.0))
        )
        lambda_star = (
            2.0
            * n
            * ((1.0 - 1.0 / math.e) * alpha_term + beta_term) ** 2
            / (epsilon * epsilon)
        )

        sampler = RRSampler(graph, model, seed=seed)
        collection = sampler.new_collection()

        def grow_to(target: int) -> None:
            missing = target - len(collection)
            if missing <= 0:
                return
            if rr_budget is not None and sampler.sets_generated + missing > rr_budget:
                raise BudgetExceededError(
                    f"IMM would exceed the RR budget of {rr_budget}",
                    num_rr_sets=sampler.sets_generated,
                )
            sampler.fill(collection, missing)

        # Phase 1: estimate LB.
        lower_bound = 1.0
        greedy_result = None
        for i in range(1, max_rounds + 1):
            x_i = n / (2.0**i)
            theta_i = math.ceil(lambda_prime / x_i)
            grow_to(theta_i)
            greedy_result = greedy_max_coverage(collection, k)
            estimate = n * greedy_result.coverage / len(collection)
            if estimate >= (1.0 + eps_prime) * x_i:
                lower_bound = estimate / (1.0 + eps_prime)
                break

        # Phase 2: final selection.
        theta = math.ceil(lambda_star / lower_bound)
        grow_to(theta)
        greedy_result = greedy_max_coverage(collection, k)

    return IMResult(
        algorithm="IMM",
        seeds=list(greedy_result.seeds),
        k=k,
        epsilon=epsilon,
        delta=delta,
        num_rr_sets=sampler.sets_generated,
        elapsed=timer.elapsed,
        iterations=i,
        edges_examined=sampler.edges_examined,
        extra={
            "lower_bound": lower_bound,
            "theta": theta,
            "lambda_prime": lambda_prime,
            "lambda_star": lambda_star,
        },
    )
