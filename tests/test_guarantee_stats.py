"""Statistical validation of OPIM-C's approximation guarantee.

The paper's Theorem 6.2 states that OPIM-C returns a seed set ``S*``
with ``sigma(S*) >= (1 - 1/e - eps) * OPT`` with probability at least
``1 - delta``.  On a 5-node graph both sides are computable exactly:

* ``OPT`` by brute force over all k-subsets with exact IC spread
  (:func:`~repro.diffusion.spread.exact_spread_ic` enumerates the
  2^m live-edge worlds);
* ``sigma(S*)`` by the same exact evaluator on the returned seeds.

Running OPIM-C over many independent sampling seeds then gives an
empirical success frequency which must be at least ``1 - delta`` up to
binomial fluctuation.  The tolerance is a one-sided Hoeffding bound:
if the true success probability is ``p >= 1 - delta``, the empirical
frequency over ``N`` trials drops below ``1 - delta - t`` with
probability at most ``exp(-2 N t^2)``; the slack used here makes that
a ``beta = 1e-3`` event, so a failure of this test is overwhelmingly a
real guarantee violation rather than bad luck.

The 200-trial test is marked ``slow`` and runs in the nightly CI job
(``pytest -m slow``); a 25-trial smoke version runs in every tier-1
invocation.
"""

from __future__ import annotations

import math

import pytest

from repro.core.opimc import opim_c
from repro.diffusion.spread import exact_spread_ic
from repro.stats_harness import SCENARIOS, format_report, run_scenario

from .conftest import brute_force_best_spread_ic

K = 2
EPSILON = 0.3
DELTA = 0.25


def _hoeffding_slack(trials: int, beta: float = 1e-3) -> float:
    """One-sided deviation ``t`` with ``exp(-2 N t^2) <= beta``."""
    return math.sqrt(math.log(1.0 / beta) / (2.0 * trials))


def _success_frequency(graph, opt: float, trials: int, seed0: int) -> float:
    threshold = (1.0 - 1.0 / math.e - EPSILON) * opt
    successes = 0
    for trial in range(trials):
        result = opim_c(
            graph,
            "IC",
            k=K,
            epsilon=EPSILON,
            delta=DELTA,
            seed=seed0 + trial,
        )
        achieved = exact_spread_ic(graph, result.seeds)
        if achieved >= threshold - 1e-9:
            successes += 1
    return successes / trials


class TestGuaranteeFrequency:
    @pytest.mark.slow
    def test_guarantee_holds_with_probability_one_minus_delta(
        self, tiny_weighted_graph
    ):
        """200 independent OPIM-C runs vs. the brute-force optimum."""
        trials = 200
        opt, _ = brute_force_best_spread_ic(tiny_weighted_graph, K)
        frequency = _success_frequency(
            tiny_weighted_graph, opt, trials=trials, seed0=10_000
        )
        floor = (1.0 - DELTA) - _hoeffding_slack(trials)
        assert frequency >= floor, (
            f"empirical success frequency {frequency:.3f} fell below "
            f"{floor:.3f} = (1 - delta) - Hoeffding slack over "
            f"{trials} trials"
        )

    def test_guarantee_smoke(self, tiny_weighted_graph):
        """Cheap every-run variant: 25 trials, same oracle, looser bar."""
        trials = 25
        opt, _ = brute_force_best_spread_ic(tiny_weighted_graph, K)
        frequency = _success_frequency(
            tiny_weighted_graph, opt, trials=trials, seed0=77_000
        )
        assert frequency >= (1.0 - DELTA) - _hoeffding_slack(trials)

    def test_exact_oracle_sanity(self, tiny_weighted_graph):
        """The brute-force OPT dominates every reported seed set and a
        singleton spread is at least 1 (the seed itself)."""
        opt, opt_set = brute_force_best_spread_ic(tiny_weighted_graph, K)
        assert len(opt_set) == K
        assert opt >= exact_spread_ic(tiny_weighted_graph, [0, 1])
        assert exact_spread_ic(tiny_weighted_graph, [4]) >= 1.0


class TestServePathGuarantees:
    """Harness-driven acceptance of the serving layer's guarantees.

    ``test_guarantee_holds_*`` above covers the cold single-query path
    only; these trials cover what production traffic actually does —
    warm-index restarts (claims riding on RR sets sampled by a previous
    process) and ``adopt_collections`` sketch reuse across many ``k``.
    The verdict is the harness's Clopper–Pearson criterion: the upper
    confidence bound on every claim group's failure rate must stay
    within ``delta``.
    """

    @pytest.mark.slow
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_acceptance_200_trials(
        self, tiny_weighted_graph, stat_entropy, name
    ):
        """Every serve-path scenario at the full acceptance trial
        count (nightly ``-m slow`` tier)."""
        report = run_scenario(
            name,
            tiny_weighted_graph,
            trials=200,
            entropy=stat_entropy,
            epsilon=EPSILON,
            delta=DELTA,
        )
        assert report.passed, format_report(report)

    @pytest.mark.slow
    def test_sadeh_stopping_acceptance_200_trials(
        self, tiny_weighted_graph, stat_entropy
    ):
        """The early-stopping rule must keep the guarantee too."""
        report = run_scenario(
            "cold_opimc",
            tiny_weighted_graph,
            trials=200,
            entropy=stat_entropy,
            epsilon=EPSILON,
            delta=DELTA,
            stopping="sadeh",
        )
        assert report.passed, format_report(report)

    def test_warm_index_smoke(self, tiny_weighted_graph, stat_entropy):
        """Tier-1 warm-restart acceptance: save the sketch index,
        restart a fresh engine from disk, answer, verify the claims."""
        report = run_scenario(
            "warm_index",
            tiny_weighted_graph,
            trials=20,
            entropy=stat_entropy,
            epsilon=EPSILON,
            delta=DELTA,
        )
        assert report.passed, format_report(report)

    def test_cluster_path_smoke(self, tiny_weighted_graph, stat_entropy):
        """Tier-1 sharded-tier acceptance: trials go through the HTTP
        front end into a worker process, evict, then requery a warm
        engine restored from the persistent index.  The per-label
        Clopper–Pearson verdict must match ``warm_index`` — same label
        set, same acceptance criterion — because the cluster only adds
        transport and process boundaries, never statistics."""
        cluster = run_scenario(
            "cluster_path",
            tiny_weighted_graph,
            trials=20,
            entropy=stat_entropy,
            epsilon=EPSILON,
            delta=DELTA,
        )
        assert cluster.passed, format_report(cluster)
        warm = run_scenario(
            "warm_index",
            tiny_weighted_graph,
            trials=20,
            entropy=stat_entropy,
            epsilon=EPSILON,
            delta=DELTA,
        )
        assert warm.passed, format_report(warm)
        assert {stats.label for stats in cluster.labels} == {
            stats.label for stats in warm.labels
        }

    def test_multi_k_smoke(self, tiny_weighted_graph, stat_entropy):
        """Tier-1 adopted-sketch acceptance: one shared stream serving
        k = 1, 2, 3 — each k's claim group must certify delta."""
        report = run_scenario(
            "multi_k",
            tiny_weighted_graph,
            trials=20,
            entropy=stat_entropy,
            epsilon=EPSILON,
            delta=DELTA,
            ks=(1, 2, 3),
        )
        assert report.passed, format_report(report)
        labels = {stats.label for stats in report.labels}
        assert labels == {"k=1", "k=2", "k=3"}
