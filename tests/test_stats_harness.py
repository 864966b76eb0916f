"""Tests for the statistical acceptance harness itself.

Two layers:

* deterministic unit tests — the Clopper–Pearson math against closed
  forms, the exact oracle against the suite's independent brute-force
  helper, and the runner's claim-checking mechanics via fabricated
  scenarios that always pass / always fail;
* smoke-tier statistical runs — every registered scenario at enough
  trials (15) that zero failures certify ``delta = 0.25`` at 95%
  confidence (11 is the minimum), so the default tier exercises the
  full warm-index / multi-k / pool machinery end to end.

The heavyweight 200-trial acceptance runs live in
``test_guarantee_stats.py`` behind the ``slow`` marker.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.bounds.binomial import (
    beta_ppf,
    betainc_regularized,
    clopper_pearson_interval,
    clopper_pearson_upper,
)
from repro.exceptions import ParameterError
from repro.graph.generators import star_graph
from repro.graph.weights import assign_wc_weights
from repro.stats_harness import (
    SCENARIOS,
    Claim,
    ClaimGroup,
    ExactOracle,
    Scenario,
    TrialResult,
    format_report,
    run_scenario,
    trial_seed,
)

from .conftest import brute_force_best_spread_ic

EPSILON = 0.3
DELTA = 0.25

#: Zero failures over 15 trials give CP-upper ~0.181 < 0.25; the
#: minimum certifying trial count at this (delta, confidence) is 11.
SMOKE_TRIALS = 15


class TestBinomialBounds:
    def test_zero_failures_closed_form(self):
        """With 0 failures the CP upper bound is ``1 - alpha^(1/n)``."""
        for trials in (5, 25, 200):
            expected = 1.0 - 0.05 ** (1.0 / trials)
            got = clopper_pearson_upper(0, trials, confidence=0.95)
            assert got == pytest.approx(expected, rel=1e-9)

    def test_all_failures_closed_form(self):
        """With n/n failures the two-sided lower bound is
        ``(alpha/2)^(1/n)`` and the upper bound is exactly 1."""
        trials = 12
        low, high = clopper_pearson_interval(trials, trials, 0.95)
        assert high == 1.0
        assert low == pytest.approx(0.025 ** (1.0 / trials), rel=1e-9)

    def test_known_values(self):
        """Spot checks against published CP tables."""
        assert clopper_pearson_upper(0, 200, 0.95) == pytest.approx(
            0.0148677, abs=1e-6
        )
        low, high = clopper_pearson_interval(3, 10, 0.95)
        assert low == pytest.approx(0.06674, abs=1e-4)
        assert high == pytest.approx(0.65245, abs=1e-4)

    def test_upper_bound_monotone_in_failures(self):
        uppers = [clopper_pearson_upper(f, 50, 0.95) for f in range(51)]
        assert all(a < b for a, b in zip(uppers, uppers[1:]))
        assert uppers[-1] == 1.0

    def test_upper_bound_covers_point_estimate(self):
        for failures, trials in ((0, 10), (3, 40), (17, 20)):
            assert (
                clopper_pearson_upper(failures, trials, 0.95)
                >= failures / trials
            )

    def test_betainc_symmetry_and_endpoints(self):
        """``I_x(a, b) = 1 - I_{1-x}(b, a)`` plus the 0/1 endpoints."""
        for a, b, x in ((2.0, 5.0, 0.3), (0.5, 0.5, 0.7), (4.0, 1.0, 0.2)):
            assert betainc_regularized(a, b, x) == pytest.approx(
                1.0 - betainc_regularized(b, a, 1.0 - x), abs=1e-10
            )
        assert betainc_regularized(3.0, 4.0, 0.0) == 0.0
        assert betainc_regularized(3.0, 4.0, 1.0) == 1.0

    def test_beta_ppf_inverts_cdf(self):
        for q in (0.025, 0.5, 0.975):
            x = beta_ppf(q, 4.0, 9.0)
            assert betainc_regularized(4.0, 9.0, x) == pytest.approx(
                q, abs=1e-9
            )

    def test_rejects_bad_counts(self):
        with pytest.raises(ParameterError):
            clopper_pearson_upper(-1, 10)
        with pytest.raises(ParameterError):
            clopper_pearson_upper(11, 10)
        with pytest.raises(ParameterError):
            clopper_pearson_upper(0, 0)
        with pytest.raises(ParameterError):
            clopper_pearson_upper(0, 10, confidence=1.0)


class TestExactOracle:
    def test_matches_independent_brute_force(self, tiny_weighted_graph):
        oracle = ExactOracle(tiny_weighted_graph)
        for k in (1, 2, 3):
            expected, _ = brute_force_best_spread_ic(tiny_weighted_graph, k)
            assert oracle.opt(k) == pytest.approx(expected, abs=1e-9)

    def test_opt_monotone_in_k(self, tiny_weighted_graph):
        oracle = ExactOracle(tiny_weighted_graph)
        values = [oracle.opt(k) for k in range(1, 6)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_opt_with_set_is_consistent(self, tiny_weighted_graph):
        oracle = ExactOracle(tiny_weighted_graph)
        opt, opt_set = oracle.opt_with_set(2)
        assert len(opt_set) == 2
        assert oracle.spread(opt_set) == pytest.approx(opt, abs=1e-12)

    def test_refuses_large_graphs(self):
        big = assign_wc_weights(star_graph(20))
        with pytest.raises(ParameterError):
            ExactOracle(big)

    def test_rejects_bad_k(self, tiny_weighted_graph):
        oracle = ExactOracle(tiny_weighted_graph)
        with pytest.raises(ParameterError):
            oracle.opt(0)
        with pytest.raises(ParameterError):
            oracle.opt(6)


def _constant_scenario(name: str, factor: float) -> Scenario:
    """A fabricated scenario claiming ``sigma({0}) >= factor * OPT_1``."""

    def run(ctx) -> TrialResult:
        group = ClaimGroup(
            label="fabricated",
            delta=ctx.delta,
            claims=(Claim(seeds=(0,), factor=factor, source=name),),
        )
        return TrialResult(groups=(group,), rr_sets=1)

    return Scenario(name, "fabricated claim for runner tests", run)


class TestRunnerMechanics:
    def test_trial_seed_is_deterministic_and_distinct(self):
        assert trial_seed(7, 3) == trial_seed(7, 3)
        seeds = {trial_seed(7, t) for t in range(100)}
        assert len(seeds) == 100
        assert trial_seed(7, 0) != trial_seed(8, 0)

    def test_always_true_claims_pass(self, tiny_weighted_graph):
        # sigma({0}) >= 0 * OPT_1 trivially holds in every trial.
        scenario = _constant_scenario("always_pass", factor=0.0)
        report = run_scenario(
            scenario, tiny_weighted_graph, trials=20, delta=DELTA
        )
        assert report.passed
        assert report.total_failures == 0
        expected_upper = 1.0 - 0.05 ** (1.0 / 20)
        assert report.max_cp_upper == pytest.approx(expected_upper, rel=1e-9)

    def test_impossible_claims_fail_and_are_recorded(
        self, tiny_weighted_graph
    ):
        # No seed set beats 1.01 * OPT, so every trial must fail.
        scenario = _constant_scenario("always_fail", factor=1.01)
        report = run_scenario(
            scenario, tiny_weighted_graph, trials=5, delta=DELTA
        )
        assert not report.passed
        assert report.total_failures == 5
        assert report.max_cp_upper == 1.0
        failure = report.failures[0]
        assert failure.label == "fabricated"
        assert failure.seed == trial_seed(0, failure.trial)
        assert failure.spread < failure.factor * failure.opt

    def test_too_few_trials_cannot_certify(self, tiny_weighted_graph):
        """Zero failures over 5 trials is not evidence of delta<=0.25:
        the CP upper bound stays above delta and the verdict is FAIL."""
        scenario = _constant_scenario("always_pass", factor=0.0)
        report = run_scenario(
            scenario, tiny_weighted_graph, trials=5, delta=DELTA
        )
        assert report.total_failures == 0
        assert not report.passed

    def test_unknown_scenario_and_bad_trials(self, tiny_weighted_graph):
        with pytest.raises(ParameterError):
            run_scenario("no_such_scenario", tiny_weighted_graph, trials=5)
        with pytest.raises(ParameterError):
            run_scenario("cold_opimc", tiny_weighted_graph, trials=0)

    def test_report_serializes_to_json(self, tiny_weighted_graph):
        scenario = _constant_scenario("always_fail", factor=1.01)
        report = run_scenario(
            scenario, tiny_weighted_graph, trials=3, delta=DELTA
        )
        payload = json.loads(report.to_json())
        assert payload["scenario"] == "always_fail"
        assert payload["total_failures"] == 3
        assert payload["labels"][0]["failures"] == 3
        assert payload["failures"][0]["trial"] == 0
        assert "FAIL" in format_report(report)


class TestScenarioSmoke:
    """Every registered serve-path scenario, smoke-tier trial counts.

    These are real statistical acceptance runs — 15 trials with the CP
    criterion — just small enough for tier-1; the 200-trial versions
    run under ``-m slow``.
    """

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_certifies_delta(
        self, tiny_weighted_graph, stat_entropy, name
    ):
        report = run_scenario(
            name,
            tiny_weighted_graph,
            trials=SMOKE_TRIALS,
            entropy=stat_entropy,
            epsilon=EPSILON,
            delta=DELTA,
        )
        assert report.passed, format_report(report)
        assert report.rr_sets_mean > 0
        assert all(s.trials == SMOKE_TRIALS for s in report.labels)

    def test_cold_opimc_sadeh_certifies_delta(
        self, tiny_weighted_graph, stat_entropy
    ):
        report = run_scenario(
            "cold_opimc",
            tiny_weighted_graph,
            trials=SMOKE_TRIALS,
            entropy=stat_entropy,
            epsilon=EPSILON,
            delta=DELTA,
            stopping="sadeh",
        )
        assert report.passed, format_report(report)
        assert report.labels[0].label == "opim_c[sadeh] k=2"

    def test_alpha_target_matches_paper_threshold(self, tiny_weighted_graph):
        from repro.stats_harness import TrialContext

        ctx = TrialContext(graph=tiny_weighted_graph, seed=1, trial=0)
        assert ctx.alpha_target == pytest.approx(
            1.0 - 1.0 / math.e - ctx.epsilon
        )


class TestCompareStopping:
    def test_sadeh_samples_fewer_exactly_where_its_cap_cut(self):
        """Both rules draw one stream, so a sadeh run the cap did not
        cut samples the paper run's sets, and one it cut samples
        fewer; the vanilla k = 1 regime has trials of both kinds."""
        from repro.graph import power_law_graph
        from repro.stats_harness import compare_stopping

        graph = assign_wc_weights(power_law_graph(120, 5, seed=7))
        comparison = compare_stopping(
            graph, trials=6, entropy=2018, k=1, epsilon=0.08,
            bound="vanilla",
        )
        rows = comparison["rows"]
        assert all((row["sadeh"] < row["paper"]) == row["cut"] for row in rows)
        assert {row["cut"] for row in rows} == {True, False}
