"""Statistical acceptance harness for the serve-path guarantees.

The paper's value proposition is the ``(1 - 1/e - eps, 1 - delta)``
guarantee (Theorem 6.2 and the online Section 4 analogue).  This
package verifies it **empirically on the paths production traffic
actually takes** — warm-index restarts, the adopted-sketch multi-``k``
serving layer, repeated identical queries under the ``delta / 2^i``
schedule, a pool shared across trials and the cluster tier — by
running hundreds of independent trials against brute-force ``OPT``
oracles and reporting Clopper–Pearson confidence bounds on the
observed failure rates.

It is also the referee for the ``stopping="sadeh"`` sample-complexity
early-stopping rule (:func:`repro.core.theta.theta_sadeh`): the rule
must cut RR sets sampled *and* keep the empirical failure rate within
``delta``.

Entry points:

* :func:`run_scenario` — N trials of one scenario, CP verdict;
* :func:`compare_stopping` — paired paper-vs-sadeh sampling cost;
* :data:`SCENARIOS` — the scenario registry;
* :class:`ExactOracle` — the exact spread / brute-force OPT oracle.
"""

from repro.stats_harness.oracle import ExactOracle
from repro.stats_harness.report import (
    Claim,
    ClaimFailure,
    ClaimGroup,
    LabelStats,
    ScenarioReport,
    TrialResult,
    format_report,
    format_reports,
)
from repro.stats_harness.runner import (
    compare_stopping,
    run_scenario,
    trial_seed,
)
from repro.stats_harness.scenarios import SCENARIOS, Scenario, TrialContext

__all__ = [
    "Claim",
    "ClaimFailure",
    "ClaimGroup",
    "ExactOracle",
    "LabelStats",
    "SCENARIOS",
    "Scenario",
    "ScenarioReport",
    "TrialContext",
    "TrialResult",
    "compare_stopping",
    "format_report",
    "format_reports",
    "run_scenario",
    "trial_seed",
]
