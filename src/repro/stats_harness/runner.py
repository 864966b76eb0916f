"""Trial runner: empirical verification of the serving guarantees.

:func:`run_scenario` executes N independent trials of one scenario
(each from a deterministically derived seed), checks every emitted
claim group against the exact oracle, and aggregates per-label failure
counts into Clopper–Pearson bounds: the scenario *passes* when the
upper confidence bound on every label's failure rate stays within the
``delta`` the algorithm promised.

:func:`compare_stopping` is the paired referee for the Sadeh et al.
early-stopping rule: same seeds, same graphs, ``stopping="paper"`` vs
``stopping="sadeh"``, reporting RR-set counts against the paper's
``theta_max`` (Eq. 16) worst case.

Seeding: trial ``t`` of a run with entropy ``e`` draws its seed from
``numpy.random.SeedSequence([e, t])`` — replaying a failed trial needs
only ``(e, t)``, which every failure record carries.
"""

from __future__ import annotations

import statistics
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

from repro.bounds.binomial import clopper_pearson_interval, clopper_pearson_upper
from repro.core.opimc import opim_c
from repro.core.theta import theta_max
from repro.exceptions import ParameterError
from repro.graph.digraph import DiGraph
from repro.sampling.service import SamplingPool
from repro.stats_harness.oracle import ExactOracle
from repro.stats_harness.report import (
    ClaimFailure,
    ClaimGroup,
    LabelStats,
    ScenarioReport,
)
from repro.stats_harness.scenarios import SCENARIOS, Scenario, TrialContext

#: Slack absorbing float round-off in spread comparisons — claims are
#: about real-valued spreads, not float representations.
CLAIM_TOLERANCE = 1e-9


def trial_seed(entropy: int, trial: int) -> int:
    """Deterministic per-trial seed: ``SeedSequence([entropy, trial])``."""
    return int(np.random.SeedSequence([entropy, trial]).generate_state(1)[0])


def _check_group(
    oracle: ExactOracle,
    group: ClaimGroup,
    trial: int,
    seed: int,
) -> Optional[ClaimFailure]:
    """First violated claim in the group, or None when all hold."""
    for claim in group.claims:
        spread = oracle.spread(claim.seeds)
        opt = oracle.opt(len(claim.seeds))
        if spread < claim.factor * opt - CLAIM_TOLERANCE:
            return ClaimFailure(
                trial=trial,
                seed=seed,
                label=group.label,
                seeds=claim.seeds,
                factor=claim.factor,
                spread=spread,
                opt=opt,
                source=claim.source,
            )
    return None


def run_scenario(
    scenario: Union[str, Scenario],
    graph: DiGraph,
    *,
    trials: int,
    entropy: int = 0,
    model: str = "IC",
    epsilon: float = 0.3,
    delta: float = 0.25,
    k: int = 2,
    ks: tuple = (1, 2, 3),
    queries: int = 3,
    step: int = 200,
    rr_budget: int = 6000,
    stopping: str = "paper",
    confidence: float = 0.95,
    workers: int = 2,
    tmp_dir: Optional[Union[str, Path]] = None,
    max_recorded_failures: int = 20,
) -> ScenarioReport:
    """Run ``trials`` independent trials and return the verdict.

    Parameters mirror :class:`~repro.stats_harness.scenarios
    .TrialContext`; ``entropy`` roots the per-trial seed derivation,
    ``confidence`` sets the Clopper–Pearson level, ``workers`` sizes
    the shared pool for pool scenarios, and ``tmp_dir`` hosts
    per-trial index directories for warm-index trials (a temporary
    directory is created and cleaned up when omitted).
    """
    if isinstance(scenario, str):
        try:
            scenario = SCENARIOS[scenario]
        except KeyError:
            raise ParameterError(
                f"unknown scenario {scenario!r}; "
                f"available: {sorted(SCENARIOS)}"
            ) from None
    if trials < 1:
        raise ParameterError(f"trials must be >= 1, got {trials}")

    oracle = ExactOracle(graph)
    pool: Optional[SamplingPool] = None
    own_tmp: Optional[tempfile.TemporaryDirectory] = None
    base_dir: Optional[Path] = None
    if scenario.needs_index_dir:
        if tmp_dir is None:
            own_tmp = tempfile.TemporaryDirectory(prefix="stats-harness-")
            base_dir = Path(own_tmp.name)
        else:
            base_dir = Path(tmp_dir)

    label_trials: Dict[str, int] = {}
    label_failures: Dict[str, int] = {}
    failures: List[ClaimFailure] = []
    rr_counts: List[int] = []
    try:
        if scenario.needs_pool:
            # The pool's stream is shared by every trial (each consumes
            # the next slice); its seed is derived one step past the
            # trial range so it never collides with a trial seed.
            pool = SamplingPool(
                graph,
                model,
                workers=workers,
                seed=trial_seed(entropy, trials) % (2**31),
            )
        for trial in range(trials):
            seed = trial_seed(entropy, trial)
            ctx = TrialContext(
                graph=graph,
                seed=seed,
                trial=trial,
                model=model,
                epsilon=epsilon,
                delta=delta,
                k=k,
                ks=tuple(ks),
                queries=queries,
                step=step,
                rr_budget=rr_budget,
                stopping=stopping,
                index_dir=(
                    base_dir / f"trial-{trial}" if base_dir is not None else None
                ),
                pool=pool,
            )
            result = scenario.run(ctx)
            rr_counts.append(int(result.rr_sets))
            for group in result.groups:
                label_trials[group.label] = label_trials.get(group.label, 0) + 1
                failure = _check_group(oracle, group, trial, seed)
                if failure is not None:
                    label_failures[group.label] = (
                        label_failures.get(group.label, 0) + 1
                    )
                    if len(failures) < max_recorded_failures:
                        failures.append(failure)
    finally:
        if pool is not None:
            pool.close()
        if own_tmp is not None:
            own_tmp.cleanup()

    labels: List[LabelStats] = []
    for label in sorted(label_trials):
        n_units = label_trials[label]
        n_failed = label_failures.get(label, 0)
        low, high = clopper_pearson_interval(n_failed, n_units, confidence)
        labels.append(
            LabelStats(
                label=label,
                trials=n_units,
                failures=n_failed,
                failure_rate=n_failed / n_units,
                cp_upper=clopper_pearson_upper(n_failed, n_units, confidence),
                cp_low=low,
                cp_high=high,
            )
        )
    max_cp_upper = max((stats.cp_upper for stats in labels), default=0.0)
    return ScenarioReport(
        scenario=scenario.name,
        trials=trials,
        delta=delta,
        epsilon=epsilon,
        confidence=confidence,
        labels=labels,
        max_cp_upper=max_cp_upper,
        passed=max_cp_upper <= delta + CLAIM_TOLERANCE,
        rr_sets_mean=statistics.fmean(rr_counts) if rr_counts else 0.0,
        rr_sets_max=max(rr_counts, default=0),
        params={
            "entropy": entropy,
            "model": model,
            "k": k,
            "ks": list(ks),
            "queries": queries,
            "step": step,
            "rr_budget": rr_budget,
            "stopping": stopping,
            "workers": workers if scenario.needs_pool else None,
            "graph": graph.name,
            "n": graph.n,
            "m": graph.m,
        },
        failures=failures,
    )


def compare_stopping(
    graph: DiGraph,
    *,
    trials: int,
    entropy: int = 0,
    model: str = "IC",
    k: int = 2,
    epsilon: float = 0.3,
    delta: float = 0.25,
    bound: str = "greedy",
) -> Dict[str, Any]:
    """Paired paper-vs-sadeh stopping comparison on one graph.

    Runs ``opim_c`` twice per trial seed — once per stopping rule —
    and reports RR-set counts against Eq. 16's ``theta_max``.  The
    statistical guarantee of the "sadeh" runs is *not* asserted here
    (that needs an exact oracle, i.e. a tiny graph and
    :func:`run_scenario` with ``stopping="sadeh"``); this function
    measures the sampling saving on realistically sized graphs.
    """
    t_max = theta_max(graph.n, k, epsilon, delta)
    rows: List[Dict[str, Any]] = []
    for trial in range(trials):
        seed = trial_seed(entropy, trial)
        per_rule: Dict[str, int] = {}
        for rule in ("paper", "sadeh"):
            result = opim_c(
                graph,
                model,
                k=k,
                epsilon=epsilon,
                delta=delta,
                bound=bound,
                seed=seed,
                stopping=rule,
            )
            per_rule[rule] = int(result.num_rr_sets)
        rows.append({"trial": trial, "seed": seed, **per_rule})
    paper_counts = [row["paper"] for row in rows]
    sadeh_counts = [row["sadeh"] for row in rows]
    return {
        "graph": graph.name,
        "n": graph.n,
        "m": graph.m,
        "k": k,
        "epsilon": epsilon,
        "delta": delta,
        "bound": bound,
        "trials": trials,
        "entropy": entropy,
        "theta_max": t_max,
        "paper": {
            "rr_mean": statistics.fmean(paper_counts),
            "rr_max": max(paper_counts),
        },
        "sadeh": {
            "rr_mean": statistics.fmean(sadeh_counts),
            "rr_max": max(sadeh_counts),
        },
        "rr_ratio_sadeh_vs_paper": (
            statistics.fmean(sadeh_counts) / statistics.fmean(paper_counts)
        ),
        "rr_ratio_sadeh_vs_theta_max": max(sadeh_counts) / t_max,
        "rows": rows,
    }
