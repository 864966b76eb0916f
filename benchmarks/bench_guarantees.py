"""Statistical guarantee acceptance + early-stopping sampling cost.

Two measurements, persisted to ``benchmarks/results/
BENCH_guarantees.json`` and gated by ``repro-opim bench compare``:

* **Guarantee acceptance** — every serve-path scenario of
  :mod:`repro.stats_harness` (cold, warm-index restart, adopted-sketch
  multi-k, repeated queries, serial/pool streams) at 120 trials on the
  exact-oracle graph; the gated headline is the worst per-label
  Clopper–Pearson upper bound, which must stay within ``delta``.
* **Stopping cost** — paired paper-vs-sadeh OPIM-C runs on the
  simulated bench datasets (and one hard-regime config where the cap
  visibly binds); the gated headlines are the sadeh/theta_max and
  sadeh/paper RR-set ratios, which must stay below 1.

The trial entropy is pinned so the JSON is reproducible run to run.
"""

from __future__ import annotations

import json
import statistics

import pytest

from repro.datasets.registry import load_dataset
from repro.graph.build import from_edge_list
from repro.graph.generators import power_law_graph
from repro.graph.weights import assign_wc_weights
from repro.stats_harness import SCENARIOS, compare_stopping, run_scenario

from conftest import RESULTS_DIR, run_once

ENTROPY = 2018
EPSILON = 0.3
DELTA = 0.25

#: 120 trials: zero failures give CP-upper ~0.0247, so the gate has
#: an order of magnitude of headroom below delta = 0.25.
TRIALS = 120

#: Paired runs per stopping-cost config (each run is deterministic
#: given its derived seed; 5 pairs bound seed-to-seed jitter).
STOPPING_TRIALS = 5

DATASET_SCALE = 0.06
RESULT_NAME = "BENCH_guarantees.json"


def _oracle_graph():
    """The suite's 5-node exact-enumeration graph."""
    return from_edge_list(
        [
            (0, 1, 0.5),
            (0, 2, 0.5),
            (1, 3, 0.4),
            (2, 3, 0.4),
            (3, 4, 0.9),
        ],
        name="tiny",
    )


def _scenario_summary(report):
    return {
        "trials": report.trials,
        "delta": report.delta,
        "epsilon": report.epsilon,
        "confidence": report.confidence,
        "total_failures": report.total_failures,
        "max_cp_upper": report.max_cp_upper,
        "passed": report.passed,
        "rr_sets_mean": report.rr_sets_mean,
        "rr_sets_max": report.rr_sets_max,
        "labels": [
            {
                "label": stats.label,
                "failures": stats.failures,
                "trials": stats.trials,
                "cp_upper": stats.cp_upper,
            }
            for stats in report.labels
        ],
    }


def _stopping_summary(comparison):
    summary = {
        key: comparison[key]
        for key in (
            "graph",
            "n",
            "m",
            "k",
            "epsilon",
            "delta",
            "bound",
            "trials",
            "theta_max",
            "paper",
            "sadeh",
            "rr_ratio_sadeh_vs_paper",
            "rr_ratio_sadeh_vs_theta_max",
            "rows",
        )
    }
    return summary


def _run_guarantee_bench():
    graph = _oracle_graph()
    scenarios = {}
    for name in sorted(SCENARIOS):
        stopping_modes = (
            ("paper", "sadeh") if name == "cold_opimc" else ("paper",)
        )
        for stopping in stopping_modes:
            key = name if stopping == "paper" else f"{name}[{stopping}]"
            report = run_scenario(
                name,
                graph,
                trials=TRIALS,
                entropy=ENTROPY,
                epsilon=EPSILON,
                delta=DELTA,
                stopping=stopping,
            )
            scenarios[key] = _scenario_summary(report)

    stopping_runs = []
    for dataset in ("pokec-sim", "orkut-sim"):
        stopping_runs.append(
            compare_stopping(
                load_dataset(dataset, scale=DATASET_SCALE),
                trials=STOPPING_TRIALS,
                entropy=ENTROPY,
                k=10,
                epsilon=EPSILON,
                delta=DELTA,
            )
        )
    # Hard regime: the loose vanilla deviation bound keeps the alpha
    # exit from firing early, so the Sadeh cap is what stops the run
    # and the sadeh/paper ratio drops strictly below 1.  At k = 1 the
    # cap's union term k (1 + ln 2) = 1.69 is well under ln C(120, 1)
    # = 4.79, so the cap sits far below each doubling the paper rule
    # takes and binds on every trial, not only on a trial whose stream
    # happens to need one more doubling.  (At the earlier k = 2,
    # epsilon = 0.05 it bound on one trial of five, and after the
    # sampler's stream changed it bound on none: ratio 1.0.)
    stopping_runs.append(
        compare_stopping(
            assign_wc_weights(
                power_law_graph(120, 5, seed=7, name="power-law-120")
            ),
            trials=STOPPING_TRIALS,
            entropy=ENTROPY,
            k=1,
            epsilon=0.08,
            delta=DELTA,
            bound="vanilla",
        )
    )

    summary = {
        "max_cp_upper": max(s["max_cp_upper"] for s in scenarios.values()),
        "all_scenarios_pass": all(
            s["passed"] for s in scenarios.values()
        ),
        "total_failures": sum(
            s["total_failures"] for s in scenarios.values()
        ),
        "max_rr_ratio_sadeh_vs_paper": max(
            run["rr_ratio_sadeh_vs_paper"] for run in stopping_runs
        ),
        "min_rr_ratio_sadeh_vs_paper": min(
            run["rr_ratio_sadeh_vs_paper"] for run in stopping_runs
        ),
        "max_rr_ratio_sadeh_vs_theta_max": max(
            run["rr_ratio_sadeh_vs_theta_max"] for run in stopping_runs
        ),
        "mean_rr_ratio_sadeh_vs_theta_max": statistics.fmean(
            run["rr_ratio_sadeh_vs_theta_max"] for run in stopping_runs
        ),
    }
    return {
        "params": {
            "entropy": ENTROPY,
            "epsilon": EPSILON,
            "delta": DELTA,
            "trials": TRIALS,
            "stopping_trials": STOPPING_TRIALS,
            "dataset_scale": DATASET_SCALE,
        },
        "scenarios": scenarios,
        "stopping": [_stopping_summary(run) for run in stopping_runs],
        "summary": summary,
    }


def test_guarantee_acceptance_bench(benchmark):
    payload = run_once(benchmark, _run_guarantee_bench)
    summary = payload["summary"]

    # The acceptance contract, asserted here and gated in
    # BENCH_baseline.json so `repro-opim bench compare` re-checks it.
    assert summary["all_scenarios_pass"], json.dumps(
        payload["scenarios"], indent=2
    )
    assert summary["max_cp_upper"] <= DELTA
    # Sadeh stopping samples fewer RR sets than the Eq. 16 worst case
    # on every bench graph, and never more than the paper rule...
    assert summary["max_rr_ratio_sadeh_vs_theta_max"] < 1.0
    assert summary["max_rr_ratio_sadeh_vs_paper"] <= 1.0
    # ...and strictly fewer where the cap binds (the vanilla config),
    # on every one of its trials.
    assert summary["min_rr_ratio_sadeh_vs_paper"] < 1.0
    hard = payload["stopping"][-1]
    assert all(row["sadeh"] < row["paper"] for row in hard["rows"]), hard

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / RESULT_NAME
    out.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
