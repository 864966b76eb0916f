"""Ablations of OPIM's design choices.

The paper fixes two free parameters of its quality-assessment scheme
and argues each briefly; these ablations measure them empirically:

* **delta split** (Lemma 4.4 / Figure 1): the failure budget is split
  ``delta_1 = delta_2 = delta / 2`` between the optimum's upper bound
  and the seed set's lower bound.  :func:`delta_split_ablation` sweeps
  the split on a live instance and reports the achieved alpha — the
  empirical counterpart of Figure 1's analytical ratio.

* **collection split** (Section 4.1): the RR-set stream is divided
  *evenly* between the nominators ``R1`` and the judges ``R2``.
  :func:`collection_split_ablation` sweeps the R1 fraction and reports
  alpha at a fixed total budget, showing the even split sits near the
  empirical optimum.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bounds.concentration import (
    approximation_guarantee,
    sigma_lower_bound,
    sigma_upper_bound,
)
from repro.exceptions import ParameterError
from repro.experiments.harness import ExperimentResult, Series
from repro.graph.digraph import DiGraph
from repro.maxcover.bounds import coverage_upper_bound_greedy
from repro.maxcover.greedy import greedy_max_coverage
from repro.sampling.kernel import RRSampler
from repro.utils.rng import SeedLike, spawn_generators


def delta_split_ablation(
    graph: DiGraph,
    model: str,
    k: int,
    num_rr_sets: int = 10_000,
    delta: Optional[float] = None,
    fractions: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 0.9),
    repetitions: int = 3,
    seed: SeedLike = None,
) -> ExperimentResult:
    """alpha as a function of the fraction of delta given to delta_1.

    ``fractions[i]`` sets ``delta_1 = f * delta`` and
    ``delta_2 = (1 - f) * delta``; ``f = 0.5`` is the paper's choice.
    """
    if delta is None:
        delta = 1.0 / graph.n
    for f in fractions:
        if not 0.0 < f < 1.0:
            raise ParameterError(f"fractions must lie in (0, 1), got {f}")
    if num_rr_sets % 2:
        raise ParameterError("num_rr_sets must be even")

    half = num_rr_sets // 2
    sums = [0.0] * len(fractions)
    for rep_rng in spawn_generators(seed, repetitions):
        sampler = RRSampler(graph, model, seed=rep_rng)
        r1 = sampler.new_collection(half)
        r2 = sampler.new_collection(half)
        greedy = greedy_max_coverage(r1, k)
        coverage_r2 = r2.coverage(greedy.seeds)
        upper = coverage_upper_bound_greedy(greedy)
        for i, f in enumerate(fractions):
            low = sigma_lower_bound(coverage_r2, half, graph.n, (1 - f) * delta)
            up = sigma_upper_bound(upper, half, graph.n, f * delta)
            sums[i] += approximation_guarantee(low, up)

    result = ExperimentResult(
        experiment_id="ablation-delta-split",
        title=f"alpha vs delta_1 fraction ({graph.name}, {model}, k={k})",
        x_label="delta_1 / delta",
        y_label="reported alpha",
        metadata={"num_rr_sets": num_rr_sets, "delta": delta, "k": k},
    )
    series = Series("OPIM+")
    for f, total in zip(fractions, sums):
        series.add(f, total / repetitions)
    result.series["OPIM+"] = series
    return result


def collection_split_ablation(
    graph: DiGraph,
    model: str,
    k: int,
    num_rr_sets: int = 10_000,
    delta: Optional[float] = None,
    fractions: Sequence[float] = (0.1, 0.25, 0.5, 0.75, 0.9),
    repetitions: int = 3,
    seed: SeedLike = None,
) -> ExperimentResult:
    """alpha as a function of the fraction of samples given to R1.

    ``fractions[i]`` allocates ``f * num_rr_sets`` samples to the
    nominator collection and the rest to the judges; ``f = 0.5`` is the
    paper's even split (Section 4.1).
    """
    if delta is None:
        delta = 1.0 / graph.n
    for f in fractions:
        if not 0.0 < f < 1.0:
            raise ParameterError(f"fractions must lie in (0, 1), got {f}")

    sums = [0.0] * len(fractions)
    for rep_rng in spawn_generators(seed, repetitions):
        rngs = spawn_generators(rep_rng, len(fractions))
        for i, (f, rng) in enumerate(zip(fractions, rngs)):
            theta1 = max(1, int(round(f * num_rr_sets)))
            theta2 = max(1, num_rr_sets - theta1)
            sampler = RRSampler(graph, model, seed=rng)
            r1 = sampler.new_collection(theta1)
            r2 = sampler.new_collection(theta2)
            greedy = greedy_max_coverage(r1, k)
            low = sigma_lower_bound(
                r2.coverage(greedy.seeds), theta2, graph.n, delta / 2
            )
            up = sigma_upper_bound(
                coverage_upper_bound_greedy(greedy), theta1, graph.n, delta / 2
            )
            sums[i] += approximation_guarantee(low, up)

    result = ExperimentResult(
        experiment_id="ablation-collection-split",
        title=f"alpha vs R1 fraction ({graph.name}, {model}, k={k})",
        x_label="|R1| / (|R1| + |R2|)",
        y_label="reported alpha",
        metadata={"num_rr_sets": num_rr_sets, "delta": delta, "k": k},
    )
    series = Series("OPIM+")
    for f, total in zip(fractions, sums):
        series.add(f, total / repetitions)
    result.series["OPIM+"] = series
    return result
