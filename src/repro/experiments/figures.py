"""Per-figure experiment definitions (paper, Section 8 + Figure 1).

Every public function regenerates one table or figure of the paper.
Defaults are sized for a pure-Python run in seconds-to-minutes; pass
larger ``checkpoints`` / ``scale`` / ``repetitions`` to approach the
paper's full grid (RR budgets ``1000 * 2^i, i = 0..10``, 50 reps).
The mapping from figures to functions is indexed in DESIGN.md §3.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bounds.concentration import delta_split_ratio
from repro.core.opim import OnlineOPIM
from repro.datasets.registry import dataset_names, load_dataset, table2_rows
from repro.experiments.harness import (
    ExperimentResult,
    Series,
    checkpoint_grid,
    conventional_comparison,
    online_guarantee_curves,
)
from repro.utils.rng import SeedLike
from repro.utils.timer import Timer

#: Scales that keep each stand-in proportionate when shrunk for tests.
_DEFAULT_DATASETS = dataset_names()


# ----------------------------------------------------------------------
# Figure 1 — near-optimality of the delta/2 split (Lemma 4.4)
# ----------------------------------------------------------------------
def figure1(
    coverage_r2: float = 100.0,
    deltas: Sequence[float] = (1e-1, 1e-2, 1e-4, 1e-8),
    coverage_r1_grid: Optional[Sequence[float]] = None,
) -> ExperimentResult:
    """The ratio ``f(ln 2/d) g(ln 1/d) / (f(ln 1/d) g(ln 2/d))``.

    The paper fixes ``Lambda_2(S*) = 100`` and varies ``delta`` and
    ``Lambda_1(S*)``; the ratio staying near 1 shows the fixed
    ``delta/2`` split is near-optimal.
    """
    if coverage_r1_grid is None:
        coverage_r1_grid = np.logspace(2, 6, num=9)
    result = ExperimentResult(
        experiment_id="figure1",
        title=f"Lemma 4.4 split ratio (Lambda2 = {coverage_r2:g})",
        x_label="Lambda1(S*)",
        y_label="alpha / alpha' lower bound",
        metadata={"coverage_r2": coverage_r2},
    )
    for delta in deltas:
        series = Series(f"delta={delta:g}")
        for coverage_r1 in coverage_r1_grid:
            series.add(
                coverage_r1,
                delta_split_ratio(delta, float(coverage_r1), coverage_r2),
            )
        result.series[series.label] = series
    return result


# ----------------------------------------------------------------------
# Figures 2–5 — online guarantees vs. RR budget
# ----------------------------------------------------------------------
def _online_figure(
    figure_id: str,
    model: str,
    datasets: Sequence[str],
    ks: Sequence[int],
    checkpoints: Sequence[int],
    repetitions: int,
    scale: float,
    seed: SeedLike,
    include_adoptions: bool,
    registry=None,
) -> Dict[str, ExperimentResult]:
    panels: Dict[str, ExperimentResult] = {}
    for dataset in datasets:
        graph = load_dataset(dataset, scale=scale)
        for k in ks:
            k_eff = min(k, graph.n)
            panel = online_guarantee_curves(
                graph,
                model,
                k=k_eff,
                checkpoints=checkpoints,
                repetitions=repetitions,
                seed=seed,
                include_adoptions=include_adoptions,
                registry=registry,
            )
            key = f"{dataset}:k={k_eff}" if len(ks) > 1 else dataset
            panel.experiment_id = f"{figure_id}:{key}"
            panels[key] = panel
    return panels


def figure2(
    checkpoints: Optional[Sequence[int]] = None,
    datasets: Sequence[str] = _DEFAULT_DATASETS,
    k: int = 50,
    repetitions: int = 3,
    scale: float = 1.0,
    seed: SeedLike = 2018,
    include_adoptions: bool = True,
    registry=None,
) -> Dict[str, ExperimentResult]:
    """Figure 2: guarantee vs. #RR sets, LT model, k=50, four graphs."""
    checkpoints = checkpoints or checkpoint_grid(1000, 7)
    return _online_figure(
        "figure2", "LT", datasets, [k], checkpoints,
        repetitions, scale, seed, include_adoptions, registry=registry,
    )


def figure3(
    checkpoints: Optional[Sequence[int]] = None,
    ks: Sequence[int] = (1, 10, 100, 1000),
    repetitions: int = 3,
    scale: float = 1.0,
    seed: SeedLike = 2018,
    include_adoptions: bool = True,
    registry=None,
) -> Dict[str, ExperimentResult]:
    """Figure 3: guarantee vs. #RR sets on Twitter-sim, LT, varying k."""
    checkpoints = checkpoints or checkpoint_grid(1000, 7)
    return _online_figure(
        "figure3", "LT", ["twitter-sim"], ks, checkpoints,
        repetitions, scale, seed, include_adoptions, registry=registry,
    )


def figure4(
    checkpoints: Optional[Sequence[int]] = None,
    datasets: Sequence[str] = _DEFAULT_DATASETS,
    k: int = 50,
    repetitions: int = 3,
    scale: float = 1.0,
    seed: SeedLike = 2018,
    include_adoptions: bool = True,
    registry=None,
) -> Dict[str, ExperimentResult]:
    """Figure 4: the Figure 2 experiment under the IC model."""
    checkpoints = checkpoints or checkpoint_grid(1000, 7)
    return _online_figure(
        "figure4", "IC", datasets, [k], checkpoints,
        repetitions, scale, seed, include_adoptions, registry=registry,
    )


def figure5(
    checkpoints: Optional[Sequence[int]] = None,
    ks: Sequence[int] = (1, 10, 100, 1000),
    repetitions: int = 3,
    scale: float = 1.0,
    seed: SeedLike = 2018,
    include_adoptions: bool = True,
    registry=None,
) -> Dict[str, ExperimentResult]:
    """Figure 5: the Figure 3 experiment under the IC model."""
    checkpoints = checkpoints or checkpoint_grid(1000, 7)
    return _online_figure(
        "figure5", "IC", ["twitter-sim"], ks, checkpoints,
        repetitions, scale, seed, include_adoptions, registry=registry,
    )


# ----------------------------------------------------------------------
# Figures 6–7 — conventional influence maximization vs. epsilon
# ----------------------------------------------------------------------
def figure6(
    epsilons: Sequence[float] = (0.1, 0.2, 0.3, 0.5),
    k: int = 50,
    repetitions: int = 1,
    scale: float = 0.1,
    seed: SeedLike = 2018,
    spread_samples: int = 2000,
    registry=None,
) -> Dict[str, ExperimentResult]:
    """Figure 6: conventional IM on Twitter-sim under LT.

    Panel (a) = ``"spread"``; panel (b) = ``"time"`` (with
    ``"rr_sets"`` as the hardware-independent companion).  The paper
    sweeps epsilon in [0.01, 0.1] on 41.7M nodes in C++; the default
    grid here is shifted right to keep IMM's ``1/eps^2`` sample count
    feasible in Python — the relative shapes are preserved.
    """
    graph = load_dataset("twitter-sim", scale=scale)
    return conventional_comparison(
        graph,
        "LT",
        k=min(k, graph.n),
        epsilons=epsilons,
        repetitions=repetitions,
        seed=seed,
        spread_samples=spread_samples,
        registry=registry,
    )


def figure7(
    epsilons: Sequence[float] = (0.1, 0.2, 0.3, 0.5),
    k: int = 50,
    repetitions: int = 1,
    scale: float = 0.1,
    seed: SeedLike = 2018,
    spread_samples: int = 2000,
    registry=None,
) -> Dict[str, ExperimentResult]:
    """Figure 7: the Figure 6 experiment under the IC model."""
    graph = load_dataset("twitter-sim", scale=scale)
    return conventional_comparison(
        graph,
        "IC",
        k=min(k, graph.n),
        epsilons=epsilons,
        repetitions=repetitions,
        seed=seed,
        spread_samples=spread_samples,
        registry=registry,
    )


# ----------------------------------------------------------------------
# Table 1 — guarantee-derivation time of the three OPIM variants
# ----------------------------------------------------------------------
def table1(
    dataset: str = "pokec-sim",
    model: str = "IC",
    k: int = 50,
    num_rr_sets: int = 20_000,
    scale: float = 1.0,
    seed: SeedLike = 2018,
    repeats: int = 3,
) -> List[dict]:
    """Measure the per-query cost of each OPIM bound variant.

    Table 1 in the paper states asymptotic complexities; this measures
    the corresponding wall-clock cost of deriving ``S*`` plus its
    guarantee from a fixed pair of collections, per variant.
    """
    graph = load_dataset(dataset, scale=scale)
    online = OnlineOPIM(graph, model, k=min(k, graph.n), seed=seed)
    online.extend(num_rr_sets)
    online.r1.build()
    online.r2.build()

    complexities = {
        "OPIM0": "O(sum |R|)",
        "OPIM+": "O(kn + sum |R|)",
        "OPIM'": "O(n + sum |R|)",
    }
    bound_of = {"OPIM0": "vanilla", "OPIM+": "greedy", "OPIM'": "leskovec"}

    rows = []
    for label, variant in bound_of.items():
        timer = Timer()
        for _ in range(repeats):
            online.shared_greedy.clear()  # force a fresh greedy pass
            with timer:
                online.query(bound=variant)
        rows.append(
            {
                "Algorithm": label,
                "Time complexity": complexities[label],
                "Measured query time (s)": timer.elapsed / repeats,
                "RR sets": online.num_rr_sets,
                "k": online.k,
            }
        )
    return rows


# ----------------------------------------------------------------------
# Table 2 — dataset summary
# ----------------------------------------------------------------------
def table2(scale: float = 1.0) -> List[dict]:
    """Regenerate Table 2 (stand-in vs. paper dataset statistics)."""
    return table2_rows(scale=scale)
