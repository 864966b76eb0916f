"""repro — a reproduction of "Online Processing Algorithms for Influence
Maximization" (Tang, Tang, Xiao, Yuan; SIGMOD 2018).

The package implements:

* the **OPIM** online algorithm (:class:`~repro.core.opim.OnlineOPIM`)
  with its three bound variants (OPIM0 / OPIM+ / OPIM'),
* **OPIM-C** (:func:`~repro.core.opimc.opim_c`) for conventional
  influence maximization,
* the baselines the paper compares against — Borgs et al.'s online
  algorithm, the OPIM-adoption wrapper, IMM, TIM+, SSA-Fix,
  D-SSA-Fix, and Monte-Carlo CELF,
* the full substrate: CSR graphs, IC/LT/triggering diffusion, RR-set
  sampling, greedy maximum coverage, and martingale bounds,
* an experiment harness regenerating every table and figure of the
  paper's evaluation (:mod:`repro.experiments`).

Quickstart
----------
>>> from repro import OnlineOPIM, load_dataset
>>> graph = load_dataset("pokec-sim", scale=0.1)
>>> algo = OnlineOPIM(graph, "IC", k=10, seed=42)
>>> algo.extend(2000)          # stream RR sets ...
>>> snapshot = algo.query()    # ... pause anytime
>>> snapshot.alpha > 0.2       # instance-specific guarantee
True
"""

from repro.baselines import (
    celf_greedy,
    degree_discount_ic,
    dssa_fix,
    imm,
    max_degree,
    random_seeds,
    single_discount,
    ssa_fix,
    tim_plus,
)
from repro.core import (
    OPIMC,
    BorgsOnline,
    IMResult,
    OnlineOPIM,
    OnlineSnapshot,
    OPIMAdoption,
    OPIMSession,
    opim_c,
)
from repro.datasets import load_dataset
from repro.diffusion import monte_carlo_spread
from repro.obs import NULL_REGISTRY, MetricsRegistry, TraceRecorder
from repro.graph import (
    DiGraph,
    assign_constant_weights,
    assign_trivalency_weights,
    assign_uniform_weights,
    assign_wc_weights,
    erdos_renyi,
    from_edge_list,
    power_law_graph,
    read_edge_list,
    small_world,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core algorithms
    "OnlineOPIM",
    "OPIMSession",
    "OnlineSnapshot",
    "OPIMC",
    "opim_c",
    "IMResult",
    "BorgsOnline",
    "OPIMAdoption",
    # baselines
    "imm",
    "tim_plus",
    "ssa_fix",
    "dssa_fix",
    "celf_greedy",
    "random_seeds",
    "max_degree",
    "single_discount",
    "degree_discount_ic",
    # graph substrate
    "DiGraph",
    "from_edge_list",
    "read_edge_list",
    "power_law_graph",
    "erdos_renyi",
    "small_world",
    "assign_wc_weights",
    "assign_constant_weights",
    "assign_uniform_weights",
    "assign_trivalency_weights",
    # evaluation
    "monte_carlo_spread",
    "load_dataset",
    # observability
    "MetricsRegistry",
    "TraceRecorder",
    "NULL_REGISTRY",
]
