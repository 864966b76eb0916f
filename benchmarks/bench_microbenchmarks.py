"""Microbenchmarks of the substrate hot paths.

Not a paper figure — these track the cost model underlying the paper's
complexity analysis: RR-set generation under IC vs. LT (Appendix A)
and the greedy max-coverage pass (Table 1's ``sum |R|`` term).
pytest-benchmark's regular multi-round timing applies here.
"""

from __future__ import annotations

import json

import pytest

from repro.datasets.registry import load_dataset
from repro.maxcover.greedy import greedy_max_coverage
from repro.obs import MetricsRegistry, throughput_summary
from repro.sampling.generator import RRSampler
from repro.utils.timer import Timer


@pytest.fixture(scope="module")
def graph():
    return load_dataset("pokec-sim", scale=0.25)


def bench_rr_generation_ic(benchmark, graph):
    sampler = RRSampler(graph, "IC", seed=1)
    benchmark(lambda: sampler.fill(sampler.new_collection(), 200))


def bench_rr_generation_lt(benchmark, graph):
    sampler = RRSampler(graph, "LT", seed=1)
    benchmark(lambda: sampler.fill(sampler.new_collection(), 200))


def bench_greedy_max_coverage(benchmark, graph):
    sampler = RRSampler(graph, "IC", seed=2)
    collection = sampler.new_collection(5000)
    collection.build()
    benchmark(lambda: greedy_max_coverage(collection, 50))


def bench_forward_simulation_ic_batched(benchmark, graph):
    from repro.diffusion.batch_sim import batched_monte_carlo_spread

    seeds = list(range(10))
    benchmark(
        lambda: batched_monte_carlo_spread(graph, seeds, num_samples=20, seed=3)
    )


def bench_forward_simulation_ic(benchmark, graph):
    from repro.diffusion.base import get_model
    from repro.utils.rng import as_generator

    model = get_model("IC", graph)
    rng = as_generator(3)
    seeds = list(range(10))
    benchmark(lambda: [model.simulate(seeds, rng) for _ in range(20)])


def bench_forward_simulation_lt(benchmark, graph):
    from repro.diffusion.base import get_model
    from repro.utils.rng import as_generator

    model = get_model("LT", graph)
    rng = as_generator(3)
    seeds = list(range(10))
    benchmark(lambda: [model.simulate(seeds, rng) for _ in range(20)])


def bench_observability_throughput(benchmark, graph):
    """Sampling throughput as seen through the live metrics registry.

    Runs an instrumented fill (counters on) under timing, then derives
    RR-sets/sec and edges/sec via :func:`repro.obs.throughput_summary`
    and persists them to ``benchmarks/results/BENCH_observability.json``
    so throughput regressions are visible across runs.
    """
    from pathlib import Path

    results_dir = Path(__file__).parent / "results"
    registry = MetricsRegistry()
    sampler = RRSampler(graph, "IC", seed=1, registry=registry)
    timer = Timer()

    def run():
        with timer, registry.trace("bench/sampling"):
            sampler.fill(sampler.new_collection(), 500)

    benchmark(run)
    summary = throughput_summary(
        registry,
        timer.elapsed,
        counters={
            "sampling.rr_sets": "rr_sets_per_second",
            "sampling.edges": "edges_per_second",
            "sampling.nodes": "nodes_per_second",
        },
    )
    summary["dataset"] = graph.name
    summary["n"] = graph.n
    summary["m"] = graph.m
    assert summary["rates"]["rr_sets_per_second"] > 0
    assert summary["rates"]["edges_per_second"] > 0
    results_dir.mkdir(exist_ok=True)
    path = results_dir / "BENCH_observability.json"
    path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
