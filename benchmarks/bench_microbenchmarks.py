"""Microbenchmarks of the substrate hot paths.

Not a paper figure — these track the cost model underlying the paper's
complexity analysis: RR-set generation under IC vs. LT (Appendix A)
and the greedy max-coverage pass (Table 1's ``sum |R|`` term).
pytest-benchmark's regular multi-round timing applies here.

:func:`bench_greedy_pass_spread` times one :data:`GREEDY_K`-seed pass
over each of twelve fixed pokec-sim x2.5 sketches (IC and LT, stream
seeds 1-6, :data:`GREEDY_SETS` RR sets each) and writes
``benchmarks/results/BENCH_greedy.json``.  ``BENCH_baseline.json``
gates ``greedy.median_pass_ms`` (the median sketch) and
``greedy.spread_ratio`` (slowest sketch over fastest), which reads
about 3 to 4 when a prefix's top-k goes back to an n-wide
``np.partition``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

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


#: Seeds per timed greedy pass and RR sets per sketch.
GREEDY_K = 50
GREEDY_SETS = 4000
#: Timed passes per sketch; each sketch's figure is their median.
GREEDY_REPEATS = 7


def bench_greedy_pass_spread(benchmark):
    graph = load_dataset("pokec-sim", scale=2.5)
    sketches = {}
    for model in ("IC", "LT"):
        for seed in range(1, 7):
            sampler = RRSampler(graph, model, seed=seed)
            collection = sampler.new_collection(GREEDY_SETS)
            collection.build()
            sketches[f"{model}-{seed}"] = collection

    def run():
        # Round-robin over the sketches, so a host that slows down or
        # speeds up during the run moves every sketch alike.
        times = {name: [] for name in sketches}
        for _ in range(GREEDY_REPEATS):
            for name, collection in sketches.items():
                timer = Timer()
                with timer:
                    greedy_max_coverage(collection, GREEDY_K)
                times[name].append(timer.elapsed * 1e3)
        return {name: statistics.median(ms) for name, ms in times.items()}

    pass_ms = benchmark.pedantic(run, rounds=1, iterations=1)
    fastest, slowest = min(pass_ms.values()), max(pass_ms.values())
    summary = {
        "dataset": graph.name,
        "n": graph.n,
        "k": GREEDY_K,
        "rr_sets_per_sketch": GREEDY_SETS,
        "pass_ms": {name: round(ms, 3) for name, ms in pass_ms.items()},
        # The gated numbers (BENCH_baseline.json).
        "greedy": {
            "median_pass_ms": round(statistics.median(pass_ms.values()), 3),
            "spread_ratio": round(slowest / fastest, 3),
        },
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / "BENCH_greedy.json"
    path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")


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
