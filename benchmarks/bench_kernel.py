"""Frontier-batched kernel vs. its python reference.

The vectorized kernel's reason to exist is throughput: it advances a
whole batch of in-flight RR sets one frontier level at a time with
numpy gather/scatter instead of paying Python-interpreter cost per BFS
node.  This benchmark measures RR-sets/second on pokec-sim for

* ``python``  — the kernel's loop-based reference implementation,
* ``vectorized`` — the production kernel,

for both IC and LT, asserts the vectorized kernel clears **5x** over
the python reference (the ISSUE acceptance gate), and persists the
measurement to ``benchmarks/results/BENCH_kernel.json`` where
``BENCH_baseline.json`` gates ``kernel.rr_sets_per_second`` and
``kernel.speedup_vs_python`` against regressions.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.datasets.registry import load_dataset
from repro.sampling.kernel import RRSampler
from repro.utils.timer import Timer

from conftest import run_once

#: RR sets per timed measurement; large enough that per-call setup
#: (alias tables, scratch allocation) amortizes out.
COUNT = 4000
SEED = 2018
MIN_SPEEDUP_VS_PYTHON = 5.0


@pytest.fixture(scope="module")
def graph():
    return load_dataset("pokec-sim", scale=0.25)


def _kernel_rate(graph, model, kernel):
    sampler = RRSampler(graph, model, seed=SEED, kernel=kernel)
    timer = Timer()
    with timer:
        sampler.fill(sampler.new_collection(), COUNT)
    return COUNT / timer.elapsed


def bench_vectorized_kernel_throughput(benchmark, graph):
    def run():
        rates = {}
        for model in ("IC", "LT"):
            rates[model] = {
                "python": _kernel_rate(graph, model, "python"),
                "vectorized": _kernel_rate(graph, model, "vectorized"),
            }
        return rates

    rates = run_once(benchmark, run)
    ic, lt = rates["IC"], rates["LT"]
    summary = {
        "dataset": graph.name,
        "n": graph.n,
        "m": graph.m,
        "rr_sets_per_measurement": COUNT,
        "ic": {
            "python_kernel_rr_sets_per_second": round(ic["python"], 1),
            "vectorized_rr_sets_per_second": round(ic["vectorized"], 1),
        },
        "lt": {
            "python_kernel_rr_sets_per_second": round(lt["python"], 1),
            "vectorized_rr_sets_per_second": round(lt["vectorized"], 1),
        },
        # The gated headline numbers (BENCH_baseline.json).
        "kernel": {
            "rr_sets_per_second": round(ic["vectorized"], 1),
            "speedup_vs_python": round(ic["vectorized"] / ic["python"], 2),
        },
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / "BENCH_kernel.json"
    path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    speedup = summary["kernel"]["speedup_vs_python"]
    assert speedup >= MIN_SPEEDUP_VS_PYTHON, (
        f"vectorized kernel only {speedup:.2f}x over the python reference "
        f"({ic['vectorized']:.0f} vs {ic['python']:.0f} rr-sets/s); the "
        f"acceptance gate requires {MIN_SPEEDUP_VS_PYTHON:.0f}x"
    )
