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

It also times the LT alias tables every LT sampler builds before its
first set: the segmented build (:class:`LTAliasTables`) against the
per-node ``build_alias_arrays`` loop it replaced, the median of
:data:`TABLE_REPEATS` builds each.  ``BENCH_baseline.json`` gates
``lt.tables_speedup_vs_reference``, which falls to about 1 if the
tables go back to a per-node loop.

Memory is gated too: ``ic.fill_peak_bytes`` and ``lt.fill_peak_bytes``
are the ``tracemalloc`` peak of building a sampler and filling
:data:`COUNT` sets, which holds the batch's bit-packed visited matrix
(at most 2 MiB) and the sampler's tables.  A dense visited matrix at
today's batch width would read about 8x the matrix.
"""

from __future__ import annotations

import json
import statistics
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.registry import load_dataset
from repro.sampling.alias import build_alias_arrays
from repro.sampling.kernel import RRSampler
from repro.sampling.rrset_lt import LTAliasTables
from repro.utils.timer import Timer

from conftest import run_once

#: RR sets per timed measurement; large enough that per-call setup
#: (alias tables, scratch allocation) amortizes out.
COUNT = 4000
SEED = 2018
MIN_SPEEDUP_VS_PYTHON = 5.0
#: Timed builds of each kind of LT alias tables.
TABLE_REPEATS = 9
#: Timed fills behind each RR-sets-per-second figure.
RATE_REPEATS = 5


@pytest.fixture(scope="module")
def graph():
    return load_dataset("pokec-sim", scale=0.25)


def _kernel_rate(graph, model, kernel):
    """RR sets per second: the median of RATE_REPEATS fills of COUNT
    sets, each on a fresh sampler with the same seed (the same work),
    so one cold first call or one noisy slice does not set the figure."""
    times = []
    for _ in range(RATE_REPEATS):
        sampler = RRSampler(graph, model, seed=SEED, kernel=kernel)
        timer = Timer()
        with timer:
            sampler.fill(sampler.new_collection(), COUNT)
        times.append(timer.elapsed)
    return COUNT / statistics.median(times)


def _fill_peak_bytes(graph, model):
    """``tracemalloc`` peak of a fresh sampler drawing COUNT sets."""
    tracemalloc.start()
    try:
        sampler = RRSampler(graph, model, seed=SEED)
        sampler.fill(sampler.new_collection(), COUNT)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _per_node_tables(graph):
    """The reference: one ``build_alias_arrays`` call per node."""
    offsets, probs = graph.in_offsets, graph.in_probs
    accept = np.ones(graph.m, dtype=np.float64)
    alias = np.zeros(graph.m, dtype=np.int64)
    for u in range(graph.n):
        lo, hi = int(offsets[u]), int(offsets[u + 1])
        if hi > lo and probs[lo:hi].sum() > 0.0:
            accept[lo:hi], alias[lo:hi] = build_alias_arrays(probs[lo:hi])
    return accept, alias


def _median_seconds(build, graph):
    times = []
    for _ in range(TABLE_REPEATS):
        timer = Timer()
        with timer:
            build(graph)
        times.append(timer.elapsed)
    return statistics.median(times)


def bench_vectorized_kernel_throughput(benchmark, graph):
    def run():
        rates = {}
        for model in ("IC", "LT"):
            rates[model] = {
                "python": _kernel_rate(graph, model, "python"),
                "vectorized": _kernel_rate(graph, model, "vectorized"),
            }
        tables = {
            "segmented": _median_seconds(LTAliasTables, graph),
            "reference": _median_seconds(_per_node_tables, graph),
        }
        peaks = {model: _fill_peak_bytes(graph, model) for model in ("IC", "LT")}
        return rates, tables, peaks

    rates, tables, peaks = run_once(benchmark, run)
    ic, lt = rates["IC"], rates["LT"]
    summary = {
        "dataset": graph.name,
        "n": graph.n,
        "m": graph.m,
        "rr_sets_per_measurement": COUNT,
        "ic": {
            "python_kernel_rr_sets_per_second": round(ic["python"], 1),
            "vectorized_rr_sets_per_second": round(ic["vectorized"], 1),
            "fill_peak_bytes": peaks["IC"],
        },
        "lt": {
            "python_kernel_rr_sets_per_second": round(lt["python"], 1),
            "vectorized_rr_sets_per_second": round(lt["vectorized"], 1),
            "fill_peak_bytes": peaks["LT"],
            "tables_build_seconds": round(tables["segmented"], 5),
            "tables_reference_seconds": round(tables["reference"], 5),
            "tables_speedup_vs_reference": round(
                tables["reference"] / tables["segmented"], 2
            ),
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
