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

Last, the serve engine samples through a ``workers=1``
:class:`~repro.sampling.service.SamplingPool`, which reseeds one
in-process ``RRSampler`` per kernel batch.  ``pool.*_ratio`` is its
fill time over a plain ``RRSampler`` fill of the same sets (the
sampler is seeded with the pool's first batch seed, so both draw the
same single batch), the median of :data:`POOL_REPEATS` alternating
fills each.  ``BENCH_baseline.json`` gates the ratios near 1; a pool
that rebuilt its tables or narrowed its batches per fill would read
several times that.
"""

from __future__ import annotations

import json
import statistics
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.registry import load_dataset
from repro.graph import assign_wc_weights, power_law_graph
from repro.sampling.alias import build_alias_arrays
from repro.sampling.kernel import RRSampler
from repro.sampling.rrset_lt import LTAliasTables
from repro.sampling.service import SamplingPool
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
#: Alternating timed fills of each side behind a pool / sampler ratio.
POOL_REPEATS = 15
#: ``(name, graph, model, RR sets)`` of the pool / sampler ratios: a
#: cluster growth fill on a tenant graph, and engine fills on the
#: benchmark's pokec-sim graph.
POOL_FILLS = (
    ("tenant_ic_250", "tenant", "IC", 250),
    ("ic_2000", "pokec", "IC", 2000),
    ("lt_2000", "pokec", "LT", 2000),
)


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


def _timed_fill(sampler, count):
    collection = sampler.new_collection()
    timer = Timer()
    with timer:
        sampler.fill(collection, count)
    return timer.elapsed


def _pool_ratio(graph, model, count):
    """Median ``workers=1`` pool fill seconds over median sampler fill
    seconds, fresh objects each repeat, the two sides alternating."""
    first_batch = np.random.SeedSequence(SEED, spawn_key=(0,))
    pool_times, sampler_times = [], []
    for _ in range(POOL_REPEATS):
        with SamplingPool(graph, model, workers=1, seed=SEED) as pool:
            pool_times.append(_timed_fill(pool, count))
        sampler = RRSampler(graph, model, seed=first_batch)
        sampler_times.append(_timed_fill(sampler, count))
    pool_s = statistics.median(pool_times)
    sampler_s = statistics.median(sampler_times)
    return {
        "pool_ms": round(1e3 * pool_s, 3),
        "sampler_ms": round(1e3 * sampler_s, 3),
        "ratio": round(pool_s / sampler_s, 3),
    }


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
    graphs = {
        "tenant": assign_wc_weights(power_law_graph(800, 4, seed=0)),
        "pokec": load_dataset("pokec-sim", scale=2.5),
    }
    pool = {
        name: _pool_ratio(graphs[which], model, count)
        for name, which, model, count in POOL_FILLS
    }
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
        # workers=1 pool fill / RRSampler fill (see the module docs).
        "pool": {
            **{f"{name}_ratio": pool[name]["ratio"] for name in pool},
            "fills": pool,
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
