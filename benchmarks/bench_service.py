"""Persistent sampling pool vs. per-call process pools.

OPIM-C's doubling loop (Algorithm 2) and OnlineOPIM's pause/resume
stream both issue many small sampling requests.  A per-call process
pool pays fork + graph pickling on every request; the persistent
:class:`~repro.sampling.service.SamplingPool` pays fork + shared-memory
placement once and reuses the warm workers for every request.

This benchmark times one simulated doubling session — ``CALLS``
requests of ``QUOTA`` RR sets each at ``WORKERS`` workers — both ways,
asserts the persistent pool amortizes to at least a 2x win, and
persists the measurement to ``benchmarks/results/BENCH_service.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.datasets.registry import load_dataset
from repro.obs import MetricsRegistry
from repro.sampling.service import SamplingPool
from repro.utils.timer import Timer

from conftest import run_once

WORKERS = 4
CALLS = 8
QUOTA = 150


@pytest.fixture(scope="module")
def graph():
    return load_dataset("pokec-sim", scale=0.25)


def _per_call_session(graph):
    """A fresh pool (fork + graph transfer) per call."""
    timer = Timer()
    with timer:
        for call in range(CALLS):
            with SamplingPool(graph, "IC", workers=WORKERS, seed=call) as pool:
                pool.new_collection(QUOTA)
    return timer.elapsed


def _persistent_session(graph, registry):
    """The service path: one pool kept warm across every call."""
    timer = Timer()
    with timer:
        with SamplingPool(
            graph, "IC", workers=WORKERS, seed=0, registry=registry
        ) as pool:
            collection = pool.new_collection()
            for _ in range(CALLS):
                pool.fill(collection, QUOTA)
    return timer.elapsed


def bench_persistent_pool_vs_per_call(benchmark, graph):
    registry = MetricsRegistry()

    def run():
        return {
            "per_call_seconds": _per_call_session(graph),
            "persistent_seconds": _persistent_session(graph, registry),
        }

    timings = run_once(benchmark, run)
    speedup = timings["per_call_seconds"] / timings["persistent_seconds"]
    summary = {
        "dataset": graph.name,
        "n": graph.n,
        "m": graph.m,
        "workers": WORKERS,
        "calls": CALLS,
        "quota_per_call": QUOTA,
        "rr_sets_total": CALLS * QUOTA,
        "per_call_seconds": round(timings["per_call_seconds"], 4),
        "persistent_seconds": round(timings["persistent_seconds"], 4),
        "speedup": round(speedup, 2),
        "service_counters": {
            name: value
            for name, value in registry.counter_values().items()
            if name.startswith("service.")
        },
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    path = results_dir / "BENCH_service.json"
    path.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    assert speedup >= 2.0, (
        f"persistent pool only {speedup:.2f}x faster than per-call pools "
        f"({timings['persistent_seconds']:.3f}s vs "
        f"{timings['per_call_seconds']:.3f}s)"
    )
