"""Tests of the benchmark's own code (not of the program it measures).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from common import Context, percentile, samples_beyond, spread, tail_percentile  # noqa: E402
from inproc import ColdGrow  # noqa: E402
from run import check_accounting  # noqa: E402
from serving import HOT, cluster_jobs, http_requests  # noqa: E402
from spans import Tracer, layer_self_times, root_seconds, span_stats  # noqa: E402


METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_NAME = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def validate_metric_specs(specs, limit):
    """Problems with a list of metric declarations (empty when valid)."""
    problems = []
    specs = list(specs)
    if not 1 <= len(specs) <= limit:
        problems.append(f"{len(specs)} metrics, limit is 1..{limit}")
    names = [s.get("name", "") for s in specs]
    if len(set(names)) != len(names):
        problems.append("duplicate metric names")
    for s in specs:
        if not METRIC_NAME.match(s.get("name", "")):
            problems.append(f"bad metric name {s.get('name')!r}")
        if not UNIT_NAME.match(s.get("unit", "")):
            problems.append(f"bad unit {s.get('unit')!r}")
        if s.get("better") not in ("lower", "higher"):
            problems.append(f"bad 'better' on {s.get('name')!r}")
    return problems


# -- seeded generators --------------------------------------------------
def test_http_mix_is_a_function_of_seed_and_cycle():
    assert http_requests(7, 3) == http_requests(7, 3)
    assert http_requests(7, 3) != http_requests(8, 3)
    assert http_requests(7, 3) != http_requests(7, 4)


def test_http_mix_shares():
    requests = [r for cycle in range(20) for r in http_requests(1, cycle)]
    hot = sum(1 for r in requests if "precision" not in r and (r["k"], r["alpha_target"]) in HOT)
    hop = sum(1 for r in requests if r.get("precision") == "hop")
    assert abs(hot / len(requests) - 0.70) < 0.03
    assert abs(hop / len(requests) - 0.15) < 0.03


def test_cluster_plan_is_a_function_of_its_inputs():
    tenants = ["tenant0", "tenant2"]
    plan = cluster_jobs(5, 2, 1, tenants, 200)
    assert plan == cluster_jobs(5, 2, 1, tenants, 200)
    assert plan != cluster_jobs(6, 2, 1, tenants, 200)
    assert {tenant for _, tenant, _ in plan} == set(tenants)
    growth = sum(1 for kind, _, _ in plan if kind == "growth")
    assert 0.1 < growth / len(plan) < 0.3


# -- percentiles ----------------------------------------------------------
def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 95) == 95
    assert percentile(samples, 100) == 100
    assert samples_beyond(100, 95) == 5


@pytest.mark.parametrize(
    "n, chosen, beyond",
    [(10_000, 99.9, 10), (1000, 99.0, 10), (999, 95.0, 49), (200, 95.0, 10), (199, 90.0, 19), (12, 50.0, 6)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, chosen, beyond):
    tail = tail_percentile([float(i) for i in range(n)])
    assert tail["percentile"] == chosen
    assert tail["beyond"] == beyond
    assert tail["samples"] == n


def test_spread_uses_quartiles_of_the_values():
    row = spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert row["median"] == 3.0
    assert row["range_share"] == pytest.approx(4.0 / 3.0)
    assert row["q1"] < row["median"] < row["q3"]


def test_cold_grow_latency_is_the_median_cycle_of_sketch_answers():
    wl = ColdGrow(Context(ROOT, ROOT, 1, None))
    for cycle, base in enumerate((1.0, 2.0, 9.0)):
        wl.ops.append({"kind": "answer", "latency": 100.0, "ok": True, "cycle": cycle, "sampled": 500})
        for i in range(1, 21):
            wl.ops.append({"kind": "answer", "latency": base * i / 1e3, "ok": True, "cycle": cycle, "sampled": 0})
    # Growth answers are left out; cycle p95s are 19, 38 and 171 ms.
    assert wl.latency_ms(95) == pytest.approx(38.0)
    assert wl.latency_ms(50) == pytest.approx(20.0)


# -- host-speed probes ------------------------------------------------------
def test_probes_are_spaced_and_their_time_is_counted():
    ctx = Context(ROOT, ROOT, 1, None)
    ctx.probe()
    ctx.probe()
    assert len(ctx.probes) == 1
    ctx.probe(force=True)
    assert len(ctx.probes) == 2
    assert ctx.probe_seconds >= sum(ctx.probes) > 0


# -- the declaration --------------------------------------------------------
def test_metric_declarations_are_valid():
    declared = spec()
    assert validate_metric_specs(declared["end_to_end"], 16) == []
    assert validate_metric_specs(
        [{**m, "bound": None} for m in declared["per_layer"]], 128
    ) == []
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(set(names)) == len(names)
    assert all(METRIC_NAME.match(name) for name in names)


def test_benchmark_json_shape():
    declared = spec()
    assert set(declared) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert declared["paths"] == ["perfbench"]
    assert isinstance(declared["run_seconds"], int) and 1 <= declared["run_seconds"] <= 60
    assert 2 <= len(declared["workloads"]) <= 8
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert METRIC_NAME.match(workload["name"])
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in declared["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in declared["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_bad_names_are_rejected():
    bad = [
        {"name": "_leading", "unit": "s", "better": "lower"},
        {"name": "has space", "unit": "s", "better": "lower"},
        {"name": "x" * 65, "unit": "s", "better": "lower"},
        {"name": "ok", "unit": "too-long-a-unit-name", "better": "lower"},
        {"name": "ok2", "unit": "s", "better": "sideways"},
    ]
    assert len(validate_metric_specs(bad, 16)) == 5
    assert validate_metric_specs([], 16) != []


# -- spans ------------------------------------------------------------------
def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.enabled = True
    outer = tracer.begin("engine.answer")
    time.sleep(0.01)
    inner = tracer.begin("sampling.fill")
    time.sleep(0.02)
    tracer.end(inner)
    tracer.end(outer)
    stats = span_stats(tracer.spans)
    answer, fill = stats["engine.answer"], stats["sampling.fill"]
    assert fill["self_s"] == pytest.approx(fill["total_s"])
    assert answer["self_s"] == pytest.approx(answer["total_s"] - fill["total_s"])
    layers = layer_self_times(tracer.spans)
    assert layers["engine"] + layers["sampling"] == pytest.approx(root_seconds(tracer.spans))
    child = next(s for s in tracer.spans if s[0] == "sampling.fill")
    assert child[4] == "engine.answer" and child[5] == "engine.answer"


def test_disabled_tracer_records_nothing():
    tracer = Tracer()
    tracer.count("x")
    assert tracer.spans == [] and dict(tracer.counts) == {}


# -- the traced run's accounting ----------------------------------------------
def test_accounting_rejects_double_counting_and_unaccounted_time():
    check_accounting(0.1, 1.0)
    with pytest.raises(RuntimeError):
        check_accounting(-0.001, 1.0)
    with pytest.raises(RuntimeError):
        check_accounting(0.5, 1.0)
