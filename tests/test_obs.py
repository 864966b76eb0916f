"""Tests for the observability layer (repro.obs).

Covers the metric primitives, span nesting/naming, the null-registry
no-op path, JSONL round-trips, throughput helpers, end-to-end
instrumentation of OPIM-C / OnlineOPIM, and the overhead guard that
keeps the disabled-instrumentation hot path within noise of an
uninstrumented baseline.
"""

from __future__ import annotations

import io
import json
import logging
import os
import statistics
import threading
import time

import pytest

from repro.core.opim import OnlineOPIM
from repro.core.opimc import opim_c
from repro.obs import (
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    TraceRecorder,
    configure_logging,
    default_buckets,
    events_per_second,
    prometheus_text,
    resolve_registry,
    throughput_summary,
)
from repro.sampling.kernel import RRSampler


class TestCounters:
    def test_counter_starts_at_zero_and_increments(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        assert c.value == 0
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_count_shortcut(self):
        reg = MetricsRegistry()
        reg.count("sampling.rr_sets", 3)
        reg.count("sampling.rr_sets")
        assert reg.counter_values() == {"sampling.rr_sets": 4}

    def test_counter_identity_create_or_get(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.stats("s") is reg.stats("s")

    def test_counter_thread_safety(self):
        reg = MetricsRegistry()
        per_thread, threads = 2000, 8

        def work():
            for _ in range(per_thread):
                reg.count("n")

        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        assert reg.counter("n").value == per_thread * threads


class TestGaugesAndStats:
    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.set_gauge("alpha", 0.3)
        reg.set_gauge("alpha", 0.7)
        assert reg.gauge_values() == {"alpha": 0.7}

    def test_running_stats_aggregates(self):
        reg = MetricsRegistry()
        for v in [2.0, 4.0, 9.0]:
            reg.observe("sizes", v)
        s = reg.stats("sizes")
        assert s.count == 3
        assert s.total == pytest.approx(15.0)
        assert s.min == pytest.approx(2.0)
        assert s.max == pytest.approx(9.0)
        assert s.mean == pytest.approx(5.0)

    def test_empty_stats_as_dict(self):
        reg = MetricsRegistry()
        assert reg.stats("empty").as_dict()["count"] == 0

    def test_summary_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.count("c", 2)
        reg.set_gauge("g", 1.5)
        reg.observe("s", 3.0)
        text = json.dumps(reg.summary())
        assert '"c": 2' in text


class TestSpans:
    def test_nested_span_paths(self):
        recorder = TraceRecorder()
        reg = MetricsRegistry(sink=recorder)
        with reg.trace("opimc"):
            assert reg.current_path() == "opimc"
            with reg.trace("iter_1"):
                with reg.trace("sampling"):
                    assert reg.current_path() == "opimc/iter_1/sampling"
        assert reg.current_path() == ""
        phases = [e["phase"] for e in recorder.spans()]
        # Spans close inside-out.
        assert phases == ["opimc/iter_1/sampling", "opimc/iter_1", "opimc"]
        depths = [e["depth"] for e in recorder.spans()]
        assert depths == [3, 2, 1]

    def test_span_records_duration_stats(self):
        reg = MetricsRegistry()
        with reg.trace("phase"):
            time.sleep(0.001)
        s = reg.stats("span:phase")
        assert s.count == 1
        assert s.total > 0.0

    def test_span_counter_deltas(self):
        recorder = TraceRecorder()
        reg = MetricsRegistry(sink=recorder)
        reg.count("pre", 10)
        with reg.trace("work"):
            reg.count("inside", 7)
        (event,) = recorder.spans()
        # Only counters that moved during the span appear.
        assert event["counters"] == {"inside": 7}

    def test_sibling_spans_share_prefix(self):
        recorder = TraceRecorder()
        reg = MetricsRegistry(sink=recorder)
        with reg.trace("outer"):
            with reg.trace("a"):
                pass
            with reg.trace("b"):
                pass
        phases = [e["phase"] for e in recorder.spans()]
        assert phases == ["outer/a", "outer/b", "outer"]


class TestNullRegistry:
    def test_resolve_registry_defaults_to_null(self):
        assert resolve_registry(None) is NULL_REGISTRY
        reg = MetricsRegistry()
        assert resolve_registry(reg) is reg

    def test_null_registry_is_disabled(self):
        assert NULL_REGISTRY.enabled is False
        assert MetricsRegistry().enabled is True

    def test_null_operations_are_inert(self):
        reg = NullRegistry()
        reg.count("x", 5)
        reg.set_gauge("g", 1.0)
        reg.observe("s", 2.0)
        reg.record("alpha_row", alpha=0.5)
        with reg.trace("a"):
            with reg.trace("b"):
                assert reg.current_path() == ""
        assert reg.counter_values() == {}
        assert reg.summary() == {
            "counters": {},
            "gauges": {},
            "stats": {},
            "histograms": {},
        }

    def test_null_span_is_reused(self):
        reg = NullRegistry()
        assert reg.trace("a") is reg.trace("b")


class TestRecorder:
    def test_record_and_filter(self):
        rec = TraceRecorder()
        rec.record("alpha_row", alpha=0.4)
        rec.record("meta", command="solve")
        assert len(rec) == 2
        assert rec.alpha_rows()[0]["alpha"] == 0.4
        assert rec.of_type("meta")[0]["command"] == "solve"

    def test_jsonl_round_trip_path(self, tmp_path):
        rec = TraceRecorder()
        rec.record("span", phase="a/b", depth=2, elapsed=0.5, counters={"c": 1})
        rec.record("alpha_row", algorithm="OPIM-C", iteration=1, alpha=0.25)
        path = tmp_path / "trace.jsonl"
        rec.to_jsonl(str(path))
        back = TraceRecorder.from_jsonl(str(path))
        assert back.events == rec.events

    def test_jsonl_round_trip_file_handle(self):
        rec = TraceRecorder()
        rec.record("meta", k=5)
        buf = io.StringIO()
        rec.to_jsonl(buf)
        back = TraceRecorder.from_jsonl(io.StringIO(buf.getvalue()))
        assert back.events == rec.events

    def test_summary_counts_and_span_time(self):
        rec = TraceRecorder()
        rec.record("span", phase="p", depth=1, elapsed=0.25, counters={})
        rec.record("span", phase="p", depth=1, elapsed=0.75, counters={})
        rec.record("alpha_row", alpha=0.1)
        summary = rec.summary()
        assert summary["num_events"] == 3
        assert summary["events_by_type"] == {"span": 2, "alpha_row": 1}
        assert summary["span_seconds_by_phase"]["p"] == pytest.approx(1.0)


class TestThroughputHelpers:
    def test_events_per_second(self):
        assert events_per_second(100, 2.0) == pytest.approx(50.0)
        assert events_per_second(100, 0.0) == 0.0
        assert events_per_second(0, 5.0) == 0.0

    def test_throughput_summary(self):
        reg = MetricsRegistry()
        reg.count("sampling.rr_sets", 200)
        reg.count("sampling.edges", 4000)
        out = throughput_summary(reg, 2.0)
        assert out["totals"]["sampling.rr_sets"] == 200
        assert out["rates"]["sampling.rr_sets_per_second"] == pytest.approx(100.0)
        assert out["rates"]["sampling.edges_per_second"] == pytest.approx(2000.0)

    def test_throughput_summary_custom_keys(self):
        reg = MetricsRegistry()
        reg.count("sampling.rr_sets", 10)
        out = throughput_summary(
            reg, 1.0, counters={"sampling.rr_sets": "rr_per_s"}
        )
        assert out["rates"] == {"rr_per_s": 10.0}


class TestConfigureLogging:
    def test_returns_repro_logger_idempotently(self):
        stream = io.StringIO()
        logger = configure_logging(level=logging.DEBUG, stream=stream)
        again = configure_logging(level=logging.DEBUG, stream=stream)
        assert logger is again
        assert logger.name == "repro"
        assert len(logger.handlers) == 1
        logger.debug("hello obs")
        assert "hello obs" in stream.getvalue()


class TestEndToEndInstrumentation:
    def test_opimc_trace(self, medium_graph):
        recorder = TraceRecorder()
        reg = MetricsRegistry(sink=recorder)
        result = opim_c(
            medium_graph, "IC", k=4, epsilon=0.4, delta=0.1, seed=11, registry=reg
        )
        counters = reg.counter_values()
        assert counters["sampling.rr_sets"] == result.num_rr_sets
        assert counters["sampling.edges"] > 0
        assert counters["maxcover.greedy_runs"] == result.iterations
        # One alpha row per doubling iteration, matching the trajectory.
        rows = recorder.alpha_rows()
        assert len(rows) == result.iterations
        # Recorded events carry the extra "type" key on top of the row.
        stripped = [{k: v for k, v in r.items() if k != "type"} for r in rows]
        assert stripped == result.extra["alpha_trajectory"]
        assert rows[-1]["alpha"] == pytest.approx(result.alpha_achieved)
        # Nested phases under opimc/iter_<i>/.
        phases = {e["phase"] for e in recorder.spans()}
        assert "opimc" in phases
        assert "opimc/iter_1/sampling" in phases
        assert "opimc/iter_1/greedy" in phases
        assert "opimc/iter_1/bounds" in phases
        assert reg.gauge_values()["opimc.alpha_achieved"] == pytest.approx(
            result.alpha_achieved
        )

    def test_opimc_fast_sampler_counts_too(self, medium_graph):
        reg = MetricsRegistry()
        result = opim_c(
            medium_graph,
            "IC",
            k=4,
            epsilon=0.4,
            delta=0.1,
            seed=11,
            registry=reg,
        )
        # Every doubling iteration samples afresh, so the counter covers
        # at least the RR sets of the final iteration.
        assert reg.counter_values()["sampling.rr_sets"] >= result.num_rr_sets

    def test_online_opim_snapshot_metadata(self, medium_graph):
        recorder = TraceRecorder()
        reg = MetricsRegistry(sink=recorder)
        algo = OnlineOPIM(medium_graph, "IC", k=4, seed=12, registry=reg)
        algo.extend(1000)
        first = algo.query()
        algo.extend(1000)
        second = algo.query()
        assert first.metadata["alpha_row"]["query"] == 1
        assert second.metadata["alpha_row"]["query"] == 2
        assert len(algo.alpha_trajectory) == 2
        assert algo.alpha_trajectory[-1] == second.metadata["alpha_row"]
        assert "alpha_trajectory" not in second.metadata
        assert [r["alpha"] for r in recorder.alpha_rows()] == [
            first.alpha,
            second.alpha,
        ]
        phases = {e["phase"] for e in recorder.spans()}
        assert "opim/extend" in phases
        assert "opim/query/greedy" in phases or "opim/query" in phases

    def test_lt_table_build_is_timed(self, medium_graph):
        """The LT alias-table build has its own span and histogram, so a
        trace and /metrics show it; IC builds no tables."""
        recorder = TraceRecorder()
        reg = MetricsRegistry(sink=recorder)
        with reg.trace("engine"):
            RRSampler(medium_graph, "LT", seed=1, registry=reg)
        RRSampler(medium_graph, "IC", seed=1, registry=reg)
        phases = [e["phase"] for e in recorder.spans()]
        assert phases.count("engine/sampling/tables") == 1
        hist = reg.histogram("sampling.table_seconds")
        assert hist.count == 1 and hist.sum > 0.0
        assert "sampling_table_seconds_count 1" in prometheus_text(reg)

    def test_default_run_uses_null_registry(self, medium_graph):
        algo = OnlineOPIM(medium_graph, "IC", k=4, seed=13)
        assert algo.obs is NULL_REGISTRY
        algo.extend(200)
        snap = algo.query()
        assert 0.0 <= snap.alpha <= 1.0
        # Trajectory telemetry is collected even without a registry.
        assert len(algo.alpha_trajectory) == 1


class TestHistogram:
    def test_observe_and_cumulative_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=[0.1, 1.0, 10.0])
        for v in [0.05, 0.5, 5.0, 50.0]:
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(55.55)
        assert h.cumulative_buckets() == [
            (0.1, 1),
            (1.0, 2),
            (10.0, 3),
            (float("inf"), 4),
        ]
        # Non-cumulative view: one observation per slot, overflow last.
        assert h.bucket_counts() == [1, 1, 1, 1]

    def test_boundary_value_lands_in_le_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("edge", buckets=[1.0, 2.0])
        h.observe(1.0)  # le is inclusive, like Prometheus
        assert h.cumulative_buckets()[0] == (1.0, 1)

    def test_create_or_get_keyed_by_labels(self):
        reg = MetricsRegistry()
        cold = reg.histogram("serve.latency", labels={"outcome": "cold"})
        warm = reg.histogram("serve.latency", labels={"outcome": "warm"})
        assert cold is not warm
        assert reg.histogram("serve.latency", labels={"outcome": "cold"}) is cold
        assert len(reg.histograms()) == 2

    def test_quantile_interpolates_within_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("q", buckets=[1.0, 2.0, 4.0])
        for _ in range(100):
            h.observe(1.5)  # every observation in the (1, 2] bucket
        assert 1.0 <= h.quantile(0.5) <= 2.0
        assert set(h.percentiles()) == {"p50", "p95", "p99"}

    def test_quantile_empty_and_overflow(self):
        reg = MetricsRegistry()
        h = reg.histogram("q2", buckets=[1.0, 2.0])
        assert h.quantile(0.5) == 0.0
        h.observe(100.0)  # overflow bucket: estimate saturates
        assert h.quantile(0.99) == 2.0
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_bounds_must_be_strictly_ascending(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.histogram("bad", buckets=[2.0, 1.0])

    def test_as_dict_and_histogram_values(self):
        reg = MetricsRegistry()
        reg.histogram("h", labels={"outcome": "cold"}, buckets=[1.0]).observe(0.5)
        snap = reg.histogram_values()
        assert set(snap) == {"h{outcome=cold}"}
        d = snap["h{outcome=cold}"]
        assert d["count"] == 1
        assert d["buckets"][-1]["le"] == "+Inf"
        assert d["labels"] == {"outcome": "cold"}
        json.dumps(reg.summary())  # stays JSON-serializable

    def test_default_buckets_span_latency_range(self):
        bounds = default_buckets()
        assert list(bounds) == sorted(bounds)
        assert bounds[0] <= 0.001 and bounds[-1] >= 10.0


class TestTraceContext:
    def test_record_auto_attaches_trace_id(self):
        recorder = TraceRecorder()
        reg = MetricsRegistry(sink=recorder)
        with reg.trace_context("abc123"):
            assert reg.current_trace() == "abc123"
            reg.record("span", phase="p", elapsed=0.1)
            # An explicit trace_id always wins over the ambient one.
            reg.record("span", phase="q", elapsed=0.1, trace_id="other")
        assert reg.current_trace() is None
        reg.record("span", phase="r", elapsed=0.1)
        ids = [e.get("trace_id") for e in recorder.spans()]
        assert ids == ["abc123", "other", None]

    def test_contexts_nest_and_restore(self):
        reg = MetricsRegistry()
        with reg.trace_context("outer"):
            with reg.trace_context("inner"):
                assert reg.current_trace() == "inner"
            assert reg.current_trace() == "outer"
        assert reg.current_trace() is None

    def test_context_is_thread_local(self):
        reg = MetricsRegistry()
        seen = []
        with reg.trace_context("main-thread"):
            t = threading.Thread(target=lambda: seen.append(reg.current_trace()))
            t.start()
            t.join()
        assert seen == [None]

    def test_null_registry_trace_context(self):
        reg = NullRegistry()
        with reg.trace_context("ignored"):
            assert reg.current_trace() is None


class TestPrometheusExport:
    def test_counters_and_gauges_render(self):
        reg = MetricsRegistry()
        reg.count("sampling.rr_sets", 3)
        reg.set_gauge("serve.queue_depth", 2.0)
        text = prometheus_text(reg)
        assert "# TYPE sampling_rr_sets counter" in text
        assert "sampling_rr_sets 3" in text
        assert "# TYPE serve_queue_depth gauge" in text
        assert text.endswith("\n")

    def test_histogram_buckets_and_labels(self):
        reg = MetricsRegistry()
        h = reg.histogram(
            "serve.latency", labels={"outcome": "cold"}, buckets=[0.1, 1.0]
        )
        h.observe(0.05)
        text = prometheus_text(reg)
        assert "# TYPE serve_latency histogram" in text
        # Labels render sorted; finite bounds drop a trailing ".0".
        assert 'serve_latency_bucket{le="0.1",outcome="cold"} 1' in text
        assert 'serve_latency_bucket{le="1",outcome="cold"} 1' in text
        assert 'serve_latency_bucket{le="+Inf",outcome="cold"} 1' in text
        assert 'serve_latency_sum{outcome="cold"} 0.05' in text
        assert 'serve_latency_count{outcome="cold"} 1' in text

    def test_stats_render_untyped_unless_histogram_shadows(self):
        reg = MetricsRegistry()
        reg.observe("only.stats", 2.0)
        reg.observe("service.chunk_seconds", 0.5)
        reg.histogram("service.chunk_seconds").observe(0.5)
        text = prometheus_text(reg)
        assert "# TYPE only_stats untyped" in text
        assert "only_stats_count 1" in text
        # The histogram's _count/_sum take precedence for shared names.
        assert "# TYPE service_chunk_seconds untyped" not in text
        assert "# TYPE service_chunk_seconds histogram" in text

    def test_span_metric_names_are_sanitized(self):
        reg = MetricsRegistry()
        with reg.trace("serve/query"):
            pass
        text = prometheus_text(reg)
        assert "span_serve_query_count 1" in text
        assert "span:serve" not in text


class TestStreamingRecorder:
    def test_streaming_writes_each_event(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rec = TraceRecorder(path=str(path))
        rec.record("span", phase="a", elapsed=0.1)
        # Each record is flushed eagerly, visible before close().
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["phase"] == "a"
        rec.record("meta", k=5)
        rec.close()
        assert rec.closed
        rec.close()  # idempotent
        lines = [json.loads(l) for l in path.read_text().strip().splitlines()]
        assert [e["type"] for e in lines] == ["span", "meta"]

    def test_context_manager_closes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path=str(path)) as rec:
            rec.record("meta", k=1)
        assert rec.closed
        assert json.loads(path.read_text())["k"] == 1

    def test_reopen_appends(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with TraceRecorder(path=str(path)) as rec:
            rec.record("meta", run=1)
        with TraceRecorder(path=str(path)) as rec:
            rec.record("meta", run=2)
        runs = [json.loads(l)["run"] for l in path.read_text().splitlines()]
        assert runs == [1, 2]

    def test_rotation_at_max_bytes(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rec = TraceRecorder(path=str(path), max_bytes=256)
        for i in range(50):
            rec.record("span", phase="p" * 10, elapsed=float(i))
        rec.close()
        assert rec.rotations >= 1
        rotated = tmp_path / "trace.jsonl.1"
        assert rotated.exists()
        assert os.path.getsize(str(path)) <= 256
        # Every surviving line is intact JSON (no torn writes).
        for text in (path.read_text(), rotated.read_text()):
            for line in text.strip().splitlines():
                json.loads(line)

    def test_concurrent_writers_produce_intact_lines(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        rec = TraceRecorder(path=str(path))
        per_thread, threads = 200, 6

        def work(tid):
            for i in range(per_thread):
                rec.record("span", phase=f"t{tid}", elapsed=float(i))

        pool = [threading.Thread(target=work, args=(t,)) for t in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        rec.close()
        lines = path.read_text().strip().splitlines()
        assert len(lines) == per_thread * threads == len(rec)
        assert all(json.loads(l)["type"] == "span" for l in lines)


class TestConcurrencyHammer:
    def test_threads_and_asyncio_exact_totals(self):
        import asyncio

        reg = MetricsRegistry()
        per_worker, n_threads, n_tasks = 500, 6, 8
        stop = threading.Event()

        def thread_work(tid):
            hist = reg.histogram("hammer.latency", labels={"outcome": "thread"})
            for _ in range(per_worker):
                reg.count("hammer.ops")
                hist.observe(0.001)

        async def task_work(tid):
            hist = reg.histogram("hammer.latency", labels={"outcome": "async"})
            for i in range(per_worker):
                reg.count("hammer.ops")
                hist.observe(0.002)
                if i % 128 == 0:
                    await asyncio.sleep(0)

        async def run_tasks():
            await asyncio.gather(*(task_work(i) for i in range(n_tasks)))

        def scraper():
            # A concurrent /metrics-style reader must never crash.
            while not stop.is_set():
                prometheus_text(reg)

        loop_thread = threading.Thread(target=lambda: asyncio.run(run_tasks()))
        scrape_thread = threading.Thread(target=scraper)
        pool = [
            threading.Thread(target=thread_work, args=(t,))
            for t in range(n_threads)
        ]
        scrape_thread.start()
        loop_thread.start()
        for t in pool:
            t.start()
        for t in pool:
            t.join()
        loop_thread.join()
        stop.set()
        scrape_thread.join()

        assert reg.counter("hammer.ops").value == per_worker * (
            n_threads + n_tasks
        )
        by_thread = reg.histogram("hammer.latency", labels={"outcome": "thread"})
        by_async = reg.histogram("hammer.latency", labels={"outcome": "async"})
        assert by_thread.count == per_worker * n_threads
        assert by_async.count == per_worker * n_tasks
        assert by_thread.sum == pytest.approx(0.001 * per_worker * n_threads)
        assert by_async.sum == pytest.approx(0.002 * per_worker * n_tasks)


@pytest.mark.skipif(
    os.environ.get("CI") == "slow-variance",
    reason="timing-sensitive; skipped on high-variance CI runners",
)
def test_noop_instrumentation_overhead_guard(medium_graph):
    """The instrumented sampler on the no-op registry must stay within
    ~10% of a hand-inlined uninstrumented kernel loop.

    The two sides run interleaved (alternating which goes first) and
    their medians are compared, so a burst of machine noise lands on
    both sides instead of deciding a single best-of ratio."""
    from repro.sampling.collection import RRCollection
    from repro.sampling.generator import RRSampler
    from repro.sampling.kernel import batch_cap, sample_rr_sets_kernel
    from repro.utils.rng import as_generator

    count, repeats = 2000, 9

    def instrumented(rep):
        sampler = RRSampler(medium_graph, "IC", seed=rep, registry=None)
        sampler.fill(sampler.new_collection(), count)

    def uninstrumented(rep):
        # What fill() does minus all observability hooks.
        rng = as_generator(rep)
        collection = RRCollection(medium_graph.n)
        n = medium_graph.n
        remaining = count
        while remaining:
            size = min(remaining, batch_cap(n))
            roots = rng.integers(0, n, size=size)
            sets, _, _ = sample_rr_sets_kernel(medium_graph, "IC", roots, rng)
            collection.extend(sets)
            remaining -= size

    def timed(fn, rep):
        fn(rep)  # warm-up pass primes caches and allocations
        t0 = time.perf_counter()
        fn(rep)
        return time.perf_counter() - t0

    plain, nooped = [], []
    for rep in range(repeats):
        if rep % 2:
            nooped.append(timed(instrumented, rep))
            plain.append(timed(uninstrumented, rep))
        else:
            plain.append(timed(uninstrumented, rep))
            nooped.append(timed(instrumented, rep))
    baseline = statistics.median(plain)
    # 10% relative tolerance with a small absolute floor for timer noise.
    assert statistics.median(nooped) <= baseline * 1.10 + 0.005


@pytest.mark.skipif(
    os.environ.get("CI") == "slow-variance",
    reason="timing-sensitive; skipped on high-variance CI runners",
)
def test_noop_histogram_and_trace_overhead_guard(medium_graph):
    """Histogram recording and trace-id plumbing on the null registry
    must stay within ~2% of the same sampling work with no obs calls —
    the serving hot path pays nothing when instrumentation is off."""
    from repro.sampling.generator import RRSampler

    count, repeats = 400, 5
    reg = NULL_REGISTRY

    def plain(rep):
        sampler = RRSampler(medium_graph, "IC", seed=rep, registry=None)
        sampler.fill(sampler.new_collection(), count)

    def instrumented(rep):
        # The per-request serving pattern: a trace context around the
        # fill, latency histograms per outcome, and a shipped span.
        with reg.trace_context(f"req-{rep}"):
            sampler = RRSampler(medium_graph, "IC", seed=rep, registry=None)
            t0 = time.perf_counter()
            sampler.fill(sampler.new_collection(), count)
            elapsed = time.perf_counter() - t0
            reg.histogram("engine.sample_seconds").observe(elapsed)
            reg.histogram(
                "serve.latency", labels={"outcome": "cold"}
            ).observe(elapsed)
            reg.record("span", phase="serve/answer", elapsed=elapsed)

    def best_of(fn):
        best = float("inf")
        for rep in range(repeats):
            fn(rep)  # warm-up pass primes caches and allocations
            t0 = time.perf_counter()
            fn(rep)
            best = min(best, time.perf_counter() - t0)
        return best

    baseline = best_of(plain)
    nooped = best_of(instrumented)
    # 2% relative tolerance with a small absolute floor for timer noise.
    assert nooped <= baseline * 1.02 + 0.002
