"""repro.obs — observability: metrics, phase tracing, α-trajectory telemetry.

The paper's evaluation is built on internal quantities — RR sets
generated, edges traversed by reverse BFS, coverage evaluations, the
per-iteration online guarantee α — and this subsystem makes all of
them first-class:

* :class:`MetricsRegistry` — thread-safe counters / gauges / running
  stats plus a nesting :meth:`~MetricsRegistry.trace` span API.
* :data:`NULL_REGISTRY` — the no-op default wired into every
  instrumented path, so untraced runs pay (near) nothing.
* :class:`TraceRecorder` — a structured-event sink that exports JSONL
  (schema in ``docs/observability.md``).

Quickstart::

    from repro import load_dataset, opim_c
    from repro.obs import MetricsRegistry, TraceRecorder

    recorder = TraceRecorder()
    registry = MetricsRegistry(sink=recorder)
    graph = load_dataset("pokec-sim", scale=0.1)
    result = opim_c(graph, "IC", k=10, epsilon=0.3, registry=registry)

    registry.summary()            # counters, gauges, span timings
    recorder.alpha_rows()         # per-iteration (|R1|,|R2|,σl,σu,α)
    recorder.to_jsonl("out.jsonl")

The same registry/recorder pair is what the CLI's ``--trace`` /
``--metrics`` flags construct.
"""

from __future__ import annotations

import logging
import sys
from typing import Optional

from repro.obs.export import prometheus_text
from repro.obs.histogram import Histogram, default_buckets
from repro.obs.recorder import (
    TraceRecorder,
    events_per_second,
    throughput_summary,
)
from repro.obs.registry import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    MetricsRegistry,
    NullRegistry,
    RunningStats,
    resolve_registry,
)
from repro.obs.tracetool import (
    format_trace_summary,
    load_events,
    summarize_trace,
)

__all__ = [
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "resolve_registry",
    "Counter",
    "Gauge",
    "RunningStats",
    "Histogram",
    "default_buckets",
    "prometheus_text",
    "TraceRecorder",
    "events_per_second",
    "throughput_summary",
    "load_events",
    "summarize_trace",
    "format_trace_summary",
    "configure_logging",
]


def configure_logging(
    level: int = logging.INFO,
    stream=None,
    fmt: str = "%(asctime)s %(name)s %(levelname)s %(message)s",
) -> logging.Logger:
    """Configure and return the package's stdlib logger (``"repro"``).

    Idempotent: repeated calls reconfigure the level/handler instead of
    stacking handlers.  Returns the logger so callers can hold on to it::

        from repro.obs import configure_logging
        log = configure_logging()
        log.info("sampling started")
    """
    logger = logging.getLogger("repro")
    logger.setLevel(level)
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(logging.Formatter(fmt))
    for existing in list(logger.handlers):
        logger.removeHandler(existing)
    logger.addHandler(handler)
    logger.propagate = False
    return logger
