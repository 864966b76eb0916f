"""Metrics registry: counters, gauges, running stats, and trace spans.

The registry is the single injection point for all instrumentation in
the package: hot paths (RR-set samplers, greedy max coverage, the OPIM
runners) accept a ``registry`` argument and report into it.  Two
implementations share one duck type:

* :class:`MetricsRegistry` — the real thing: thread-safe counters,
  gauges, running statistics, and nesting :meth:`~MetricsRegistry.trace`
  spans that forward structured events to an attached sink (usually a
  :class:`~repro.obs.recorder.TraceRecorder`).
* :class:`NullRegistry` — a stateless no-op twin.  Its methods do
  nothing and its spans are reusable singletons, so instrumented code
  pays only an attribute lookup and a no-op call when observability is
  off.  The module-level :data:`NULL_REGISTRY` is the default wired
  into every instrumented code path.

Naming conventions: counters use dotted names (``sampling.rr_sets``,
``maxcover.coverage_evals``); span phases use slash-separated paths
built from the nesting of ``trace`` calls (``opimc/iter_3/sampling``).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, Optional, Sequence, Tuple

from repro.obs.histogram import Histogram

__all__ = [
    "Counter",
    "Gauge",
    "RunningStats",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "resolve_registry",
]


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._value = 0
        self._lock = lock

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, value={self._value})"


class Gauge:
    """A point-in-time value metric (last write wins)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._value = 0.0
        self._lock = lock

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"Gauge({self.name!r}, value={self._value})"


class RunningStats:
    """Histogram-style aggregate: count / total / min / max / mean.

    Used for span durations (seconds) and other per-event values.
    """

    __slots__ = ("name", "count", "total", "min", "max", "_lock")

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._lock = lock

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> dict:
        if self.count == 0:
            return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }

    def __repr__(self) -> str:
        return f"RunningStats({self.name!r}, {self.as_dict()})"


class _TraceContext:
    """Thread-local trace-id activation; see ``trace_context``.

    While active, every event the registry records from this thread —
    span exits included — is tagged with the trace id, which is what
    lets the trace summarizer stitch HTTP, engine, and worker spans
    back into one tree per request.
    """

    __slots__ = ("_registry", "_trace_id", "_previous")

    def __init__(self, registry: "MetricsRegistry", trace_id: Optional[str]) -> None:
        self._registry = registry
        self._trace_id = trace_id
        self._previous: Optional[str] = None

    def __enter__(self) -> "_TraceContext":
        local = self._registry._local
        self._previous = getattr(local, "trace_id", None)
        local.trace_id = self._trace_id
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._registry._local.trace_id = self._previous


class _Span:
    """One live ``trace`` span; created by :meth:`MetricsRegistry.trace`.

    On exit it observes its duration under ``span:<path>`` in the
    registry's stats and, when a sink is attached, emits a ``span``
    event carrying the wall-clock duration plus the deltas of every
    counter that moved while the span was open.
    """

    __slots__ = ("_registry", "name", "path", "depth", "_t0", "_counters_before")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self.name = name
        self.path = ""
        self.depth = 0
        self._t0 = 0.0
        self._counters_before: Dict[str, int] = {}

    def __enter__(self) -> "_Span":
        registry = self._registry
        stack = registry._span_stack()
        stack.append(self.name)
        self.path = "/".join(stack)
        self.depth = len(stack)
        self._counters_before = registry.counter_values()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = time.perf_counter() - self._t0
        registry = self._registry
        registry._span_stack().pop()
        registry.stats(f"span:{self.path}").observe(elapsed)
        before = self._counters_before
        deltas = {
            name: value - before.get(name, 0)
            for name, value in registry.counter_values().items()
            if value != before.get(name, 0)
        }
        registry.record(
            "span",
            phase=self.path,
            depth=self.depth,
            elapsed=elapsed,
            counters=deltas,
        )


class MetricsRegistry:
    """Thread-safe home for counters, gauges, stats, and trace spans.

    Parameters
    ----------
    sink:
        Optional event sink with a ``record(kind, **fields)`` method —
        normally a :class:`~repro.obs.recorder.TraceRecorder`.  Span
        events and algorithm events (for example the per-iteration
        ``alpha_row`` rows of OPIM-C) flow into it.
    """

    enabled = True

    def __init__(self, sink=None) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._stats: Dict[str, RunningStats] = {}
        self._histograms: Dict[
            Tuple[str, Tuple[Tuple[str, str], ...]], Histogram
        ] = {}
        self._local = threading.local()
        self.sink = sink

    # -- metric accessors (create-or-get) ------------------------------
    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(
                    name, Counter(name, self._lock)
                )
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = self._gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(name, Gauge(name, self._lock))
        return gauge

    def stats(self, name: str) -> RunningStats:
        stats = self._stats.get(name)
        if stats is None:
            with self._lock:
                stats = self._stats.setdefault(
                    name, RunningStats(name, self._lock)
                )
        return stats

    def histogram(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        """Create-or-get a histogram keyed by ``(name, labels)``.

        ``labels`` distinguish streams of one logical metric (e.g.
        ``serve.latency`` per ``outcome``); ``buckets`` only apply on
        first creation of a given key.
        """
        key = (name, tuple(sorted((labels or {}).items())))
        hist = self._histograms.get(key)
        if hist is None:
            with self._lock:
                hist = self._histograms.setdefault(
                    key, Histogram(name, self._lock, buckets=buckets, labels=labels)
                )
        return hist

    # -- shortcuts ------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.stats(name).observe(value)

    # -- tracing --------------------------------------------------------
    def _span_stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def trace(self, phase: str) -> _Span:
        """Open a nesting span; usable as a context manager.

        Nested calls build slash-separated paths::

            with registry.trace("opimc"):
                with registry.trace("iter_1"):
                    with registry.trace("sampling"):
                        ...  # recorded as "opimc/iter_1/sampling"
        """
        return _Span(self, phase)

    def current_path(self) -> str:
        """Slash-joined path of the currently open spans ('' at root)."""
        return "/".join(self._span_stack())

    def trace_context(self, trace_id: Optional[str]) -> _TraceContext:
        """Activate *trace_id* for this thread (context manager).

        While the context is open, every event recorded from this
        thread is tagged ``trace_id=...`` unless the caller already set
        one.  Contexts nest: the previous id is restored on exit.
        Thread-local — code hopping threads (e.g. the serve engine
        executor) must re-enter the context on the worker thread.
        """
        return _TraceContext(self, trace_id)

    def current_trace(self) -> Optional[str]:
        """The trace id active on this thread, or ``None``."""
        return getattr(self._local, "trace_id", None)

    def record(self, kind: str, **fields) -> None:
        """Forward a structured event to the attached sink, if any.

        When a :meth:`trace_context` is active on the calling thread,
        the event is tagged with its trace id (caller-provided
        ``trace_id`` fields win).
        """
        if self.sink is not None:
            trace_id = getattr(self._local, "trace_id", None)
            if trace_id is not None and "trace_id" not in fields:
                fields["trace_id"] = trace_id
            self.sink.record(kind, **fields)

    # -- introspection --------------------------------------------------
    # Snapshots hold the registry lock: create-or-get accessors may
    # insert new metrics from other threads mid-iteration (e.g. a
    # supervisor drain in an executor while the event loop serves
    # /stats).
    def counter_values(self) -> Dict[str, int]:
        with self._lock:
            counters = list(self._counters.items())
        return {name: c.value for name, c in counters}

    def gauge_values(self) -> Dict[str, float]:
        with self._lock:
            gauges = list(self._gauges.items())
        return {name: g.value for name, g in gauges}

    def histograms(self) -> Iterable[Histogram]:
        """Every histogram (all label streams), creation order."""
        with self._lock:
            return list(self._histograms.values())

    def histogram_values(self) -> Dict[str, dict]:
        """Snapshot keyed ``name`` or ``name{k=v,...}`` per label stream."""
        out: Dict[str, dict] = {}
        with self._lock:
            items = list(self._histograms.items())
        for (name, label_items), hist in items:
            key = name
            if label_items:
                inner = ",".join(f"{k}={v}" for k, v in label_items)
                key = f"{name}{{{inner}}}"
            out[key] = hist.as_dict()
        return out

    def summary(self) -> dict:
        """A JSON-serializable snapshot of every metric."""
        with self._lock:
            stats = list(self._stats.items())
        return {
            "counters": self.counter_values(),
            "gauges": self.gauge_values(),
            "stats": {name: s.as_dict() for name, s in stats},
            "histograms": self.histogram_values(),
        }

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, stats={len(self._stats)}, "
            f"histograms={len(self._histograms)})"
        )


class _NullMetric:
    """Shared no-op stand-in for Counter / Gauge / RunningStats."""

    __slots__ = ()

    name = ""
    value = 0
    count = 0
    total = 0.0
    sum = 0.0
    min = 0.0
    max = 0.0
    mean = 0.0
    labels: Dict[str, str] = {}
    bounds: Tuple[float, ...] = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def percentiles(self) -> Dict[str, float]:
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}

    def cumulative_buckets(self) -> list:
        return []

    def as_dict(self) -> dict:
        return {"count": 0, "total": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}


class _NullSpan:
    """Reusable no-op context manager returned by ``NullRegistry.trace``."""

    __slots__ = ()

    name = ""
    path = ""
    depth = 0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_METRIC = _NullMetric()
_NULL_SPAN = _NullSpan()


class NullRegistry:
    """No-op registry: the default when observability is not requested.

    Every method is a constant-time no-op and every accessor returns a
    shared inert singleton, so instrumented hot paths stay within noise
    of their uninstrumented cost (see ``tests/test_obs.py``'s overhead
    guard).
    """

    enabled = False

    __slots__ = ()

    sink = None

    def counter(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def stats(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def histogram(
        self,
        name: str,
        labels: Optional[Dict[str, str]] = None,
        buckets: Optional[Sequence[float]] = None,
    ) -> _NullMetric:
        return _NULL_METRIC

    def count(self, name: str, amount: int = 1) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def trace(self, phase: str) -> _NullSpan:
        return _NULL_SPAN

    def trace_context(self, trace_id: Optional[str]) -> _NullSpan:
        return _NULL_SPAN

    def current_trace(self) -> Optional[str]:
        return None

    def current_path(self) -> str:
        return ""

    def record(self, kind: str, **fields) -> None:
        pass

    def counter_values(self) -> Dict[str, int]:
        return {}

    def gauge_values(self) -> Dict[str, float]:
        return {}

    def histograms(self) -> list:
        return []

    def histogram_values(self) -> Dict[str, dict]:
        return {}

    def summary(self) -> dict:
        return {"counters": {}, "gauges": {}, "stats": {}, "histograms": {}}

    def __repr__(self) -> str:
        return "NullRegistry()"


#: The process-wide default no-op registry.
NULL_REGISTRY = NullRegistry()


def resolve_registry(registry: Optional[object]):
    """``registry`` if given, else the shared :data:`NULL_REGISTRY`."""
    return NULL_REGISTRY if registry is None else registry
