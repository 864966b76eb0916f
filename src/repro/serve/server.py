"""The asyncio seed-query server.

One process, three moving parts:

* the **event loop** parses HTTP, consults the result cache, and
  coalesces duplicate in-flight queries;
* a **bounded job queue** applies backpressure — when it is full the
  server answers 503 immediately instead of stacking latency;
* a single **engine thread** (a one-worker executor) runs the
  CPU-bound sketch work serially, which is both the synchronization
  story for :class:`~repro.serve.engine.SeedQueryEngine` and what
  keeps the event loop responsive while a cold query samples.

Request lifecycle for ``POST /query``::

    cache hit ───────────────────────────────▶ respond (< 1 ms)
    miss, identical query in flight ─────────▶ await its future
    miss, queue full ────────────────────────▶ 503 {"error": "overloaded"}
    miss ───▶ enqueue ───▶ engine thread ───▶ cache + respond

Every response that waited on the engine is stored in the LRU cache,
including responses whose *requester* timed out (504): the work was
done, so the next identical query is a hit.

Shutdown is a graceful drain: stop accepting connections, let queued
jobs finish (bounded by ``drain_timeout``), then tear down the engine.
"""

from __future__ import annotations

import asyncio
import signal
import time
import uuid
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

from repro.exceptions import ParameterError, ReproError
from repro.obs import prometheus_text
from repro.obs.export import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from repro.serve.base import (
    DispatchResult,
    JsonHTTPServer,
    Payload,
    parse_hop_params,
    parse_query_params,
)
from repro.serve.cache import LRUCache, QueryKey, make_hop_key, make_key
from repro.serve.engine import SeedQueryEngine
from repro.serve.http import ProtocolError, Request, TextResponse

DEFAULT_PORT = 8471

#: Hint clients wait this long before retrying a 503 rejection.
RETRY_AFTER_SECONDS = "1"


class SeedQueryServer(JsonHTTPServer):
    """HTTP/JSON front end over a :class:`SeedQueryEngine`.

    Parameters
    ----------
    engine:
        The shared-sketch engine (owned by the server if
        ``own_engine``; it is then closed on shutdown).
    host, port:
        Bind address; ``port=0`` picks a free port (see :attr:`port`).
    cache_size:
        LRU capacity of the result cache.
    queue_limit:
        Bounded depth of the engine job queue — the backpressure knob.
    request_timeout:
        Seconds a requester waits for the engine before getting 504
        (the job itself keeps running and still populates the cache).
    drain_timeout:
        Seconds shutdown waits for queued jobs before giving up.
    registry:
        Metrics registry (defaults to the engine's).  Maintains
        ``serve.requests``, ``serve.queries``, ``serve.cache_hits`` /
        ``_misses``, ``serve.coalesced``, ``serve.rejected``,
        ``serve.timeouts``, and the ``serve.queue_depth`` gauge.
    """

    def __init__(
        self,
        engine: SeedQueryEngine,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        cache_size: int = 256,
        queue_limit: int = 64,
        request_timeout: float = 120.0,
        drain_timeout: float = 30.0,
        registry: Optional[object] = None,
        own_engine: bool = False,
    ) -> None:
        if queue_limit < 1:
            raise ParameterError(f"queue_limit must be >= 1, got {queue_limit}")
        if request_timeout <= 0 or drain_timeout < 0:
            raise ParameterError("timeouts must be positive")
        super().__init__(
            host=host,
            port=port,
            registry=registry if registry is not None else engine.obs,
        )
        self.engine = engine
        self.request_timeout = float(request_timeout)
        self.drain_timeout = float(drain_timeout)
        self.own_engine = bool(own_engine)
        self.cache = LRUCache(cache_size, registry=self.obs)
        self.queue_limit = int(queue_limit)
        self._queue: Optional[asyncio.Queue] = None
        self._inflight: Dict[QueryKey, asyncio.Future] = {}
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-engine"
        )
        self._worker: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket and start the engine worker."""
        self._queue = asyncio.Queue(maxsize=self.queue_limit)
        self._worker = asyncio.create_task(
            self._worker_loop(), name="serve-engine-worker"
        )
        await self._start_listener()

    async def close(self, drain: bool = True) -> None:
        """Graceful shutdown: stop accepting, drain, release the engine."""
        if self._closed:
            return
        self._draining = True
        await self._stop_listener()
        if drain and self._queue is not None and not self._queue.empty():
            try:
                await asyncio.wait_for(self._queue.join(), self.drain_timeout)
            except asyncio.TimeoutError:  # pragma: no cover - slow drain
                pass
        self._closed = True
        await self._close_connections()
        if self._worker is not None:
            self._worker.cancel()
            try:
                await self._worker
            except asyncio.CancelledError:
                pass
        self._executor.shutdown(wait=True)
        # Final gauge snapshot: whatever drained (or was abandoned by
        # the drain timeout) must be reflected, not the last enqueue.
        self.obs.set_gauge(
            "serve.queue_depth",
            self._queue.qsize() if self._queue is not None else 0,
        )
        if self.own_engine:
            self.engine.close()

    async def serve_forever(self) -> None:
        """Run until SIGINT/SIGTERM, then drain and shut down."""
        if self._server is None:
            await self.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        await stop.wait()
        await self.close(drain=True)

    # ------------------------------------------------------------------
    # Engine worker
    # ------------------------------------------------------------------
    async def _worker_loop(self) -> None:
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        while True:
            key, job, future = await self._queue.get()
            try:
                result = await loop.run_in_executor(self._executor, job)
            except BaseException as exc:  # noqa: BLE001 - forwarded to waiter
                if not future.cancelled():
                    future.set_exception(exc)
            else:
                if key is not None:
                    self.cache.put(key, result)
                if not future.cancelled():
                    future.set_result(result)
            finally:
                if key is not None:
                    self._inflight.pop(key, None)
                self._queue.task_done()
                self.obs.set_gauge("serve.queue_depth", self._queue.qsize())

    def _submit(
        self, key: Optional[QueryKey], job: Callable[[], Dict[str, Any]]
    ) -> "asyncio.Future[Dict[str, Any]]":
        """Enqueue engine work; raises :class:`OverloadedError` when full."""
        assert self._queue is not None
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        try:
            self._queue.put_nowait((key, job, future))
        except asyncio.QueueFull:
            # Refresh the gauge on the rejection path too — a scrape
            # during sustained overload should read the full queue.
            self.obs.set_gauge("serve.queue_depth", self._queue.qsize())
            raise OverloadedError(self._queue.qsize())
        if key is not None:
            self._inflight[key] = future
        self.obs.set_gauge("serve.queue_depth", self._queue.qsize())
        return future

    # ------------------------------------------------------------------
    # HTTP handling (connection loop inherited from JsonHTTPServer)
    # ------------------------------------------------------------------
    async def _dispatch(self, request: Request) -> DispatchResult:
        """Route one request under a per-request trace context.

        Every request gets a ``trace_id`` — honored from an
        ``X-Trace-Id`` header when the client sent one, freshly minted
        otherwise — active for the whole dispatch so the HTTP span, the
        engine span (re-entered on the executor thread), and any worker
        chunk spans stitch into one tree.  ``POST /query`` additionally
        lands in the ``serve.latency`` histogram labelled by outcome
        (cold / warm / cached / coalesced / rejected / timeout / error)
        and echoes the trace id in its JSON payload.
        """
        self.obs.count("serve.requests")
        route = (request.method, request.path)
        trace_id = request.headers.get("x-trace-id") or uuid.uuid4().hex[:16]
        started = time.perf_counter()
        with self.obs.trace_context(trace_id):
            with self.obs.trace(f"serve/{request.path.strip('/') or 'root'}"):
                status, payload = await self._route(route, request, trace_id)
        if route == ("POST", "/query"):
            elapsed = time.perf_counter() - started
            outcome = _query_outcome(status, payload)
            self.obs.histogram(
                "serve.latency", labels={"outcome": outcome}
            ).observe(elapsed)
            if isinstance(payload, dict):
                payload.setdefault("trace_id", trace_id)
        if status == 503:
            return status, payload, {"Retry-After": RETRY_AFTER_SECONDS}
        return status, payload

    async def _route(
        self, route: Tuple[str, str], request: Request, trace_id: str
    ) -> Tuple[int, Payload]:
        if route == ("GET", "/healthz"):
            return 200, {
                "status": "draining" if self._draining else "ok",
                "num_rr_sets": self.engine.num_rr_sets,
                "queue_depth": (
                    self._queue.qsize() if self._queue is not None else 0
                ),
                "queue_limit": self.queue_limit,
                "index": self.engine.index_staleness(),
            }
        if route == ("GET", "/metrics"):
            return 200, TextResponse(
                prometheus_text(self.obs), PROMETHEUS_CONTENT_TYPE
            )
        if route == ("GET", "/stats"):
            return 200, {
                "engine": self.engine.stats(),
                "cache": self.cache.stats(),
                "queue_depth": (
                    self._queue.qsize() if self._queue is not None else 0
                ),
                "queue_limit": self.queue_limit,
                "draining": self._draining,
                "counters": self.obs.counter_values(),
            }
        if self._draining:
            return 503, {"error": "draining"}
        handler: Optional[
            Callable[[Request, str], Awaitable[Tuple[int, Dict[str, Any]]]]
        ] = {
            ("POST", "/query"): self._handle_query,
            ("POST", "/extend"): self._handle_extend,
            ("POST", "/save"): self._handle_save,
        }.get(route)
        if handler is None:
            known = {
                "/healthz",
                "/metrics",
                "/stats",
                "/query",
                "/extend",
                "/save",
            }
            if request.path in known:
                return 405, {"error": f"wrong method for {request.path}"}
            return 404, {"error": f"unknown path {request.path}"}
        try:
            return await handler(request, trace_id)
        except OverloadedError as exc:
            self.obs.count("serve.rejected")
            return 503, {"error": "overloaded", "queue_depth": exc.depth}
        except TimeoutResponse:
            return 504, {
                "error": "timeout",
                "detail": (
                    "the engine did not answer within "
                    f"{self.request_timeout}s; the job keeps running "
                    "and will fill the cache"
                ),
            }
        except ProtocolError as exc:
            return 400, {"error": str(exc)}
        except ParameterError as exc:
            return 400, {"error": str(exc)}
        except ReproError as exc:
            return 500, {"error": str(exc)}

    async def _handle_query(
        self, request: Request, trace_id: str
    ) -> Tuple[int, Dict[str, Any]]:
        self.obs.count("serve.queries")
        body = request.json()
        precision = body.get("precision") if isinstance(body, dict) else None
        if precision is not None:
            if precision != "hop":
                raise ParameterError(
                    f"precision must be 'hop' when given, got {precision!r}"
                )
            return await self._handle_hop_query(body, trace_id)
        query = parse_query_params(body)
        k = query["k"]
        bound = query["bound"]
        target = query["target"]
        rr_budget = query["rr_budget"]
        key = make_key(
            self.engine.graph_hash,
            self.engine.model,
            k,
            bound,
            target,
            rr_budget,
        )

        cached = self.cache.get(key)
        if cached is not None:
            return 200, {**cached, "cached": True, "coalesced": False}

        inflight = self._inflight.get(key)
        if inflight is not None:
            self.obs.count("serve.coalesced")
            response = await self._await_job(inflight)
            return 200, {**response, "cached": False, "coalesced": True}

        engine = self.engine
        future = self._submit(
            key,
            lambda: engine.answer(
                k,
                bound=bound,
                alpha_target=target,
                rr_budget=rr_budget,
                trace_id=trace_id,
            ),
        )
        response = await self._await_job(future)
        return 200, {**response, "cached": False, "coalesced": False}

    async def _handle_hop_query(
        self, body: Dict[str, Any], trace_id: str
    ) -> Tuple[int, Dict[str, Any]]:
        """``precision="hop"``: the no-guarantee preview fast path.

        Hop answers are deterministic, so they share the LRU cache and
        in-flight coalescing with exact queries (under hop-flavoured
        keys that cannot collide with exact ones).  The engine work is
        microseconds, but it still runs on the engine thread: the
        estimator caches per-hop score tables on the engine, and the
        single-thread funnel is the engine's synchronization story.
        """
        hop = parse_hop_params(body)
        key = make_hop_key(
            self.engine.graph_hash,
            self.engine.model,
            hop["hops"],
            k=hop["k"],
            seeds=hop["seeds"],
        )
        cached = self.cache.get(key)
        if cached is not None:
            return 200, {**cached, "cached": True, "coalesced": False}
        inflight = self._inflight.get(key)
        if inflight is not None:
            self.obs.count("serve.coalesced")
            response = await self._await_job(inflight)
            return 200, {**response, "cached": False, "coalesced": True}
        engine = self.engine
        future = self._submit(
            key,
            lambda: engine.answer_hop(
                k=hop["k"],
                seeds=hop["seeds"],
                hops=hop["hops"],
                trace_id=trace_id,
            ),
        )
        response = await self._await_job(future)
        return 200, {**response, "cached": False, "coalesced": False}

    async def _await_job(
        self, future: "asyncio.Future[Dict[str, Any]]"
    ) -> Dict[str, Any]:
        try:
            return await asyncio.wait_for(
                asyncio.shield(future), self.request_timeout
            )
        except asyncio.TimeoutError:
            self.obs.count("serve.timeouts")
            raise TimeoutResponse()

    async def _handle_extend(
        self, request: Request, trace_id: str
    ) -> Tuple[int, Dict[str, Any]]:
        params = request.json()
        try:
            count = int(params["count"])
        except KeyError:
            raise ParameterError("missing required field: count")
        except (TypeError, ValueError):
            raise ParameterError(
                f"count must be an integer, got {params['count']!r}"
            )
        engine = self.engine

        def job() -> Dict[str, Any]:
            engine.extend(count)
            return {"extended": count, "num_rr_sets": engine.num_rr_sets}

        return 200, await self._await_job(self._submit(None, job))

    async def _handle_save(
        self, request: Request, trace_id: str
    ) -> Tuple[int, Dict[str, Any]]:
        engine = self.engine

        def job() -> Dict[str, Any]:
            manifest = engine.save_index()
            return {
                "saved": str(engine.index_dir),
                "theta1": manifest["theta1"],
                "theta2": manifest["theta2"],
            }

        return 200, await self._await_job(self._submit(None, job))


def _query_outcome(status: int, payload: Payload) -> str:
    """Classify a ``POST /query`` response for the latency histogram.

    ``cold`` means the engine had to extend the sketch; ``warm`` means
    the existing sketch already satisfied the target (no sampling).
    """
    if status == 503:
        return "rejected"
    if status == 504:
        return "timeout"
    if status != 200 or not isinstance(payload, dict):
        return "error"
    if payload.get("cached"):
        return "cached"
    if payload.get("coalesced"):
        return "coalesced"
    if payload.get("precision") == "hop":
        return "hop"
    if payload.get("sampled", 0) > 0:
        return "cold"
    return "warm"


class OverloadedError(Exception):
    """Job queue full — mapped to 503 by the dispatcher."""

    def __init__(self, depth: int) -> None:
        super().__init__(f"job queue full at depth {depth}")
        self.depth = depth


class TimeoutResponse(ReproError):
    """Requester-side wait exceeded ``request_timeout`` (504)."""
