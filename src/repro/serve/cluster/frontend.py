"""The sharded multi-tenant API front end.

:class:`ClusterFrontend` is the cluster's single HTTP surface.  It owns
no engines — those live warm inside the worker processes — only the
graph registry, the job table, and the admission decisions:

* ``POST /graphs`` / ``GET /graphs`` — tenant-scoped registration
  (``X-Tenant`` header, default ``"default"``); each graph is routed
  to a shard by its content fingerprint and stays there.
* ``POST /jobs`` → 202 + an unguessable job id; ``GET /jobs/{id}``
  for status; ``GET /jobs/{id}/result`` (optionally ``?wait=seconds``)
  for the answer.  Job reads are tenant-scoped like everything else:
  another tenant's job id is a 404.  Terminal jobs stay readable for
  the last ``completed_jobs_limit`` finishes, then age out.  Jobs for
  different shards run concurrently; jobs for one graph run serially
  on its worker, which is the whole synchronization story.
* **Admission control**: a request is refused with 503 +
  ``Retry-After`` when the front end is draining, when the global job
  table already holds ``queue_limit`` unfinished jobs, or when the
  target graph's resident sketch has reached its memory budget (the
  worker enforces the same check authoritatively).
* ``GET /graphs/{name}/claims`` — every guarantee claim the graph's
  resident engine has made, by ``k``.  A job result carries only the
  claim its own answer made (``claim``), so replies stay the same size
  however long the engine has served.
* **Crash recovery**: the event loop reads every worker's result pipe
  and watches the worker process's exit (:meth:`WorkerSupervisor.attach`);
  when a worker dies, the results it had already written are
  delivered, then its unfinished jobs are re-dispatched (with any
  fault injection stripped) onto the respawned worker, which
  warm-restarts every engine from its persistent index — so the
  requeued answer is bitwise-identical to an uninterrupted run.

Worker-side trace events ship back with each completed job and are
replayed into this process's registry, so one ``trace_id`` stitches
the HTTP span, the dispatch, and the worker's engine spans into a
single tree.
"""

from __future__ import annotations

import asyncio
import signal
import time
import uuid
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.exceptions import ParameterError, ReproError
from repro.graph.digraph import DiGraph
from repro.obs import prometheus_text
from repro.obs.export import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from repro.serve.base import (
    DispatchResult,
    JsonHTTPServer,
    Payload,
    parse_hop_params,
    parse_query_params,
    split_path,
)
from repro.serve.cluster.registry import (
    DEFAULT_MEM_BUDGET,
    GraphRegistry,
    GraphSpec,
    GraphStatus,
)
from repro.serve.cluster.worker import WorkerSupervisor
from repro.serve.http import ProtocolError, Request, TextResponse

DEFAULT_PORT = 8473

#: Backoff hint for queue-full / draining rejections.
QUEUE_RETRY_AFTER = "1"

#: Terminal job states (the ones that set the job's event).
TERMINAL = ("done", "failed", "rejected")


@dataclass
class ClusterJob:
    """One submitted seed query, tracked until terminal."""

    job_id: str
    graph_id: str
    shard: int
    params: Dict[str, Any]
    trace_id: str
    tenant: str
    inject_crash: bool = False
    status: str = "queued"  # queued | done | failed | rejected
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    retry_after: str = QUEUE_RETRY_AFTER
    requeues: int = 0
    submitted: float = field(default_factory=time.monotonic)
    event: asyncio.Event = field(default_factory=asyncio.Event)

    def finish(self, status: str) -> None:
        self.status = status
        self.event.set()

    def describe(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "graph": self.graph_id,
            "shard": self.shard,
            "status": self.status,
            "requeues": self.requeues,
            "trace_id": self.trace_id,
        }

    def dispatch_payload(self) -> Dict[str, Any]:
        return {
            "job_id": self.job_id,
            "graph": self.graph_id,
            "params": dict(self.params),
            "trace_id": self.trace_id,
            "inject_crash": self.inject_crash,
        }


class ClusterFrontend(JsonHTTPServer):
    """HTTP front end over a sharded pool of warm worker processes.

    Parameters
    ----------
    workers:
        Worker process count == shard count.  Graphs are routed by
        fingerprint hash, so changing this between runs may re-home
        graphs (their persistent indexes still follow them).
    worker_mem_budget:
        Total resident-sketch budget per worker; cold engines are
        LRU-evicted (checkpoint, then drop) to stay under it.
        ``None`` disables worker-level eviction.
    queue_limit:
        Global ceiling on unfinished jobs — the backpressure knob.
    completed_jobs_limit:
        How many *terminal* jobs (and their result payloads) to keep
        readable after they finish; the oldest are evicted beyond it,
        so the job table is bounded by
        ``queue_limit + completed_jobs_limit`` no matter how long the
        front end runs.  An evicted job id reads as 404.
    state_dir:
        Root of per-graph persistent index directories
        (``state_dir/tenant/name``).  ``None`` = no persistence, which
        also disables crash recovery's warm restart.
    fault_injection:
        Allow ``inject_crash`` on submitted jobs (tests/bench only).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        workers: int = 2,
        worker_mem_budget: Optional[int] = None,
        queue_limit: int = 64,
        completed_jobs_limit: int = 256,
        drain_timeout: float = 30.0,
        state_dir: Optional[Any] = None,
        registry: Optional[object] = None,
        fault_injection: bool = False,
        max_restarts: int = 8,
    ) -> None:
        if queue_limit < 1:
            raise ParameterError(f"queue_limit must be >= 1, got {queue_limit}")
        if completed_jobs_limit < 1:
            raise ParameterError(
                f"completed_jobs_limit must be >= 1, got {completed_jobs_limit}"
            )
        if drain_timeout < 0:
            raise ParameterError(
                f"drain_timeout must be non-negative, got {drain_timeout}"
            )
        super().__init__(host=host, port=port, registry=registry)
        self.workers = int(workers)
        self.queue_limit = int(queue_limit)
        self.completed_jobs_limit = int(completed_jobs_limit)
        self.drain_timeout = float(drain_timeout)
        self.state_dir = Path(state_dir) if state_dir is not None else None
        self.fault_injection = bool(fault_injection)
        self.registry = GraphRegistry(shards=self.workers)
        self._supervisor = WorkerSupervisor(
            workers=self.workers,
            mem_budget=worker_mem_budget,
            max_restarts=max_restarts,
            registry=self.obs,
        )
        self._jobs: Dict[str, ClusterJob] = {}
        self._finished: Deque[str] = deque()
        # Requests answered by one worker message ("evicted", "claims"),
        # keyed by (message kind, graph id).
        self._waiters: Dict[
            Tuple[str, str], List[Tuple[asyncio.Event, Dict[str, Any]]]
        ] = {}
        self._cluster_error: Optional[str] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Put the workers on this loop and bind the listener."""
        self._supervisor.attach(
            asyncio.get_running_loop(),
            on_message=self._handle_message,
            on_respawn=self._requeue_worker,
            on_fatal=lambda exc: self._fail_cluster(str(exc)),
        )
        await self._start_listener()

    async def close(self, drain: bool = True) -> None:
        """Graceful shutdown.

        Stops accepting, lets in-flight jobs finish (bounded by
        ``drain_timeout``), then drains the workers — each checkpoints
        every resident sketch before exiting.
        """
        if self._closed:
            return
        self._draining = True
        await self._stop_listener()
        if drain:
            deadline = time.monotonic() + self.drain_timeout
            while self._pending_jobs() and time.monotonic() < deadline:
                await asyncio.sleep(0.05)
        self._closed = True
        if drain and self._cluster_error is None:
            await self._supervisor.drain(self.drain_timeout)
        self._supervisor.close()

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
    # Graph registration
    # ------------------------------------------------------------------
    def register_graph(
        self,
        graph: DiGraph,
        name: str,
        tenant: str = "default",
        model: str = "IC",
        seed: int = 2018,
        sampler_workers: int = 1,
        step: int = 2000,
        max_rr_sets: int = 500_000,
        delta: Optional[float] = None,
        mem_budget: Optional[int] = DEFAULT_MEM_BUDGET,
        index_dir: Optional[Any] = None,
    ) -> Dict[str, Any]:
        """Register a graph and ship its spec to its shard's worker.

        The programmatic twin of ``POST /graphs`` (tests, benchmarks,
        and the stats harness preload graphs this way).  Returns the
        JSON description including the assigned shard.
        """
        if not tenant or "/" in tenant:
            raise ParameterError(
                f"tenant must be non-empty and slash-free, got {tenant!r}"
            )
        if index_dir is None and self.state_dir is not None:
            index_dir = self.state_dir / tenant / name
        if index_dir is not None:
            index_dir = Path(index_dir)
            index_dir.mkdir(parents=True, exist_ok=True)
        spec = GraphSpec(
            name=name,
            tenant=tenant,
            graph=graph,
            model=model,
            seed=seed,
            sampler_workers=sampler_workers,
            step=step,
            max_rr_sets=max_rr_sets,
            delta=delta,
            mem_budget=mem_budget,
            index_dir=None if index_dir is None else str(index_dir),
        )
        status = self.registry.register(spec)
        self._supervisor.register(spec)
        self.obs.count("cluster.graphs_registered")
        return status.spec.describe()

    # ------------------------------------------------------------------
    # Worker messages
    # ------------------------------------------------------------------
    def _pending_jobs(self) -> List[ClusterJob]:
        return [
            job for job in self._jobs.values() if job.status not in TERMINAL
        ]

    def _finish_job(self, job: ClusterJob, status: str) -> None:
        """Move a job to a terminal state and prune the oldest ones.

        Terminal jobs stay readable (idempotent result polls) for the
        last ``completed_jobs_limit`` finishes only — beyond that the
        oldest are dropped from the table so a long-running front end
        does not accumulate result payloads forever.
        """
        job.finish(status)
        self._finished.append(job.job_id)
        while len(self._finished) > self.completed_jobs_limit:
            self._jobs.pop(self._finished.popleft(), None)

    def _fail_cluster(self, error: str) -> None:
        self._cluster_error = error
        for job in self._pending_jobs():
            job.error = error
            self._finish_job(job, "failed")

    def _requeue_worker(self, worker_id: int) -> None:
        """Re-dispatch every unfinished job of a respawned worker.

        Fault injection is stripped on requeue — the requeued run is
        the recovery path under test, not another crash.
        """
        for job in self._pending_jobs():
            if job.shard != worker_id:
                continue
            job.inject_crash = False
            job.requeues += 1
            self._supervisor.send(worker_id, "job", job.dispatch_payload())
            self.obs.count("cluster.jobs_requeued")

    def _handle_message(
        self, kind: str, worker_id: int, payload: Dict[str, Any]
    ) -> None:
        if kind == "job_done":
            self._finish_job_done(payload)
        elif kind == "job_rejected":
            # The worker's authoritative memory reading rides along:
            # fold it into the registry so front-end admission starts
            # refusing this graph without another worker round-trip.
            graph_id = payload.get("graph")
            if graph_id in self.registry and "memory_bytes" in payload:
                status = self.registry.get(graph_id)
                status.resident = True
                status.memory_bytes = int(payload["memory_bytes"])
            job = self._jobs.get(payload["job_id"])
            if job is not None and job.status not in TERMINAL:
                job.error = payload["reason"]
                job.retry_after = str(payload.get("retry_after", "1"))
                job.result = dict(payload)
                self._finish_job(job, "rejected")
                self.obs.count("cluster.jobs_rejected")
        elif kind == "job_failed":
            job = self._jobs.get(payload["job_id"])
            if job is not None and job.status not in TERMINAL:
                job.error = payload.get("error", "worker failure")
                self._finish_job(job, "failed")
                self.obs.count("cluster.jobs_failed")
        elif kind in ("evicted", "claims"):
            if kind == "evicted":
                self._note_eviction(payload)
            for event, box in self._waiters.pop(
                (kind, payload.get("graph", "")), []
            ):
                box.update(payload)
                event.set()
        elif kind == "worker_error":
            self.obs.count("cluster.worker_errors")
            self.obs.record("cluster_worker_error", worker=worker_id, **payload)
            # A job whose task raised gets no other reply.
            job = self._jobs.get(payload.get("job_id") or "")
            if job is not None and job.status not in TERMINAL:
                job.error = payload.get("error", "worker failure")
                self._finish_job(job, "failed")
                self.obs.count("cluster.jobs_failed")
        elif kind in ("ready", "registered", "checkpointed", "drained"):
            failures = payload.get("checkpoint_failures", ())
            if failures:
                self.obs.count("cluster.checkpoint_failures", len(failures))
            self.obs.record(f"cluster_{kind}", worker=worker_id, **payload)

    def _finish_job_done(self, payload: Dict[str, Any]) -> None:
        job = self._jobs.get(payload["job_id"])
        if job is None:  # pragma: no cover - duplicate delivery after requeue
            return
        if job.status in TERMINAL:  # pragma: no cover - crashed-then-done race
            return
        for event in payload.get("events", ()):
            fields = dict(event)
            self.obs.record(fields.pop("type", "event"), **fields)
        status = self.registry.get(job.graph_id)
        info = payload.get("engine", {})
        status.resident = True
        status.memory_bytes = int(info.get("memory_bytes", 0))
        status.num_rr_sets = int(info.get("num_rr_sets", 0))
        status.jobs_done += 1
        status.extra.update(
            {
                "loaded_from_index": info.get("loaded_from_index"),
                "worker_pid": info.get("worker_pid"),
            }
        )
        for eviction in payload.get("evicted", ()):
            self._note_eviction(eviction)
        job.result = {
            "job_id": job.job_id,
            "graph": job.graph_id,
            "shard": job.shard,
            "requeues": job.requeues,
            "trace_id": job.trace_id,
            "response": payload["response"],
            "claim": payload["claim"],
            "engine": info,
            "checkpointed": payload.get("checkpointed", False),
            "worker_seconds": payload["worker_seconds"],
        }
        if payload.get("checkpoint_error"):
            job.result["checkpoint_error"] = payload["checkpoint_error"]
            self.obs.count("cluster.checkpoint_failures")
        self._finish_job(job, "done")
        self.obs.count("cluster.jobs_done")
        self.obs.histogram(
            "cluster.job_seconds", labels={"shard": str(job.shard)}
        ).observe(float(payload["worker_seconds"]))
        self.obs.set_gauge("cluster.total_memory", self.registry.total_memory())

    def _note_eviction(self, payload: Dict[str, Any]) -> None:
        """Fold one eviction report into the registry.

        A failed checkpoint left the engine resident: it is counted as
        a checkpoint failure, not an eviction.
        """
        if payload.get("checkpoint_error"):
            self.obs.count("cluster.checkpoint_failures")
            return
        graph_id = payload.get("graph")
        if graph_id is None or graph_id not in self.registry:
            return
        status = self.registry.get(graph_id)
        if payload.get("evicted"):
            status.evictions += 1
            self.obs.count("cluster.evictions")
        status.resident = False
        status.memory_bytes = 0

    # ------------------------------------------------------------------
    # HTTP handling
    # ------------------------------------------------------------------
    async def _dispatch(self, request: Request) -> DispatchResult:
        self.obs.count("cluster.requests")
        trace_id = request.headers.get("x-trace-id") or uuid.uuid4().hex[:16]
        with self.obs.trace_context(trace_id):
            with self.obs.trace("cluster/dispatch"):
                status, payload, retry_after = await self._route(
                    request, trace_id
                )
        if status == 503:
            return status, payload, {"Retry-After": retry_after}
        return status, payload

    async def _route(
        self, request: Request, trace_id: str
    ) -> Tuple[int, Payload, str]:
        segments, query = split_path(request.path)
        tenant = request.headers.get("x-tenant", "default")
        route = (request.method, segments)
        try:
            if route == ("GET", ("healthz",)):
                return 200, self._healthz(), QUEUE_RETRY_AFTER
            if route == ("GET", ("metrics",)):
                return (
                    200,
                    TextResponse(
                        prometheus_text(self.obs), PROMETHEUS_CONTENT_TYPE
                    ),
                    QUEUE_RETRY_AFTER,
                )
            if route == ("GET", ("stats",)):
                return 200, self.stats(), QUEUE_RETRY_AFTER
            if route == ("GET", ("graphs",)):
                return (
                    200,
                    {
                        "tenant": tenant,
                        "graphs": [
                            self._graph_view(status)
                            for status in self.registry.by_tenant(tenant)
                        ],
                    },
                    QUEUE_RETRY_AFTER,
                )
            if (
                request.method == "GET"
                and len(segments) == 2
                and segments[0] == "jobs"
            ):
                return self._job_status(segments, tenant)
            if (
                request.method == "GET"
                and len(segments) == 3
                and segments[0] == "jobs"
                and segments[2] == "result"
            ):
                return await self._job_result(segments, query, tenant)
            if self._draining:
                return 503, {"error": "draining"}, QUEUE_RETRY_AFTER
            if self._cluster_error is not None:
                return 500, {"error": self._cluster_error}, QUEUE_RETRY_AFTER
            if (
                request.method == "GET"
                and len(segments) == 3
                and segments[0] == "graphs"
                and segments[2] == "claims"
            ):
                return await self._ask_worker("claims", tenant, segments[1])
            if route == ("POST", ("graphs",)):
                return await self._handle_register(request, tenant)
            if (
                request.method == "POST"
                and len(segments) == 3
                and segments[0] == "graphs"
                and segments[2] == "evict"
            ):
                return await self._ask_worker("evict", tenant, segments[1])
            if route == ("POST", ("jobs",)):
                return self._handle_submit(request, tenant, trace_id)
            return 404, {"error": f"unknown path {request.path}"}, "1"
        except ProtocolError as exc:
            return 400, {"error": str(exc)}, "1"
        except ParameterError as exc:
            return 400, {"error": str(exc)}, "1"
        except ReproError as exc:
            return 500, {"error": str(exc)}, "1"

    def _healthz(self) -> Dict[str, Any]:
        if self._cluster_error is not None:
            state = "failed"
        elif self._draining:
            state = "draining"
        else:
            state = "ok"
        return {
            "status": state,
            "workers": self.workers,
            "alive": self._supervisor.alive(),
            "graphs": len(self.registry),
            "pending_jobs": len(self._pending_jobs()),
            "queue_limit": self.queue_limit,
            "restarts": self._supervisor.restarts,
        }

    def stats(self) -> Dict[str, Any]:
        by_status: Dict[str, int] = {}
        for job in self._jobs.values():
            by_status[job.status] = by_status.get(job.status, 0) + 1
        return {
            "workers": self.workers,
            "restarts": self._supervisor.restarts,
            "draining": self._draining,
            "graphs": [
                self._graph_view(status) for status in self.registry.all()
            ],
            "jobs": by_status,
            "total_memory": self.registry.total_memory(),
            "counters": self.obs.counter_values(),
        }

    def _graph_view(self, status: GraphStatus) -> Dict[str, Any]:
        view = status.spec.describe()
        view.update(
            {
                "resident": status.resident,
                "memory_bytes": status.memory_bytes,
                "num_rr_sets": status.num_rr_sets,
                "jobs_done": status.jobs_done,
                "evictions": status.evictions,
                "over_budget": status.over_budget,
            }
        )
        return view

    async def _handle_register(
        self, request: Request, tenant: str
    ) -> Tuple[int, Payload, str]:
        params = request.json()
        known = {
            "name",
            "dataset",
            "scale",
            "model",
            "seed",
            "sampler_workers",
            "step",
            "max_rr_sets",
            "delta",
            "mem_budget",
        }
        unknown = set(params) - known
        if unknown:
            raise ParameterError(f"unknown graph fields: {sorted(unknown)}")
        try:
            name = str(params["name"])
            dataset = str(params["dataset"])
        except KeyError as exc:
            raise ParameterError(f"missing required field: {exc.args[0]}")
        scale = float(params.get("scale", 1.0))
        loop = asyncio.get_running_loop()
        from repro.datasets import load_dataset

        graph = await loop.run_in_executor(
            None, lambda: load_dataset(dataset, scale=scale)
        )
        description = self.register_graph(
            graph,
            name,
            tenant=tenant,
            model=str(params.get("model", "IC")),
            seed=int(params.get("seed", 2018)),
            sampler_workers=int(params.get("sampler_workers", 1)),
            step=int(params.get("step", 2000)),
            max_rr_sets=int(params.get("max_rr_sets", 500_000)),
            delta=(
                None if params.get("delta") is None
                else float(params["delta"])
            ),
            mem_budget=(
                None if params.get("mem_budget") is None
                else int(params["mem_budget"])
            ),
        )
        return 201, description, "1"

    async def _ask_worker(
        self, task: str, tenant: str, name: str
    ) -> Tuple[int, Payload, str]:
        """One round trip to a graph's worker: ``evict`` (answered by
        "evicted") or ``claims`` (answered by "claims")."""
        status = self.registry.lookup(tenant, name)
        if status is None:
            return 404, {"error": f"unknown graph {tenant}/{name}"}, "1"
        graph_id = status.spec.graph_id
        key = ("evicted" if task == "evict" else task, graph_id)
        event = asyncio.Event()
        box: Dict[str, Any] = {}
        # One waiter *list* per (kind, graph): concurrent requests for
        # the same graph all resolve on the next acknowledgement
        # instead of the last request clobbering the earlier waiters.
        self._waiters.setdefault(key, []).append((event, box))
        self._supervisor.send(status.spec.shard, task, {"graph": graph_id})
        try:
            await asyncio.wait_for(event.wait(), timeout=30.0)
        except asyncio.TimeoutError:
            waiters = self._waiters.get(key)
            if waiters is not None:
                try:
                    waiters.remove((event, box))
                except ValueError:
                    pass
                if not waiters:
                    self._waiters.pop(key, None)
            return 500, {"error": f"{task} of {graph_id} timed out"}, "1"
        if box.get("checkpoint_error"):
            # The engine stays resident: its schedule positions exist
            # nowhere else until a checkpoint lands.
            return 500, {"error": "checkpoint failed", **box}, "1"
        return 200, box, "1"

    def _handle_submit(
        self, request: Request, tenant: str, trace_id: str
    ) -> Tuple[int, Payload, str]:
        body = request.json()
        precision = body.get("precision") if isinstance(body, dict) else None
        if precision is not None and precision != "hop":
            raise ParameterError(
                f"precision must be 'hop' when given, got {precision!r}"
            )
        if precision == "hop":
            hop = parse_hop_params(
                body, extra_fields=("graph", "inject_crash")
            )
            job_params: Dict[str, Any] = {
                "precision": "hop",
                "k": hop["k"],
                "seeds": hop["seeds"],
                "hops": hop["hops"],
            }
        else:
            params = parse_query_params(
                body, extra_fields=("graph", "inject_crash")
            )
            job_params = {
                "k": params["k"],
                "bound": params["bound"],
                "alpha_target": params["target"],
                "rr_budget": params["rr_budget"],
            }
        graph_name = body.get("graph")
        if not graph_name:
            raise ParameterError("missing required field: graph")
        status = self.registry.lookup(tenant, str(graph_name))
        if status is None:
            return (
                404,
                {"error": f"unknown graph {tenant}/{graph_name}"},
                "1",
            )
        inject_crash = bool(body.get("inject_crash", False))
        if inject_crash and not self.fault_injection:
            raise ParameterError(
                "inject_crash requires the front end to be started with "
                "fault_injection=True"
            )
        pending = len(self._pending_jobs())
        if pending >= self.queue_limit:
            self.obs.count("cluster.jobs_rejected")
            return (
                503,
                {"error": "overloaded", "pending_jobs": pending},
                QUEUE_RETRY_AFTER,
            )
        if status.over_budget:
            self.obs.count("cluster.jobs_rejected")
            return (
                503,
                {
                    "error": "mem_budget",
                    "graph": status.spec.graph_id,
                    "memory_bytes": status.memory_bytes,
                    "mem_budget": status.spec.mem_budget,
                },
                "5",
            )
        # Unguessable ids: job results carry tenant data, so ids must
        # not be enumerable even though reads are tenant-checked too.
        job = ClusterJob(
            job_id=f"job-{uuid.uuid4().hex}",
            graph_id=status.spec.graph_id,
            shard=status.spec.shard,
            params=job_params,
            trace_id=trace_id,
            tenant=tenant,
            inject_crash=inject_crash,
        )
        self._jobs[job.job_id] = job
        self._supervisor.send(job.shard, "job", job.dispatch_payload())
        self.obs.count("cluster.jobs_submitted")
        return 202, {**job.describe(), "pending_jobs": pending + 1}, "1"

    def _job_for(self, job_id: str, tenant: str) -> Optional[ClusterJob]:
        """The caller's job, or ``None`` when unknown *or* owned by a
        different tenant — indistinguishable on purpose (404, not 403:
        another tenant's job ids do not exist in this namespace)."""
        job = self._jobs.get(job_id)
        if job is None or job.tenant != tenant:
            return None
        return job

    def _job_status(
        self, segments: Tuple[str, ...], tenant: str
    ) -> Tuple[int, Payload, str]:
        job = self._job_for(segments[1], tenant)
        if job is None:
            return 404, {"error": f"unknown job {segments[1]}"}, "1"
        return 200, job.describe(), "1"

    async def _job_result(
        self, segments: Tuple[str, ...], query: Dict[str, str], tenant: str
    ) -> Tuple[int, Payload, str]:
        job = self._job_for(segments[1], tenant)
        if job is None:
            return 404, {"error": f"unknown job {segments[1]}"}, "1"
        wait = float(query.get("wait", 0.0))
        if wait > 0 and job.status not in TERMINAL:
            try:
                await asyncio.wait_for(job.event.wait(), timeout=wait)
            except asyncio.TimeoutError:
                pass
        if job.status == "done":
            assert job.result is not None
            return 200, job.result, "1"
        if job.status == "failed":
            return 500, {**job.describe(), "error": job.error}, "1"
        if job.status == "rejected":
            return (
                503,
                {**job.describe(), "error": job.error, **(job.result or {})},
                job.retry_after,
            )
        return 202, job.describe(), "1"
