"""Long-lived cluster worker processes and their supervisor.

One worker process per shard.  Each worker hosts the warm
:class:`~repro.serve.engine.SeedQueryEngine` (and through it the
sampler — serial or a nested :class:`~repro.sampling.service
.SamplingPool`) for every graph routed to its shard, and executes jobs
strictly serially — which is the same synchronization story the
single-process server uses, applied per shard.

Protocol (all messages are picklable tuples):

* front end -> worker, over a per-worker ``SimpleQueue``::

      ("register",  {spec fields...})     adopt a graph spec
      ("job",       {job fields...})      run one seed query
      ("evict",     {"graph": id})        checkpoint + drop an engine
      ("checkpoint", {})                  checkpoint every engine
      None                                drain: checkpoint all + exit

* worker -> front end, over the shared result ``Queue``::

      ("ready" | "registered" | "job_done" | "job_rejected" |
       "job_failed" | "evicted" | "checkpointed" | "drained" |
       "worker_error", worker_id, {payload...})

Crash story: the supervisor polls worker liveness; a dead worker is
respawned with a **fresh** queue pair, its graph specs are re-sent,
and the front end re-dispatches its unfinished jobs.  Because a worker
checkpoints each graph's sketch index only at job boundaries, the
respawned engine warm-restarts from the last completed job's stream
position and the re-run job consumes the exact RR-set stream the
crashed run would have — bitwise-identical answers (the multi-process
extension of the PR 4 warm-restart oracle).

Memory story: each graph carries its own budget (admission control —
a job on an at-budget graph is rejected with ``mem_budget`` and the
front end maps that to 503 + ``Retry-After``; the check runs against
the engine *after* residency, so an evicted-then-reloaded sketch is
measured the same as one that never left memory), and each worker
carries a total budget under which cold engines are LRU-evicted
(checkpoint to the index, then drop).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exceptions import ParameterError, ReproError, StateError
from repro.obs import MetricsRegistry, resolve_registry
from repro.sampling.hop import DEFAULT_HOPS
from repro.obs.recorder import TraceRecorder
from repro.serve.cluster.registry import GraphSpec
from repro.serve.engine import SeedQueryEngine

#: Seconds a client should back off after a memory-budget rejection —
#: relief needs an eviction or an operator action, not just queue drain.
MEM_BUDGET_RETRY_AFTER = 5

Message = Tuple[str, int, Dict[str, Any]]


class ClusterError(ReproError):
    """A cluster worker failed beyond the restart budget."""


def _spec_payload(spec: GraphSpec) -> Dict[str, Any]:
    """The picklable subset of a spec a worker needs."""
    return {
        "graph_id": spec.graph_id,
        "name": spec.name,
        "tenant": spec.tenant,
        "graph": spec.graph,
        "model": spec.model,
        "seed": spec.seed,
        "sampler_workers": spec.sampler_workers,
        "step": spec.step,
        "max_rr_sets": spec.max_rr_sets,
        "delta": spec.delta,
        "mem_budget": spec.mem_budget,
        "index_dir": spec.index_dir,
    }


class _WorkerHost:
    """Worker-process state: warm engines, budgets, trace shipping."""

    def __init__(
        self,
        worker_id: int,
        result_queue: Any,
        mem_budget: Optional[int],
    ) -> None:
        self.worker_id = worker_id
        self.result_queue = result_queue
        self.mem_budget = mem_budget
        # The worker process IS a composition root: it starts from a
        # bare fork and nothing picklable can inject a registry across
        # the process boundary.  Spans/counters ship back to the front
        # end with each job result instead of a shared sink.
        self.recorder = TraceRecorder()
        self.obs = MetricsRegistry(sink=self.recorder)  # repro: noqa[RPR107]
        self.specs: Dict[str, Dict[str, Any]] = {}
        self.engines: "OrderedDict[str, SeedQueryEngine]" = OrderedDict()

    def send(self, kind: str, payload: Dict[str, Any]) -> None:
        self.result_queue.put((kind, self.worker_id, payload))

    # -- engine lifecycle ----------------------------------------------
    def _engine(self, graph_id: str) -> SeedQueryEngine:
        """The warm engine for *graph_id*, creating it on first use.

        Creation warm-starts from the graph's persistent index when
        one exists; an existing engine is bumped to the LRU front.
        """
        engine = self.engines.get(graph_id)
        if engine is not None:
            self.engines.move_to_end(graph_id)
            return engine
        spec = self.specs[graph_id]
        engine = SeedQueryEngine(
            spec["graph"],
            spec["model"],
            seed=spec["seed"],
            workers=spec["sampler_workers"],
            delta=spec["delta"],
            index_dir=spec["index_dir"],
            step=spec["step"],
            max_rr_sets=spec["max_rr_sets"],
            registry=self.obs,
        )
        self.engines[graph_id] = engine
        return engine

    def total_memory(self) -> int:
        return sum(e.memory_bytes() for e in self.engines.values())

    def _evict_engine(self, graph_id: str) -> Dict[str, Any]:
        engine = self.engines.pop(graph_id)
        checkpointed = engine.checkpoint() is not None
        freed = engine.memory_bytes()
        engine.close()
        return {
            "graph": graph_id,
            "checkpointed": checkpointed,
            "freed_bytes": freed,
        }

    def _evict_cold_lru(self, keep: str) -> List[Dict[str, Any]]:
        """Evict least-recently-used engines (never *keep*) until the
        worker budget holds or nothing cold remains."""
        evicted: List[Dict[str, Any]] = []
        if self.mem_budget is None:
            return evicted
        while self.total_memory() > self.mem_budget and len(self.engines) > 1:
            coldest = next(
                (gid for gid in self.engines if gid != keep), None
            )
            if coldest is None:  # pragma: no cover - keep is the only one
                break
            evicted.append(self._evict_engine(coldest))
        return evicted

    def checkpoint_all(self) -> int:
        count = 0
        for engine in self.engines.values():
            if engine.checkpoint() is not None:
                count += 1
        return count

    def engine_info(self, engine: SeedQueryEngine) -> Dict[str, Any]:
        return {
            "memory_bytes": engine.memory_bytes(),
            "num_rr_sets": engine.num_rr_sets,
            "loaded_from_index": engine.loaded_from_index,
            "sets_generated": int(engine.sampler.sets_generated),
            "resident": list(self.engines),
            "total_memory": self.total_memory(),
            "worker_pid": os.getpid(),
        }

    # -- task handlers --------------------------------------------------
    def handle_register(self, task: Dict[str, Any]) -> None:
        self.specs[task["graph_id"]] = task
        self.send(
            "registered",
            {"graph": task["graph_id"], "worker_pid": os.getpid()},
        )

    def handle_job(self, task: Dict[str, Any]) -> None:
        job_id = task["job_id"]
        graph_id = task["graph"]
        params = task["params"]
        trace_id = task.get("trace_id")
        spec = self.specs[graph_id]
        budget = spec["mem_budget"]
        # Authoritative budget check, *after* the engine is resident:
        # a warm reload from the persistent index counts the same as a
        # sketch that never left memory, so evict/reload cycles cannot
        # launder an over-budget graph past admission control.  An
        # *empty* engine is exempt — its fixed overhead (offset
        # arrays) is not sketch growth, and rejecting it would brick
        # any graph whose budget is below that floor before it ever
        # served a job.
        engine = self._engine(graph_id)
        if (
            budget is not None
            and engine.num_rr_sets > 0
            and engine.memory_bytes() >= budget
        ):
            self.send(
                "job_rejected",
                {
                    "job_id": job_id,
                    "graph": graph_id,
                    "reason": "mem_budget",
                    "retry_after": MEM_BUDGET_RETRY_AFTER,
                    "memory_bytes": engine.memory_bytes(),
                    "mem_budget": budget,
                },
            )
            return
        if task.get("inject_crash"):
            # Fault injection (tests/bench only — the front end gates
            # it): do real partial work so the crash discards a
            # genuinely advanced in-memory stream, then die without
            # checkpointing.  The requeued job must warm-restart from
            # the last job-boundary checkpoint and still answer
            # bitwise-identically.
            engine.extend(engine.step + engine.step % 2)
            os._exit(1)
        events_before = len(self.recorder.events)
        started = time.perf_counter()
        try:
            with self.obs.trace_context(trace_id):
                with self.obs.trace("cluster/worker_job"):
                    if params.get("precision") == "hop":
                        response = engine.answer_hop(
                            k=params.get("k"),
                            seeds=params.get("seeds"),
                            hops=params.get("hops", DEFAULT_HOPS),
                            trace_id=trace_id,
                        )
                    else:
                        response = engine.answer(trace_id=trace_id, **params)
        except (ParameterError, StateError) as exc:
            self.send(
                "job_failed",
                {
                    "job_id": job_id,
                    "graph": graph_id,
                    "error": str(exc),
                    "kind": "parameter",
                },
            )
            return
        except ReproError as exc:
            self.send(
                "job_failed",
                {
                    "job_id": job_id,
                    "graph": graph_id,
                    "error": str(exc),
                    "kind": "engine",
                },
            )
            return
        elapsed = time.perf_counter() - started
        # Job-boundary checkpoint: the determinism anchor for crash
        # recovery (and what eviction/drain rely on being fresh).  A
        # failed write still finishes the job, with checkpointed false:
        # the engine keeps its stale count, so the next one retries.
        checkpoint_error: Optional[str] = None
        try:
            checkpointed = engine.checkpoint() is not None
        except OSError as exc:
            checkpointed = False
            checkpoint_error = f"{type(exc).__name__}: {exc}"
        evicted = self._evict_cold_lru(keep=graph_id)
        events = [
            dict(event)
            for event in self.recorder.events[events_before:]
            if event.get("trace_id") == trace_id
        ]
        self.send(
            "job_done",
            {
                "job_id": job_id,
                "graph": graph_id,
                "response": response,
                "claims": engine.guarantee_claims(),
                "engine": self.engine_info(engine),
                "checkpointed": checkpointed,
                "checkpoint_error": checkpoint_error,
                "evicted": evicted,
                "worker_seconds": elapsed,
                "events": events,
            },
        )

    def handle_evict(self, task: Dict[str, Any]) -> None:
        graph_id = task["graph"]
        if graph_id not in self.engines:
            self.send(
                "evicted",
                {"graph": graph_id, "resident": False, "checkpointed": False},
            )
            return
        result = self._evict_engine(graph_id)
        result["resident"] = True
        self.send("evicted", result)

    def handle_checkpoint(self, task: Dict[str, Any]) -> None:
        self.send(
            "checkpointed",
            {"count": self.checkpoint_all(), "resident": list(self.engines)},
        )

    def close(self) -> None:
        for engine in self.engines.values():
            engine.close()
        self.engines.clear()


def _cluster_worker(
    worker_id: int,
    task_queue: Any,
    result_queue: Any,
    mem_budget: Optional[int],
) -> None:
    """Worker-process entry point: serial task loop until drained."""
    host = _WorkerHost(worker_id, result_queue, mem_budget)
    host.send("ready", {"worker_pid": os.getpid()})
    handlers: Dict[str, Callable[[Dict[str, Any]], None]] = {
        "register": host.handle_register,
        "job": host.handle_job,
        "evict": host.handle_evict,
        "checkpoint": host.handle_checkpoint,
    }
    while True:
        task = task_queue.get()
        if task is None:
            count = host.checkpoint_all()
            host.close()
            host.send("drained", {"checkpointed": count})
            break
        kind, payload = task
        try:
            handlers[kind](payload)
        except BaseException as exc:  # noqa: BLE001 - keep the worker alive
            host.send(
                "worker_error",
                {"task": kind, "error": f"{type(exc).__name__}: {exc}"},
            )


class WorkerSupervisor:
    """Front-end-side owner of the worker processes.

    Spawns ``workers`` processes (fork start method when available, so
    registered graphs share pages until written), routes tasks to them,
    polls the shared result queue, and — the crash-detection half of
    the cluster contract — respawns dead workers and re-sends their
    graph specs.  Job requeue is the front end's half: it knows which
    jobs were in flight.
    """

    def __init__(
        self,
        workers: int = 2,
        mem_budget: Optional[int] = None,
        max_restarts: int = 8,
        registry: Optional[object] = None,
    ) -> None:
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        if max_restarts < 0:
            raise ParameterError(
                f"max_restarts must be non-negative, got {max_restarts}"
            )
        self.workers = int(workers)
        self.mem_budget = mem_budget
        self.max_restarts = int(max_restarts)
        self.restarts = 0
        self.obs = resolve_registry(registry)
        methods = mp.get_all_start_methods()
        self._context = mp.get_context("fork" if "fork" in methods else None)
        self._result_queue: Any = self._context.Queue()
        self._procs: List[Optional[mp.process.BaseProcess]] = [
            None for _ in range(self.workers)
        ]
        self._task_queues: List[Any] = [None for _ in range(self.workers)]
        self._registered: List[List[Dict[str, Any]]] = [
            [] for _ in range(self.workers)
        ]
        self._closed = False
        try:
            for worker_id in range(self.workers):
                self._spawn(worker_id)
        except BaseException:
            self.close()
            raise

    def _spawn(self, worker_id: int) -> None:
        task_queue = self._context.SimpleQueue()
        process = self._context.Process(
            target=_cluster_worker,
            args=(worker_id, task_queue, self._result_queue, self.mem_budget),
            daemon=True,
            name=f"cluster-worker-{worker_id}",
        )
        process.start()
        self._task_queues[worker_id] = task_queue
        self._procs[worker_id] = process

    # -- messaging ------------------------------------------------------
    def send(self, worker_id: int, kind: str, payload: Dict[str, Any]) -> None:
        if self._closed:
            raise StateError("WorkerSupervisor is closed")
        self._task_queues[worker_id].put((kind, payload))

    def register(self, spec: GraphSpec) -> None:
        """Ship a graph spec to its shard's worker (re-sent on respawn)."""
        payload = _spec_payload(spec)
        self._registered[spec.shard].append(payload)
        self.send(spec.shard, "register", payload)

    def poll(self, timeout: float = 0.05) -> Optional[Message]:
        """Next worker message, or ``None`` after *timeout* seconds."""
        try:
            return self._result_queue.get(timeout=timeout)
        except queue.Empty:
            return None

    def check_crashed(self) -> List[int]:
        """Respawn any dead workers; returns the respawned worker ids.

        Each respawned worker gets a fresh task queue (the old one's
        undelivered tasks are gone with the pipe) and its graph specs
        re-sent; the caller must re-dispatch in-flight jobs.
        """
        respawned: List[int] = []
        for worker_id, process in enumerate(self._procs):
            if process is None or process.is_alive():
                continue
            self.restarts += 1
            if self.restarts > self.max_restarts:
                raise ClusterError(
                    f"cluster worker {worker_id} died (exitcode "
                    f"{process.exitcode}) and the restart budget "
                    f"({self.max_restarts}) is exhausted"
                )
            process.join()
            self._spawn(worker_id)
            for payload in self._registered[worker_id]:
                self.send(worker_id, "register", payload)
            self.obs.count("cluster.worker_restarts")
            respawned.append(worker_id)
        return respawned

    def alive(self) -> List[bool]:
        return [
            process is not None and process.is_alive()
            for process in self._procs
        ]

    # -- shutdown -------------------------------------------------------
    def drain(self, timeout: float = 30.0) -> int:
        """Graceful shutdown: every worker checkpoints its resident
        sketches and exits.  Returns the number of checkpoints written.
        """
        if self._closed:
            return 0
        for task_queue in self._task_queues:
            if task_queue is not None:
                task_queue.put(None)
        deadline = time.monotonic() + timeout
        drained = 0
        checkpoints = 0
        while drained < self.workers and time.monotonic() < deadline:
            message = self.poll(timeout=0.1)
            if message is None:
                if not any(self.alive()) and self._result_queue.empty():
                    break
                continue
            kind, worker_id, payload = message
            if kind == "drained":
                drained += 1
                checkpoints += int(payload.get("checkpointed", 0))
                self.obs.record("cluster_drained", worker=worker_id, **payload)
        for process in self._procs:
            if process is not None:
                process.join(timeout=max(0.0, deadline - time.monotonic()))
        self.obs.count("cluster.checkpoints", checkpoints)
        return checkpoints

    def close(self) -> None:
        """Hard stop: terminate anything still alive, release queues."""
        if self._closed:
            return
        self._closed = True
        for process in self._procs:
            if process is not None and process.is_alive():
                process.terminate()
        for process in self._procs:
            if process is not None:
                process.join(timeout=5.0)
        self._procs = [None for _ in range(self.workers)]
        self._task_queues = [None for _ in range(self.workers)]

    def __enter__(self) -> "WorkerSupervisor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
