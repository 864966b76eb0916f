"""Long-lived cluster worker processes and their supervisor.

One worker process per shard.  Each worker hosts the warm
:class:`~repro.serve.engine.SeedQueryEngine` (and through it the
sampler — serial or a nested :class:`~repro.sampling.service
.SamplingPool`) for every graph routed to its shard, and executes jobs
strictly serially — which is the same synchronization story the
single-process server uses, applied per shard.

Protocol: each worker has two one-way pipes of its own, a task pipe
(front end -> worker) and a result pipe (worker -> front end).  Every
message is one frame, an 8-byte big-endian length followed by a pickled
tuple (:func:`frame`):

* front end -> worker::

      ("register",   {spec fields...})    adopt a graph spec
      ("job",        {job fields...})     run one seed query
      ("evict",      {"graph": id})       checkpoint + drop an engine
      ("claims",     {"graph": id})       the engine's claim history
      ("checkpoint", {})                  checkpoint every engine
      None                                drain: checkpoint all + exit

* worker -> front end::

      ("ready" | "registered" | "job_done" | "job_rejected" |
       "job_failed" | "evicted" | "claims" | "checkpointed" | "drained" |
       "worker_error", worker_id, {payload...})

The worker reads and writes its ends blocking: a result is on the pipe
when ``send`` returns, with no feeder thread in between.  The front
end's ends live on its event loop (:meth:`WorkerSupervisor.attach`):
the result pipe is read with ``loop.add_reader``, and the task pipe is
an asyncio write-pipe transport, which buffers what the pipe cannot
take yet — a worker blocked on a full result pipe must never wait on a
front end blocked writing to it.

Crash story: the supervisor watches each worker's pidfd (its
``sentinel`` where there is no pidfd), which becomes readable when the
process itself exits.  A sentinel alone is not enough: it is a pipe
end, and the sampling-pool children a worker forks inherit it, so it
stays open while they live.  Each worker leads its own process group,
and once it is dead the supervisor reads what it had already written,
sends what is left of the group SIGTERM (those pool children, which
would otherwise outlive it holding its pipes), reaps it, respawns it with
**fresh** pipes, re-sends its graph specs, and tells the front end,
which re-dispatches the worker's unfinished jobs.  Because a worker
checkpoints each graph's sketch index at job boundaries, the respawned
engine warm-restarts from the last completed job's stream position
and the re-run job consumes the exact RR-set stream the crashed run
would have — bitwise-identical answers (the multi-process extension
of the warm-restart oracle).

Memory story: each graph carries its own budget (admission control —
a job on an at-budget graph is rejected with ``mem_budget`` and the
front end maps that to 503 + ``Retry-After``; the check runs against
the engine *after* residency, so an evicted-then-reloaded sketch is
measured the same as one that never left memory), and each worker
carries a total budget under which cold engines are LRU-evicted
(checkpoint to the index, then drop).  A checkpoint that fails outside
the job boundary (LRU eviction, ``evict``, drain) is reported with
``checkpointed: false`` and ``checkpoint_error``, and the engine stays
resident: dropping it would forget ``delta / 2^i`` slices the index
never recorded.
"""

from __future__ import annotations

import asyncio
import multiprocessing as mp
import os
import pickle
import signal
import struct
import sys
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, List, Optional

from repro.exceptions import ParameterError, ReproError, StateError
from repro.obs import MetricsRegistry, resolve_registry
from repro.sampling.hop import DEFAULT_HOPS
from repro.obs.recorder import TraceRecorder
from repro.serve.cluster.registry import GraphSpec
from repro.serve.engine import SeedQueryEngine

#: Seconds a client should back off after a memory-budget rejection —
#: relief needs an eviction or an operator action, not just queue drain.
MEM_BUDGET_RETRY_AFTER = 5

#: Upper bound on reaping a worker whose sentinel fired: the exit can
#: close the process's fds before ``waitpid`` reports it.  (A pidfd is
#: readable only once the process can be reaped.)
JOIN_TIMEOUT = 5.0

#: Bytes read from a result pipe per readiness callback.
READ_CHUNK = 1 << 16

_HEADER = struct.Struct("!Q")

class ClusterError(ReproError):
    """A cluster worker failed beyond the restart budget."""


def frame(message: Any) -> bytes:
    """One wire frame: the pickled *message* behind its length."""
    body = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(body)) + body


def unframe(buffer: bytearray) -> List[Any]:
    """Pop every complete frame off the front of *buffer*."""
    messages: List[Any] = []
    pos = 0
    while len(buffer) - pos >= _HEADER.size:
        (size,) = _HEADER.unpack_from(buffer, pos)
        end = pos + _HEADER.size + size
        if end > len(buffer):
            break
        messages.append(pickle.loads(memoryview(buffer)[pos + _HEADER.size:end]))
        pos = end
    if pos:
        del buffer[:pos]
    return messages


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view):]


def _read_exact(fd: int, size: int) -> bytes:
    """*size* bytes from a blocking fd."""
    chunks = bytearray()
    while len(chunks) < size:
        chunk = os.read(fd, size - len(chunks))
        if not chunk:
            raise EOFError("task pipe closed")
        chunks += chunk
    return bytes(chunks)


def _recv(fd: int) -> Any:
    (size,) = _HEADER.unpack(_read_exact(fd, _HEADER.size))
    return pickle.loads(_read_exact(fd, size))


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


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class _WorkerHost:
    """Worker-process state: warm engines, budgets, trace shipping."""

    def __init__(
        self,
        worker_id: int,
        result_fd: int,
        mem_budget: Optional[int],
    ) -> None:
        self.worker_id = worker_id
        self.result_fd = result_fd
        self.mem_budget = mem_budget
        # The worker process IS a composition root: it starts from a
        # bare fork and nothing picklable can inject a registry across
        # the process boundary.  Spans/counters ship back to the front
        # end with each job result instead of a shared sink, and the
        # task loop drops them after every task.
        self.recorder = TraceRecorder()
        self.obs = MetricsRegistry(sink=self.recorder)  # repro: noqa[RPR107]
        self.specs: Dict[str, Dict[str, Any]] = {}
        self.engines: "OrderedDict[str, SeedQueryEngine]" = OrderedDict()

    def send(self, kind: str, payload: Dict[str, Any]) -> None:
        _write_all(self.result_fd, frame((kind, self.worker_id, payload)))

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
        """Checkpoint, then drop, one resident engine.

        A failed checkpoint keeps the engine resident (its schedule
        positions exist nowhere else) and reports ``evicted: false``.
        """
        engine = self.engines[graph_id]
        try:
            checkpointed = engine.checkpoint() is not None
        except OSError as exc:
            return {
                "graph": graph_id,
                "evicted": False,
                "checkpointed": False,
                "checkpoint_error": _error_text(exc),
            }
        freed = engine.memory_bytes()
        del self.engines[graph_id]
        engine.close()
        return {
            "graph": graph_id,
            "evicted": True,
            "checkpointed": checkpointed,
            "freed_bytes": freed,
        }

    def _evict_cold_lru(self, keep: str) -> List[Dict[str, Any]]:
        """Evict least-recently-used engines (never *keep*) until the
        worker budget holds or no cold engine is left to try."""
        evicted: List[Dict[str, Any]] = []
        if self.mem_budget is None:
            return evicted
        for graph_id in [gid for gid in self.engines if gid != keep]:
            if self.total_memory() <= self.mem_budget:
                break
            evicted.append(self._evict_engine(graph_id))
        return evicted

    def checkpoint_all(self) -> Tuple[int, List[Dict[str, str]]]:
        """Checkpoint every engine: (written count, failures)."""
        count = 0
        failures: List[Dict[str, str]] = []
        for graph_id, engine in self.engines.items():
            try:
                if engine.checkpoint() is not None:
                    count += 1
            except OSError as exc:
                failures.append(
                    {"graph": graph_id, "checkpoint_error": _error_text(exc)}
                )
        return count, failures

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
        started = time.perf_counter()
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
        hop = params.get("precision") == "hop"
        try:
            with self.obs.trace_context(trace_id):
                with self.obs.trace("cluster/worker_job"):
                    if hop:
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
        # Job-boundary checkpoint: the determinism anchor for crash
        # recovery (and what eviction/drain rely on being fresh).  A
        # failed write still finishes the job, with checkpointed false:
        # the engine keeps its stale count, so the next one retries.
        checkpoint_error: Optional[str] = None
        try:
            checkpointed = engine.checkpoint() is not None
        except OSError as exc:
            checkpointed = False
            checkpoint_error = _error_text(exc)
        evicted = self._evict_cold_lru(keep=graph_id)
        events = [
            event
            for event in self.recorder.events
            if event.get("trace_id") == trace_id
        ]
        self.send(
            "job_done",
            {
                "job_id": job_id,
                "graph": graph_id,
                "response": response,
                # Only the claim this answer made; the history is one
                # "claims" task away.  Hop answers claim nothing.
                "claim": None if hop else engine.last_claim(response["k"]),
                "engine": self.engine_info(engine),
                "checkpointed": checkpointed,
                "checkpoint_error": checkpoint_error,
                "evicted": evicted,
                "worker_seconds": time.perf_counter() - started,
                "events": events,
            },
        )

    def handle_evict(self, task: Dict[str, Any]) -> None:
        graph_id = task["graph"]
        if graph_id not in self.engines:
            self.send(
                "evicted",
                {
                    "graph": graph_id,
                    "resident": False,
                    "evicted": False,
                    "checkpointed": False,
                },
            )
            return
        result = self._evict_engine(graph_id)
        result["resident"] = True
        self.send("evicted", result)

    def handle_claims(self, task: Dict[str, Any]) -> None:
        """Every claim the resident engine made, keyed by ``k``.

        A graph that is not resident has no in-memory history (a warm
        restart restores schedule positions, not snapshots), so it
        reports ``resident: false`` and no claims.
        """
        graph_id = task["graph"]
        engine = self.engines.get(graph_id)
        claims = {} if engine is None else engine.guarantee_claims()
        self.send(
            "claims",
            {
                "graph": graph_id,
                "resident": engine is not None,
                "claims": {str(k): history for k, history in claims.items()},
            },
        )

    def handle_checkpoint(self, task: Dict[str, Any]) -> None:
        count, failures = self.checkpoint_all()
        self.send(
            "checkpointed",
            {
                "count": count,
                "checkpoint_failures": failures,
                "resident": list(self.engines),
            },
        )

    def close(self) -> None:
        for engine in self.engines.values():
            engine.close()
        self.engines.clear()


def _cluster_worker(
    worker_id: int,
    tasks: Any,
    results: Any,
    mem_budget: Optional[int],
) -> None:
    """Worker-process entry point: serial task loop until drained.

    *tasks* and *results* are this worker's ends of its two pipes.
    """
    # A daemonic process may not fork, yet a graph with
    # sampler_workers > 1 runs a SamplingPool here.  The pool's
    # children cannot be orphaned: the supervisor made this process a
    # group leader and stops the group when it dies, and SIGTERM (what
    # multiprocessing sends a daemonic child when the front end's
    # interpreter exits) leaves through SystemExit, whose exit handling
    # terminates them.
    mp.current_process().daemon = False
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    task_fd, result_fd = tasks.fileno(), results.fileno()
    host = _WorkerHost(worker_id, result_fd, mem_budget)
    host.send("ready", {"worker_pid": os.getpid()})
    handlers: Dict[str, Callable[[Dict[str, Any]], None]] = {
        "register": host.handle_register,
        "job": host.handle_job,
        "evict": host.handle_evict,
        "claims": host.handle_claims,
        "checkpoint": host.handle_checkpoint,
    }
    while True:
        task = _recv(task_fd)
        if task is None:
            count, failures = host.checkpoint_all()
            host.close()
            host.send(
                "drained",
                {"checkpointed": count, "checkpoint_failures": failures},
            )
            break
        kind, payload = task
        try:
            handlers[kind](payload)
        except Exception as exc:  # noqa: BLE001 - keep the worker alive
            host.send(
                "worker_error",
                {
                    "task": kind,
                    "job_id": payload.get("job_id"),
                    "error": _error_text(exc),
                },
            )
        host.recorder.events.clear()


def _exit_on_sigterm(signum: int, frame: Any) -> None:
    sys.exit(128 + signum)


class _Link:
    """The front end's side of one worker: process, pipes, exit watch."""

    def __init__(
        self,
        process: Any,
        tasks: Any,
        results: Any,
        pidfd: Optional[int],
        pgid: Optional[int],
    ) -> None:
        self.process = process
        self.tasks = tasks  # write end of the task pipe
        self.results = results  # read end of the result pipe (non-blocking)
        self.result_fd: int = results.fileno()
        self.pidfd = pidfd
        # Readable once the worker has exited.
        self.exit_fd: int = process.sentinel if pidfd is None else pidfd
        self.pgid = pgid
        self.inbox = bytearray()
        # Frames sent before the task pipe's transport is connected.
        self.pending: List[bytes] = []
        self.transport: Optional[asyncio.WriteTransport] = None
        self.connecting: Optional["asyncio.Task[None]"] = None
        self.closed = False

    def stop_group(self) -> None:
        """SIGTERM the worker's process group: the worker, if alive,
        and the sampling-pool children it forked, which do not die with
        it and would keep its pipes open.  The group's resource tracker
        ignores SIGTERM; it outlives them and unlinks the shared memory
        they leaked."""
        if self.pgid is None:
            return
        try:
            os.killpg(self.pgid, signal.SIGTERM)
        except (ProcessLookupError, PermissionError):
            pass

    def close(self) -> None:
        self.closed = True
        self.pending.clear()
        if self.transport is not None:
            if not self.transport.is_closing():
                self.transport.abort()  # closes the pipe
        elif self.connecting is None or self.connecting.done():
            self.tasks.close()
        # Otherwise the pending connect closes the transport it gets.
        self.results.close()
        if self.pidfd is not None:
            os.close(self.pidfd)


class WorkerSupervisor:
    """Front-end-side owner of the worker processes.

    Spawns ``workers`` processes (fork start method when available, so
    registered graphs share pages until written) and routes tasks to
    them.  :meth:`attach` puts every worker's result pipe and sentinel
    on the front end's event loop: results go to ``on_message``, and a
    dead worker — the crash-detection half of the cluster contract —
    is respawned with its graph specs re-sent before ``on_respawn``
    lets the front end requeue its jobs (it knows which were in
    flight).  Past ``max_restarts``, ``on_fatal`` gets the error
    instead.
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
        self._links: List[Optional[_Link]] = [None] * self.workers
        self._registered: List[List[Dict[str, Any]]] = [
            [] for _ in range(self.workers)
        ]
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._on_message: Callable[[str, int, Dict[str, Any]], None] = (
            lambda kind, worker_id, payload: None
        )
        self._on_respawn: Callable[[int], None] = lambda worker_id: None
        self._on_fatal: Callable[[ClusterError], None] = lambda error: None
        self._draining = False
        self._exited: set = set()
        self._all_exited: Optional[asyncio.Event] = None
        self._closed = False
        try:
            for worker_id in range(self.workers):
                self._spawn(worker_id)
        except BaseException:
            self.close()
            raise

    def _spawn(self, worker_id: int) -> None:
        task_reader, task_writer = self._context.Pipe(duplex=False)
        result_reader, result_writer = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_cluster_worker,
            args=(worker_id, task_reader, result_writer, self.mem_budget),
            daemon=True,
            name=f"cluster-worker-{worker_id}",
        )
        try:
            process.start()
        finally:
            # The child holds its own copies; the parent keeping these
            # would leak them into later forks.
            task_reader.close()
            result_writer.close()
        # Before any task is sent, so before the worker can fork a
        # sampling pool: its pool children join its group.
        try:
            os.setpgid(process.pid, process.pid)
            pgid: Optional[int] = process.pid
        except OSError:
            pgid = None
        try:
            pidfd: Optional[int] = os.pidfd_open(process.pid)
        except (AttributeError, OSError):  # no pidfd: watch the sentinel
            pidfd = None
        os.set_blocking(result_reader.fileno(), False)
        link = _Link(process, task_writer, result_reader, pidfd, pgid)
        self._links[worker_id] = link
        if self._loop is not None:
            self._watch(worker_id, link)

    # -- event-loop wiring ----------------------------------------------
    def attach(
        self,
        loop: asyncio.AbstractEventLoop,
        on_message: Callable[[str, int, Dict[str, Any]], None],
        on_respawn: Callable[[int], None],
        on_fatal: Callable[[ClusterError], None],
    ) -> None:
        """Serve every worker's pipes and exit from *loop*."""
        self._loop = loop
        self._on_message = on_message
        self._on_respawn = on_respawn
        self._on_fatal = on_fatal
        for worker_id, link in enumerate(self._links):
            if link is not None:
                self._watch(worker_id, link)

    def _watch(self, worker_id: int, link: _Link) -> None:
        assert self._loop is not None
        self._loop.add_reader(link.result_fd, self._on_readable, worker_id)
        self._loop.add_reader(link.exit_fd, self._on_exit, worker_id)
        link.connecting = self._loop.create_task(self._connect(link))

    async def _connect(self, link: _Link) -> None:
        """Put the task pipe on a write transport; send what waited."""
        assert self._loop is not None
        transport, _ = await self._loop.connect_write_pipe(
            asyncio.Protocol, link.tasks
        )
        if link.closed:
            transport.abort()
            return
        link.transport = transport
        for data in link.pending:
            transport.write(data)
        link.pending.clear()

    def _unwatch(self, link: _Link) -> None:
        if self._loop is None:
            return
        self._loop.remove_reader(link.result_fd)
        self._loop.remove_reader(link.exit_fd)

    def _read(self, link: _Link) -> bool:
        """Read one chunk and dispatch its messages; False at EOF or
        when the pipe is empty."""
        try:
            chunk = os.read(link.result_fd, READ_CHUNK)
        except BlockingIOError:
            return False
        except OSError:
            chunk = b""
        if not chunk:
            # EOF: stop reading; the exit watch drives the respawn.
            if self._loop is not None:
                self._loop.remove_reader(link.result_fd)
            return False
        link.inbox += chunk
        for kind, sender, payload in unframe(link.inbox):
            if kind == "drained":
                self.obs.count(
                    "cluster.checkpoints", int(payload.get("checkpointed", 0))
                )
            self._on_message(kind, sender, payload)
        return True

    def _on_readable(self, worker_id: int) -> None:
        link = self._links[worker_id]
        if link is not None:
            self._read(link)

    def _on_exit(self, worker_id: int) -> None:
        """The worker exited: deliver, kill its pool, reap, respawn."""
        link = self._links[worker_id]
        if link is None:
            return
        # Whatever the worker wrote before dying is still in the pipe:
        # deliver it first, so a finished job is not requeued.
        while self._read(link):
            pass
        self._unwatch(link)
        link.stop_group()
        link.process.join(JOIN_TIMEOUT)
        link.close()
        self._links[worker_id] = None
        if self._draining or self._closed:
            self._note_exit(worker_id)
            return
        self.restarts += 1
        if self.restarts > self.max_restarts:
            self._note_exit(worker_id)
            self._on_fatal(
                ClusterError(
                    f"cluster worker {worker_id} died (exitcode "
                    f"{link.process.exitcode}) and the restart budget "
                    f"({self.max_restarts}) is exhausted"
                )
            )
            return
        self._spawn(worker_id)
        for payload in self._registered[worker_id]:
            self.send(worker_id, "register", payload)
        self.obs.count("cluster.worker_restarts")
        self._on_respawn(worker_id)

    def _note_exit(self, worker_id: int) -> None:
        self._exited.add(worker_id)
        if self._all_exited is not None and len(self._exited) == self.workers:
            self._all_exited.set()

    # -- messaging ------------------------------------------------------
    def send(self, worker_id: int, kind: Optional[str], payload: Any = None) -> None:
        """Queue one task for *worker_id* without blocking.

        ``kind=None`` sends the drain marker.  A worker that is gone
        drops the task; its respawn requeues what matters.
        """
        if self._closed:
            raise StateError("WorkerSupervisor is closed")
        link = self._links[worker_id]
        if link is None:
            return
        data = frame(None if kind is None else (kind, payload))
        if link.transport is None:
            link.pending.append(data)
        elif not link.transport.is_closing():
            link.transport.write(data)

    def register(self, spec: GraphSpec) -> None:
        """Ship a graph spec to its shard's worker (re-sent on respawn)."""
        payload = _spec_payload(spec)
        self._registered[spec.shard].append(payload)
        self.send(spec.shard, "register", payload)

    def alive(self) -> List[bool]:
        return [
            link is not None and link.process.is_alive()
            for link in self._links
        ]

    # -- shutdown -------------------------------------------------------
    async def drain(self, timeout: float = 30.0) -> None:
        """Graceful shutdown on the attached loop: every worker
        checkpoints its resident sketches and exits (its "drained"
        acknowledgement reaches ``on_message``).  Returns when every
        worker has exited or *timeout* passes."""
        if self._closed or self._loop is None:
            return
        self._draining = True
        self._all_exited = asyncio.Event()
        for worker_id, link in enumerate(self._links):
            if link is None:
                self._note_exit(worker_id)
            else:
                self.send(worker_id, None)
        try:
            await asyncio.wait_for(self._all_exited.wait(), timeout)
        except asyncio.TimeoutError:
            pass

    def close(self) -> None:
        """Hard stop: kill anything still alive, release pipes."""
        if self._closed:
            return
        self._closed = True
        links = [link for link in self._links if link is not None]
        for link in links:
            self._unwatch(link)
            link.stop_group()
            if link.process.is_alive():
                link.process.kill()
        for link in links:
            link.process.join(timeout=5.0)
            link.close()
        self._links = [None] * self.workers

    def __enter__(self) -> "WorkerSupervisor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
