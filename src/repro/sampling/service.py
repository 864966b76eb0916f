"""Persistent shared-memory parallel RR-set sampling service.

:class:`SamplingPool` runs the one RR stream of the program, that of
:class:`~repro.sampling.kernel.RRSampler`, at any worker count: a fill
splits into the kernel's capped batches, indexed across fills, and
batch ``b`` draws from ``SeedSequence(seed, spawn_key=(b,))``
(RNG-contract item 1 in :mod:`repro.sampling.kernel`).

Each process holds **one** :class:`~repro.sampling.kernel.RRSampler`
per pool, so the IC skip tables and LT alias tables are built once.
With ``workers=1`` the pool is a thin wrapper over that sampler in the
caller's process, which appends straight into the caller's
collection; no shared memory and no worker process exist.  With
``workers > 1``:

* the graph's six CSR arrays are copied **once** into
  ``multiprocessing.shared_memory`` segments; workers map them
  zero-copy and rebuild a :class:`~repro.graph.digraph.DiGraph` view
  without re-validating or re-sorting edges;
* a long-lived set of worker processes stays alive across all OPIM-C
  doubling iterations and OnlineOPIM pause/resume steps;
* a fill is dispatched as *chunks*, runs of whole batches, which idle
  workers pull as they finish; a worker's sampler fills its chunk from
  the chunk's first batch index, which splits it into exactly those
  batches, and the results are appended in batch order;
* each worker writes its results to its own pipe, synchronously (no
  feeder thread, no lock shared between workers); the parent waits on
  every result pipe and every worker's ``Process.sentinel`` at once;
* a worker that dies, or whose pipe ends or tears, is respawned and
  only its outstanding chunk is re-issued; its batches keep their
  indices, hence their seeds.

Determinism contract
--------------------
The stream depends only on the pool seed and the *sequence of
``fill`` quotas*.  How batches are grouped into chunks, the worker
count and scheduling are not part of it, so for a fixed seed the
stream is bitwise identical to an ``RRSampler``'s with the same seed
and quotas, for ``workers`` 1, 2, 4, ..., and under worker crashes.
A stream saved by :meth:`SamplingPool.state` continues at any worker
count.

The pool implements the sampler duck type used by the core algorithms
(``fill`` / ``new_collection`` / ``sets_generated`` /
``edges_examined`` / ``universe_weight``), so it can be injected
anywhere an :class:`~repro.sampling.kernel.RRSampler` is accepted.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import signal
import struct
import time
import traceback
from collections import deque
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.exceptions import ParameterError, ServiceError
from repro.graph.digraph import DiGraph
from repro.obs import resolve_registry
from repro.sampling.collection import RRCollection
from repro.sampling.kernel import (
    RRSampler,
    batch_cap,
    batch_schedule,
    resolve_seed,
)
from repro.utils.rng import SeedLike

__all__ = ["SamplingPool"]

#: CSR arrays shared with workers (the complete DiGraph payload).
_GRAPH_ARRAYS = (
    "out_offsets",
    "out_targets",
    "out_probs",
    "in_offsets",
    "in_sources",
    "in_probs",
)

#: Chunks a fill is split into per worker, when it has enough batches:
#: a few per worker let a fast worker take over a slow one's share.
CHUNKS_PER_WORKER = 4

#: A run of stream batches: ``(batch_index, size)`` pairs.
Batches = Sequence[Tuple[int, int]]

#: Seconds a dead or closing worker gets to exit before it is killed.
JOIN_TIMEOUT = 2.0


class _Worker(NamedTuple):
    """A worker process and the parent's ends of its two pipes
    (``multiprocessing.connection.Connection``s)."""

    process: Any
    tasks: Any
    results: Any


def _stop(worker: _Worker) -> None:
    """Reap *worker* (killed if it outlives :data:`JOIN_TIMEOUT`) and
    close the parent's pipe ends."""
    worker.process.join(timeout=JOIN_TIMEOUT)
    if worker.process.is_alive():
        worker.process.kill()
        worker.process.join()
    worker.tasks.close()
    worker.results.close()


@dataclass
class _Position:
    """The stream position and counters of a pool with workers; with
    ``workers=1`` its in-process :class:`RRSampler` keeps them."""

    seed: int
    next_batch: int = 0
    sets_generated: int = 0
    edges_examined: int = 0
    nodes_touched: int = 0


# ----------------------------------------------------------------------
# Dispatch chunks
# ----------------------------------------------------------------------
def _chunks(batches: Batches, workers: int) -> List[Batches]:
    """Group a fill's batches into dispatch chunks of whole batches."""
    per_chunk = -(-len(batches) // (CHUNKS_PER_WORKER * workers))
    return [
        batches[start : start + per_chunk]
        for start in range(0, len(batches), per_chunk)
    ]


def _require_pool_state(state: Dict[str, Any]) -> None:
    if state.get("kind") != "pool":
        raise ParameterError(
            f"sampler state of kind {state.get('kind')!r} cannot resume a "
            "SamplingPool stream"
        )


# ----------------------------------------------------------------------
# Shared-memory graph transport
# ----------------------------------------------------------------------
def _share_graph(
    graph: DiGraph,
) -> Tuple[Dict[str, Any], List[shared_memory.SharedMemory], int]:
    """Copy the graph's CSR arrays into shared memory once.

    Returns ``(spec, segments, total_bytes)``; *spec* is a picklable
    recipe workers use to map the arrays zero-copy.
    """
    segments: List[shared_memory.SharedMemory] = []
    fields = []
    total = 0
    try:
        for attr in _GRAPH_ARRAYS:
            array = np.ascontiguousarray(getattr(graph, attr))
            segment = shared_memory.SharedMemory(
                create=True, size=max(1, array.nbytes)
            )
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
            view[...] = array
            segments.append(segment)
            total += array.nbytes
            fields.append((attr, segment.name, array.dtype.str, array.shape))
    except BaseException:
        for segment in segments:
            segment.close()
            segment.unlink()
        raise
    spec = {"n": graph.n, "name": graph.name, "fields": fields}
    return spec, segments, total


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker ownership."""
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no ``track`` parameter
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


def _attach_graph(
    spec: Dict[str, Any],
) -> Tuple[DiGraph, List[shared_memory.SharedMemory]]:
    """Rebuild a zero-copy DiGraph view over the parent's segments.

    Bypasses ``DiGraph.__init__`` (the arrays are already validated and
    CSR-sorted) and attaches each segment *untracked*: the parent is
    the segments' sole owner, and letting every worker register the
    same names with the shared ``resource_tracker`` would make worker
    exits warn about (or double-unlink) segments the parent still
    uses.  Python 3.13 exposes ``track=False`` for exactly this; on
    older versions registration is suppressed during the attach.
    """
    graph = object.__new__(DiGraph)
    graph.n = int(spec["n"])
    graph.name = str(spec["name"])
    graph.undirected_origin = False
    graph._in_prob_sums = None
    segments = []
    for attr, shm_name, dtype, shape in spec["fields"]:
        segment = _attach_untracked(shm_name)
        segments.append(segment)
        setattr(
            graph,
            attr,
            np.ndarray(tuple(shape), dtype=np.dtype(dtype), buffer=segment.buf),
        )
    return graph, segments


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _service_worker(
    worker_id: int,
    spec: Dict[str, Any],
    model: str,
    seed: int,
    tasks: Any,
    results: Any,
) -> None:
    """Long-lived worker loop: attach the shm graph, then serve chunks.

    Tasks are ``(batches, crash, trace_id)`` tuples read from *tasks*;
    ``None`` (or the parent's end closing) shuts the worker down.  Each
    result is written to *results*, this worker's own pipe, with a
    blocking write.  A task with ``crash=True`` hard-exits the process
    partway through writing its result (fault injection for the
    crash-recovery tests).  Generation errors are reported back, not
    raised, so a bad chunk does not silently hang the parent.

    Workers have no registry of their own: when a task carries a
    ``trace_id`` (a request trace is active in the parent), the worker
    buffers one span event per chunk — phase, elapsed, its pid, the
    first batch index and the batch count — and ships it back with the
    chunk result.  The parent records the buffered spans into its own
    sink, which is what stitches worker-side work into the request's
    trace tree.
    """
    # A parent's SIGTERM handler is inherited through fork; a pool
    # worker holds nothing worth a clean exit, so SIGTERM ends it.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    graph, segments = _attach_graph(spec)
    try:
        sampler = RRSampler(graph, model, seed=seed)
        while True:
            try:
                task = tasks.recv()
            except EOFError:
                break
            if task is None:
                break
            batches, crash, trace_id = task
            index = batches[0][0]
            count = sum(size for _, size in batches)
            started = time.perf_counter()
            edges, nodes = sampler.edges_examined, sampler.nodes_touched
            try:
                collection = RRCollection(graph.n)
                sampler.next_batch = index
                sampler.fill(collection, count)
                flat, offsets = collection.flat()
            except Exception:
                results.send(("err", worker_id, index, traceback.format_exc()))
                continue
            elapsed = time.perf_counter() - started
            spans = []
            if trace_id is not None:
                spans.append(
                    _chunk_span(
                        elapsed, index, len(batches), count, trace_id=trace_id
                    )
                )
            message = (
                "ok",
                worker_id,
                index,
                flat,
                offsets,
                sampler.edges_examined - edges,
                sampler.nodes_touched - nodes,
                elapsed,
                spans,
            )
            if crash:
                _exit_mid_send(results, message)
            results.send(message)
    finally:
        for segment in segments:
            segment.close()


def _exit_mid_send(connection: Any, message: Any) -> None:
    """Write the first half of *message*'s frame (``Connection.send``'s
    length header, then the pickle) and hard-exit, leaving a torn
    result on the pipe."""
    body = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    frame = struct.pack("!i", len(body)) + body
    os.write(connection.fileno(), frame[: len(frame) // 2])
    os._exit(17)


def _chunk_span(
    elapsed: float, index: int, batches: int, count: int, **fields: Any
) -> Dict[str, Any]:
    """The ``service/chunk`` span event of a chunk of *batches* batches
    from batch *index* on."""
    return {
        "phase": "service/chunk",
        "elapsed": elapsed,
        **fields,
        "worker_pid": os.getpid(),
        "batch_index": index,
        "batches": batches,
        "rr_sets": count,
        "counters": {"sampling.rr_sets": count},
    }


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class SamplingPool:
    """Persistent zero-copy RR-set sampler (see module docs).

    Parameters
    ----------
    graph:
        Weighted :class:`DiGraph`.
    model:
        ``"IC"`` or ``"LT"``.
    workers:
        Worker processes; ``1`` samples in the caller's process, with
        no shared memory.  The stream is the same at every count.
    seed:
        Root seed, normalized by
        :func:`~repro.sampling.kernel.resolve_seed` exactly as an
        ``RRSampler``'s; stream batch ``b`` draws from
        ``SeedSequence(seed, spawn_key=(b,))``.
    registry:
        Optional :class:`~repro.obs.MetricsRegistry`; the pool
        maintains ``service.chunks`` / ``service.worker_restarts``
        counters, the ``service.shm_bytes`` gauge, and the
        ``service.chunk_seconds`` latency distribution, plus the
        standard ``sampling.*`` counters.  With ``workers=1`` the
        in-process sampler reports the ``sampling.*`` and ``kernel.*``
        counters and the LT table build itself.
    inject_crash_chunks:
        Fault-injection hook for tests: global batch indices whose
        chunk's first dispatch hard-kills the executing worker partway
        through writing the chunk's result.  The pool respawns the
        worker and re-issues the chunk (crash-once semantics),
        exercising the recovery path deterministically.
        Only workers crash, so it has no effect with ``workers=1``.
    max_restarts:
        Abort with :class:`ServiceError` after this many worker
        respawns (guards against a deterministically crashing chunk).

    Examples
    --------
    >>> from repro.graph import power_law_graph, assign_wc_weights
    >>> g = assign_wc_weights(power_law_graph(120, 5, seed=7))
    >>> with SamplingPool(g, "IC", workers=1, seed=3) as pool:
    ...     rr = pool.new_collection(100)
    >>> len(rr)
    100
    """

    #: The kernel every batch runs; recorded in :meth:`state`.
    kernel = "vectorized"

    def __init__(
        self,
        graph: DiGraph,
        model: str,
        workers: int = 2,
        seed: SeedLike = None,
        registry: Optional[object] = None,
        inject_crash_chunks: Optional[Set[int]] = None,
        max_restarts: int = 8,
    ) -> None:
        model = model.upper()
        if model not in ("IC", "LT"):
            raise ParameterError(f"model must be 'IC' or 'LT', got {model!r}")
        if workers < 1:
            raise ParameterError(f"workers must be >= 1, got {workers}")
        if not graph.weighted:
            raise ParameterError(
                "graph has no edge probabilities; apply a weighting scheme first"
            )
        if max_restarts < 0:
            raise ParameterError(
                f"max_restarts must be non-negative, got {max_restarts}"
            )
        self.graph = graph
        self.model = model
        self.workers = int(workers)
        self.max_restarts = int(max_restarts)
        self.obs = resolve_registry(registry)
        self._crash_batches = set(inject_crash_chunks or ())
        self.seed = resolve_seed(seed)
        self.universe_weight = float(graph.n)
        #: Cumulative wall-clock seconds spent inside :meth:`fill` —
        #: the serve engine reads deltas of this to attribute request
        #: time to sampling vs. selection.
        self.fill_seconds = 0.0
        #: Worker respawns performed so far (crash recoveries).
        self.restarts = 0
        self._closed = False
        self._segments: List[shared_memory.SharedMemory] = []
        self._workers: List[_Worker] = []
        self._context: Optional[Any] = None

        self._stream: Union[RRSampler, _Position]
        if self.workers == 1:
            self._stream = RRSampler(graph, model, seed=self.seed, registry=self.obs)
            return
        self._stream = _Position(self.seed)
        self._spec, self._segments, shm_bytes = _share_graph(graph)
        self.obs.set_gauge("service.shm_bytes", shm_bytes)
        try:
            methods = mp.get_all_start_methods()
            self._context = mp.get_context("fork" if "fork" in methods else None)
            for worker_id in range(self.workers):
                self._workers.append(self._start_worker(worker_id))
        except BaseException:
            self.close()
            raise

    # -- sampler duck-type accounting ------------------------------------
    @property
    def sets_generated(self) -> int:
        return self._stream.sets_generated

    @property
    def edges_examined(self) -> int:
        return self._stream.edges_examined

    @property
    def nodes_touched(self) -> int:
        return self._stream.nodes_touched

    # -- lifecycle ------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def segment_names(self) -> List[str]:
        """Names of the shared-memory segments (leak-test oracle);
        empty with ``workers=1``."""
        return [segment.name for segment in self._segments]

    def _start_worker(self, worker_id: int) -> _Worker:
        """Fork worker *worker_id* with its own task and result pipes."""
        assert self._context is not None
        task_reader, task_writer = self._context.Pipe(duplex=False)
        result_reader, result_writer = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_service_worker,
            args=(
                worker_id,
                self._spec,
                self.model,
                self.seed,
                task_reader,
                result_writer,
            ),
            daemon=True,
            name=f"sampling-pool-{worker_id}",
        )
        try:
            process.start()
        finally:
            # The child holds its own copies; a parent copy of the
            # result writer would keep a dead worker's pipe from ending.
            task_reader.close()
            result_writer.close()
        return _Worker(process, task_writer, result_reader)

    def close(self) -> None:
        """Shut workers down and unlink every shared-memory segment.

        Idempotent; also invoked by ``__exit__`` (including on
        exceptions) and as a last resort by ``__del__``.
        """
        if self._closed:
            return
        self._closed = True
        for worker in self._workers:
            try:
                worker.tasks.send(None)
            except OSError:  # pragma: no cover - the worker is gone
                pass
        for worker in self._workers:
            _stop(worker)
        for segment in self._segments:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []
        self._workers = []

    def __enter__(self) -> "SamplingPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

    # -- sampling -------------------------------------------------------
    def fill(self, collection: RRCollection, count: int) -> None:
        """Append *count* fresh RR sets to *collection* (batch order)."""
        if self._closed:
            raise ServiceError("SamplingPool is closed")
        if count < 0:
            raise ParameterError(f"count must be non-negative, got {count}")
        if collection.n != self.graph.n:
            raise ParameterError(
                "collection node universe does not match the pool's graph"
            )
        if count == 0:
            return
        fill = self._fill_parallel if self._workers else self._fill_here
        fill_started = time.perf_counter()
        with self.obs.trace("service/fill"):
            chunks = fill(collection, count)
        self.fill_seconds += time.perf_counter() - fill_started
        self.obs.count("service.chunks", chunks)

    def new_collection(self, count: int = 0) -> RRCollection:
        """Create a collection over the pool's graph, optionally filled."""
        collection = RRCollection(self.graph.n)
        if count:
            self.fill(collection, count)
        return collection

    # -- resumable stream state ----------------------------------------
    def state(self) -> Dict[str, Any]:
        """Snapshot of the deterministic stream position.

        Because batch seeds are a pure function of ``(seed, index)``
        and batch sizes of the fill quotas, the pool's entire sampling
        state is its root seed and the next global batch index.
        Persisting this dict (see :mod:`repro.serve.index`) and
        restoring it into a pool with the same seed, at any worker
        count, continues the exact RR-set stream the original process
        would have produced.
        """
        stream = self._stream
        return {
            "kind": "pool",
            "seed": self.seed,
            "kernel": self.kernel,
            "next_batch": stream.next_batch,
            "sets_generated": stream.sets_generated,
            "edges_examined": stream.edges_examined,
            "nodes_touched": stream.nodes_touched,
        }

    @classmethod
    def from_state(
        cls,
        graph: DiGraph,
        model: str,
        state: Dict[str, Any],
        *,
        workers: int = 2,
        registry: Optional[object] = None,
        **kwargs: Any,
    ) -> "SamplingPool":
        """Build a pool resuming the stream captured by :meth:`state`.

        The handoff path for a respawned cluster worker: the dict
        persisted in the sketch index carries the root seed, so the
        new pool — at any worker count — continues the exact RR-set
        stream the crashed process would have produced.
        """
        _require_pool_state(state)
        pool = cls(
            graph,
            model,
            workers=workers,
            seed=int(state["seed"]),
            registry=registry,
            **kwargs,
        )
        try:
            pool.restore_state(state)
        except BaseException:
            pool.close()
            raise
        return pool

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Resume the deterministic stream from a :meth:`state` dict.

        The pool must have been constructed with the seed the state
        was captured under, which is part of the determinism contract,
        so a mismatch is an error rather than a silent stream change.
        """
        _require_pool_state(state)
        if int(state["seed"]) != self.seed:
            raise ParameterError(
                f"cannot restore sampling state: seed was {state['seed']} "
                f"at capture but the pool has {self.seed}"
            )
        stream = self._stream
        if stream.next_batch != 0 or stream.sets_generated != 0:
            raise ParameterError(
                "cannot restore sampling state into a pool that has "
                "already generated RR sets"
            )
        stream.next_batch = int(state["next_batch"])
        stream.sets_generated = int(state["sets_generated"])
        stream.edges_examined = int(state["edges_examined"])
        stream.nodes_touched = int(state["nodes_touched"])

    # -- execution backends --------------------------------------------
    def _fill_here(self, collection: RRCollection, count: int) -> int:
        """``workers=1``: the in-process sampler fills *collection*."""
        sampler = self._stream
        assert isinstance(sampler, RRSampler)
        index = sampler.next_batch
        started = time.perf_counter()
        sampler.fill(collection, count)
        elapsed = time.perf_counter() - started
        self._observe_chunk(elapsed)
        if self.obs.current_trace() is not None:
            batches = sampler.next_batch - index
            self.obs.record("span", **_chunk_span(elapsed, index, batches, count))
        return 1

    def _fill_parallel(self, collection: RRCollection, count: int) -> int:
        """Adaptive dispatch: idle workers pull chunks; crashes recover.
        Results are appended in batch order; returns the chunk count."""
        # Imported here, so that an in-process pool never loads it.
        from multiprocessing.connection import wait

        stream = self._stream
        batches = batch_schedule(count, stream.next_batch, batch_cap(self.graph.n))
        chunks = _chunks(batches, self.workers)
        pending = deque(chunks)
        outstanding: Dict[int, Batches] = {}
        idle = deque(range(self.workers))
        results: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        edges = nodes = 0
        while len(results) < len(chunks):
            while pending and idle:
                worker_id = idle.popleft()
                self._dispatch(worker_id, pending.popleft(), outstanding)
            owners: Dict[Any, int] = {}
            for worker_id, worker in enumerate(self._workers):
                owners[worker.results] = worker_id
                owners[worker.process.sentinel] = worker_id
            for ready in wait(list(owners)):
                worker_id = owners[ready]
                worker = self._workers[worker_id]
                if ready is not worker.results:
                    # A sentinel, or the pipe of a worker respawned in
                    # this round: only a dead current worker matters.
                    if not worker.process.is_alive():
                        self._respawn(worker_id, outstanding, idle)
                    continue
                try:
                    message = worker.results.recv()
                except (EOFError, OSError):  # ended or torn: it died
                    self._respawn(worker_id, outstanding, idle)
                    continue
                if message[0] == "err":
                    _, worker_id, index, text = message
                    raise ServiceError(
                        f"worker {worker_id} failed on the chunk at batch "
                        f"{index}:\n{text}"
                    )
                (
                    _,
                    worker_id,
                    index,
                    flat,
                    offsets,
                    chunk_edges,
                    chunk_nodes,
                    elapsed,
                    spans,
                ) = message
                results[index] = (flat, offsets)
                edges += chunk_edges
                nodes += chunk_nodes
                outstanding.pop(worker_id, None)
                idle.append(worker_id)
                self._observe_chunk(elapsed)
                for event in spans:
                    # Worker-buffered span events, replayed into our
                    # sink so the request's trace tree includes
                    # cross-process work.
                    self.obs.record("span", **event)
        for chunk in chunks:
            collection.append_flat(*results[chunk[0][0]])
        stream.next_batch += len(batches)
        stream.sets_generated += count
        stream.edges_examined += edges
        stream.nodes_touched += nodes
        obs = self.obs
        obs.count("sampling.rr_sets", count)
        obs.count("sampling.edges", edges)
        obs.count("sampling.nodes", nodes)
        return len(chunks)

    def _observe_chunk(self, elapsed: float) -> None:
        self.obs.observe("service.chunk_seconds", elapsed)
        self.obs.histogram("service.chunk_seconds").observe(elapsed)

    def _dispatch(
        self,
        worker_id: int,
        chunk: Batches,
        outstanding: Dict[int, Batches],
    ) -> None:
        indices = {index for index, _ in chunk}
        crash = not indices.isdisjoint(self._crash_batches)
        # Crash-once semantics: the recovery re-issue runs clean.
        self._crash_batches -= indices
        outstanding[worker_id] = chunk
        try:
            self._workers[worker_id].tasks.send(
                (chunk, crash, self.obs.current_trace())
            )
        except OSError:  # it died idle; its sentinel triggers the respawn
            pass

    def _respawn(
        self,
        worker_id: int,
        outstanding: Dict[int, Batches],
        idle: "deque[int]",
    ) -> None:
        """Replace a dead worker and re-issue its outstanding chunk.

        A re-issued chunk keeps its batches, whose seeds are a pure
        function of their indices, so recovery cannot change the
        output stream.
        """
        worker = self._workers[worker_id]
        _stop(worker)
        self.restarts += 1
        self.obs.count("service.worker_restarts")
        if self.restarts > self.max_restarts:
            raise ServiceError(
                f"worker {worker_id} died (exit code "
                f"{worker.process.exitcode}); restart budget of "
                f"{self.max_restarts} exhausted"
            )
        self._workers[worker_id] = self._start_worker(worker_id)
        chunk = outstanding.pop(worker_id, None)
        if chunk is not None:
            self._dispatch(worker_id, chunk, outstanding)
        elif worker_id not in idle:  # pragma: no cover - idle death
            idle.append(worker_id)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"SamplingPool(graph={self.graph.name!r}, model={self.model!r}, "
            f"workers={self.workers}, seed={self.seed}, {state})"
        )
