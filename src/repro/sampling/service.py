"""Persistent shared-memory parallel RR-set sampling service.

:class:`SamplingPool` is the one RR stream of the serve engine at
every worker count.  It draws the stream in the kernel's batches, and
the batch is also the unit of its randomness:

* a ``fill`` of *count* sets splits into batches exactly as
  :meth:`~repro.sampling.kernel.RRSampler.fill` splits it (consecutive
  batches of ``min(batch_cap(n), remaining)`` sets, RNG-contract item
  1 in :mod:`repro.sampling.kernel`), indexed globally across fills;
* batch ``b`` draws from
  ``np.random.default_rng(SeedSequence(seed, spawn_key=(b,)))``, so
  every batch is an independent, reproducible draw addressable by its
  index alone.

Each process holds **one** :class:`~repro.sampling.kernel.RRSampler`
per pool, reseeded per batch, so the IC skip tables and LT alias
tables are built once.  With ``workers=1`` that sampler runs in the
caller's process and appends straight into the caller's collection;
no shared memory and no worker process exist.  With ``workers > 1``:

* the graph's six CSR arrays are copied **once** into
  ``multiprocessing.shared_memory`` segments; workers map them
  zero-copy and rebuild a :class:`~repro.graph.digraph.DiGraph` view
  without re-validating or re-sorting edges;
* a long-lived set of worker processes stays alive across all OPIM-C
  doubling iterations and OnlineOPIM pause/resume steps;
* a fill is dispatched as *chunks*, runs of whole batches, which idle
  workers pull as they finish; the results are appended in batch
  order;
* a crashed worker is respawned and only its outstanding chunk is
  re-issued; its batches keep their indices, hence their seeds.

Determinism contract
--------------------
The stream depends only on the pool seed and the *sequence of
``fill`` quotas*: batch sizes follow from the quotas and ``n``, batch
seeds from the seed and the batch index.  How batches are grouped into
chunks, the worker count and scheduling are not part of it, so for a
fixed seed the stream is bitwise identical for ``workers`` 1, 2, 4,
..., identical under worker crashes, and identical to filling batch
``b`` with a fresh ``RRSampler`` seeded by ``SeedSequence(seed,
spawn_key=(b,))``.  A stream saved by :meth:`SamplingPool.state`
continues at any worker count.

The pool implements the sampler duck type used by the core algorithms
(``fill`` / ``new_collection`` / ``sets_generated`` /
``edges_examined`` / ``universe_weight``), so it can be injected
anywhere an :class:`~repro.sampling.kernel.RRSampler` is accepted.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue
import signal
import time
import traceback
from collections import deque
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.exceptions import ParameterError, ServiceError
from repro.graph.digraph import DiGraph
from repro.obs import resolve_registry
from repro.sampling.collection import RRCollection
from repro.sampling.kernel import RRSampler, batch_cap
from repro.utils.rng import SeedLike, fresh_entropy

__all__ = [
    "SamplingPool",
    "batch_rng",
    "batch_schedule",
]

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


# ----------------------------------------------------------------------
# The stream (pure functions — the determinism contract lives here)
# ----------------------------------------------------------------------
def batch_schedule(
    count: int, start_index: int, cap: int
) -> List[Tuple[int, int]]:
    """Split a fill of *count* RR sets into ``(batch_index, size)`` pairs.

    Consecutive batches of ``min(cap, remaining)`` sets, the split of
    :meth:`~repro.sampling.kernel.RRSampler.fill`; indices continue
    from *start_index*.  It depends on nothing else, in particular not
    on the worker count.
    """
    if count < 0:
        raise ParameterError(f"count must be non-negative, got {count}")
    if cap < 1:
        raise ParameterError(f"cap must be >= 1, got {cap}")
    full, rest = divmod(count, cap)
    sizes = [cap] * full + ([rest] if rest else [])
    return [(start_index + i, size) for i, size in enumerate(sizes)]


def batch_rng(root_seed: int, batch_index: int) -> np.random.Generator:
    """The generator stream batch *batch_index* draws from:
    ``default_rng(SeedSequence(root_seed, spawn_key=(batch_index,)))``."""
    return np.random.default_rng(
        np.random.SeedSequence(root_seed, spawn_key=(batch_index,))
    )


def _sample_batches(
    sampler: RRSampler,
    root_seed: int,
    batches: Batches,
    collection: RRCollection,
) -> None:
    """Append *batches* to *collection*, each drawn by *sampler*
    reseeded to that batch's own stream (one kernel call per batch)."""
    for index, size in batches:
        sampler.rng = batch_rng(root_seed, index)
        sampler.fill(collection, size)


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
    root_seed: int,
    task_queue: Any,
    result_queue: Any,
) -> None:
    """Long-lived worker loop: attach the shm graph, then serve chunks.

    Tasks are ``(batches, crash, trace_id)`` tuples; ``None`` is the
    shutdown sentinel.  A task with ``crash=True`` hard-exits the
    process (fault injection for the crash-recovery tests).
    Generation errors are reported back, not raised, so a bad chunk
    does not silently hang the parent.

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
        sampler = RRSampler(graph, model, seed=root_seed)
        while True:
            task = task_queue.get()
            if task is None:
                break
            batches, crash, trace_id = task
            if crash:
                os._exit(17)
            index = batches[0][0]
            count = sum(size for _, size in batches)
            started = time.perf_counter()
            edges, nodes = sampler.edges_examined, sampler.nodes_touched
            try:
                collection = RRCollection(graph.n)
                _sample_batches(sampler, root_seed, batches, collection)
                flat, offsets = collection.flat()
            except BaseException:
                result_queue.put(
                    ("err", worker_id, index, traceback.format_exc())
                )
                continue
            elapsed = time.perf_counter() - started
            spans = []
            if trace_id is not None:
                spans.append(
                    _chunk_span(elapsed, batches, count, trace_id=trace_id)
                )
            result_queue.put(
                (
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
            )
    finally:
        for segment in segments:
            segment.close()


def _chunk_span(
    elapsed: float, batches: Batches, count: int, **fields: Any
) -> Dict[str, Any]:
    """The ``service/chunk`` span event of one chunk."""
    return {
        "phase": "service/chunk",
        "elapsed": elapsed,
        **fields,
        "worker_pid": os.getpid(),
        "batch_index": batches[0][0],
        "batches": len(batches),
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
        Root seed; stream batch ``b`` draws from
        ``SeedSequence(seed, spawn_key=(b,))``.  ``None`` draws one
        replayable entropy value (recorded in
        :func:`repro.utils.rng.auto_entropy_log`).
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
        chunk's first dispatch hard-kills the executing worker.  The
        pool respawns the worker and re-issues the chunk (crash-once
        semantics), exercising the recovery path deterministically.
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

        if isinstance(seed, np.random.SeedSequence):
            entropy = seed.entropy
            if isinstance(entropy, (tuple, list)):  # pragma: no cover
                entropy = entropy[0]
            self.seed = int(entropy)
        elif isinstance(seed, np.random.Generator):
            self.seed = int(seed.integers(0, 2**63 - 1))
        elif seed is None:
            self.seed = fresh_entropy("SamplingPool")
        else:
            self.seed = int(seed)

        # Sampler duck-type accounting.
        self.universe_weight = float(graph.n)
        self.sets_generated = 0
        self.edges_examined = 0
        self.nodes_touched = 0
        #: Cumulative wall-clock seconds spent inside :meth:`fill` —
        #: the serve engine reads deltas of this to attribute request
        #: time to sampling vs. selection.
        self.fill_seconds = 0.0
        #: Worker respawns performed so far (crash recoveries).
        self.restarts = 0
        self._batch_cap = batch_cap(graph.n)
        self._next_batch = 0
        self._closed = False

        # workers == 1: the in-process sampler; otherwise the workers.
        self._sampler: Optional[RRSampler] = None
        self._segments: List[shared_memory.SharedMemory] = []
        self._procs: List[Optional[mp.process.BaseProcess]] = []
        self._task_queues: List[Any] = []
        self._result_queue: Optional[Any] = None
        self._context: Optional[Any] = None

        if self.workers == 1:
            self._sampler = RRSampler(
                graph, model, seed=self.seed, registry=self.obs
            )
            return
        self._spec, self._segments, shm_bytes = _share_graph(graph)
        self.obs.set_gauge("service.shm_bytes", shm_bytes)
        try:
            methods = mp.get_all_start_methods()
            self._context = mp.get_context("fork" if "fork" in methods else None)
            self._result_queue = self._context.Queue()
            for worker_id in range(self.workers):
                self._procs.append(None)
                self._task_queues.append(None)
                self._spawn_worker(worker_id)
        except BaseException:
            self.close()
            raise

    # -- lifecycle ------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def segment_names(self) -> List[str]:
        """Names of the shared-memory segments (leak-test oracle);
        empty with ``workers=1``."""
        return [segment.name for segment in self._segments]

    def _spawn_worker(self, worker_id: int) -> None:
        assert self._context is not None
        task_queue = self._context.SimpleQueue()
        process = self._context.Process(
            target=_service_worker,
            args=(
                worker_id,
                self._spec,
                self.model,
                self.seed,
                task_queue,
                self._result_queue,
            ),
            daemon=True,
            name=f"sampling-pool-{worker_id}",
        )
        process.start()
        self._task_queues[worker_id] = task_queue
        self._procs[worker_id] = process

    def close(self) -> None:
        """Shut workers down and unlink every shared-memory segment.

        Idempotent; also invoked by ``__exit__`` (including on
        exceptions) and as a last resort by ``__del__``.
        """
        if self._closed:
            return
        self._closed = True
        for task_queue, process in zip(self._task_queues, self._procs):
            if process is not None and process.is_alive():
                try:
                    task_queue.put(None)
                except Exception:  # pragma: no cover - broken pipe path
                    pass
        for process in self._procs:
            if process is None:
                continue
            process.join(timeout=2.0)
            if process.is_alive():  # pragma: no cover - stuck worker
                process.terminate()
                process.join(timeout=2.0)
        if self._result_queue is not None:
            self._result_queue.close()
            self._result_queue.cancel_join_thread()
            self._result_queue = None
        self._sampler = None
        for segment in self._segments:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments = []
        self._procs = []
        self._task_queues = []

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
        batches = batch_schedule(count, self._next_batch, self._batch_cap)
        self._next_batch += len(batches)
        fill_started = time.perf_counter()
        with self.obs.trace("service/fill"):
            if self._sampler is not None:
                chunks, edges, nodes = self._fill_here(collection, batches)
            else:
                chunks, edges, nodes = self._fill_parallel(collection, batches)
        self.fill_seconds += time.perf_counter() - fill_started
        self.sets_generated += count
        self.edges_examined += edges
        self.nodes_touched += nodes
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
        return {
            "kind": "pool",
            "seed": self.seed,
            "kernel": self.kernel,
            "next_batch": self._next_batch,
            "sets_generated": self.sets_generated,
            "edges_examined": self.edges_examined,
            "nodes_touched": self.nodes_touched,
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
        if self._next_batch != 0 or self.sets_generated != 0:
            raise ParameterError(
                "cannot restore sampling state into a pool that has "
                "already generated RR sets"
            )
        self._next_batch = int(state["next_batch"])
        self.sets_generated = int(state["sets_generated"])
        self.edges_examined = int(state["edges_examined"])
        self.nodes_touched = int(state["nodes_touched"])

    # -- execution backends --------------------------------------------
    def _fill_here(
        self, collection: RRCollection, batches: Batches
    ) -> Tuple[int, int, int]:
        """``workers=1``: the in-process sampler appends every batch to
        *collection* as one chunk; returns ``(chunks, edges, nodes)``."""
        sampler = self._sampler
        assert sampler is not None
        edges, nodes = sampler.edges_examined, sampler.nodes_touched
        started = time.perf_counter()
        _sample_batches(sampler, self.seed, batches, collection)
        elapsed = time.perf_counter() - started
        self._observe_chunk(elapsed)
        if self.obs.current_trace() is not None:
            count = sum(size for _, size in batches)
            self.obs.record("span", **_chunk_span(elapsed, batches, count))
        return (
            1,
            sampler.edges_examined - edges,
            sampler.nodes_touched - nodes,
        )

    def _fill_parallel(
        self, collection: RRCollection, batches: Batches
    ) -> Tuple[int, int, int]:
        """Adaptive dispatch: idle workers pull chunks; crashes recover.
        Results are appended in batch order; returns ``(chunks, edges,
        nodes)``."""
        assert self._result_queue is not None
        chunks = _chunks(batches, self.workers)
        pending = deque(chunks)
        outstanding: Dict[int, Batches] = {}
        idle = deque(
            worker_id
            for worker_id, process in enumerate(self._procs)
            if process is not None
        )
        results: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
        edges = nodes = 0
        while len(results) < len(chunks):
            while pending and idle:
                worker_id = idle.popleft()
                self._dispatch(worker_id, pending.popleft(), outstanding)
            try:
                message = self._result_queue.get(timeout=0.05)
            except queue.Empty:
                self._recover_workers(outstanding, idle)
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
                # Worker-buffered span events, replayed into our sink so
                # the request's trace tree includes cross-process work.
                self.obs.record("span", **event)
        for chunk in chunks:
            collection.append_flat(*results[chunk[0][0]])
        count = sum(size for _, size in batches)
        obs = self.obs
        obs.count("sampling.rr_sets", count)
        obs.count("sampling.edges", edges)
        obs.count("sampling.nodes", nodes)
        return len(chunks), edges, nodes

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
        self._task_queues[worker_id].put(
            (chunk, crash, self.obs.current_trace())
        )

    def _recover_workers(
        self,
        outstanding: Dict[int, Batches],
        idle: "deque[int]",
    ) -> None:
        """Respawn dead workers; re-issue their outstanding chunks.

        A re-issued chunk keeps its batches, whose seeds are a pure
        function of their indices, so recovery cannot change the
        output stream.
        """
        for worker_id, process in enumerate(self._procs):
            if process is None or process.is_alive():
                continue
            process.join()
            self.restarts += 1
            self.obs.count("service.worker_restarts")
            if self.restarts > self.max_restarts:
                raise ServiceError(
                    f"worker {worker_id} died (exit code "
                    f"{process.exitcode}); restart budget of "
                    f"{self.max_restarts} exhausted"
                )
            self._spawn_worker(worker_id)
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
