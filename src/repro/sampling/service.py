"""Persistent shared-memory parallel RR-set sampling service.

A per-call process pool would re-pickle the whole CSR graph on every
fill, a fixed cost that dwarfs the sampling work for the quotas
OPIM-C's doubling loop (Algorithm 2) actually requests.
:class:`SamplingPool` amortizes that infrastructure across an entire
algorithm run:

* the graph's six CSR arrays are copied **once** into
  ``multiprocessing.shared_memory`` segments; workers map them
  zero-copy and rebuild a :class:`~repro.graph.digraph.DiGraph` view
  without re-validating or re-sorting edges;
* a long-lived set of worker processes stays alive across all OPIM-C
  doubling iterations and OnlineOPIM pause/resume steps — each
  ``fill`` dispatches work to the already-warm workers;
* work is handed out in **adaptive chunks**: the requested quota is
  split proportionally (``ceil(quota / target_chunks)``) with a
  ``min_chunk`` floor, and idle workers pull the next chunk as soon as
  they finish, so a straggler chunk cannot serialize the fill;
* a crashed worker is respawned and only its outstanding chunk is
  re-issued **with the same chunk seed**, so output stays bitwise
  deterministic even across failures.

Determinism contract
--------------------
Chunk boundaries and chunk seeds depend only on the pool seed, the
chunk policy (``min_chunk`` / ``target_chunks``), and the *sequence of
``fill`` quotas* — never on the worker count or on scheduling.  Chunk
``i`` (globally indexed across fills) is seeded by
``SeedSequence(seed, spawn_key=(i,))`` and results are reassembled in
chunk order, so for a fixed seed the stream of RR sets is bitwise
identical for ``workers`` 1, 2, 4, ..., identical under worker
crashes, and identical to running the same chunk schedule serially
(which is exactly what ``workers=1`` does, in-process).  Each chunk
is one ``fill`` on a fresh :class:`~repro.sampling.kernel.RRSampler`,
whose batching is a pure function of the chunk size (RNG-contract
item 1 in :mod:`repro.sampling.kernel`).

The pool implements the sampler duck type used by the core algorithms
(``fill`` / ``new_collection`` / ``sets_generated`` /
``edges_examined`` / ``universe_weight``), so it can be injected
anywhere an :class:`~repro.sampling.generator.RRSampler` is accepted.
"""

from __future__ import annotations

import math
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
from repro.sampling.kernel import RRSampler
from repro.utils.rng import SeedLike, fresh_entropy

__all__ = [
    "SamplingPool",
    "chunk_schedule",
    "chunk_seed",
    "generate_chunk",
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

#: Default quota split: chunks per fill before the min-chunk floor.
DEFAULT_TARGET_CHUNKS = 8

#: Default smallest chunk worth a dispatch round-trip.
DEFAULT_MIN_CHUNK = 32


# ----------------------------------------------------------------------
# Chunk policy (pure functions — the determinism contract lives here)
# ----------------------------------------------------------------------
def chunk_schedule(
    count: int,
    start_index: int = 0,
    min_chunk: int = DEFAULT_MIN_CHUNK,
    target_chunks: int = DEFAULT_TARGET_CHUNKS,
) -> List[Tuple[int, int]]:
    """Split *count* RR sets into ``(chunk_index, chunk_count)`` pairs.

    The chunk size is quota-proportional (``ceil(count/target_chunks)``)
    with a floor of *min_chunk*; indices continue from *start_index*.
    The schedule depends only on these arguments — in particular not on
    the worker count — which is what makes pool output reproducible
    across ``workers`` values.
    """
    if count < 0:
        raise ParameterError(f"count must be non-negative, got {count}")
    if min_chunk < 1:
        raise ParameterError(f"min_chunk must be >= 1, got {min_chunk}")
    if target_chunks < 1:
        raise ParameterError(
            f"target_chunks must be >= 1, got {target_chunks}"
        )
    size = max(min_chunk, math.ceil(count / target_chunks))
    schedule = []
    done = 0
    index = start_index
    while done < count:
        chunk = min(size, count - done)
        schedule.append((index, chunk))
        index += 1
        done += chunk
    return schedule


def chunk_seed(root_seed: int, chunk_index: int) -> int:
    """Deterministic child seed for global chunk *chunk_index*.

    Uses ``SeedSequence(root_seed, spawn_key=(chunk_index,))`` so every
    chunk's stream is independent, reproducible, and addressable by
    index alone — a respawned worker re-issues an outstanding chunk
    with the identical seed.
    """
    sequence = np.random.SeedSequence(root_seed, spawn_key=(chunk_index,))
    return int(sequence.generate_state(1)[0])


def generate_chunk(
    graph: DiGraph, model: str, seed: int, count: int
) -> Tuple[np.ndarray, np.ndarray, int, int]:
    """Generate one chunk of *count* RR sets with a fresh chunk sampler.

    Returns ``(flat_nodes, offsets, edges_examined, nodes_touched)``
    where ``flat_nodes[offsets[i]:offsets[i+1]]`` is the *i*-th RR set.
    Pure given its arguments: the parent (``workers=1``), a pool
    worker, and a crash-recovery re-issue all produce identical bytes.
    """
    sampler = RRSampler(graph, model, seed=seed)
    flat, offsets = sampler.new_collection(count).flat()
    return flat, offsets, int(sampler.edges_examined), int(flat.shape[0])


def _require_pool_state(state: Dict[str, Any]) -> None:
    if state.get("kind") != "pool":
        raise ParameterError(
            f"sampler state of kind {state.get('kind')!r} cannot resume a "
            "SamplingPool; start with the matching workers configuration "
            "to keep the stream deterministic"
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
    task_queue: Any,
    result_queue: Any,
) -> None:
    """Long-lived worker loop: attach the shm graph, then serve chunks.

    Tasks are ``(chunk_index, chunk_seed, count, crash, trace_id)``
    tuples; ``None`` is the shutdown sentinel.  A task with
    ``crash=True`` hard-exits the process (fault injection for the
    crash-recovery tests).  Generation errors are reported back, not
    raised, so a bad chunk does not silently hang the parent.

    Workers have no registry of their own: when a task carries a
    ``trace_id`` (a request trace is active in the parent), the worker
    buffers one span event per chunk — phase, elapsed, its pid, the
    chunk index and seed — and ships it back with the chunk result.
    The parent records the buffered spans into its own sink, which is
    what stitches worker-side work into the request's trace tree.
    """
    # A parent's SIGTERM handler is inherited through fork; a pool
    # worker holds nothing worth a clean exit, so SIGTERM ends it.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    graph, segments = _attach_graph(spec)
    try:
        while True:
            task = task_queue.get()
            if task is None:
                break
            index, seed, count, crash, trace_id = task
            if crash:
                os._exit(17)
            started = time.perf_counter()
            try:
                flat, offsets, edges, nodes = generate_chunk(
                    graph, model, seed, count
                )
            except BaseException:
                result_queue.put(
                    ("err", worker_id, index, traceback.format_exc())
                )
                continue
            elapsed = time.perf_counter() - started
            spans = []
            if trace_id is not None:
                spans.append(
                    {
                        "phase": "service/chunk",
                        "elapsed": elapsed,
                        "trace_id": trace_id,
                        "worker_pid": os.getpid(),
                        "chunk_index": index,
                        "chunk_seed": seed,
                        "rr_sets": count,
                        "counters": {"sampling.rr_sets": count},
                    }
                )
            result_queue.put(
                (
                    "ok",
                    worker_id,
                    index,
                    flat,
                    offsets,
                    edges,
                    nodes,
                    elapsed,
                    spans,
                )
            )
    finally:
        for segment in segments:
            segment.close()


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class SamplingPool:
    """Persistent zero-copy parallel RR-set sampler (see module docs).

    Parameters
    ----------
    graph:
        Weighted :class:`DiGraph`.
    model:
        ``"IC"`` or ``"LT"``.
    workers:
        Worker processes; ``1`` runs the identical chunk schedule
        in-process (the serial reference the determinism tests compare
        against).
    seed:
        Root seed; chunk ``i`` derives its stream from
        ``SeedSequence(seed, spawn_key=(i,))``.  ``None`` draws one
        replayable entropy value (recorded in
        :func:`repro.utils.rng.auto_entropy_log`).
    min_chunk, target_chunks:
        Chunk policy (see :func:`chunk_schedule`).  Both are part of
        the determinism contract: change them and the stream changes.
    registry:
        Optional :class:`~repro.obs.MetricsRegistry`; the pool
        maintains ``service.chunks`` / ``service.worker_restarts``
        counters, the ``service.shm_bytes`` gauge, and the
        ``service.chunk_seconds`` latency distribution, plus the
        standard ``sampling.*`` counters.
    inject_crash_chunks:
        Fault-injection hook for tests: global chunk indices whose
        first dispatch hard-kills the executing worker.  The pool
        respawns the worker and re-issues the chunk (crash-once
        semantics), exercising the recovery path deterministically.
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

    #: The kernel every chunk runs; recorded in :meth:`state`.
    kernel = "vectorized"

    def __init__(
        self,
        graph: DiGraph,
        model: str,
        workers: int = 2,
        seed: SeedLike = None,
        min_chunk: int = DEFAULT_MIN_CHUNK,
        target_chunks: int = DEFAULT_TARGET_CHUNKS,
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
        if min_chunk < 1:
            raise ParameterError(f"min_chunk must be >= 1, got {min_chunk}")
        if target_chunks < 1:
            raise ParameterError(
                f"target_chunks must be >= 1, got {target_chunks}"
            )
        if max_restarts < 0:
            raise ParameterError(
                f"max_restarts must be non-negative, got {max_restarts}"
            )
        self.graph = graph
        self.model = model
        self.workers = int(workers)
        self.min_chunk = int(min_chunk)
        self.target_chunks = int(target_chunks)
        self.max_restarts = int(max_restarts)
        self.obs = resolve_registry(registry)
        self._crash_chunks = set(inject_crash_chunks or ())

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
        self._next_chunk = 0
        self._closed = False

        self._segments: List[shared_memory.SharedMemory] = []
        self._segment_names: List[str] = []
        self._procs: List[Optional[mp.process.BaseProcess]] = []
        self._task_queues: List[Any] = []
        self._result_queue: Optional[Any] = None
        self._context: Optional[Any] = None

        self._spec, self._segments, shm_bytes = _share_graph(graph)
        self._segment_names = [s.name for s in self._segments]
        self.obs.set_gauge("service.shm_bytes", shm_bytes)
        try:
            if self.workers > 1:
                methods = mp.get_all_start_methods()
                self._context = mp.get_context(
                    "fork" if "fork" in methods else None
                )
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
        """Names of the shared-memory segments (leak-test oracle)."""
        return list(self._segment_names)

    def _spawn_worker(self, worker_id: int) -> None:
        assert self._context is not None
        task_queue = self._context.SimpleQueue()
        process = self._context.Process(
            target=_service_worker,
            args=(
                worker_id,
                self._spec,
                self.model,
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
        """Append *count* fresh RR sets to *collection* (chunk order)."""
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
        schedule = chunk_schedule(
            count, self._next_chunk, self.min_chunk, self.target_chunks
        )
        self._next_chunk += len(schedule)
        tasks = [
            (index, chunk_seed(self.seed, index), chunk)
            for index, chunk in schedule
        ]
        fill_started = time.perf_counter()
        with self.obs.trace("service/fill"):
            if self.workers == 1:
                results = self._run_serial(tasks)
            else:
                results = self._run_parallel(tasks)
        self.fill_seconds += time.perf_counter() - fill_started
        edges = nodes = 0
        for index, _seed, _chunk in tasks:
            flat, offsets, chunk_edges, chunk_nodes = results[index]
            edges += chunk_edges
            nodes += chunk_nodes
            collection.append_flat(flat, offsets)
        self.sets_generated += count
        self.edges_examined += edges
        self.nodes_touched += nodes
        obs = self.obs
        obs.count("service.chunks", len(tasks))
        obs.count("sampling.rr_sets", count)
        obs.count("sampling.edges", edges)
        obs.count("sampling.nodes", nodes)

    def new_collection(self, count: int = 0) -> RRCollection:
        """Create a collection over the pool's graph, optionally filled."""
        collection = RRCollection(self.graph.n)
        if count:
            self.fill(collection, count)
        return collection

    # -- resumable stream state ----------------------------------------
    def state(self) -> Dict[str, Any]:
        """Snapshot of the deterministic stream position.

        Because chunk seeds are a pure function of ``(seed, index)``,
        the pool's entire sampling state is its root seed, the chunk
        policy, and the next global chunk index.  Persisting this dict
        (see :mod:`repro.serve.index`) and restoring it into a pool
        constructed with the same seed and policy continues the exact
        RR-set stream the original process would have produced.
        """
        return {
            "kind": "pool",
            "seed": self.seed,
            "kernel": self.kernel,
            "min_chunk": self.min_chunk,
            "target_chunks": self.target_chunks,
            "next_chunk": self._next_chunk,
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
        persisted in the sketch index carries the root seed and chunk
        policy, so the new pool — possibly with a *different* worker
        count, which the determinism contract allows — continues the
        exact RR-set stream the crashed process would have produced.
        """
        _require_pool_state(state)
        pool = cls(
            graph,
            model,
            workers=workers,
            seed=int(state["seed"]),
            min_chunk=int(state["min_chunk"]),
            target_chunks=int(state["target_chunks"]),
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

        The pool must have been constructed with the same seed and
        chunk policy the state was captured under — those are part of
        the determinism contract, so a mismatch is an error rather
        than a silent stream change.
        """
        _require_pool_state(state)
        for field in ("seed", "min_chunk", "target_chunks"):
            if int(state[field]) != int(getattr(self, field)):
                raise ParameterError(
                    f"cannot restore sampling state: {field} was "
                    f"{state[field]} at capture but the pool has "
                    f"{getattr(self, field)}"
                )
        if self._next_chunk != 0 or self.sets_generated != 0:
            raise ParameterError(
                "cannot restore sampling state into a pool that has "
                "already generated RR sets"
            )
        self._next_chunk = int(state["next_chunk"])
        self.sets_generated = int(state["sets_generated"])
        self.edges_examined = int(state["edges_examined"])
        self.nodes_touched = int(state["nodes_touched"])

    # -- execution backends --------------------------------------------
    def _run_serial(
        self, tasks: Sequence[Tuple[int, int, int]]
    ) -> Dict[int, Tuple[np.ndarray, np.ndarray, int, int]]:
        """In-process chunk execution: the ``workers=1`` reference path."""
        results = {}
        for index, seed, chunk in tasks:
            started = time.perf_counter()
            results[index] = generate_chunk(self.graph, self.model, seed, chunk)
            elapsed = time.perf_counter() - started
            self._observe_chunk(elapsed)
            if self.obs.current_trace() is not None:
                self.obs.record(
                    "span",
                    phase="service/chunk",
                    elapsed=elapsed,
                    worker_pid=os.getpid(),
                    chunk_index=index,
                    chunk_seed=seed,
                    rr_sets=chunk,
                    counters={"sampling.rr_sets": chunk},
                )
        return results

    def _run_parallel(
        self, tasks: Sequence[Tuple[int, int, int]]
    ) -> Dict[int, Tuple[np.ndarray, np.ndarray, int, int]]:
        """Adaptive dispatch: idle workers pull chunks; crashes recover."""
        assert self._result_queue is not None
        pending = deque(tasks)
        outstanding: Dict[int, Tuple[int, int, int]] = {}
        idle = deque(
            worker_id
            for worker_id, process in enumerate(self._procs)
            if process is not None
        )
        results: Dict[int, Tuple[np.ndarray, np.ndarray, int, int]] = {}
        while len(results) < len(tasks):
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
                    f"worker {worker_id} failed on chunk {index}:\n{text}"
                )
            (
                _,
                worker_id,
                index,
                flat,
                offsets,
                edges,
                nodes,
                elapsed,
                spans,
            ) = message
            results[index] = (flat, offsets, edges, nodes)
            outstanding.pop(worker_id, None)
            idle.append(worker_id)
            self._observe_chunk(elapsed)
            for event in spans:
                # Worker-buffered span events, replayed into our sink so
                # the request's trace tree includes cross-process work.
                self.obs.record("span", **event)
        return results

    def _observe_chunk(self, elapsed: float) -> None:
        self.obs.observe("service.chunk_seconds", elapsed)
        self.obs.histogram("service.chunk_seconds").observe(elapsed)

    def _dispatch(
        self,
        worker_id: int,
        task: Tuple[int, int, int],
        outstanding: Dict[int, Tuple[int, int, int]],
    ) -> None:
        index, seed, chunk = task
        crash = index in self._crash_chunks
        if crash:
            # Crash-once semantics: the recovery re-issue runs clean.
            self._crash_chunks.discard(index)
        outstanding[worker_id] = task
        self._task_queues[worker_id].put(
            (index, seed, chunk, crash, self.obs.current_trace())
        )

    def _recover_workers(
        self,
        outstanding: Dict[int, Tuple[int, int, int]],
        idle: "deque[int]",
    ) -> None:
        """Respawn dead workers; re-issue their outstanding chunks.

        The re-issued chunk keeps its original seed (chunk seeds are a
        pure function of the chunk index), so recovery cannot change
        the output stream.
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
            task = outstanding.pop(worker_id, None)
            if task is not None:
                self._dispatch(worker_id, task, outstanding)
            elif worker_id not in idle:  # pragma: no cover - idle death
                idle.append(worker_id)

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"SamplingPool(graph={self.graph.name!r}, model={self.model!r}, "
            f"workers={self.workers}, seed={self.seed}, {state})"
        )
