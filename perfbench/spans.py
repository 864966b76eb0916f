"""Benchmark-side tracing: spans around the program's public calls.

:func:`install` wraps the public functions of each layer (the sampler's
``fill``, ``RRCollection.build``, ``greedy_max_coverage``, the bound
evaluations, the session, the engine, the hop estimator and the index
I/O) in spans recorded by a :class:`Tracer`.  Nothing inside the
program changes: the wrappers sit on class attributes and on the
module attributes through which the program calls those functions,
and :func:`install` returns the function that takes them off again.

A span records its name, start, end, self time (duration minus the
time its child spans cover), its parent's name and the name of the
outermost span open in its thread.  Spans stay in memory until the run
ends; server processes write theirs with :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import threading
import time
import weakref
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Span name -> the layer (module) it times.
LAYER_OF = {
    "graph.load": "graph",
    "sampling.fill": "sampling",
    "collection.build": "collection",
    "maxcover.greedy": "maxcover",
    "bounds.sigma": "bounds",
    "bounds.coverage": "bounds",
    "core.run_until": "core",
    "core.query": "core",
    "engine.init": "engine",
    "engine.answer": "engine",
    "engine.answer_hop": "engine",
    "engine.checkpoint": "engine",
    "hop.select": "hop",
    "hop.spread": "hop",
    "index.save": "index",
    "index.manifest_save": "index",
    "index.load": "index",
}

#: (name, start, end, self_seconds, parent, root)
Span = Tuple[str, float, float, float, Optional[str], str]


class Tracer:
    """In-memory span and counter recorder; off until :attr:`enabled`."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> List[Any]:
        frame = [name, time.perf_counter(), 0.0]
        self._stack().append(frame)
        return frame

    def end(self, frame: List[Any]) -> None:
        finished = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = finished - frame[1]
        if stack:
            stack[-1][2] += duration
        parent = stack[-1][0] if stack else None
        root = stack[0][0] if stack else frame[0]
        with self._lock:
            self.spans.append(
                (frame[0], frame[1], finished, duration - frame[2], parent, root)
            )

    def inside(self, name: str) -> bool:
        """Whether a span called *name* is open in this thread."""
        return any(frame[0] == name for frame in self._stack())

    def count(self, name: str, value: float = 1) -> None:
        if self.enabled:
            with self._lock:
                self.counts[name] += value

    def reset(self) -> None:
        with self._lock:
            self.spans = []
            self.counts = defaultdict(float)

    def dump(self, path: Path) -> None:
        payload = {"spans": self.spans, "counts": dict(self.counts)}
        Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_dump(path: Path) -> Tuple[List[Span], Dict[str, float]]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    spans = [tuple(span) for span in payload["spans"]]
    return spans, payload["counts"]  # type: ignore[return-value]


def layer_self_times(spans: Iterable[Span]) -> Dict[str, float]:
    """Self seconds per layer."""
    totals: Dict[str, float] = defaultdict(float)
    for name, _start, _end, self_s, _parent, _root in spans:
        totals[LAYER_OF.get(name, name)] += self_s
    return dict(totals)


def span_stats(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: calls, total seconds and self seconds."""
    stats: Dict[str, Dict[str, float]] = {}
    for name, start, end, self_s, _parent, _root in spans:
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += self_s
    return stats


def root_seconds(spans: Iterable[Span]) -> float:
    """Time covered by outermost spans (those without a parent)."""
    return sum(end - start for _n, start, end, _s, parent, _r in spans if parent is None)


# ----------------------------------------------------------------------
# Wrapping
# ----------------------------------------------------------------------
def _wrapped(
    tracer: Tracer,
    name: str,
    fn: Callable[..., Any],
    before: Optional[Callable[..., Any]] = None,
    after: Optional[Callable[..., None]] = None,
) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if not tracer.enabled:
            return fn(*args, **kwargs)
        state = before(*args, **kwargs) if before is not None else None
        frame = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(frame)
        if after is not None:
            after(state, result, *args, **kwargs)
        return result

    return wrapper


def _dir_files(directory: Any) -> Dict[str, Tuple[int, int]]:
    path = Path(directory)
    if not path.is_dir():
        return {}
    return {
        f.name: (st.st_size, st.st_mtime_ns)
        for f in path.iterdir()
        if f.is_file()
        for st in (f.stat(),)
    }


def _written_bytes(before: Dict[str, Tuple[int, int]], directory: Any) -> int:
    after = _dir_files(directory)
    return sum(size for name, (size, mtime) in after.items() if before.get(name) != (size, mtime))


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every traced call; returns the function that unwraps them."""
    import repro.core.opim as opim_mod
    import repro.serve.engine as engine_mod
    import repro.serve.index as index_mod
    from repro.core.session import OPIMSession
    from repro.sampling.collection import RRCollection
    from repro.sampling.generator import RRSampler
    from repro.sampling.hop import HopEstimator
    from repro.sampling.kernel import KernelRRSampler
    from repro.sampling.service import SamplingPool

    undo: List[Tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, name: str, before: Any = None, after: Any = None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        undo.append((owner, attr, original))
        setattr(owner, attr, _wrapped(tracer, name, original, before, after))

    # -- sampling: RR sets, node entries and edges examined per fill --
    # A fill nested in another fill (a pool driving a serial sampler)
    # is counted once, by the outer span.
    def fill_before(sampler: Any, collection: Any, count: int) -> Any:
        if tracer.inside("sampling.fill"):
            return None
        return len(collection), collection.total_size, int(getattr(sampler, "edges_examined", 0))

    def fill_after(state: Any, _result: Any, sampler: Any, collection: Any, count: int) -> None:
        if state is None:
            return
        sets, entries, edges = state
        tracer.count("sampling.rr_sets", len(collection) - sets)
        tracer.count("sampling.entries", collection.total_size - entries)
        tracer.count("sampling.edges", int(getattr(sampler, "edges_examined", 0)) - edges)

    for sampler_cls in (RRSampler, KernelRRSampler, SamplingPool):
        if "fill" in sampler_cls.__dict__:
            patch(sampler_cls, "fill", "sampling.fill", fill_before, fill_after)

    # -- collection: rebuilds, entries indexed vs entries new ---------
    built: "weakref.WeakKeyDictionary[Any, Tuple[int, int]]" = weakref.WeakKeyDictionary()

    def build_after(_state: Any, _result: Any, coll: Any) -> None:
        last_sets, last_entries = built.get(coll, (0, 0))
        if len(coll) != last_sets:
            tracer.count("collection.build_calls")
            tracer.count("collection.entries_indexed", coll.total_size)
            tracer.count("collection.entries_new", coll.total_size - last_entries)
            built[coll] = (len(coll), coll.total_size)

    patch(RRCollection, "build", "collection.build", None, build_after)
    patch(RRCollection, "coverage", "bounds.coverage")

    # -- greedy and bounds, at the names the algorithms call ----------
    def count_greedy(_state: Any, _result: Any, *args: Any, **kwargs: Any) -> None:
        tracer.count("maxcover.greedy_calls")

    patch(opim_mod, "greedy_max_coverage", "maxcover.greedy", None, count_greedy)
    patch(opim_mod, "sigma_lower_bound", "bounds.sigma")
    patch(opim_mod, "sigma_upper_bound", "bounds.sigma")

    # -- core session -------------------------------------------------
    def count_query(_state: Any, _result: Any, *args: Any, **kwargs: Any) -> None:
        tracer.count("core.queries")

    patch(OPIMSession, "run_until", "core.run_until")
    patch(OPIMSession, "query", "core.query", None, count_query)

    # -- engine and hop -----------------------------------------------
    patch(engine_mod.SeedQueryEngine, "__init__", "engine.init")
    patch(engine_mod.SeedQueryEngine, "answer", "engine.answer")
    patch(engine_mod.SeedQueryEngine, "answer_hop", "engine.answer_hop")
    patch(engine_mod.SeedQueryEngine, "checkpoint", "engine.checkpoint")

    def count_hop(_state: Any, _result: Any, *args: Any, **kwargs: Any) -> None:
        tracer.count("hop.calls")

    patch(HopEstimator, "select", "hop.select", None, count_hop)
    patch(HopEstimator, "spread", "hop.spread", None, count_hop)

    # -- index I/O: bytes written vs RR-set bytes new since last sync -
    synced: Dict[str, Tuple[int, int]] = {}

    def save_before(directory: Any, *args: Any, **kwargs: Any) -> Dict[str, Tuple[int, int]]:
        return _dir_files(directory)

    def save_after(state: Any, _result: Any, directory: Any, *args: Any, **kwargs: Any) -> None:
        written = _written_bytes(state, directory)
        r1, r2 = kwargs["r1"], kwargs["r2"]
        entries = r1.total_size + r2.total_size
        sets = len(r1) + len(r2)
        old_entries, old_sets = synced.get(str(directory), (0, 0))
        synced[str(directory)] = (entries, sets)
        tracer.count("index.bytes_written", written)
        tracer.count("index.save_bytes", written)
        # New RR sets in the flat layout: int32 node ids + int64 offsets.
        tracer.count("index.rr_bytes_new", 4 * (entries - old_entries) + 8 * (sets - old_sets))

    def manifest_after(state: Any, _result: Any, directory: Any, *args: Any, **kwargs: Any) -> None:
        # The manifest half of a full save is counted by that save.
        if not tracer.inside("index.save"):
            tracer.count("index.bytes_written", _written_bytes(state, directory))

    def load_after(_state: Any, loaded: Any, directory: Any, *args: Any, **kwargs: Any) -> None:
        synced[str(directory)] = (
            loaded.r1.total_size + loaded.r2.total_size,
            len(loaded.r1) + len(loaded.r2),
        )

    for module in (engine_mod, index_mod):
        patch(module, "save_index", "index.save", save_before, save_after)
        patch(module, "save_manifest", "index.manifest_save", save_before, manifest_after)
        patch(module, "load_index", "index.load", None, load_after)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
