"""Frontier-batched RR-sampling kernels and the sampler that drives them.

:class:`RRSampler` is the one way the program draws RR sets: OPIM,
OPIM-C, the baselines and every
:class:`~repro.sampling.service.SamplingPool` (the serve engine's
sampler) all sample through it.  It hands batches of roots to a
*kernel* whose defining property is a **frozen RNG-consumption
contract** with two interchangeable implementations:

``kernel="python"``
    A deliberately explicit, loop-based reference: the equivalence
    oracle.  Slow, but every coin flip is visible.
``kernel="vectorized"``
    The production engine (the default): it advances *all* in-flight
    RR sets of a batch one frontier level at a time with numpy
    gather/scatter over the CSR in-adjacency.  Bitwise-identical to
    ``"python"``.

The RNG contract, version 2 (per sampler, seeded once)
------------------------------------------------------
1. Batching: a sampler draws RR sets in batches of at most
   :func:`batch_cap` ``(n) = max(1, 2 MiB // ((n + 7) // 8))`` sets,
   so a batch's bit-packed ``(batch, n)`` visited matrix stays within
   2 MiB for every model.
   ``fill(count)`` first hands out sets buffered by ``sample_one``,
   then draws consecutive batches of ``min(cap, remaining)`` sets and
   appends them in stream order; ``sample_one()`` draws batches of
   ``min(cap, 256)`` sets and hands them out one at a time.  The split
   is a pure function of ``(n, count)``; a
   :class:`~repro.sampling.service.SamplingPool` draws its stream in
   the same batches, each from its own seed.  The roots of a batch of
   ``b`` sets are drawn with **one** call, ``rng.integers(0, n,
   size=b)`` (or one weighted draw, see
   :meth:`RRSampler._draw_roots`).
2. IC, by skip and thin (the subset sampling of SUBSIM, Guo et al.,
   SIGMOD 2020).  Each frontier level runs its entries in (set
   ascending, node ascending) order; ``p_max(u)`` is the largest
   in-probability of node ``u`` (:class:`ICSkipTables`), and a node
   with ``p_max(u) = 0`` draws nothing.  The level then runs rounds
   over its *active* entries until none is left.  Each round draws
   **one** ``rng.random((active, 4))``: four geometric gaps per entry,
   ``floor(log1p(-U) / log1p(-p_max(u))) + 1`` (1 when
   ``p_max(u) = 1``).  An entry's candidates sit at
   ``pos + cumsum(gaps)`` inside ``u``'s CSR in-edge range (``pos``
   starts one before the range); the entry stays active, at its 4th
   candidate, while that candidate is inside the range.  The round
   then draws **one** ``rng.random(c)`` for the ``c`` in-range
   candidates with ``p_e < p_max(u)``, in (entry, position) order, and
   keeps such a candidate iff ``coin < p_e / p_max(u)``; when every
   candidate has ``p_e = p_max(u)`` (every node of a WC-weighted
   graph) it draws nothing.  Each in-edge is thus live with
   probability ``p_e``, independently, and a level costs about one
   coin per live edge instead of one per in-edge.
3. LT: each walk step draws three arrays from the generator: continue
   coins for all active walks, then column coins and alias accept
   coins for the surviving walks (walks stay in set order).
4. Triggering: frontier nodes are expanded in the same (set, node)
   order, one ``triggering_sets(node, rng)`` call per node.
5. Nodes discovered within one level are appended per set in ascending
   node id order (duplicates collapse to the first discovery).

Both kernels consume the generator in exactly this order, which is
what makes them interchangeable *per (batch, set-index)*: every batch
of a :class:`~repro.sampling.service.SamplingPool` — and therefore
every manifest, warm-index restart, and crash-requeued stream —
reproduces bitwise.  Version 1 (one coin per IC in-edge, batches of
``2 MiB // n`` sets) drew a different stream; the sketch index format
changed with it.  ``edges_examined`` (the gamma cost measure of Borgs
et al.'s online analysis) is identical across kernels and versions:
IC charges each expanded node its in-degree, LT charges one edge per
surviving walk step, and triggering charges the in-degree worst case.
"""

from __future__ import annotations

import math
import time
from itertools import chain
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import ParameterError
from repro.graph.digraph import DiGraph
from repro.obs import resolve_registry
from repro.sampling.collection import RRCollection, stable_key_order
from repro.sampling.rrset_lt import LTAliasTables
from repro.sampling.rrset_triggering import TriggeringSetSampler
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "KERNELS",
    "KernelOutput",
    "AUTO_KERNEL",
    "BATCH_BYTES",
    "SAMPLE_ONE_BATCH",
    "batch_cap",
    "ICSkipTables",
    "resolve_kernel",
    "sample_rr_sets_kernel",
    "sample_rr_sets_ic_kernel",
    "sample_rr_sets_lt_kernel",
    "sample_rr_sets_triggering_kernel",
    "RRSampler",
    "KernelRRSampler",
]

#: Recognized kernel names.
KERNELS = ("python", "vectorized")

#: The production kernel's alias: ``resolve_kernel(AUTO_KERNEL)`` is
#: ``"vectorized"``.
AUTO_KERNEL = "auto"

#: Byte budget of one batch's bit-packed ``(batch, n)`` visited matrix
#: (RNG-contract item 1).
BATCH_BYTES = 2 * 1024 * 1024

#: RR sets one ``sample_one`` refill draws (at most the cap).
SAMPLE_ONE_BATCH = 256


def batch_cap(n: int) -> int:
    """Most RR sets one kernel call draws on an *n*-node graph."""
    return max(1, BATCH_BYTES // ((n + 7) // 8))


def resolve_kernel(kernel: str = AUTO_KERNEL) -> str:
    """Normalize a kernel name; ``"auto"`` is ``"vectorized"``.

    An unknown name raises :class:`ParameterError`.
    """
    kernel = str(kernel).lower()
    if kernel == AUTO_KERNEL:
        return "vectorized"
    if kernel not in KERNELS:
        raise ParameterError(
            f"kernel must be one of {KERNELS}, got {kernel!r}"
        )
    return kernel


#: A kernel's output: RR set ``i`` is ``nodes[offsets[i]:offsets[i+1]]``
#: (int32 nodes, int64 offsets), then ``edges_examined`` and the number
#: of levels (IC, triggering) or walk steps (LT) advanced.
KernelOutput = Tuple[np.ndarray, np.ndarray, int, int]


def _offsets(sizes: np.ndarray) -> np.ndarray:
    offsets = np.zeros(sizes.shape[0] + 1, dtype=np.int64)
    np.cumsum(sizes, out=offsets[1:])
    return offsets


def _empty_output() -> KernelOutput:
    return np.empty(0, dtype=np.int32), np.zeros(1, dtype=np.int64), 0, 0


# ----------------------------------------------------------------------
# Shared assembly helpers
# ----------------------------------------------------------------------
def _assemble(
    batch: int,
    sample_chunks: List[np.ndarray],
    node_chunks: List[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """Order flat (set, node) level records into ``(nodes, offsets)``.

    A stable order by set id, so each RR set keeps its insertion order:
    root first, then each level's fresh nodes in ascending id order —
    the layout the RNG contract fixes.
    """
    samples = np.concatenate(sample_chunks)
    nodes = np.concatenate(node_chunks)
    order = stable_key_order(samples, batch)
    offsets = _offsets(np.bincount(samples, minlength=batch))
    return nodes[order].astype(np.int32), offsets


def _flatten(rr_sets: List[List[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """``(nodes, offsets)`` of per-set node lists (the python oracles)."""
    offsets = _offsets(np.array([len(s) for s in rr_sets], dtype=np.int64))
    nodes = np.fromiter(
        chain.from_iterable(rr_sets), dtype=np.int32, count=int(offsets[-1])
    )
    return nodes, offsets


def _sorted_unique(codes: np.ndarray) -> np.ndarray:
    """``np.unique(codes)`` by an in-place sort and a neighbour mask,
    which beats numpy's hash-based integer path on a level's few
    thousand codes."""
    codes.sort()
    first = np.empty(codes.size, dtype=bool)
    first[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=first[1:])
    return codes[first]


#: ``1 << b`` for each bit ``b`` of a byte.
_BIT_MASKS = np.left_shift(np.uint8(1), np.arange(8, dtype=np.uint8))


class _Visited:
    """A batch's bit-packed ``(batch, n)`` visited matrix, kept flat:
    row ``s`` is ``(n + 7) // 8`` bytes (RNG-contract item 1)."""

    __slots__ = ("bits", "width")

    def __init__(self, batch: int, n: int) -> None:
        self.width = (n + 7) >> 3
        self.bits = np.zeros(batch * self.width, dtype=np.uint8)

    def _slots(
        self, sets: np.ndarray, nodes: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        return sets * self.width + (nodes >> 3), _BIT_MASKS[nodes & 7]

    def unvisited(self, sets: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        at, masks = self._slots(sets, nodes)
        return (self.bits[at] & masks) == 0

    def mark(self, sets: np.ndarray, nodes: np.ndarray) -> None:
        """Mark (set, node) pairs; pairs sharing a byte all land."""
        np.bitwise_or.at(self.bits, *self._slots(sets, nodes))


# ----------------------------------------------------------------------
# IC kernels
# ----------------------------------------------------------------------
#: Geometric gaps per active frontier entry per skip round (item 2).
SKIP_DRAWS = 4

#: ``j + 1`` for the j-th gap of a round (see :func:`_ic_live_edges`).
_DRAW_STEPS = np.arange(1, SKIP_DRAWS + 1, dtype=np.int64)

#: Ceiling on one gap before it is cast to an integer: any value past
#: every in-edge range ends the entry, and four of them still add up
#: inside int64.
_GAP_CEILING = float(1 << 53)


class ICSkipTables:
    """Per-graph tables of IC skip-and-thin sampling (RNG-contract item 2).

    For node ``u`` with in-edges ``[lo, hi)`` of the in-CSR arrays:

    * ``live[u]`` is ``p_max(u) > 0``, the largest in-probability of
      ``u`` (a node without in-edges has ``p_max = 0``);
    * ``log_miss[u]`` is ``log1p(-p_max(u))`` (``-inf`` at
      ``p_max = 1``, 0 where ``p_max = 0``), the gap denominator;
    * ``thinning`` is ``(thin, ratio)``: ``thin[lo:hi]`` marks the
      in-edges with ``p_e < p_max(u)``, which a candidate keeps with
      probability ``ratio[e] = p_e / p_max(u)``.  It is ``None`` when no
      in-edge is thinned (a WC-weighted graph), so such a graph keeps
      no per-edge table.
    """

    __slots__ = ("live", "log_miss", "thinning")

    def __init__(self, graph: DiGraph) -> None:
        offsets = graph.in_offsets
        probs = graph.in_probs
        degrees = np.diff(offsets)
        p_max = np.zeros(graph.n, dtype=np.float64)
        has_edges = degrees > 0
        uneven = False
        if probs.size:
            starts = offsets[:-1][has_edges]
            p_max[has_edges] = np.maximum.reduceat(probs, starts)
            uneven = bool(
                (np.minimum.reduceat(probs, starts) < p_max[has_edges]).any()
            )
        self.live = p_max > 0.0
        with np.errstate(divide="ignore"):
            self.log_miss = np.log1p(-p_max)
        self.thinning: Optional[Tuple[np.ndarray, np.ndarray]] = None
        if uneven:
            edge_max = np.repeat(p_max, degrees)
            thin = probs < edge_max
            ratio = np.ones(probs.shape[0], dtype=np.float64)
            np.divide(probs, edge_max, out=ratio, where=thin)
            self.thinning = (thin, ratio)


def _ic_python(
    graph: DiGraph,
    roots: np.ndarray,
    rng: np.random.Generator,
    tables: ICSkipTables,
) -> KernelOutput:
    """Loop-based IC reference — the oracle the fast kernels must match.

    Walks contract item 2 entry by entry and candidate by candidate in
    explicit Python; only ``log1p`` of each round's gap coins is taken
    on the drawn array, exactly as the vectorized kernel takes it.
    """
    offsets = graph.in_offsets
    sources = graph.in_sources
    live = tables.live
    log_miss = tables.log_miss
    batch = roots.shape[0]
    visited: List[set] = [{int(r)} for r in roots]
    rr_sets: List[List[int]] = [[int(r)] for r in roots]
    frontier: List[List[int]] = [[int(r)] for r in roots]
    edges_examined = 0
    levels = 0
    while any(frontier):
        levels += 1
        fresh: List[set] = [set() for _ in range(batch)]
        # Active entries: [set, node, position, end of the in-edge range].
        active: List[List[int]] = []
        for s in range(batch):
            for u in frontier[s]:
                lo, hi = int(offsets[u]), int(offsets[u + 1])
                edges_examined += hi - lo
                if live[u]:
                    active.append([s, u, lo - 1, hi])
        while active:
            logs = np.log1p(-rng.random((len(active), SKIP_DRAWS)))
            candidates: List[Tuple[int, int]] = []
            still: List[List[int]] = []
            for row, entry in enumerate(active):
                s, u, pos, hi = entry
                for j in range(SKIP_DRAWS):
                    q = float(logs[row, j]) / float(log_miss[u])
                    pos += math.floor(min(q, _GAP_CEILING)) + 1
                    if pos < hi:
                        candidates.append((s, pos))
                if pos < hi:
                    still.append([s, u, pos, hi])
            thinned = [False] * len(candidates)
            if tables.thinning is not None:
                thin, ratio = tables.thinning
                thinned = [bool(thin[e]) for _, e in candidates]
            count = sum(thinned)
            coins = iter(rng.random(count) if count else ())
            for (s, e), is_thinned in zip(candidates, thinned):
                if is_thinned and not next(coins) < ratio[e]:
                    continue
                w = int(sources[e])
                if w not in visited[s]:
                    fresh[s].add(w)
            active = still
        for s in range(batch):
            level_nodes = sorted(fresh[s])
            visited[s].update(level_nodes)
            rr_sets[s].extend(level_nodes)
            frontier[s] = level_nodes
    return (*_flatten(rr_sets), edges_examined, levels)


def _ic_live_edges(
    tables: ICSkipTables,
    rng: np.random.Generator,
    sets: np.ndarray,
    nodes: np.ndarray,
    starts: np.ndarray,
    ends: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """One level's skip rounds: the ``(set, in-edge)`` pairs kept live."""
    live = tables.live[nodes]
    if not live.all():
        sets, nodes, starts, ends = sets[live], nodes[live], starts[live], ends[live]
    if sets.size == 0:
        return sets, sets  # both empty
    denominators = tables.log_miss[nodes][:, None]
    # The j-th candidate of a round sits at pos + cumsum(floor(q))[j] +
    # j + 1, pos starting at lo - 1; ``positions`` holds pos + j + 1.
    positions = (starts - 1)[:, None] + _DRAW_STEPS
    ends = ends[:, None]
    set_chunks: List[np.ndarray] = []
    edge_chunks: List[np.ndarray] = []
    while True:
        gaps = np.log1p(-rng.random((sets.size, SKIP_DRAWS)))
        gaps /= denominators
        # q >= 0, so the cast truncates to floor(q).
        np.minimum(gaps, _GAP_CEILING, out=gaps)
        candidates = gaps.astype(np.int64).cumsum(axis=1)
        candidates += positions
        inside = candidates < ends
        rows = inside.nonzero()[0]
        edges = candidates[inside]
        edge_sets = sets[rows]
        if tables.thinning is not None:
            thin, ratio = tables.thinning
            thinned = thin[edges]
            count = int(np.count_nonzero(thinned))
            if count:
                keep = ~thinned
                keep[thinned] = rng.random(count) < ratio[edges[thinned]]
                edges = edges[keep]
                edge_sets = edge_sets[keep]
        set_chunks.append(edge_sets)
        edge_chunks.append(edges)
        more = inside[:, -1]
        if not more.any():
            break
        sets = sets[more]
        denominators = denominators[more]
        positions = candidates[more, -1:] + _DRAW_STEPS
        ends = ends[more]
    if len(edge_chunks) == 1:
        return set_chunks[0], edge_chunks[0]
    return np.concatenate(set_chunks), np.concatenate(edge_chunks)


def _ic_fast(
    graph: DiGraph,
    roots: np.ndarray,
    rng: np.random.Generator,
    tables: ICSkipTables,
) -> KernelOutput:
    """Frontier-batched IC expansion: skip rounds per level, then one
    dedup pass over the level's live edges."""
    n = graph.n
    offsets = graph.in_offsets
    sources = graph.in_sources
    batch = roots.shape[0]

    visited = _Visited(batch, n)
    frontier_sets = np.arange(batch, dtype=np.int64)
    frontier_nodes = roots.astype(np.int64)
    visited.mark(frontier_sets, frontier_nodes)
    sample_chunks = [frontier_sets]
    node_chunks = [frontier_nodes]
    edges_examined = 0
    levels = 0

    in_ends = offsets[1:]
    with np.errstate(over="ignore"):
        while frontier_nodes.size:
            levels += 1
            starts = offsets[frontier_nodes]
            ends = in_ends[frontier_nodes]
            edges_examined += int(ends.sum()) - int(starts.sum())
            live_sets, live_edges = _ic_live_edges(
                tables, rng, frontier_sets, frontier_nodes, starts, ends
            )
            if live_edges.size == 0:
                break
            live_nodes = sources[live_edges].astype(np.int64)
            unvisited = visited.unvisited(live_sets, live_nodes)
            if not unvisited.any():
                break
            codes = _sorted_unique(
                live_sets[unvisited] * np.int64(n) + live_nodes[unvisited]
            )
            frontier_sets, frontier_nodes = np.divmod(codes, n)
            visited.mark(frontier_sets, frontier_nodes)
            sample_chunks.append(frontier_sets)
            node_chunks.append(frontier_nodes)

    del visited  # the batch's largest array; assembly needs it no more
    return (*_assemble(batch, sample_chunks, node_chunks), edges_examined, levels)


def sample_rr_sets_ic_kernel(
    graph: DiGraph,
    roots: np.ndarray,
    rng: np.random.Generator,
    kernel: str = "vectorized",
    tables: Optional[ICSkipTables] = None,
) -> KernelOutput:
    """Sample one IC RR set per root under the kernel RNG contract.

    Returns a :data:`KernelOutput`; RR set ``i`` starts with
    ``roots[i]``.  All kernels are bitwise-interchangeable for the same
    generator state.  *tables* are built from *graph* when omitted.
    """
    kernel = resolve_kernel(kernel)
    roots = np.asarray(roots, dtype=np.int64)
    if roots.shape[0] == 0:
        return _empty_output()
    if tables is None:
        tables = ICSkipTables(graph)
    if kernel == "python":
        return _ic_python(graph, roots, rng, tables)
    return _ic_fast(graph, roots, rng, tables)


# ----------------------------------------------------------------------
# LT kernels
# ----------------------------------------------------------------------
def _lt_python(
    graph: DiGraph,
    roots: np.ndarray,
    rng: np.random.Generator,
    tables: LTAliasTables,
) -> KernelOutput:
    """Loop-based LT reference: lock-step reverse walks."""
    offsets = graph.in_offsets
    sources = graph.in_sources
    continue_prob = tables.continue_prob
    accept = tables.accept
    alias = tables.alias
    batch = roots.shape[0]
    visited: List[set] = [{int(r)} for r in roots]
    rr_sets: List[List[int]] = [[int(r)] for r in roots]
    walks: List[Tuple[int, int]] = [(s, int(roots[s])) for s in range(batch)]
    edges_examined = 0
    steps = 0
    while walks:
        steps += 1
        cont = rng.random(len(walks))
        survivors = [
            (s, u)
            for (s, u), coin in zip(walks, cont)
            if coin < continue_prob[u]
        ]
        if not survivors:
            break
        edges_examined += len(survivors)
        col_coins = rng.random(len(survivors))
        acc_coins = rng.random(len(survivors))
        walks = []
        for (s, u), col_coin, acc_coin in zip(survivors, col_coins, acc_coins):
            lo, hi = int(offsets[u]), int(offsets[u + 1])
            column = int(col_coin * (hi - lo))
            if acc_coin >= accept[lo + column]:
                column = int(alias[lo + column])
            w = int(sources[lo + column])
            if w in visited[s]:
                continue  # the walk closed a cycle and stops
            visited[s].add(w)
            rr_sets[s].append(w)
            walks.append((s, w))
        if not walks:
            break
    return (*_flatten(rr_sets), edges_examined, steps)


def _lt_fast(
    graph: DiGraph,
    roots: np.ndarray,
    rng: np.random.Generator,
    tables: LTAliasTables,
) -> KernelOutput:
    """Lock-step LT walks with vectorized alias sampling."""
    n = graph.n
    offsets = graph.in_offsets
    sources = graph.in_sources
    continue_prob = tables.continue_prob
    accept = tables.accept
    alias = tables.alias
    batch = roots.shape[0]

    visited = _Visited(batch, n)
    walk_sets = np.arange(batch, dtype=np.int64)
    walk_nodes = roots.astype(np.int64)
    visited.mark(walk_sets, walk_nodes)
    sample_chunks = [walk_sets]
    node_chunks = [walk_nodes]
    edges_examined = 0
    steps = 0

    while walk_nodes.size:
        steps += 1
        alive = rng.random(walk_nodes.size) < continue_prob[walk_nodes]
        walk_sets = walk_sets[alive]
        walk_nodes = walk_nodes[alive]
        if walk_nodes.size == 0:
            break
        edges_examined += int(walk_nodes.size)
        lo = offsets[walk_nodes]
        degree = offsets[walk_nodes + 1] - lo
        columns = (rng.random(walk_nodes.size) * degree).astype(np.int64)
        slots = lo + columns
        reject = rng.random(walk_nodes.size) >= accept[slots]
        columns = np.where(reject, alias[slots], columns)
        next_nodes = sources[lo + columns].astype(np.int64)
        fresh = visited.unvisited(walk_sets, next_nodes)
        walk_sets = walk_sets[fresh]
        walk_nodes = next_nodes[fresh]
        if walk_nodes.size == 0:
            break
        visited.mark(walk_sets, walk_nodes)
        sample_chunks.append(walk_sets)
        node_chunks.append(walk_nodes)

    del visited
    return (*_assemble(batch, sample_chunks, node_chunks), edges_examined, steps)


def sample_rr_sets_lt_kernel(
    graph: DiGraph,
    roots: np.ndarray,
    rng: np.random.Generator,
    tables: LTAliasTables,
    kernel: str = "vectorized",
) -> KernelOutput:
    """Sample one LT RR set per root under the kernel RNG contract.

    Returns a :data:`KernelOutput`.  The column draw uses
    ``floor(coin * degree)`` (contract item 3).
    """
    kernel = resolve_kernel(kernel)
    roots = np.asarray(roots, dtype=np.int64)
    if roots.shape[0] == 0:
        return _empty_output()
    if kernel == "python":
        return _lt_python(graph, roots, rng, tables)
    return _lt_fast(graph, roots, rng, tables)


# ----------------------------------------------------------------------
# Triggering kernels
# ----------------------------------------------------------------------
def sample_rr_sets_triggering_kernel(
    graph: DiGraph,
    roots: np.ndarray,
    rng: np.random.Generator,
    triggering_sets: TriggeringSetSampler,
    kernel: str = "vectorized",
) -> KernelOutput:
    """Sample one triggering-model RR set per root, level-synchronously.

    The per-node triggering callable is inherently scalar, so both
    kernels call it once per expanded frontier node in the contract's
    (set, node) order; ``"vectorized"`` batches only the bookkeeping
    (dedup, visited marking).  ``edges_examined`` charges each expanded
    node its in-degree (the worst-case work of materializing its
    triggering set).
    """
    kernel = resolve_kernel(kernel)
    roots = np.asarray(roots, dtype=np.int64)
    batch = roots.shape[0]
    if batch == 0:
        return _empty_output()
    n = graph.n
    in_degrees = np.diff(graph.in_offsets)
    edges_examined = 0
    levels = 0

    if kernel == "python":
        visited: List[set] = [{int(r)} for r in roots]
        rr_sets: List[List[int]] = [[int(r)] for r in roots]
        frontier: List[List[int]] = [[int(r)] for r in roots]
        while any(frontier):
            levels += 1
            fresh: List[set] = [set() for _ in range(batch)]
            for s in range(batch):
                for u in frontier[s]:
                    edges_examined += int(in_degrees[u])
                    for w in triggering_sets(u, rng):
                        w = int(w)
                        if w not in visited[s]:
                            fresh[s].add(w)
            for s in range(batch):
                level_nodes = sorted(fresh[s])
                visited[s].update(level_nodes)
                rr_sets[s].extend(level_nodes)
                frontier[s] = level_nodes
        return (*_flatten(rr_sets), edges_examined, levels)

    visited_matrix = _Visited(batch, n)
    frontier_sets = np.arange(batch, dtype=np.int64)
    frontier_nodes = roots.astype(np.int64)
    visited_matrix.mark(frontier_sets, frontier_nodes)
    sample_chunks = [frontier_sets]
    node_chunks = [frontier_nodes]
    while frontier_nodes.size:
        levels += 1
        edges_examined += int(in_degrees[frontier_nodes].sum())
        trigger_chunks: List[np.ndarray] = []
        trigger_sets: List[np.ndarray] = []
        for s, u in zip(frontier_sets, frontier_nodes):
            triggers = np.asarray(
                triggering_sets(int(u), rng), dtype=np.int64
            )
            if triggers.size:
                trigger_chunks.append(triggers)
                trigger_sets.append(np.full(triggers.size, s, dtype=np.int64))
        if not trigger_chunks:
            break
        hit_nodes = np.concatenate(trigger_chunks)
        hit_sets = np.concatenate(trigger_sets)
        unvisited = visited_matrix.unvisited(hit_sets, hit_nodes)
        if not unvisited.any():
            break
        codes = _sorted_unique(
            hit_sets[unvisited] * np.int64(n) + hit_nodes[unvisited]
        )
        frontier_sets = codes // n
        frontier_nodes = codes % n
        visited_matrix.mark(frontier_sets, frontier_nodes)
        sample_chunks.append(frontier_sets)
        node_chunks.append(frontier_nodes)

    del visited_matrix
    return (*_assemble(batch, sample_chunks, node_chunks), edges_examined, levels)


# ----------------------------------------------------------------------
# Unified dispatch
# ----------------------------------------------------------------------
def sample_rr_sets_kernel(
    graph: DiGraph,
    model: str,
    roots: np.ndarray,
    rng: np.random.Generator,
    kernel: str = "vectorized",
    lt_tables: Optional[LTAliasTables] = None,
    triggering_sets: Optional[TriggeringSetSampler] = None,
    ic_tables: Optional[ICSkipTables] = None,
) -> KernelOutput:
    """Model dispatch over the kernel samplers (one RR set per root)."""
    model = model.upper()
    if model == "IC":
        return sample_rr_sets_ic_kernel(graph, roots, rng, kernel, ic_tables)
    if model == "LT":
        if lt_tables is None:
            lt_tables = LTAliasTables(graph)
        return sample_rr_sets_lt_kernel(graph, roots, rng, lt_tables, kernel)
    if model == "TRIGGERING":
        if triggering_sets is None:
            raise ParameterError(
                "model='TRIGGERING' requires a triggering_sets callable"
            )
        return sample_rr_sets_triggering_kernel(
            graph, roots, rng, triggering_sets, kernel
        )
    raise ParameterError(
        f"model must be 'IC', 'LT' or 'TRIGGERING', got {model!r}"
    )


# ----------------------------------------------------------------------
# The sampler
# ----------------------------------------------------------------------
class RRSampler:
    """Streaming generator of random RR sets (see the module docs).

    Parameters
    ----------
    graph:
        Weighted :class:`DiGraph`.
    model:
        ``"IC"``, ``"LT"``, or ``"TRIGGERING"`` (with
        *triggering_sets*, a :data:`TriggeringSetSampler` such as
        :func:`~repro.sampling.rrset_triggering.fixed_size_triggering_sets`
        — the paper's Section 6 generalization).
    seed:
        RNG seed or generator; all randomness of this sampler flows
        through it.
    kernel:
        ``"vectorized"`` (production) or ``"python"`` (the equivalence
        oracle); both draw the identical stream.
    registry:
        Optional :class:`~repro.obs.MetricsRegistry`.  When given, the
        sampler maintains the ``sampling.rr_sets`` / ``sampling.edges``
        / ``sampling.nodes`` and ``kernel.batches`` / ``kernel.levels``
        counters, and times the LT alias-table build in a
        ``sampling/tables`` span and the ``sampling.table_seconds``
        histogram; by default the no-op registry is used.

    The stream is a pure function of ``(seed, sequence of fill /
    sample_one calls)``.  ``sample_one`` leaves the rest of its batch
    buffered (see :attr:`buffered`), and the next ``fill`` hands it
    out first.
    """

    def __init__(
        self,
        graph: DiGraph,
        model: str,
        seed: SeedLike = None,
        kernel: str = "vectorized",
        registry: Optional[object] = None,
        triggering_sets: Optional[TriggeringSetSampler] = None,
    ) -> None:
        model = model.upper()
        if model not in ("IC", "LT", "TRIGGERING"):
            raise ParameterError(
                f"model must be 'IC', 'LT' or 'TRIGGERING', got {model!r}"
            )
        if model == "TRIGGERING" and triggering_sets is None:
            raise ParameterError(
                "model='TRIGGERING' requires a triggering_sets callable"
            )
        if model != "TRIGGERING" and not graph.weighted:
            raise ParameterError(
                "graph has no edge probabilities; apply a weighting scheme first"
            )
        self.graph = graph
        self.model = model
        self.kernel = resolve_kernel(kernel)
        self.rng = as_generator(seed)
        self.batch_cap = batch_cap(graph.n)
        self.triggering_sets = triggering_sets
        self.edges_examined = 0
        self.sets_generated = 0
        self.nodes_touched = 0
        self.levels_advanced = 0
        #: The scale factor in spread estimates and bounds ("n" in the
        #: paper; samplers with non-uniform roots override it).
        self.universe_weight = float(graph.n)
        #: Cumulative wall-clock seconds spent inside :meth:`fill`;
        #: deltas attribute request time to sampling vs. selection.
        self.fill_seconds = 0.0
        self.obs = resolve_registry(registry)
        self._lt_tables: Optional[LTAliasTables] = None
        self._ic_tables: Optional[ICSkipTables] = None
        if model == "IC":
            self._ic_tables = ICSkipTables(graph)
        if model == "LT":
            with self.obs.trace("sampling/tables"):
                started = time.perf_counter()
                self._lt_tables = LTAliasTables(graph)
                self.obs.histogram("sampling.table_seconds").observe(
                    time.perf_counter() - started
                )
        # The batch sample_one hands out, and the next set it hands out.
        self._batch: Tuple[np.ndarray, np.ndarray] = _empty_output()[:2]
        self._cursor = 0

    @property
    def buffered(self) -> int:
        """RR sets generated but not yet handed out."""
        return self._batch[1].shape[0] - 1 - self._cursor

    def _draw_roots(self, size: int) -> np.ndarray:
        """Roots of one batch, in one draw (RNG-contract item 1).

        Uniform over the nodes; samplers with non-uniform roots
        override this.
        """
        return self.rng.integers(0, self.graph.n, size=size)

    def _generate(self, roots: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """One kernel call: ``(nodes, offsets)`` of an RR set per root,
        counters updated."""
        with self.obs.trace("kernel/refill"):
            nodes, offsets, edges, levels = sample_rr_sets_kernel(
                self.graph,
                self.model,
                roots,
                self.rng,
                kernel=self.kernel,
                lt_tables=self._lt_tables,
                ic_tables=self._ic_tables,
                triggering_sets=self.triggering_sets,
            )
        size = int(nodes.shape[0])
        self.edges_examined += edges
        self.levels_advanced += levels
        self.nodes_touched += size
        obs = self.obs
        obs.count("sampling.rr_sets", offsets.shape[0] - 1)
        obs.count("sampling.edges", edges)
        obs.count("sampling.nodes", size)
        obs.count("kernel.batches")
        obs.count("kernel.levels", levels)
        return nodes, offsets

    def sample_one(self, root: Optional[int] = None) -> np.ndarray:
        """Sample one RR set; the root is random when omitted."""
        if root is not None:
            if not 0 <= root < self.graph.n:
                raise ParameterError(
                    f"root {root} out of range [0, {self.graph.n})"
                )
            nodes = self._generate(np.array([root], dtype=np.int64))[0]
        else:
            if not self.buffered:
                size = min(self.batch_cap, SAMPLE_ONE_BATCH)
                self._batch = self._generate(self._draw_roots(size))
                self._cursor = 0
            batch_nodes, offsets = self._batch
            at = self._cursor
            nodes = batch_nodes[offsets[at] : offsets[at + 1]]
            self._cursor += 1
        self.sets_generated += 1
        return nodes

    def fill(self, collection: RRCollection, count: int) -> None:
        """Append *count* fresh RR sets to *collection*, in stream order.

        Buffered sets go first; the rest is drawn in batches of at most
        :attr:`batch_cap` sets (RNG-contract item 1).
        """
        if count < 0:
            raise ParameterError(f"count must be non-negative, got {count}")
        if collection.n != self.graph.n:
            raise ParameterError(
                "collection node universe does not match the sampler's graph"
            )
        started = time.perf_counter()
        buffered = min(count, self.buffered)
        if buffered:
            batch_nodes, offsets = self._batch
            at = self._cursor
            window = offsets[at : at + buffered + 1]
            collection.append_flat(
                batch_nodes[window[0] : window[-1]], window - window[0]
            )
            self._cursor += buffered
        remaining = count - buffered
        while remaining > 0:
            size = min(remaining, self.batch_cap)
            collection.append_flat(*self._generate(self._draw_roots(size)))
            remaining -= size
        self.sets_generated += count
        self.fill_seconds += time.perf_counter() - started

    def new_collection(self, count: int = 0) -> RRCollection:
        """Create a collection over this graph, optionally pre-filled."""
        collection = RRCollection(self.graph.n)
        if count:
            self.fill(collection, count)
        return collection

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(graph={self.graph.name!r}, "
            f"model={self.model!r}, kernel={self.kernel!r})"
        )


#: Former name of :class:`RRSampler`, kept as an import path.
KernelRRSampler = RRSampler
