"""Growable collections of RR sets with coverage queries.

The online algorithms append RR sets continuously and periodically run
greedy maximum coverage over everything collected so far.  RR sets are
stored flat from the sampling kernel to disk: :class:`RRCollection` is
an append-only store of ``nodes`` (int32) / ``offsets`` (int64) chunks,
consolidated on demand into one CSR layout, plus an inverted index that
:meth:`RRCollection.build` extends over the new entries only:

* ``rr_offsets`` / ``rr_nodes`` — RR-set id -> member node ids;
* ``node_offsets`` / ``node_rrs`` — node id -> ids of RR sets
  containing it (the inverted index driving greedy selection), each
  posting list in ascending set-id order.

Appending k sets and rebuilding costs a counting sort of their entries
plus one linear merge, not a re-sort of everything collected; a
collection made with :meth:`RRCollection.from_flat` (e.g. over the
memory-mapped arrays of a persisted index) wraps the arrays without
copying them.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphFormatError, ParameterError

__all__ = ["RRCollection", "stable_key_order"]

_UINT16_KEYS = 1 << 16


def stable_key_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """Indices that stably sort *keys*, all in ``[0, bound)``; equal to
    ``np.argsort(keys, kind="stable")``.

    numpy's stable sort of 16-bit keys is a radix sort, so keys below
    ``2**16`` are sorted as ``uint16``; wider keys take the plain stable
    argsort.
    """
    keys = np.asarray(keys)
    if bound <= _UINT16_KEYS:
        return np.argsort(keys.astype(np.uint16), kind="stable")
    return np.argsort(keys, kind="stable")


def _check_flat(
    nodes: np.ndarray, offsets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Validate one flat ``(nodes, offsets)`` chunk of RR sets."""
    nodes = np.asarray(nodes, dtype=np.int32)
    offsets = np.asarray(offsets, dtype=np.int64)
    if nodes.ndim != 1 or offsets.ndim != 1 or offsets.shape[0] < 1:
        raise ParameterError("RR sets must be 1-D nodes and offsets arrays")
    if offsets[0] != 0 or offsets[-1] != nodes.shape[0]:
        raise ParameterError(
            f"offsets must run from 0 to the {nodes.shape[0]} node entries, "
            f"got {int(offsets[0])}..{int(offsets[-1])}"
        )
    if offsets.shape[0] > 1 and np.diff(offsets).min() < 1:
        raise ParameterError("an RR set must be non-empty")
    return nodes, offsets


class RRCollection:
    """An append-only multiset of RR sets over nodes ``0..n-1``."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ParameterError(f"n must be >= 1, got {n}")
        self.n = int(n)
        self._count = 0
        self._total_size = 0
        # Consolidated flat layout, plus the chunks appended after it.
        self.rr_offsets = np.zeros(1, dtype=np.int64)
        self.rr_nodes = np.empty(0, dtype=np.int32)
        self._pending: List[Tuple[np.ndarray, np.ndarray]] = []
        # Inverted index over the first _indexed_count sets.
        self._indexed_count = 0
        self.node_offsets = np.zeros(n + 1, dtype=np.int64)
        self.node_rrs = np.empty(0, dtype=np.int64)

    @classmethod
    def from_flat(
        cls, n: int, nodes: np.ndarray, offsets: np.ndarray
    ) -> "RRCollection":
        """A collection holding ``nodes[offsets[i]:offsets[i+1]]`` as its
        *i*-th RR set, wrapping int32 / int64 arrays without a copy.

        The structure is checked here (:class:`ParameterError`); node ids
        are range-checked by the first :meth:`build`.
        """
        collection = cls(n)
        nodes, offsets = _check_flat(nodes, offsets)
        collection.rr_nodes = nodes
        collection.rr_offsets = offsets
        collection._count = offsets.shape[0] - 1
        collection._total_size = int(nodes.shape[0])
        return collection

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append_flat(self, nodes: np.ndarray, offsets: np.ndarray) -> None:
        """Append the RR sets ``nodes[offsets[i]:offsets[i+1]]`` in order."""
        nodes, offsets = _check_flat(nodes, offsets)
        if offsets.shape[0] == 1:
            return
        self._pending.append((nodes, offsets))
        self._count += offsets.shape[0] - 1
        self._total_size += int(nodes.shape[0])

    def append(self, nodes: np.ndarray) -> None:
        """Add one RR set (an array of node ids; duplicates not allowed)."""
        nodes = np.asarray(nodes, dtype=np.int32)
        if nodes.ndim != 1 or nodes.size == 0:
            raise ParameterError("an RR set must be a non-empty 1-D array")
        self._pending.append((nodes, np.array([0, nodes.size], dtype=np.int64)))
        self._count += 1
        self._total_size += int(nodes.size)

    def extend(self, many: Iterable[np.ndarray]) -> None:
        """Append several RR sets."""
        for nodes in many:
            self.append(nodes)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._count

    @property
    def total_size(self) -> int:
        """Sum of |R| over all stored RR sets."""
        return self._total_size

    def flat(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(rr_nodes, rr_offsets)`` over every stored RR set."""
        if self._pending:
            self.rr_nodes = np.concatenate(
                [self.rr_nodes] + [nodes for nodes, _ in self._pending]
            )
            # Set sizes are >= 1; the step from one chunk's last offset to
            # the next chunk's leading 0 is negative and drops out.
            sizes = np.diff(
                np.concatenate([offsets for _, offsets in self._pending])
            )
            self.rr_offsets = np.concatenate(
                [self.rr_offsets, self.rr_offsets[-1] + np.cumsum(sizes[sizes > 0])]
            )
            self._pending = []
        return self.rr_nodes, self.rr_offsets

    def get(self, index: int) -> np.ndarray:
        """Return the *index*-th RR set (a view into the flat layout)."""
        nodes, offsets = self.flat()
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise IndexError(f"RR set index out of range [0, {self._count})")
        return nodes[offsets[index] : offsets[index + 1]]

    def sets(self) -> Sequence[np.ndarray]:
        """All stored RR sets, in insertion order."""
        nodes, offsets = self.flat()
        return tuple(
            nodes[offsets[i] : offsets[i + 1]] for i in range(self._count)
        )

    # ------------------------------------------------------------------
    # Flat layouts
    # ------------------------------------------------------------------
    def build(self) -> None:
        """Extend the inverted index over the sets appended since the
        last build.

        A counting sort of the new entries by node, merged after each
        node's existing postings; a node id outside ``[0, n)`` raises
        :class:`GraphFormatError` and leaves the index as it was.
        """
        if self._indexed_count == self._count:
            return
        nodes, offsets = self.flat()
        start = self._indexed_count
        new_nodes = nodes[offsets[start] :]
        if new_nodes.min() < 0 or new_nodes.max() >= self.n:
            raise GraphFormatError(
                f"RR sets {start}..{self._count - 1} hold node ids outside "
                f"[0, {self.n})"
            )
        new_counts = np.bincount(new_nodes, minlength=self.n)
        order = stable_key_order(new_nodes, self.n)
        new_rrs = np.repeat(
            np.arange(start, self._count, dtype=np.int64),
            np.diff(offsets[start:]),
        )[order]
        # The i-th new entry in node order lands after every old posting
        # of the nodes up to its own and after the i new entries before it.
        slots = self.node_offsets[new_nodes[order] + 1]
        slots += np.arange(slots.shape[0], dtype=np.int64)
        node_rrs = np.empty(self.node_rrs.shape[0] + slots.shape[0], np.int64)
        old = np.ones(node_rrs.shape[0], dtype=bool)
        old[slots] = False
        node_rrs[old] = self.node_rrs
        node_rrs[slots] = new_rrs
        node_offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.diff(self.node_offsets) + new_counts, out=node_offsets[1:])
        self.node_rrs = node_rrs
        self.node_offsets = node_offsets
        self._indexed_count = self._count

    def node_coverage_counts(self) -> np.ndarray:
        """Vector ``c[v] = number of RR sets containing v`` (singleton
        coverages ``Lambda({v})``)."""
        self.build()
        return np.diff(self.node_offsets)

    def rr_sets_containing(self, node: int) -> np.ndarray:
        """Ids of RR sets that contain *node*."""
        self.build()
        lo, hi = self.node_offsets[node], self.node_offsets[node + 1]
        return self.node_rrs[lo:hi]

    # ------------------------------------------------------------------
    # Coverage queries
    # ------------------------------------------------------------------
    def coverage(self, seeds: Iterable[int]) -> int:
        """``Lambda(S)``: number of stored RR sets intersecting *seeds*."""
        self.build()
        seed_list = list(seeds)
        if not seed_list:
            return 0
        covered = np.zeros(self._count, dtype=bool)
        for s in seed_list:
            if not 0 <= s < self.n:
                raise ParameterError(f"seed {s} out of range [0, {self.n})")
            lo, hi = self.node_offsets[s], self.node_offsets[s + 1]
            covered[self.node_rrs[lo:hi]] = True
        return int(covered.sum())

    def coverage_fraction(self, seeds: Iterable[int]) -> float:
        """``Lambda(S) / |collection|`` (0.0 for an empty collection)."""
        if not self._count:
            return 0.0
        return self.coverage(seeds) / self._count

    def estimate_spread(self, seeds: Iterable[int]) -> float:
        """Unbiased spread estimate ``n * Lambda(S) / theta`` (Lemma 3.1)."""
        if not self._count:
            raise ParameterError("cannot estimate spread from an empty collection")
        return self.n * self.coverage(seeds) / self._count
