"""Greedy maximum coverage over an RR-set collection (paper, Alg. 1).

The greedy algorithm repeatedly picks the node with the largest
*marginal coverage* — the number of not-yet-covered RR sets it belongs
to — until ``k`` nodes are selected.  By the Nemhauser–Wolsey–Fisher
bound the result covers at least ``1 - (1 - 1/k)^k >= 1 - 1/e`` of what
any size-k set covers.

Beyond the seed set itself, the OPIM⁺ upper bound (paper, Eq. 10) needs
per-prefix information: for every greedy prefix ``S_i*`` (``0 <= i <=
k``), the coverage ``Lambda(S_i*)`` and the sum of the ``k`` largest
marginal coverages with respect to ``S_i*``.  Both fall out of the
greedy loop: at the start of iteration ``i`` the marginal-coverage
vector *is* the node-coverage vector after removing the RR sets covered
by ``S_i*``.

Each prefix reads its top-k and its argmax from a *candidate pool*, not
from all ``n`` marginals.  On a refresh, ``floor`` is the ``2k``-th
largest marginal and the pool is every node whose marginal is at least
``floor``, in node-id order.  The pool is exact while at least ``k`` of
its members are still at or above ``floor``:

* marginals never rise, so a node outside the pool stays below
  ``floor`` for good, and the ``k`` largest marginals and the maximum
  all lie in the pool;
* a picked node's marginal drops to 0, since every RR set it belongs to
  is now covered, so with ``floor >= 1`` no selected node can be the
  argmax again;
* the pool is in node-id order, so its first maximum is the
  smallest-id one, as over the full vector.

Members that fall below ``floor`` leave the pool; when fewer than ``k``
remain the pool is refreshed.  A prefix whose floor would be 0 (fewer
than ``2k`` nodes with a positive marginal, or ``2k >= n``) reads the
full vector, with selected nodes masked out of the argmax.  A pooled
prefix costs ``O(pool + k log k)`` plus its marginal updates; a refresh
or a full-vector prefix costs ``O(n)``.  Total cost stays within
``O(k * n + sum |R|)``, the paper's Table 1 row for the improved OPIM
via ``sigma_hat_u``.

The pass does not depend on ``k`` except through its length: ties go
to the smallest node id, so a ``K``-seed pass picks, in order, the
seeds of every ``k <= K`` pass.  Keeping each prefix's top-``K``
marginals (as cumulative sums, ``(K + 1) x K`` integers) makes every
``k``-answer a slice of the ``K``-pass: :meth:`GreedyResult.prefix`
returns it, equal field by field to :func:`greedy_max_coverage` run at
``k``.  :class:`SharedGreedy` holds one such pass per R1, so the
serving layer pays for greedy once per sketch instead of once per
``k``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.exceptions import ParameterError
from repro.obs import resolve_registry
from repro.sampling.collection import RRCollection
from repro.utils.validation import check_k


@dataclass(frozen=True)
class GreedyResult:
    """Output of :func:`greedy_max_coverage`.

    Attributes
    ----------
    seeds:
        Selected nodes, in selection order (length ``k``).
    coverage:
        ``Lambda(S*)``: number of RR sets covered by the full seed set.
    prefix_coverages:
        ``Lambda(S_i*)`` for ``i = 0..k`` (length ``k + 1``;
        entry 0 is 0).
    prefix_topk_sums:
        ``sum_{v in maxMC(S_i*, k)} Lambda(v | S_i*)`` for ``i = 0..k``
        (length ``k + 1``), the quantity inside Eq. 10.
    gains:
        Marginal coverage of each selected node at selection time.
    num_rr_sets:
        ``theta``: size of the collection greedy ran over.
    topk_cumsums:
        ``(k + 1) x k`` int64 array: row ``i`` holds the cumulative sums
        of prefix ``i``'s ``k`` largest marginal coverages in descending
        order, so ``topk_cumsums[i, j - 1]`` is the top-``j`` sum for
        every ``j <= k`` and ``prefix_topk_sums`` is its last column.
        ``None`` on a hand-built result, which then has no
        :meth:`prefix`.
    """

    seeds: List[int]
    coverage: int
    prefix_coverages: List[int]
    prefix_topk_sums: List[int]
    gains: List[int] = field(default_factory=list)
    num_rr_sets: int = 0
    topk_cumsums: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )

    @property
    def k(self) -> int:
        return len(self.seeds)

    def prefix(self, k: int) -> "GreedyResult":
        """The result :func:`greedy_max_coverage` gives at *k* seeds.

        Greedy's pick order does not depend on ``k``, so the first
        ``k`` seeds, gains and prefix coverages of this pass are those
        of a ``k``-pass, and the Eq. 10 sums are the ``k``-th column of
        the first ``k + 1`` rows of :attr:`topk_cumsums`.  Every field
        is equal to a fresh ``k``-pass's; no pass runs.
        """
        if self.topk_cumsums is None:
            raise ParameterError("this greedy result keeps no top-k table")
        if not 1 <= k <= self.k:
            raise ParameterError(f"prefix k must be in [1, {self.k}], got {k}")
        if k == self.k:
            return self
        table = self.topk_cumsums[: k + 1, :k]
        return GreedyResult(
            seeds=self.seeds[:k],
            coverage=self.prefix_coverages[k],
            prefix_coverages=self.prefix_coverages[: k + 1],
            prefix_topk_sums=table[:, k - 1].tolist(),
            gains=self.gains[:k],
            num_rr_sets=self.num_rr_sets,
            topk_cumsums=table,
        )

    def coverage_fraction(self) -> float:
        """Fraction of RR sets covered by the seed set."""
        if self.num_rr_sets == 0:
            return 0.0
        return self.coverage / self.num_rr_sets


def _top_k_cumsum(values: np.ndarray, k: int, out: np.ndarray) -> None:
    """Cumulative sums of the k largest entries of *values*, in
    descending order, into *out* — O(n + k log k)."""
    n = values.shape[0]
    top = values if k >= n else np.partition(values, n - k)[n - k :]
    np.cumsum(np.sort(top)[::-1], out=out)


_NO_POOL = np.empty(0, dtype=np.intp)


def _candidate_pool(cov: np.ndarray, k: int) -> Tuple[np.ndarray, int]:
    """``(pool, floor)``: *floor* is the ``2k``-th largest marginal and
    *pool* the nodes whose marginal is at least *floor*, in node-id
    order.  Floor 0 and an empty pool when that marginal is 0 or
    ``2k >= n``: the prefix reads the full vector.

    The floor comes from a histogram of the marginals, O(n + max cov),
    rather than ``np.partition``, whose introselect slows down several
    times over on the long runs of equal small marginals that late
    prefixes hold.
    """
    n = cov.shape[0]
    if 2 * k >= n:
        return _NO_POOL, 0
    # at_least[j]: nodes whose marginal is >= max(cov) - j.
    at_least = np.cumsum(np.bincount(cov)[::-1])
    floor = at_least.shape[0] - 1 - int(np.count_nonzero(at_least < 2 * k))
    if floor == 0:
        return _NO_POOL, 0
    return np.flatnonzero(cov >= floor), floor


class SharedGreedy:
    """The greedy pass held for one R1, shared by every ``k <= K``.

    Holds one :class:`GreedyResult` — ``(theta_1, K, result)`` as
    ``result.num_rr_sets``, ``result.k`` and the result itself.  A
    query for ``k <= K`` on the same ``theta_1`` reads its answer as
    ``result.prefix(k)``; :meth:`width` says how many seeds the pass
    that replaces it should select.  The caller runs the pass and
    stores it in :attr:`result`; R1 must only grow between passes
    (the held ``theta_1`` is its length), and :meth:`clear` drops the
    result when R1 is replaced.

    ``registry`` is the owner's :class:`~repro.obs.MetricsRegistry`:
    passes report their ``maxcover.*`` counters there, and lookups
    count ``maxcover.greedy_reuse``.
    """

    __slots__ = ("result", "obs")

    def __init__(self, registry: object = None) -> None:
        self.result: Optional[GreedyResult] = None
        self.obs = resolve_registry(registry)

    def lookup(self, theta1: int, k: int) -> Optional[GreedyResult]:
        """The held pass if it answers *k* seeds at *theta1*, else None."""
        held = self.result
        if held is not None and held.num_rr_sets == theta1 and k <= held.k:
            return held
        return None

    def width(self, theta1: int, k: int, n: int) -> int:
        """Seeds the next pass selects, for a miss at ``(theta1, k)``.

        A first pass selects ``k``.  A pass on a grown R1 keeps the held
        width, so every ``k`` answered so far stays a lookup.  A ``k``
        above the held width at the same ``theta1`` at least doubles it
        (capped at ``n``): an ascending ``k = 1..50`` sweep costs the 7
        passes ``1, 2, 4, ..., 64``.
        """
        held = self.result
        if held is None:
            return k
        if held.num_rr_sets != theta1:
            return max(k, held.k)
        return min(n, max(k, 2 * held.k))

    def clear(self) -> None:
        self.result = None


def greedy_max_coverage(
    collection: RRCollection, k: int, registry=None
) -> GreedyResult:
    """Run greedy maximum coverage selecting *k* seeds.

    Ties are broken toward the smallest node id, making the output
    deterministic for a fixed collection.

    ``registry`` (optional :class:`~repro.obs.MetricsRegistry`) receives
    the ``maxcover.greedy_runs`` / ``maxcover.coverage_evals`` /
    ``maxcover.marginal_updates`` counters: one coverage evaluation per
    marginal a prefix reads (its pool, or all ``n`` on a full-vector
    prefix or a pool refresh), and one marginal update per member of
    every freshly covered RR set.

    Raises
    ------
    ParameterError
        If the collection is empty or ``k`` is out of range.
    """
    check_k(k, collection.n)
    if len(collection) == 0:
        raise ParameterError("cannot run greedy on an empty RR collection")
    collection.build()

    n = collection.n
    num_rr = len(collection)
    node_offsets = collection.node_offsets
    node_rrs = collection.node_rrs
    rr_offsets = collection.rr_offsets
    rr_nodes = collection.rr_nodes

    # cov[v] = marginal coverage of v w.r.t. the current prefix.  It
    # stays exact for all nodes (the Eq. 10 top-k sums need it).  Each
    # prefix reads its top-k and its argmax from the candidate pool
    # while one holds (see the module docstring); a full-vector prefix
    # masks already-selected nodes out of argmax, which would otherwise
    # re-pick a selected node when gains tie at zero.
    cov = np.bincount(rr_nodes, minlength=n).astype(np.int64)
    selected = np.zeros(n, dtype=bool)
    covered = np.zeros(num_rr, dtype=bool)

    seeds: List[int] = []
    gains: List[int] = []
    prefix_coverages: List[int] = [0]
    topk_cumsums = np.empty((k + 1, k), dtype=np.int64)
    total_covered = 0
    marginal_updates = 0
    coverage_evals = 0
    # An empty pool with a positive floor: the first prefix refreshes it.
    pool, floor = _NO_POOL, 1

    for i in range(k + 1):
        if floor:
            marginals = cov[pool]
            live = marginals >= floor
            if np.count_nonzero(live) >= k:
                pool, marginals = pool[live], marginals[live]
            else:
                coverage_evals += n
                pool, floor = _candidate_pool(cov, k)
                marginals = cov[pool]
        if not floor:
            marginals = cov
        coverage_evals += marginals.shape[0]
        _top_k_cumsum(marginals, k, topk_cumsums[i])
        if i == k:
            break

        if floor:
            u = int(pool[np.argmax(marginals)])
        else:
            u = int(np.argmax(np.where(selected, np.int64(-1), cov)))
        gain = int(cov[u])
        seeds.append(u)
        gains.append(gain)
        selected[u] = True

        if gain > 0:
            lo, hi = node_offsets[u], node_offsets[u + 1]
            candidate_rrs = node_rrs[lo:hi]
            fresh = candidate_rrs[~covered[candidate_rrs]]
            covered[fresh] = True
            total_covered += int(fresh.size)

            if fresh.size:
                # Gather all member nodes of the freshly covered RR sets
                # and decrement their marginal coverages.
                starts = rr_offsets[fresh]
                lengths = rr_offsets[fresh + 1] - starts
                total = int(lengths.sum())
                cum = np.cumsum(lengths)
                index = (
                    np.arange(total, dtype=np.int64)
                    + np.repeat(starts - np.concatenate(([0], cum[:-1])), lengths)
                )
                members = rr_nodes[index]
                np.subtract.at(cov, members, 1)
                marginal_updates += total

        prefix_coverages.append(total_covered)

    obs = resolve_registry(registry)
    obs.count("maxcover.greedy_runs")
    obs.count("maxcover.coverage_evals", coverage_evals)
    obs.count("maxcover.marginal_updates", marginal_updates)
    return GreedyResult(
        seeds=seeds,
        coverage=total_covered,
        prefix_coverages=prefix_coverages,
        prefix_topk_sums=topk_cumsums[:, k - 1].tolist(),
        gains=gains,
        num_rr_sets=num_rr,
        topk_cumsums=topk_cumsums,
    )
