"""Walker's alias method for O(1) discrete sampling (Walker 1977).

The LT-model RR-set sampler performs a reverse random walk that, at each
node, picks one in-neighbor with probability proportional to the edge
weight.  The alias method makes each pick O(1) after O(d) preprocessing
per node, which is what gives LT RR-set generation its
``O(E[sigma({v})])`` expected cost (paper, Appendix A).

Two builders produce the same tables:

* :func:`build_alias_arrays` builds one distribution with Vose's list
  loop.  It is the reference, and the builder behind
  :class:`AliasTable`.
* :func:`build_alias_segments` builds every segment of a CSR layout
  (one distribution per node) in one vectorized pass.  Its ``accept``
  and ``alias`` arrays are bitwise equal to calling
  :func:`build_alias_arrays` on each segment: the segment sums, the
  scaling and every pairing step perform the same float64 operations
  in the same order.  Sums are taken per in-degree group as row sums
  of a contiguous ``(count, d)`` gather: numpy sums each row pairwise,
  as it does the 1-D ``weights[lo:hi].sum()``.  ``np.add.reduceat``
  sums sequentially, differs in the last bits and would change the
  tables.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import ParameterError
from repro.utils.rng import SeedLike, as_generator

#: Active segments at or below which :func:`build_alias_segments` stops
#: pairing in lockstep and finishes each segment with the list loop.  A
#: lockstep step costs about as much as a few dozen scalar steps, so a
#: hub, or one long distribution, is cheaper to finish alone.
SCALAR_FINISH = 32


def build_alias_arrays(weights: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Build alias-method tables for one discrete distribution.

    Parameters
    ----------
    weights:
        Non-negative weights (not necessarily normalized), length ``d``.

    Returns
    -------
    (accept, alias):
        ``accept[i]`` is the probability of keeping column ``i``;
        ``alias[i]`` is the fallback outcome for column ``i``.
    """
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or weights.size == 0:
        raise ParameterError("weights must be a non-empty 1-D array")
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ParameterError("weights must be finite and non-negative")
    total = weights.sum()
    if total <= 0:
        raise ParameterError("weights must have positive sum")

    d = weights.size
    scaled = weights * (d / total)
    accept = np.ones(d, dtype=np.float64)
    alias = np.arange(d, dtype=np.int64)

    small = [i for i in range(d) if scaled[i] < 1.0]
    large = [i for i in range(d) if scaled[i] >= 1.0]
    scaled = scaled.copy()
    while small and large:
        s = small.pop()
        l = large.pop()
        accept[s] = scaled[s]
        alias[s] = l
        scaled[l] = scaled[l] - (1.0 - scaled[s])
        if scaled[l] < 1.0:
            small.append(l)
        else:
            large.append(l)
    # Residual columns (numerical leftovers) keep accept = 1.
    return accept, alias


def _segment_sums(weights: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``weights[offsets[i]:offsets[i + 1]].sum()`` for every segment ``i``.

    Bitwise equal to the per-slice sums: segments of one length are
    gathered into a ``(count, d)`` array and summed along its rows.
    Empty segments sum to 0.
    """
    degrees = np.diff(offsets)
    totals = np.zeros(degrees.size, dtype=np.float64)
    order = np.argsort(degrees, kind="stable")
    cuts = np.flatnonzero(np.diff(degrees[order])) + 1
    for group in np.split(order, cuts):
        d = int(degrees[group[0]]) if group.size else 0
        if d:
            rows = weights[offsets[group, None] + np.arange(d)]
            totals[group] = rows.sum(axis=1)
    return totals


def build_alias_segments(
    weights: np.ndarray, offsets: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alias tables for every segment of a CSR layout, in one pass.

    Segment ``i`` is ``weights[offsets[i]:offsets[i + 1]]``, with
    ``offsets[0] == 0`` and ``offsets[-1] == weights.size`` as in a CSR
    layout.  The weights must be finite and non-negative.

    Returns
    -------
    (accept, alias, totals):
        ``accept`` / ``alias`` hold each segment's table at its slots,
        with ``alias`` in local column indices.  Where a segment sums
        to a positive total they equal ``build_alias_arrays(segment)``
        bit for bit; zero-sum and empty segments keep ``accept = 1``
        and ``alias = 0``.  ``totals`` are the segment sums, bitwise
        equal to ``weights[lo:hi].sum()``.

    Every segment keeps its small and large stacks in its own slots of
    one ``stack`` array: small columns first, then large, each in
    ascending column order, so the top of the small stack sits at
    ``ts`` and the top of the large stack at the segment's end.  One
    lockstep step pops a small and a large column from every active
    segment, exactly as the list loop does.  When the large column
    turns small it replaces the small one on its stack, otherwise it
    stays on the large stack.  Once at most :data:`SCALAR_FINISH`
    segments are active, each finishes with the list loop.
    """
    weights = np.asarray(weights, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.int64)
    m = weights.size
    degrees = np.diff(offsets)
    starts = offsets[:-1]
    totals = _segment_sums(weights, offsets)

    built = totals > 0.0
    segment = np.repeat(np.arange(degrees.size), degrees)
    accept = np.ones(m, dtype=np.float64)
    alias = np.where(built[segment], np.arange(m) - starts[segment], 0)

    factor = np.zeros(degrees.size, dtype=np.float64)
    factor[built] = degrees[built] / totals[built]
    scaled = weights * factor[segment]
    large = scaled >= 1.0
    # Stable order: per segment its small columns, then its large ones.
    stack = np.argsort(2 * segment + large, kind="stable")
    n_small = np.bincount(segment[~large], minlength=degrees.size)
    del segment, large

    active = np.flatnonzero(built & (n_small > 0) & (n_small < degrees))
    lo = starts[active]
    floor_large = lo + n_small[active]
    ts = floor_large - 1
    tl = offsets[active + 1] - 1
    while active.size > SCALAR_FINISH:
        s = stack[ts]
        l = stack[tl]
        kept = scaled[s]
        accept[s] = kept
        alias[s] = l - lo
        left = scaled[l] - (1.0 - kept)
        scaled[l] = left
        turned = left < 1.0
        stack[ts[turned]] = l[turned]
        tl -= turned
        ts -= ~turned
        going = (ts >= lo) & (tl >= floor_large)
        if not going.all():
            active, lo, floor_large = active[going], lo[going], floor_large[going]
            ts, tl = ts[going], tl[going]

    for start, stop, low, top_small, top_large in zip(
        lo.tolist(),
        offsets[active + 1].tolist(),
        floor_large.tolist(),
        ts.tolist(),
        tl.tolist(),
    ):
        small = (stack[start : top_small + 1] - start).tolist()
        large = (stack[low : top_large + 1] - start).tolist()
        _finish_segment(scaled, accept, alias, start, stop, small, large)
    return accept, alias, totals


def _finish_segment(scaled, accept, alias, start, stop, small, large):
    """The list loop of :func:`build_alias_arrays` on one segment.

    *small* and *large* are the segment's stacks in local columns.
    Python floats are float64, so the arithmetic is the reference's.
    """
    values = scaled[start:stop].tolist()
    columns, accepts, aliases = [], [], []
    while small and large:
        s = small.pop()
        l = large.pop()
        columns.append(s)
        accepts.append(values[s])
        aliases.append(l)
        values[l] = values[l] - (1.0 - values[s])
        if values[l] < 1.0:
            small.append(l)
        else:
            large.append(l)
    slots = np.asarray(columns, dtype=np.int64) + start
    accept[slots] = accepts
    alias[slots] = aliases


class AliasTable:
    """Sampler over ``{0, .., d-1}`` with probabilities ``weights/sum``.

    >>> table = AliasTable([1.0, 3.0])
    >>> counts = np.bincount(table.sample(10000, seed=0), minlength=2)
    >>> bool(counts[1] > counts[0])
    True
    """

    def __init__(self, weights: np.ndarray) -> None:
        self.accept, self.alias = build_alias_arrays(weights)
        self.d = self.accept.shape[0]

    def sample(self, size: int = None, seed: SeedLike = None):
        """Draw one index (``size=None``) or an array of indices."""
        rng = as_generator(seed)
        if size is None:
            column = int(rng.integers(0, self.d))
            if rng.random() < self.accept[column]:
                return column
            return int(self.alias[column])
        columns = rng.integers(0, self.d, size=size)
        keep = rng.random(size) < self.accept[columns]
        return np.where(keep, columns, self.alias[columns]).astype(np.int64)

    def probabilities(self) -> np.ndarray:
        """Reconstruct the sampling distribution (for testing).

        Each column contributes ``accept/d`` to itself and
        ``(1-accept)/d`` to its alias.
        """
        probs = np.zeros(self.d, dtype=np.float64)
        np.add.at(probs, np.arange(self.d), self.accept / self.d)
        np.add.at(probs, self.alias, (1.0 - self.accept) / self.d)
        return probs
