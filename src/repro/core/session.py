"""High-level online-processing sessions on top of :class:`OnlineOPIM`.

Two features the paper describes around its core algorithm:

* **Simultaneous guarantees** (Section 4, "Discussions"): when the user
  queries at multiple timestamps, each snapshot individually holds
  w.p. >= 1 - delta, but not jointly.  The paper's fix is a failure
  schedule: give the i-th query failure budget ``delta / 2^i`` so the
  union over all queries stays within ``delta``.
  :class:`OPIMSession` implements that schedule.

* **Stopping conditions**: the OPIM use case is "run until the
  guarantee is good enough or the budget runs out".
  :meth:`OPIMSession.run_until` packages the extend/query loop with
  alpha / RR-set / wall-clock budgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.bounds.delta_ledger import DeltaLedger
from repro.core.opim import OnlineOPIM
from repro.core.results import OnlineSnapshot
from repro.exceptions import ParameterError, StateError
from repro.graph.digraph import DiGraph
from repro.utils.rng import SeedLike


@dataclass(frozen=True)
class StopReason:
    """Why :meth:`OPIMSession.run_until` returned."""

    kind: str  # "alpha" | "rr_budget" | "time_budget" | "max_queries"
    detail: str


@dataclass(frozen=True)
class SessionResult:
    """Final snapshot plus the full query history and the stop cause."""

    snapshot: OnlineSnapshot
    history: List[OnlineSnapshot]
    stop: StopReason


class OPIMSession:
    """An interactive OPIM session with a joint failure budget.

    Parameters mirror :class:`OnlineOPIM` (including ``sampler=`` for
    an injected sampler such as a shared
    :class:`~repro.sampling.service.SamplingPool`); ``delta`` is the
    *total* failure probability across **all** queries of the session.  The
    i-th query (1-based) runs with per-query failure budget
    ``delta / 2^i``, so by the union bound every guarantee ever
    reported holds simultaneously w.p. >= 1 - delta.

    >>> from repro.graph import power_law_graph, assign_wc_weights
    >>> g = assign_wc_weights(power_law_graph(200, 5, seed=3))
    >>> session = OPIMSession(g, "IC", k=4, delta=0.1, seed=3)
    >>> session.extend(1000)
    >>> first = session.query()
    >>> session.extend(1000)
    >>> second = session.query()
    >>> second.num_rr_sets > first.num_rr_sets
    True
    """

    def __init__(
        self,
        graph: DiGraph,
        model: str,
        k: int,
        delta: Optional[float] = None,
        bound: str = "greedy",
        seed: SeedLike = None,
        registry: Optional[object] = None,
        workers: Optional[int] = None,
        sampler: Optional[Any] = None,
    ) -> None:
        self._online = OnlineOPIM(
            graph, model, k=k, delta=delta if delta is not None else 1.0 / graph.n,
            bound=bound, seed=seed, registry=registry, workers=workers,
            sampler=sampler,
        )
        self.queries_made = 0
        self.history: List[OnlineSnapshot] = []
        # Running max of every query's sigma_low and of the bound
        # carried over by restore_schedule: certified_opt_lower.
        self._opt_lower = 0.0
        # Runtime mirror of the schedule's union bound: every query's
        # slice is recorded so the joint guarantee is auditable (and,
        # under REPRO_DELTA_STRICT, asserted) at run time.
        self.ledger = DeltaLedger(self._online.delta)

    def close(self) -> None:
        """Release the sampling pool owned by the underlying algorithm
        (no-op when the session samples serially)."""
        self._online.close()

    def __enter__(self) -> "OPIMSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # Delegated streaming interface -----------------------------------
    @property
    def delta(self) -> float:
        return self._online.delta

    @property
    def num_rr_sets(self) -> int:
        return self._online.num_rr_sets

    @property
    def online(self) -> OnlineOPIM:
        """The underlying single-query algorithm (advanced use)."""
        return self._online

    @property
    def alpha_trajectory(self) -> List[dict]:
        """Telemetry rows of every snapshot taken through this session."""
        return self._online.alpha_trajectory

    def extend(self, count: int) -> None:
        self._online.extend(count)

    def extend_to(self, total: int) -> None:
        self._online.extend_to(total)

    # Scheduled querying ----------------------------------------------
    def next_query_delta(self) -> float:
        """Failure budget the next query will use (``delta / 2^(i)``)."""
        return self.delta / (2.0 ** (self.queries_made + 1))

    def restore_schedule(self, queries_made: int, opt_lower: float = 0.0) -> None:
        """Resume the ``delta / 2^i`` schedule of a checkpointed session.

        A warm restart (crash recovery, eviction reload, process
        restart over a persistent sketch) continues the *same* logical
        session: the restored stream already answered ``queries_made``
        queries, whose ``delta / 2^i`` slices are spent.  Replaying
        that position — rather than starting the schedule over — keeps
        the joint ``1 - delta`` budget honest across restarts and
        makes a recovered repeat query bitwise-identical to the
        uninterrupted run (same slice, same
        :attr:`certified_opt_lower`-derived sample cap).

        Only a fresh session (no queries taken) can be restored; the
        restored queries' slices are charged to the ledger but their
        snapshots are not reconstructed, so :attr:`history` and
        :meth:`guarantee_claims` cover post-restore queries only.
        """
        if self.queries_made or self.history:
            raise StateError(
                "restore_schedule requires a fresh session; this one has "
                f"already made {self.queries_made} queries"
            )
        if queries_made < 0:
            raise ParameterError(
                f"queries_made must be non-negative, got {queries_made}"
            )
        for i in range(1, int(queries_made) + 1):
            self.ledger.spend(
                self.delta / (2.0 ** i), label=f"restored-query-{i}"
            )
        self.queries_made = int(queries_made)
        self._opt_lower = max(0.0, float(opt_lower))

    def query(self, bound: Optional[str] = None) -> OnlineSnapshot:
        """Query under the simultaneous-guarantee schedule.

        The returned snapshot's alpha holds jointly with every previous
        snapshot of this session w.p. >= 1 - delta.
        """
        query_delta = self.next_query_delta()
        snapshot = self._online.query(
            bound=bound, delta1=query_delta / 2.0, delta2=query_delta / 2.0
        )
        self.ledger.spend(query_delta, label=f"query-{self.queries_made + 1}")
        self.queries_made += 1
        self.history.append(snapshot)
        self._opt_lower = max(self._opt_lower, float(snapshot.sigma_low))
        self._online.obs.record(
            "session_query",
            query=self.queries_made,
            query_delta=query_delta,
            num_rr_sets=snapshot.num_rr_sets,
            alpha=snapshot.alpha,
        )
        return snapshot

    @property
    def certified_opt_lower(self) -> float:
        """Best certified lower bound on ``OPT`` this session has seen.

        Every snapshot's ``sigma_low`` is the Eq. 5 lower bound on the
        spread of its greedy seed set — hence on ``sigma(S*) <= OPT``
        — certified on the same high-probability event as that query's
        alpha guarantee, so reusing it spends no extra failure budget
        (the arXiv:1808.09363 caveat concerns reusing *RR sets*, not
        the bound value).  The serving layer feeds this into
        :func:`~repro.core.theta.theta_sadeh` so a warm sketch's
        repeat queries start from a tight sample cap; ``0.0`` until
        the first query.  Includes the bound carried over by
        :meth:`restore_schedule`.  Kept as a running max, so reading it
        does not scan :attr:`history`.
        """
        return self._opt_lower

    def guarantee_claims(self) -> List[Dict[str, Any]]:
        """Every guarantee this session has reported, as checkable claims.

        One dict per query taken through the Section 4 simultaneous-
        guarantee schedule: the seed set, the alpha certified for it,
        and the ``delta / 2^i`` slice it was charged.  All claims hold
        *jointly* w.p. >= ``1 - delta`` — the statement the statistical
        acceptance harness (:mod:`repro.stats_harness`) verifies end to
        end against brute-force ``OPT`` oracles.  After
        :meth:`restore_schedule` the numbering (and each ``query_delta``)
        continues from the restored position.
        """
        return [self._claim(position) for position in range(len(self.history))]

    def last_claim(self) -> Optional[Dict[str, Any]]:
        """The claim of the latest query (``query == queries_made``),
        or ``None`` before the first; costs one claim, not the
        history."""
        if not self.history:
            return None
        return self._claim(len(self.history) - 1)

    def _claim(self, position: int) -> Dict[str, Any]:
        # Queries restored by restore_schedule have no snapshot, so
        # history[0] is query number queries_made - len(history) + 1.
        index = self.queries_made - len(self.history) + position + 1
        snap = self.history[position]
        return {
            "query": index,
            "seeds": [int(s) for s in snap.seeds],
            "alpha": float(snap.alpha),
            "query_delta": self.delta / (2.0 ** index),
            "num_rr_sets": int(snap.num_rr_sets),
        }

    def run_until(
        self,
        alpha_target: Optional[float] = None,
        rr_budget: Optional[int] = None,
        time_budget: Optional[float] = None,
        step: int = 2000,
        max_queries: int = 64,
        bound: Optional[str] = None,
        query_first: bool = False,
    ) -> SessionResult:
        """Extend-and-query until a stopping condition fires.

        Parameters
        ----------
        alpha_target:
            Stop once a snapshot's guarantee reaches this value.
        rr_budget:
            Stop before exceeding this many total RR sets.
        time_budget:
            Stop once the algorithm's own wall-clock time (sampling +
            querying) exceeds this many seconds, checked per round.
        step:
            RR sets added between queries (doubled geometrically after
            each unsatisfied query, mirroring the paper's checkpoints).
        max_queries:
            Hard cap on query rounds.
        bound:
            Bound variant forwarded to every :meth:`query` of the loop
            (default: the session's bound).
        query_first:
            Query the *existing* stream before sampling anything.  A
            warm session (restored checkpoint, shared serving sketch)
            whose current guarantee already meets ``alpha_target``
            then returns without generating a single RR set.

        At least one of the three budgets/targets must be given.
        """
        if alpha_target is None and rr_budget is None and time_budget is None:
            raise ParameterError(
                "provide at least one of alpha_target, rr_budget, time_budget"
            )
        if alpha_target is not None and not 0.0 < alpha_target <= 1.0:
            raise ParameterError(f"alpha_target must be in (0, 1], got {alpha_target}")
        if step < 2:
            raise ParameterError(f"step must be >= 2, got {step}")

        snapshot = None
        stop = StopReason("max_queries", f"{max_queries} queries exhausted")
        grow = step
        if query_first and self.num_rr_sets > 0:
            snapshot = self.query(bound=bound)
            if alpha_target is not None and snapshot.alpha >= alpha_target:
                return SessionResult(
                    snapshot=snapshot,
                    history=list(self.history),
                    stop=StopReason(
                        "alpha",
                        f"alpha {snapshot.alpha:.4f} >= {alpha_target} "
                        "(pre-existing stream)",
                    ),
                )
        for _ in range(max_queries):
            target_total = self.num_rr_sets + grow
            if rr_budget is not None and target_total > rr_budget:
                target_total = rr_budget
            if target_total <= self.num_rr_sets:
                stop = StopReason("rr_budget", f"budget {rr_budget} reached")
                break
            self.extend_to(target_total)
            snapshot = self.query(bound=bound)
            if alpha_target is not None and snapshot.alpha >= alpha_target:
                stop = StopReason(
                    "alpha", f"alpha {snapshot.alpha:.4f} >= {alpha_target}"
                )
                break
            if time_budget is not None and self._online.timer.elapsed >= time_budget:
                stop = StopReason(
                    "time_budget",
                    f"{self._online.timer.elapsed:.2f}s >= {time_budget}s",
                )
                break
            if rr_budget is not None and self.num_rr_sets >= rr_budget:
                stop = StopReason("rr_budget", f"budget {rr_budget} reached")
                break
            grow *= 2

        if snapshot is None:
            # No query ran (rr_budget below current stream size).
            snapshot = self.query(bound=bound)
        return SessionResult(snapshot=snapshot, history=list(self.history), stop=stop)
