"""Shared-sketch seed-query engine.

:class:`SeedQueryEngine` is the serving layer's model of the paper's
online contract: keep **one** RR-sketch stream (an R1/R2 collection
pair fed by one deterministic sampler) per ``(graph, model, seed)``,
and answer every ``(k, bound, target)`` query by *extending* that
stream just far enough — never by restarting it.

Why this is sound: RR sets are query-independent (Section 3.1), so
the sketch is shared across every ``k``.  So is greedy's pick order
(ties go to the smallest id): the engine holds one greedy pass over
R1, of width ``K``, and a query for ``k <= K`` on the same R1 reads
its answer as that pass's ``k``-prefix
(:class:`~repro.maxcover.greedy.SharedGreedy`), equal to a ``k``-pass
bit for bit.  What is per-``k`` is the failure-budget bookkeeping, so
the engine keeps one :class:`~repro.core.session.OPIMSession` per
``k``, all adopting the same two collections, greedy holder (via
:meth:`~repro.core.opim.OnlineOPIM.adopt_collections`) and sampler.
Each per-``k`` session applies the simultaneous-guarantee schedule
(query ``i`` gets budget ``delta / 2^i``), so everything the
server ever reported for a given ``k`` holds jointly w.p.
``>= 1 - delta``.

The engine is deliberately single-threaded: the asyncio server funnels
all engine work through one executor thread, which both serializes
access and keeps the event loop free for I/O.
"""

from __future__ import annotations

import math
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.core.session import OPIMSession, SessionResult
from repro.core.theta import theta_sadeh
from repro.exceptions import ParameterError, StateError
from repro.graph.digraph import DiGraph
from repro.maxcover.greedy import SharedGreedy
from repro.obs import resolve_registry
from repro.sampling.collection import RRCollection
from repro.sampling.hop import DEFAULT_HOPS, HopEstimator
from repro.sampling.kernel import RRSampler
from repro.sampling.service import SamplingPool
from repro.serve.index import (
    append_sessions,
    graph_fingerprint,
    load_index,
    save_index,
    save_manifest,
)

PathLike = Union[str, Path]

#: Server-side ceiling on the shared stream (overridable per engine).
DEFAULT_MAX_RR_SETS = 500_000

#: RR sets added before the first retry of an unsatisfied query.
DEFAULT_STEP = 2_000

#: Session-journal size at which a schedule-only checkpoint folds the
#: journal into a rewritten manifest, so replay stays bounded on an
#: index that serves for long without growing.
JOURNAL_FOLD_BYTES = 1 << 20


class SeedQueryEngine:
    """Long-lived seed-query engine over one shared RR sketch.

    Parameters
    ----------
    graph:
        Weighted :class:`DiGraph`, loaded once for the engine's life.
    model:
        ``"IC"`` or ``"LT"``.
    seed:
        Root seed of the shared deterministic stream.  Two engines
        with the same graph, model, and seed answer every query
        identically — including across save/load of the index.
    workers:
        ``> 1`` streams through a warm
        :class:`~repro.sampling.service.SamplingPool`; otherwise a
        serial :class:`~repro.sampling.kernel.RRSampler` is used.
        The two draw different streams, so an index warm-starts only
        an engine with the same choice.
    delta:
        Total failure budget *per k* (default ``1/n``); each per-``k``
        session schedules its queries under ``delta / 2^i``.
    index_dir:
        Optional sketch-index directory.  When it contains a manifest
        the engine warm-starts from it; :meth:`save_index` writes back
        to it.
    step, max_rr_sets:
        Extension step for unsatisfied queries and the hard ceiling on
        the shared stream.
    registry:
        Optional :class:`~repro.obs.MetricsRegistry` — the engine
        maintains ``serve.extend_rr_sets`` / ``serve.extend_seconds``
        and the underlying sampler metrics.
    on_answer:
        Optional callback invoked with every completed :meth:`answer`
        response dict (after metrics, before return).  This is the
        trial hook the statistical acceptance harness
        (:mod:`repro.stats_harness`) uses to capture the exact
        guarantees the serving path emitted, without patching the
        engine; exceptions from the callback propagate to the caller.
    """

    def __init__(
        self,
        graph: DiGraph,
        model: str = "IC",
        seed: int = 2018,
        workers: Optional[int] = None,
        delta: Optional[float] = None,
        index_dir: Optional[PathLike] = None,
        step: int = DEFAULT_STEP,
        max_rr_sets: int = DEFAULT_MAX_RR_SETS,
        registry: Optional[object] = None,
        on_answer: Optional[Callable[[Dict[str, Any]], None]] = None,
    ) -> None:
        if step < 2:
            raise ParameterError(f"step must be >= 2, got {step}")
        if max_rr_sets < 2:
            raise ParameterError(f"max_rr_sets must be >= 2, got {max_rr_sets}")
        self.graph = graph
        self.model = model.upper()
        self.seed = int(seed)
        self.delta = float(delta) if delta is not None else 1.0 / graph.n
        self.step = int(step)
        self.max_rr_sets = int(max_rr_sets)
        self.obs = resolve_registry(registry)
        self.on_answer = on_answer
        self.graph_hash = graph_fingerprint(graph)
        self.workers = int(workers) if workers is not None else 1
        if self.workers > 1:
            self.sampler: Any = SamplingPool(
                graph, self.model, workers=self.workers,
                seed=self.seed, registry=self.obs,
            )
        else:
            self.sampler = RRSampler(
                graph, self.model, seed=self.seed, registry=self.obs
            )
        #: The sampling kernel behind the stream (reported in stats).
        self.kernel = self.sampler.kernel
        self._hop: Optional[HopEstimator] = None
        self.r1 = RRCollection(graph.n)
        self.r2 = RRCollection(graph.n)
        # The one greedy pass over r1 that every per-k session reads.
        self._greedy = SharedGreedy(self.obs)
        self._sessions: Dict[int, OPIMSession] = {}
        # Per-k schedule positions loaded from an index but not yet
        # claimed by a live session (see _session / load_index).
        self._restored_sessions: Dict[int, Dict[str, Any]] = {}
        self._closed = False
        # Index-staleness tracking for /healthz: RR sets at the last
        # save/load and when that sync happened (monotonic clock).
        self._index_synced_rr_sets: Optional[int] = None
        self._index_synced_at: Optional[float] = None
        self._index_synced_sessions: Optional[Dict[str, Any]] = None
        # The manifest as last written or loaded (schedule-only
        # checkpoints return it with the current sessions).
        self._manifest: Optional[Dict[str, Any]] = None
        self.index_dir = Path(index_dir) if index_dir is not None else None
        self.loaded_from_index = False
        if (
            self.index_dir is not None
            and (self.index_dir / "manifest.json").exists()
        ):
            self.load_index(self.index_dir)
            self.loaded_from_index = True

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the sampling pool (no-op for the serial sampler)."""
        if self._closed:
            return
        self._closed = True
        if isinstance(self.sampler, SamplingPool):
            self.sampler.close()

    def __enter__(self) -> "SeedQueryEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _check_open(self) -> None:
        if self._closed:
            raise StateError("SeedQueryEngine is closed")

    # ------------------------------------------------------------------
    # The shared stream
    # ------------------------------------------------------------------
    @property
    def num_rr_sets(self) -> int:
        return len(self.r1) + len(self.r2)

    def _session(self, k: int) -> OPIMSession:
        session = self._sessions.get(k)
        if session is None:
            session = OPIMSession(
                self.graph,
                self.model,
                k=k,
                delta=self.delta,
                sampler=self.sampler,
            )
            session.online.adopt_collections(self.r1, self.r2, self._greedy)
            restored = self._restored_sessions.pop(k, None)
            if restored is not None:
                session.restore_schedule(
                    int(restored.get("queries_made", 0)),
                    float(restored.get("opt_lower", 0.0)),
                )
            self._sessions[k] = session
        return session

    def extend(self, count: int) -> None:
        """Proactively grow the shared sketch by *count* RR sets."""
        self._check_open()
        if count < 0 or count % 2:
            raise ParameterError(
                f"count must be non-negative and even, got {count}"
            )
        started = time.perf_counter()
        self.sampler.fill(self.r1, count // 2)
        self.sampler.fill(self.r2, count // 2)
        self.obs.count("serve.extend_rr_sets", count)
        self.obs.observe("serve.extend_seconds", time.perf_counter() - started)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @staticmethod
    def resolve_target(
        alpha_target: Optional[float], epsilon: Optional[float]
    ) -> float:
        """Normalize a request's target to an alpha value.

        Exactly one of ``alpha_target`` / ``epsilon`` must be given;
        ``epsilon`` requests the conventional ``1 - 1/e - epsilon``
        level (the OPIM-C stopping threshold, Section 6).
        """
        if (alpha_target is None) == (epsilon is None):
            raise ParameterError(
                "provide exactly one of alpha_target and epsilon"
            )
        if epsilon is not None:
            if not 0.0 < epsilon < 1.0:
                raise ParameterError(f"epsilon must be in (0, 1), got {epsilon}")
            alpha_target = 1.0 - 1.0 / math.e - epsilon
        assert alpha_target is not None
        if not 0.0 < alpha_target <= 1.0:
            raise ParameterError(
                f"alpha_target must be in (0, 1], got {alpha_target}"
            )
        return float(alpha_target)

    def _sadeh_cap(
        self, session: OPIMSession, k: int, target: float
    ) -> Optional[int]:
        """Tight sample cap for a repeat query on a warm sketch.

        From query two onward the session holds a certified lower
        bound on ``OPT`` (:attr:`OPIMSession.certified_opt_lower`),
        which raises the denominator floor of
        :func:`~repro.core.theta.theta_sadeh` — so the engine can cap
        how far :meth:`answer` is allowed to extend the stream without
        weakening the guarantee.  Returns the cap in *total* RR sets
        (both halves), or ``None`` when no certified bound exists yet
        or the target does not correspond to a positive epsilon.
        """
        if session.queries_made == 0:
            return None
        opt_lower = session.certified_opt_lower
        if opt_lower <= 0.0:
            return None
        eps_equiv = 1.0 - 1.0 / math.e - target
        if eps_equiv <= 0.0:
            return None
        theta = theta_sadeh(
            self.graph.n,
            k,
            eps_equiv,
            session.next_query_delta(),
            opt_lower=opt_lower,
        )
        # theta bounds each half of the stream; the budget counts both.
        return 2 * int(math.ceil(theta))

    def answer(
        self,
        k: int,
        bound: str = "greedy",
        alpha_target: Optional[float] = None,
        epsilon: Optional[float] = None,
        rr_budget: Optional[int] = None,
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Answer one seed query, extending the shared sketch if needed.

        The existing stream is queried first; only when its guarantee
        falls short of the target does the engine sample more (in
        geometrically growing steps, never past ``rr_budget`` /
        ``max_rr_sets``).  Returns a JSON-ready response dict.

        ``trace_id`` carries the server's per-request id across the
        executor-thread hop: trace contexts are thread-local, so the
        engine re-enters the context here, which tags its spans — and,
        through :class:`SamplingPool` chunk tasks, the worker-side
        chunk spans — with the originating request.
        """
        self._check_open()
        target = self.resolve_target(alpha_target, epsilon)
        cap = self.max_rr_sets if rr_budget is None else min(
            int(rr_budget), self.max_rr_sets
        )
        session = self._session(k)
        theta_cap = self._sadeh_cap(session, k, target)
        if theta_cap is not None:
            cap = min(cap, theta_cap)
        sampled_before = self.num_rr_sets
        fill_before = float(getattr(self.sampler, "fill_seconds", 0.0))
        started = time.perf_counter()
        with self.obs.trace_context(trace_id), self.obs.trace("serve/answer"):
            result: SessionResult = session.run_until(
                alpha_target=target,
                rr_budget=cap,
                step=self.step,
                bound=bound,
                query_first=True,
            )
        elapsed = time.perf_counter() - started
        sampled = self.num_rr_sets - sampled_before
        # Split request time into sampling (sketch extension inside the
        # sampler's fill) and selection (greedy + bound bookkeeping).
        sample_seconds = (
            float(getattr(self.sampler, "fill_seconds", 0.0)) - fill_before
        )
        select_seconds = max(0.0, elapsed - sample_seconds)
        self.obs.histogram("engine.sample_seconds").observe(sample_seconds)
        self.obs.histogram("engine.select_seconds").observe(select_seconds)
        if sampled:
            self.obs.count("serve.extend_rr_sets", sampled)
            self.obs.observe("serve.extend_seconds", elapsed)
        snapshot = result.snapshot
        response = {
            "k": k,
            "bound": snapshot.variant,
            "seeds": [int(s) for s in snapshot.seeds],
            "alpha": float(snapshot.alpha),
            "alpha_target": target,
            "satisfied": bool(snapshot.alpha >= target),
            "num_rr_sets": int(snapshot.num_rr_sets),
            "theta1": int(snapshot.theta1),
            "theta2": int(snapshot.theta2),
            "sigma_low": float(snapshot.sigma_low),
            "sigma_up": float(snapshot.sigma_up),
            "sampled": int(sampled),
            "theta_cap": theta_cap,
            "stop": result.stop.kind,
            "queries_made": session.queries_made,
            "engine_seconds": elapsed,
            "sample_seconds": sample_seconds,
            "select_seconds": select_seconds,
        }
        if self.on_answer is not None:
            self.on_answer(response)
        return response

    def answer_hop(
        self,
        k: Optional[int] = None,
        seeds: Optional[List[int]] = None,
        hops: int = DEFAULT_HOPS,
        trace_id: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Answer a ``precision="hop"`` preview query — no guarantee.

        The deterministic hop-bounded approximation of
        :class:`~repro.sampling.hop.HopEstimator` (arXiv:1705.10442)
        answers in microseconds without touching the RR stream: pass
        ``k`` for a cheap seed-set preview, or ``seeds`` for a what-if
        spread evaluation of a user-supplied set.  Exactly one of the
        two must be given.

        The response carries ``"guarantee": False`` and
        ``"no_guarantee": True`` — hop answers never enter the
        ``delta / 2^i`` schedule and must not be read as
        ``(1-1/e-eps, 1-delta)`` certified.
        """
        self._check_open()
        if (k is None) == (seeds is None):
            raise ParameterError("provide exactly one of k and seeds")
        started = time.perf_counter()
        with self.obs.trace_context(trace_id), self.obs.trace("serve/hop"):
            if self._hop is None:
                self._hop = HopEstimator(self.graph)
            if k is not None:
                chosen, sigma = self._hop.select(int(k), hops=hops)
            else:
                assert seeds is not None
                chosen = [int(s) for s in seeds]
                sigma = self._hop.spread(chosen, hops=hops)
        elapsed = time.perf_counter() - started
        self.obs.count("serve.hop_queries")
        self.obs.observe("serve.hop_seconds", elapsed)
        response = {
            "precision": "hop",
            "guarantee": False,
            "no_guarantee": True,
            "hops": int(hops),
            "k": len(chosen),
            "seeds": chosen,
            "sigma_hop": float(sigma),
            "sigma_hop_fraction": float(sigma) / self.graph.n,
            "what_if": k is None,
            "sampled": 0,
            "engine_seconds": elapsed,
        }
        if self.on_answer is not None:
            self.on_answer(response)
        return response

    def guarantee_claims(self) -> Dict[int, List[Dict[str, Any]]]:
        """All guarantees the engine has emitted, grouped by ``k``.

        Each ``k`` maps to the per-``k`` session's
        :meth:`~repro.core.session.OPIMSession.guarantee_claims` — the
        claims inside one group hold jointly w.p. >= ``1 - delta``
        under the ``delta / 2^i`` schedule, while distinct ``k`` groups
        carry independent budgets.  The statistical acceptance harness
        checks every group against a brute-force ``OPT`` oracle.
        """
        return {
            k: session.guarantee_claims()
            for k, session in sorted(self._sessions.items())
        }

    def last_claim(self, k: int) -> Optional[Dict[str, Any]]:
        """The claim of the latest ``k`` query, as an entry of
        :meth:`guarantee_claims` (``None`` before the first)."""
        session = self._sessions.get(int(k))
        return None if session is None else session.last_claim()

    def stats(self) -> Dict[str, Any]:
        """JSON-ready snapshot of the engine's state."""
        return {
            "graph": self.graph.name,
            "graph_hash": self.graph_hash,
            "n": self.graph.n,
            "m": self.graph.m,
            "model": self.model,
            "seed": self.seed,
            "workers": self.workers,
            "kernel": self.kernel,
            "delta": self.delta,
            "num_rr_sets": self.num_rr_sets,
            "theta1": len(self.r1),
            "theta2": len(self.r2),
            "max_rr_sets": self.max_rr_sets,
            "sessions": {
                str(k): s.queries_made for k, s in sorted(self._sessions.items())
            },
            "delta_audit": {
                str(k): s.ledger.audit() for k, s in sorted(self._sessions.items())
            },
            "sets_generated": int(self.sampler.sets_generated),
            "edges_examined": int(self.sampler.edges_examined),
            "loaded_from_index": self.loaded_from_index,
        }

    def memory_bytes(self) -> int:
        """Approximate resident bytes of the shared sketch.

        Counts both collection halves: the flat RR-node arrays (int32),
        the inverted node→RR index (int64), and the offset arrays.
        This is the accounting the cluster tier budgets against — an
        estimate of the dominant term, not an ``getsizeof`` audit.
        """
        total = 0
        for coll in (self.r1, self.r2):
            # rr_nodes int32 + node_rrs int64 per sampled node entry,
            # plus the two offset arrays (int64).
            total += coll.total_size * (4 + 8)
            total += (len(coll) + 1) * 8 + (coll.n + 1) * 8
        return int(total)

    def _session_schedule_state(self) -> Dict[str, Any]:
        """Per-``k`` schedule positions, as stored in the manifest.

        Covers live sessions that have made queries *and* positions
        loaded from an index whose session was never re-created — so a
        checkpoint written right after a warm start does not lose the
        predecessor's schedule.
        """
        state: Dict[str, Any] = {
            str(k): dict(v) for k, v in self._restored_sessions.items()
        }
        for k, session in self._sessions.items():
            if session.queries_made:
                state[str(k)] = {
                    "queries_made": session.queries_made,
                    "opt_lower": session.certified_opt_lower,
                }
        return state

    def checkpoint(self) -> Optional[Dict[str, Any]]:
        """Persist the sketch iff it has drifted past the saved index.

        A no-op (returning ``None``) when the engine has no
        ``index_dir`` or when neither the stream nor any per-``k``
        schedule position moved since the last save/load — so eviction
        and graceful drain can call it unconditionally without
        rewriting an unchanged index.  A satisfied repeat query that
        sampled nothing still advanced its session's ``delta / 2^i``
        schedule, which is state the next warm start must see — but
        since the RR arrays on disk are untouched, that case appends
        the moved ``k``-s to the index's session journal and returns
        the manifest with the current sessions.  Once the journal
        reaches :data:`JOURNAL_FOLD_BYTES` it is folded into a
        rewritten manifest.
        """
        if self.index_dir is None:
            return None
        staleness = self.index_staleness()
        if not (staleness["synced"] and staleness["stale_rr_sets"] == 0):
            return self.save_index()
        schedule = self._session_schedule_state()
        synced = self._index_synced_sessions or {}
        changed = {k: v for k, v in schedule.items() if synced.get(k) != v}
        if not changed:
            return None
        assert self._manifest is not None  # set by every save and load
        journal_bytes = append_sessions(self.index_dir, changed)
        self.obs.count("serve.journal_appends")
        if journal_bytes < JOURNAL_FOLD_BYTES:
            manifest = {**self._manifest, "extra": {"sessions": schedule}}
        else:
            manifest = save_manifest(
                self.index_dir,
                graph=self.graph,
                graph_hash=self.graph_hash,
                model=self.model,
                theta1=len(self.r1),
                theta2=len(self.r2),
                sampler_state=self.sampler.state(),
                seed=self.seed,
                extra={"sessions": schedule},
                offsets_crc32=self._manifest["offsets_crc32"],
            )
            self.obs.count("serve.manifest_saves")
            self._manifest = manifest
        self._mark_index_synced()
        return manifest

    def index_staleness(self) -> Dict[str, Any]:
        """How far the in-memory sketch has drifted from the saved index.

        ``synced`` is False until the first :meth:`save_index` /
        :meth:`load_index`; after that, ``stale_rr_sets`` counts the RR
        sets appended since the sync and ``age_seconds`` its wall-clock
        age.  Surfaced by the server's ``/healthz``.
        """
        if self._index_synced_rr_sets is None or self._index_synced_at is None:
            return {"synced": False, "stale_rr_sets": None, "age_seconds": None}
        return {
            "synced": True,
            "stale_rr_sets": self.num_rr_sets - self._index_synced_rr_sets,
            "age_seconds": time.monotonic() - self._index_synced_at,
        }

    def _mark_index_synced(self) -> None:
        self._index_synced_rr_sets = self.num_rr_sets
        self._index_synced_at = time.monotonic()
        self._index_synced_sessions = self._session_schedule_state()

    # ------------------------------------------------------------------
    # Index persistence
    # ------------------------------------------------------------------
    def _is_index_dir(self, directory: PathLike) -> bool:
        """Whether *directory* is the one :meth:`checkpoint` writes to
        (any directory when the engine has no ``index_dir``)."""
        if self.index_dir is None:
            return True
        return Path(directory).resolve() == self.index_dir.resolve()

    def _mark_index_unsynced(self) -> None:
        self._index_synced_rr_sets = None
        self._index_synced_at = None
        self._index_synced_sessions = None

    def save_index(self, directory: Optional[PathLike] = None) -> Dict[str, Any]:
        """Persist the shared sketch (defaults to ``index_dir``).

        Only a save into ``index_dir`` counts as a sync for
        :meth:`checkpoint` and :meth:`index_staleness`: a copy written
        elsewhere leaves ``index_dir``'s state as it was.
        """
        self._check_open()
        target = Path(directory) if directory is not None else self.index_dir
        if target is None:
            raise ParameterError(
                "no directory given and the engine has no index_dir"
            )
        sessions = self._session_schedule_state()
        manifest = save_index(
            target,
            graph=self.graph,
            graph_hash=self.graph_hash,
            model=self.model,
            r1=self.r1,
            r2=self.r2,
            sampler_state=self.sampler.state(),
            seed=self.seed,
            extra={"sessions": sessions} if sessions else None,
        )
        self.obs.count("serve.index_saves")
        if directory is None or self._is_index_dir(target):
            self._manifest = manifest
            self._mark_index_synced()
        return manifest

    def load_index(self, directory: PathLike, mmap: bool = True) -> None:
        """Warm-start from an on-disk sketch written by :meth:`save_index`.

        Replaces the shared collections with the loaded (mmapped)
        halves, restores the sampler's stream position *and* the saved
        per-``k`` ``delta / 2^i`` schedule positions (so a repeat
        query after the restart runs with the same failure-budget
        slice and Sadeh sample cap as it would have uninterrupted),
        and re-adopts the collections into any per-``k`` session
        already created.  A load from a directory other than
        ``index_dir`` leaves the engine unsynced, so the next
        :meth:`checkpoint` writes ``index_dir`` in full.
        """
        self._check_open()
        loaded = load_index(
            directory, self.graph, mmap=mmap, graph_hash=self.graph_hash
        )
        manifest = loaded.manifest
        if manifest["model"] != self.model:
            raise ParameterError(
                f"index was sampled under {manifest['model']}, engine "
                f"runs {self.model}"
            )
        if int(manifest["seed"]) != self.seed:
            raise ParameterError(
                f"index stream seed {manifest['seed']} does not match "
                f"engine seed {self.seed}"
            )
        self.sampler.restore_state(dict(manifest["sampler_state"]))
        self.r1 = loaded.r1
        self.r2 = loaded.r2
        self._greedy.clear()
        # Resume the saved per-k delta/2^i schedule positions.  A k
        # with a live session keeps that session's (newer) state; the
        # rest are applied lazily when _session(k) first creates one.
        saved_sessions = manifest.get("extra", {}).get("sessions", {})
        self._restored_sessions = {
            int(k): dict(v)
            for k, v in saved_sessions.items()
            if int(k) not in self._sessions
        }
        for session in self._sessions.values():
            session.online.adopt_collections(self.r1, self.r2, self._greedy)
        self.obs.count("serve.index_loads")
        self.obs.set_gauge("serve.index_rr_sets", self.num_rr_sets)
        if self._is_index_dir(directory):
            self._manifest = manifest
            self._mark_index_synced()
        else:
            self._mark_index_unsynced()
