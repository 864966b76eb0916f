"""Serve-path scenarios for the statistical acceptance harness.

Each scenario runs ONE independent trial of a serving pattern that the
static analyzer (reprolint RPR201/RPR202 and the runtime
``DeltaLedger``) can only guard structurally, and returns the
guarantees that pattern emitted as claim groups:

* ``cold_opimc`` — the single-query Algorithm 2 path (the only path
  the pre-existing ``test_guarantee_stats`` covered); also the referee
  for ``stopping="sadeh"``.
* ``warm_index`` — answer, persist the sketch, restart a fresh engine
  from the on-disk index, answer again: the post-restart claims ride
  on RR sets sampled by a *previous process*.
* ``multi_k`` — one shared sketch adopted (``adopt_collections``) by
  several per-``k`` sessions; each ``k``'s claims are a group.
* ``repeated_queries`` — identical queries against one ``k``, so every
  claim leans on the ``delta / 2^i`` simultaneous-guarantee schedule.
* ``pool_stream`` — the session loop driven by one shared-memory
  ``SamplingPool`` shared across trials, each trial reading the next
  slice of its batch-seeded stream (the one RR stream of every
  sampler at every worker count).
* ``cluster_path`` — the full sharded tier: trials go through the
  :class:`~repro.serve.cluster.frontend.ClusterFrontend` HTTP API into
  a worker process, then evict + requery so the checked claims ride a
  worker engine warm-restarted from the persistent index.  The
  guarantee must match ``warm_index`` — the cluster adds transport and
  process boundaries, never statistics.

A trial never asserts anything itself — it reports claims; the runner
checks them against the exact oracle and aggregates failure rates.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.opimc import opim_c
from repro.core.session import OPIMSession
from repro.graph.digraph import DiGraph
from repro.serve.engine import SeedQueryEngine
from repro.stats_harness.report import Claim, ClaimGroup, TrialResult


@dataclass
class TrialContext:
    """Everything one trial needs; built by the runner per trial."""

    graph: DiGraph
    seed: int
    trial: int
    model: str = "IC"
    epsilon: float = 0.3
    delta: float = 0.25
    k: int = 2
    ks: Tuple[int, ...] = (1, 2, 3)
    queries: int = 3
    step: int = 200
    rr_budget: int = 6000
    stopping: str = "paper"
    index_dir: Optional[Path] = None
    pool: Optional[Any] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def alpha_target(self) -> float:
        """The conventional ``1 - 1/e - epsilon`` acceptance level."""
        return 1.0 - 1.0 / math.e - self.epsilon


@dataclass(frozen=True)
class Scenario:
    """A named trial recipe plus the resources it needs."""

    name: str
    description: str
    run: Callable[[TrialContext], TrialResult]
    needs_pool: bool = False
    needs_index_dir: bool = False


def _session_group(
    session: OPIMSession, label: str, source: str
) -> ClaimGroup:
    """One session's history as a jointly-guaranteed claim group."""
    claims = tuple(
        Claim(
            seeds=tuple(claim["seeds"]),
            factor=claim["alpha"],
            source=f"{source}:query-{claim['query']}",
        )
        for claim in session.guarantee_claims()
    )
    return ClaimGroup(label=label, delta=session.delta, claims=claims)


def _engine_groups(engine: SeedQueryEngine, source: str) -> List[ClaimGroup]:
    """Per-``k`` claim groups from everything an engine answered."""
    groups = []
    for k, claims in engine.guarantee_claims().items():
        groups.append(
            ClaimGroup(
                label=f"k={k}",
                delta=engine.delta,
                claims=tuple(
                    Claim(
                        seeds=tuple(claim["seeds"]),
                        factor=claim["alpha"],
                        source=f"{source}:k={k}:query-{claim['query']}",
                    )
                    for claim in claims
                ),
            )
        )
    return groups


def _make_engine(ctx: TrialContext, **overrides: Any) -> SeedQueryEngine:
    kwargs: Dict[str, Any] = dict(
        model=ctx.model,
        seed=ctx.seed,
        delta=ctx.delta,
        step=ctx.step,
        max_rr_sets=ctx.rr_budget,
    )
    kwargs.update(overrides)
    return SeedQueryEngine(ctx.graph, **kwargs)


# ----------------------------------------------------------------------
# Scenario bodies
# ----------------------------------------------------------------------
def run_cold_opimc(ctx: TrialContext) -> TrialResult:
    result = opim_c(
        ctx.graph,
        ctx.model,
        k=ctx.k,
        epsilon=ctx.epsilon,
        delta=ctx.delta,
        seed=ctx.seed,
        stopping=ctx.stopping,
    )
    group = ClaimGroup(
        label=f"opim_c[{ctx.stopping}] k={ctx.k}",
        delta=ctx.delta,
        claims=(
            Claim(
                seeds=tuple(result.seeds),
                factor=ctx.alpha_target,
                source=f"opim_c:{ctx.stopping}",
            ),
        ),
    )
    return TrialResult(groups=(group,), rr_sets=result.num_rr_sets)


def run_warm_index(ctx: TrialContext) -> TrialResult:
    assert ctx.index_dir is not None, "warm_index needs an index_dir"
    with _make_engine(ctx, index_dir=ctx.index_dir) as engine:
        engine.answer(ctx.k, epsilon=ctx.epsilon)
        engine.save_index()
        sampled_cold = int(engine.sampler.sets_generated)
    with _make_engine(ctx, index_dir=ctx.index_dir) as warm:
        assert warm.loaded_from_index, "engine did not warm-start"
        warm.answer(ctx.k, epsilon=ctx.epsilon)
        groups = _engine_groups(warm, "warm")
        sampled_total = int(warm.sampler.sets_generated)
    # The post-restart engine's stream position includes the cold
    # engine's sets; both phases belong to the trial's sampling cost.
    return TrialResult(
        groups=tuple(groups), rr_sets=max(sampled_total, sampled_cold)
    )


def run_multi_k(ctx: TrialContext) -> TrialResult:
    with _make_engine(ctx) as engine:
        for k in ctx.ks:
            engine.answer(k, epsilon=ctx.epsilon)
        groups = _engine_groups(engine, "multi_k")
        sampled = int(engine.sampler.sets_generated)
    return TrialResult(groups=tuple(groups), rr_sets=sampled)


def run_repeated_queries(ctx: TrialContext) -> TrialResult:
    with _make_engine(ctx) as engine:
        for _ in range(ctx.queries):
            engine.answer(ctx.k, epsilon=ctx.epsilon)
        groups = _engine_groups(engine, "repeated")
        sampled = int(engine.sampler.sets_generated)
    return TrialResult(groups=tuple(groups), rr_sets=sampled)


async def _cluster_trial(ctx: TrialContext) -> TrialResult:
    from repro.serve.cluster import ClusterFrontend
    from repro.serve.http import ServeClient

    front = ClusterFrontend(
        port=0, workers=2, state_dir=ctx.index_dir, drain_timeout=60.0
    )
    await front.start()
    client: Optional[ServeClient] = None
    headers = {"X-Tenant": "stats"}
    try:
        front.register_graph(
            ctx.graph,
            "trial",
            tenant="stats",
            seed=ctx.seed,
            delta=ctx.delta,
            step=ctx.step,
            max_rr_sets=ctx.rr_budget,
        )
        client = await ServeClient.connect(front.host, front.port)

        async def run_job() -> Dict[str, Any]:
            status, _, body = await client.request_raw(
                "POST",
                "/jobs",
                payload={
                    "graph": "trial",
                    "k": ctx.k,
                    "epsilon": ctx.epsilon,
                    "rr_budget": ctx.rr_budget,
                },
                headers=headers,
            )
            assert status == 202, f"submit failed: {status} {body}"
            job_id = body["job_id"]
            status, _, body = await client.request_raw(
                "GET", f"/jobs/{job_id}/result?wait=120", headers=headers
            )
            assert status == 200, f"job failed: {status} {body}"
            return body

        await run_job()
        status, _, body = await client.request_raw(
            "POST", "/graphs/trial/evict", headers=headers
        )
        assert status == 200, f"evict failed: {status} {body}"
        warm = await run_job()
        # The warm engine's claim history (a job reply carries only its
        # own claim).
        status, _, history = await client.request_raw(
            "GET", "/graphs/trial/claims", headers=headers
        )
        assert status == 200, f"claims read failed: {status} {history}"
    finally:
        if client is not None:
            await client.close()
        await front.close(drain=True)
    assert warm["engine"]["loaded_from_index"], (
        "worker engine did not warm-start from the persistent index"
    )
    groups = []
    assert history["claims"][str(ctx.k)][-1] == warm["claim"], (
        "the job's own claim is not the last of the engine's history"
    )
    for k_text, claims in history["claims"].items():
        k = int(k_text)  # JSON object keys arrive as strings
        groups.append(
            ClaimGroup(
                label=f"k={k}",
                delta=ctx.delta,
                claims=tuple(
                    Claim(
                        seeds=tuple(claim["seeds"]),
                        factor=claim["alpha"],
                        source=f"cluster:k={k}:query-{claim['query']}",
                    )
                    for claim in claims
                ),
            )
        )
    return TrialResult(
        groups=tuple(groups),
        rr_sets=int(warm["engine"]["sets_generated"]),
    )


def run_cluster_path(ctx: TrialContext) -> TrialResult:
    assert ctx.index_dir is not None, "cluster_path needs an index_dir"
    return asyncio.run(_cluster_trial(ctx))


def run_pool_stream(ctx: TrialContext) -> TrialResult:
    assert ctx.pool is not None, "pool_stream needs a shared SamplingPool"
    # Trials share one pool: each trial adopts fresh collections and
    # consumes the next slice of the pool's deterministic stream, so
    # trials stay independent without paying a pool spin-up each time.
    session = OPIMSession(
        ctx.graph, ctx.model, k=ctx.k, delta=ctx.delta, sampler=ctx.pool
    )
    session.run_until(
        alpha_target=ctx.alpha_target, rr_budget=ctx.rr_budget, step=ctx.step
    )
    group = _session_group(session, f"pool k={ctx.k}", "pool")
    return TrialResult(groups=(group,), rr_sets=session.num_rr_sets)


SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            "cold_opimc",
            "single-query Algorithm 2 (threshold claim vs. OPT)",
            run_cold_opimc,
        ),
        Scenario(
            "warm_index",
            "save/restart/load the persistent sketch index, then answer",
            run_warm_index,
            needs_index_dir=True,
        ),
        Scenario(
            "multi_k",
            "one shared sketch adopted across several per-k sessions",
            run_multi_k,
        ),
        Scenario(
            "repeated_queries",
            "identical queries under the delta/2^i schedule",
            run_repeated_queries,
        ),
        Scenario(
            "pool_stream",
            "session loop on the shared-memory SamplingPool stream",
            run_pool_stream,
            needs_pool=True,
        ),
        Scenario(
            "cluster_path",
            "HTTP front end -> worker process -> evict -> warm requery",
            run_cluster_path,
            needs_index_dir=True,
        ),
    )
}
