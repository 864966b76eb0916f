"""The in-process workload ``cold_grow``.

It drives :class:`~repro.serve.engine.SeedQueryEngine` in the
benchmark's own process, on the pokec-sim stand-in at scale 2.5
(n = 8000, m = 152k), with the engine's default sampler.
"""

from __future__ import annotations

import shutil
import statistics
import time
from typing import Any, Dict, List

from common import MEMORY_CYCLES, Context, Workload, percentile, rss_mb

DATASET = "pokec-sim"
SCALE = 2.5

#: ``cold_grow`` script, per model.  Two growth queries: the first takes
#: an empty sketch to 2000 RR sets, the second to 4000 (each target
#: lies between the guarantee the sketch gives before that step and
#: the one it gives after it, with a margin of about 0.04 over seeds
#: 1-12).  Then 50 rising ``(k, target)`` queries, five rounds over
#: k = 1..10, with targets that even a 2000-set sketch meets, so they
#: sample nothing.  The latencies are those of these answers (see
#: ``ColdGrow.latency_ms``); small k keeps greedy's input-sensitive
#: share of them small (see ``stream_seed``).
GROWTH = {"IC": [(20, 0.40), (50, 0.52)], "LT": [(20, 0.60), (50, 0.71)]}
RISING = {
    model: [
        (k, round(base + step * (10 * rnd + k), 4))
        for rnd in range(5)
        for k in range(1, 11)
    ]
    for model, base, step in (("IC", 0.20, 0.0016), ("LT", 0.40, 0.0024))
}
#: What-if hop evaluations run on the seeds of every HOP_EVERY-th answer.
HOP_EVERY = 10

def load_graph(ctx: Context) -> Any:
    from repro.datasets import load_dataset

    if ctx.tracer is None or not ctx.tracer.enabled:
        return load_dataset(DATASET, scale=SCALE)
    frame = ctx.tracer.begin("graph.load")
    try:
        return load_dataset(DATASET, scale=SCALE)
    finally:
        ctx.tracer.end(frame)


def stream_seed(ctx: Context, *salt: int) -> int:
    """An engine's RR-stream seed, derived from the workload seed.

    Greedy's cost differs by up to 2.5x between sketches drawn with
    different seeds (``np.partition`` in ``greedy_max_coverage`` is
    input-sensitive), so a run spreads its work over several sketches
    instead of timing one draw.
    """
    value = ctx.seed
    for part in salt:
        value = 1_000 * value + part
    return value


class ColdGrow(Workload):
    """Fresh engines answer the rising script from an empty sketch,
    checkpointing after every answer, first under IC and then LT."""

    name = "cold_grow"

    def check_answer(self, response: Dict[str, Any], k: int, target: float) -> None:
        seeds = response["seeds"]
        n = self.graph.n
        self.check(response["satisfied"], f"unsatisfied answer {k}/{target}")
        self.check(response["alpha"] >= target, f"alpha below target at k={k}")
        self.check(len(seeds) == k and len(set(seeds)) == k, f"not {k} distinct seeds")
        self.check(all(0 <= s < n for s in seeds), "seed out of range")

    def check_hop(self, response: Dict[str, Any]) -> None:
        self.check(response.get("no_guarantee") is True, "hop reply claims a guarantee")

    def setup(self, rep: int, last: bool) -> None:
        self.graph = load_graph(self.ctx)
        self.graphs = {DATASET: (self.graph.n, self.graph.m)}
        self.first_ms: List[float] = []

    def _ask(self, engine: Any, model: str, k: int, target: float, cycle: int) -> Dict[str, Any]:
        self.ctx.probe()
        started = time.perf_counter()
        response = engine.answer(k, alpha_target=target)
        engine.checkpoint()
        latency = time.perf_counter() - started
        self.check_answer(response, k, target)
        self.ops.append({
            "kind": "answer", "latency": latency, "ok": True, "cycle": cycle,
            "sampled": response["sampled"], "engine_s": response["engine_seconds"],
            "rr_sets": response["num_rr_sets"],
        })
        return response

    def _hop(self, engine: Any, seeds: List[int], cycle: int) -> None:
        started = time.perf_counter()
        response = engine.answer_hop(seeds=seeds)
        latency = time.perf_counter() - started
        self.check_hop(response)
        self.ops.append({"kind": "hop", "latency": latency, "ok": True, "cycle": cycle})

    def cycle(self, index: int, traced: bool) -> float:
        from repro.serve import SeedQueryEngine

        started = time.perf_counter()
        for salt, model in enumerate(("IC", "LT")):
            directory = self.ctx.work / f"cold-{model}-{index}"
            seed = stream_seed(self.ctx, index, salt)
            self.ctx.probe()
            probing = self.ctx.probe_seconds
            built = time.perf_counter()
            engine = SeedQueryEngine(self.graph, model, seed=seed, index_dir=directory)
            self.kernel = engine.kernel
            for step, (k, target) in enumerate(GROWTH[model]):
                response = self._ask(engine, model, k, target, index)
                if step == 0:
                    probing = self.ctx.probe_seconds - probing
                    self.first_ms.append(1e3 * (time.perf_counter() - built - probing))
                self._hop(engine, response["seeds"], index)
            for step, (k, target) in enumerate(RISING[model], start=1):
                response = self._ask(engine, model, k, target, index)
                if step % HOP_EVERY == 0:
                    self._hop(engine, response["seeds"], index)
            # Memory is read while an engine still holds its sketch.
            measure = not traced and index < MEMORY_CYCLES
            if measure:
                self.memory.append(rss_mb())
            engine.close()
            # Warm restart from the checkpoints: the last answer must
            # come back without sampling and with the same seeds.
            restarted = SeedQueryEngine(self.graph, model, seed=seed, index_dir=directory)
            again = restarted.answer(k, alpha_target=target)
            if measure:
                self.memory.append(rss_mb())
            restarted.close()
            self.check(again["sampled"] == 0, "restart sampled")
            self.check(again["seeds"] == response["seeds"], "restart changed the seeds")
            shutil.rmtree(directory)
        return time.perf_counter() - started

    def first_answer_ms(self) -> float:
        return statistics.median(self.first_ms)

    def latency_ms(self, pct: float) -> float:
        """The median over cycles of each cycle's *pct*-th percentile
        answer from the sketch (``sampled == 0``, checkpoint included).

        Growth answers are left to ``answer_s``: at 4 in 104 answers
        they put a pooled p95 on the slowest one or two sketch answers
        of a cycle, which a single host stall moves.  Per-cycle figures
        with a median over the run's cycles hold against stalls that
        hit only a few cycles.
        """
        per_cycle: Dict[int, List[float]] = {}
        for op in self.ops:
            if op["kind"] == "answer" and op["sampled"] == 0:
                per_cycle.setdefault(op["cycle"], []).append(op["latency"])
        return 1e3 * statistics.median(percentile(v, pct) for v in per_cycle.values())
