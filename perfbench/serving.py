"""Server workloads: ``http_mix`` and ``cluster_jobs``.

The server under test runs in its own process (``serverproc.py``); the
benchmark process is the load generator.  Load is a closed loop on two
keep-alive connections, one thread each.

In a traced run an extra, traced server takes the traced cycles; its
spans come back in files when it exits.
"""

from __future__ import annotations

import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import (
    MEMORY_CYCLES,
    JsonConnection,
    Workload,
    child_pids,
    pin,
    pinned_env,
    rss_mb,
    stop_process,
    wait_for_line,
)
from inproc import DATASET, load_graph, stream_seed

CONNECTIONS = 2
LAUNCH_TIMEOUT = 120.0

# -- http_mix ------------------------------------------------------------
#: Sketch size of the served index.  Exact requests carry it as their
#: ``rr_budget``: every query on a ``k`` takes the next slice of that
#: ``k``'s ``delta / 2^i`` schedule, so after enough fresh queries the
#: guarantee on a fixed sketch falls below a target.  The budget keeps
#: the server answering from the index (``sampled == 0``) however many
#: requests a faster server gets through in a run.
HTTP_RR_SETS = 8_000
#: Requests per cycle, and the seeded mix of their kinds.
HTTP_CYCLE = 200
HOT_SHARE, HOP_SHARE = 0.70, 0.15
#: The hot set: (k, target) pairs that repeat, so the cache serves them.
HOT = [(2, 0.3), (5, 0.3), (10, 0.3), (20, 0.3), (5, 0.35), (10, 0.35), (25, 0.35), (40, 0.35)]
#: Fresh pairs use small k: greedy's cost per step varies by up to 2.5x
#: between sketches (see ``inproc.stream_seed``), and a server serves
#: one sketch.
FRESH_KS = 10
FRESH_TARGETS = (0.20, 0.40)
HOP_KS = 20

# -- cluster_jobs --------------------------------------------------------
#: A tenant's first job samples exactly this many RR sets.
WARM_BUDGET = 4_000
#: A growth job samples exactly this many more.
GROWTH = 500
GROWTH_SHARE = 0.2
JOB_KS = (2, 5, 10, 20)
CLUSTER_CYCLE = 40
REPEAT_TARGET = 0.5
UNREACHABLE = 0.99


def http_requests(seed: int, cycle: int, count: int = HTTP_CYCLE) -> List[Dict[str, Any]]:
    """The seeded request mix of one ``http_mix`` cycle."""
    rng = random.Random(f"http-{seed}-{cycle}")
    out: List[Dict[str, Any]] = []
    for _ in range(count):
        u = rng.random()
        if u < HOT_SHARE:
            k, target = HOT[rng.randrange(len(HOT))]
            out.append({"k": k, "alpha_target": target, "rr_budget": HTTP_RR_SETS})
        elif u < HOT_SHARE + HOP_SHARE:
            out.append({"precision": "hop", "k": rng.randint(1, HOP_KS)})
        else:
            target = round(rng.uniform(*FRESH_TARGETS), 4)
            out.append({"k": rng.randint(1, FRESH_KS), "alpha_target": target, "rr_budget": HTTP_RR_SETS})
    return out


def cluster_jobs(seed: int, cycle: int, lane: int, tenants: List[str], count: int) -> List[Tuple[str, str, int]]:
    """The seeded job plan of one lane: ``(kind, tenant, k)`` triples."""
    rng = random.Random(f"cluster-{seed}-{cycle}-{lane}")
    return [
        (
            "growth" if rng.random() < GROWTH_SHARE else "repeat",
            tenants[rng.randrange(len(tenants))],
            JOB_KS[rng.randrange(len(JOB_KS))],
        )
        for _ in range(count)
    ]


class Server:
    """One server process and the benchmark's connections to it."""

    def __init__(self, argv: List[str], ctx: Any, trace_out: Optional[Path]) -> None:
        self.trace_out = trace_out
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "serverproc.py"), *argv]
            + (["--trace-out", str(trace_out)] if trace_out else []),
            cwd=ctx.root,
            env=pinned_env(ctx.src),
            stdout=subprocess.PIPE,
            text=True,
        )
        pin(self.proc.pid, ctx.server_cpus)
        try:
            self.info = wait_for_line(self.proc, LAUNCH_TIMEOUT)
        except BaseException:
            stop_process(self.proc)
            raise
        self.conns = [JsonConnection("127.0.0.1", self.info["port"]) for _ in range(CONNECTIONS)]
        self.stopped: Optional[float] = None
        self.state: Dict[str, Any] = {}

    def stop(self) -> None:
        if self.stopped is not None:
            return
        for conn in self.conns:
            conn.close()
        self.stopped = time.perf_counter()
        code = stop_process(self.proc)
        if code != 0:
            raise RuntimeError(f"server process exited with {code}")

    def trace(self) -> Tuple[List[Any], Dict[str, float]]:
        from spans import load_dump

        assert self.trace_out is not None
        spans: List[Any] = []
        counts: Dict[str, float] = {}
        for path in sorted(self.trace_out.parent.glob(self.trace_out.name + "*")):
            more, more_counts = load_dump(path)
            spans += more
            for name, value in more_counts.items():
                counts[name] = counts.get(name, 0.0) + value
        return spans, counts


class ServerWorkload(Workload):
    """Set-up launches one server per repetition.  Untraced cycles go to
    :attr:`pool` (with :attr:`keep_all`, every set-up's server, in turn;
    otherwise the last one's); a traced run adds :attr:`traced`, a
    traced server on the last set-up's inputs, for the traced cycles."""

    tier = ""
    latency_kinds = ("request",)
    keep_all = False

    def __init__(self, ctx: Any) -> None:
        super().__init__(ctx)
        ctx.probe_cpus = sorted(set(ctx.bench_cpus) | set(ctx.server_cpus))
        self.pool: List[Server] = []
        self.traced: Optional[Server] = None
        self.first_ms: List[float] = []
        self.lock = threading.Lock()

    def server_argv(self, rep: int, traced: bool) -> List[str]:
        raise NotImplementedError

    def warm_up(self, server: Server, span: str) -> None:
        """First requests on a fresh server (part of its set-up)."""
        raise NotImplementedError

    def launch(self, rep: int, last: bool) -> None:
        server = self.start(rep, traced=False)
        if last or (self.keep_all and not self.ctx.trace):
            self.pool.append(server)
        else:
            server.stop()
        if last and self.ctx.trace:
            self.traced = self.start(rep, traced=True)

    def start(self, rep: int, traced: bool) -> Server:
        trace_out = self.ctx.work / f"trace-{rep}.json" if traced else None
        tracer = self.ctx.tracer
        frame = tracer.begin("client.launch") if tracer is not None and tracer.enabled else None
        try:
            server = Server(self.server_argv(rep, traced), self.ctx, trace_out)
        finally:
            if frame is not None:
                tracer.end(frame)
        # Warm-up waits on a traced server are requests it traces;
        # on any other server they are launch time.
        try:
            self.warm_up(server, "client.request" if traced else "client.launch")
        except BaseException:
            server.stop()
            raise
        return server

    def server(self, index: int, traced: bool) -> Server:
        if traced:
            assert self.traced is not None
            return self.traced
        return self.pool[index % len(self.pool)]

    def timed(self, server: Server, lane: int, span: str, method: str, path: str,
              payload: Any = None, headers: Any = None) -> Tuple[float, int, Any, int]:
        tracer = self.ctx.tracer
        frame = tracer.begin(span) if tracer is not None and tracer.enabled else None
        started = time.perf_counter()
        try:
            status, body, size = server.conns[lane].request(method, path, payload, headers)
        finally:
            if frame is not None:
                tracer.end(frame)
        return time.perf_counter() - started, status, body, size

    def run_lanes(self, work: List[Any]) -> float:
        """Run each lane's callable on its own thread; returns the sum of
        the lanes' run times, so a lane that finishes first does not
        count its wait for the other."""
        errors: List[BaseException] = []
        durations: List[float] = []

        def target(fn: Any) -> None:
            started = time.perf_counter()
            try:
                fn()
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                errors.append(exc)
            durations.append(time.perf_counter() - started)

        threads = [threading.Thread(target=target, args=(fn,)) for fn in work]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return sum(durations)

    def remote_trace(self) -> Optional[Dict[str, Any]]:
        server = self.traced
        if server is None:
            return None
        server.stop()
        spans, counts = server.trace()
        return {
            "tier": self.tier,
            "spans": spans,
            "counts": counts,
            "ready": server.info["ready"],
            "stop": server.stopped,
        }

    def first_answer_ms(self) -> float:
        return statistics.median(self.first_ms)

    def close(self) -> None:
        for server in self.pool + ([self.traced] if self.traced else []):
            try:
                server.stop()
            except RuntimeError as exc:
                print(f"warning: {exc}")


class HttpMix(ServerWorkload):
    """``SeedQueryServer`` on a warm pokec-sim IC index: cached repeats,
    hop previews and fresh pairs the sketch meets."""

    name = "http_mix"
    tier = "server"
    #: The served sketch decides greedy's cost (see ``inproc.stream_seed``),
    #: so cycles rotate over the three set-ups' servers and sketches.
    keep_all = True

    def __init__(self, ctx: Any) -> None:
        super().__init__(ctx)
        self.exact: Dict[int, Dict[int, List[int]]] = {}
        self.computed: Dict[str, List[Dict[str, Any]]] = {}
        self.reused: List[Tuple[str, Dict[str, Any]]] = []

    def setup(self, rep: int, last: bool) -> None:
        from repro.serve import SeedQueryEngine

        self.graph = load_graph(self.ctx)
        self.graphs = {DATASET: (self.graph.n, self.graph.m)}
        self.index_dir = self.ctx.work / f"http-index-{rep}"
        self.stream = stream_seed(self.ctx, rep)
        with SeedQueryEngine(self.graph, "IC", seed=self.stream, index_dir=self.index_dir) as engine:
            self.kernel = engine.kernel
            engine.extend(HTTP_RR_SETS)
            engine.save_index()
            # Reference answers: greedy seeds per k depend only on the
            # sketch, hop seeds only on the graph.
            self.exact[self.stream] = {
                k: engine.answer(k, alpha_target=0.01, rr_budget=HTTP_RR_SETS)["seeds"]
                for k in range(1, max(FRESH_KS, max(k for k, _ in HOT)) + 1)
            }
            if rep == 0:
                self.hops = {k: engine.answer_hop(k=k)["seeds"] for k in range(1, HOP_KS + 1)}
        self.launch(rep, last)

    def server_argv(self, rep: int, traced: bool) -> List[str]:
        return ["http", "--index-dir", str(self.index_dir), "--stream-seed", str(self.stream)]

    def warm_up(self, server: Server, span: str) -> None:
        k, target = HOT[0]
        payload = {"k": k, "alpha_target": target, "rr_budget": HTTP_RR_SETS}
        latency, status, body, _ = self.timed(server, 0, span, "POST", "/query", payload)
        self.check(status == 200, f"first query failed with {status}")
        self.first_ms.append(1e3 * (time.perf_counter() - server.launched))
        self.check(body["satisfied"], "the first query misses its target")
        self.check_reply(server, payload, body)
        self.check_reused()

    def check_reply(self, server: Server, payload: Dict[str, Any], body: Dict[str, Any]) -> None:
        k = payload["k"]
        if payload.get("precision") == "hop":
            self.check(body.get("no_guarantee") is True, "hop reply claims a guarantee")
            self.check(body["seeds"] == self.hops[k], f"hop preview k={k} differs")
        else:
            target = payload["alpha_target"]
            self.check(body["sampled"] == 0, f"warm query k={k} sampled")
            self.check(body["satisfied"] == (body["alpha"] >= target), f"k={k} misreports its target")
            self.check(body["seeds"] == self.exact[server.info["stream"]][k], f"k={k} seeds differ from the index's")
        key = f"{id(server)}:{sorted(payload.items())}"
        plain = {f: v for f, v in body.items() if f not in ("cached", "coalesced", "trace_id")}
        with self.lock:
            if body.get("cached") or body.get("coalesced"):
                self.reused.append((key, plain))
            else:
                self.computed.setdefault(key, []).append(plain)

    def check_reused(self) -> None:
        """A cached or coalesced reply must equal a reply the engine
        computed for the same request (checked once both lanes are done,
        since the lane that computed it may record it second)."""
        for key, plain in self.reused:
            self.check(plain in self.computed.get(key, []), f"reused reply {key} was never computed")
        self.reused = []

    def cycle(self, index: int, traced: bool) -> float:
        server = self.server(index, traced)
        requests = http_requests(self.ctx.seed, index)

        def lane(which: int) -> None:
            for payload in requests[which::CONNECTIONS]:
                latency, status, body, size = self.timed(server, which, "client.request", "POST", "/query", payload)
                op = {"kind": "request", "latency": latency, "ok": status == 200, "cycle": index,
                      "status": status, "hop": payload.get("precision") == "hop"}
                if status == 200:
                    self.check_reply(server, payload, body)
                    op.update(cached=bool(body.get("cached")), coalesced=bool(body.get("coalesced")),
                              engine_s=body["engine_seconds"], rr_sets=body.get("num_rr_sets", 0))
                with self.lock:
                    self.ops.append(op)

        thread_seconds = self.run_lanes([lambda w=w: lane(w) for w in range(CONNECTIONS)])
        self.check_reused()
        if not traced and index < MEMORY_CYCLES:
            self.memory.append(rss_mb(server.proc.pid))
        return thread_seconds

    def layer_metrics(self) -> Dict[str, float]:
        traced = [op for op in self.ops if op.get("traced")]
        done = [op for op in traced if op["ok"]]
        engine_ops = [op for op in done if not op["cached"] and not op["coalesced"]]
        fronts = [op["latency"] - op["engine_s"] for op in engine_ops]
        return {
            "server.cache_hit_ratio": sum(op["cached"] for op in done) / len(done),
            "server.coalesced": float(sum(op["coalesced"] for op in done)),
            "server.rejected": float(sum(op["status"] == 503 for op in traced)),
            "server.front_ms": 1e3 * statistics.median(fronts) if fronts else 0.0,
        }


class ClusterJobs(ServerWorkload):
    """``ClusterFrontend`` with two workers and four tenant graphs:
    repeat jobs and growth jobs that rewrite the index at job end.
    Every cycle starts from the tenants' warm-up sketches (:meth:`prepare`)."""

    name = "cluster_jobs"
    tier = "cluster"

    def __init__(self, ctx: Any) -> None:
        super().__init__(ctx)
        self.first_reply: Dict[Tuple[int, str, int, int], List[int]] = {}

    def setup(self, rep: int, last: bool) -> None:
        from repro.sampling.kernel import AUTO_KERNEL, resolve_kernel

        self.kernel = resolve_kernel(AUTO_KERNEL)
        self.state_dir = self.ctx.work / f"cluster-state-{rep}"
        self.launch(rep, last)

    def server_argv(self, rep: int, traced: bool) -> List[str]:
        state = self.state_dir.with_name(self.state_dir.name + ("-traced" if traced else ""))
        return ["cluster", "--state-dir", str(state), "--seed", str(self.ctx.seed)]

    def job(self, server: Server, lane: int, span: str, tenant: str, params: Dict[str, Any]) -> Tuple[float, int, Any, int]:
        headers = {"X-Tenant": tenant}
        started = time.perf_counter()
        _, status, body, _ = self.timed(server, lane, span, "POST", "/jobs", {"graph": "g", **params}, headers)
        if status != 202:
            return time.perf_counter() - started, status, body, 0
        _, status, body, size = self.timed(
            server, lane, span, "GET", f"/jobs/{body['job_id']}/result?wait=60", None, headers
        )
        return time.perf_counter() - started, status, body, size

    def warm_up(self, server: Server, span: str) -> None:
        # One CPU per worker (the first shares with the load generator,
        # which mostly waits), so the two shards run in parallel.
        cpus = sorted(set(self.ctx.bench_cpus) | set(self.ctx.server_cpus))
        for i, pid in enumerate(sorted(child_pids(server.proc.pid))):
            pin(pid, [cpus[i % len(cpus)]])
        tenants = server.info["tenants"]
        self.graphs = {t["tenant"]: (t["n"], t["m"]) for t in tenants}
        server.state["size"] = {}
        server.state["lanes"] = [
            [t["tenant"] for t in tenants if t["shard"] == lane] for lane in range(CONNECTIONS)
        ]
        for t in tenants:
            latency, status, body, _ = self.job(
                server, t["shard"], span, t["tenant"],
                {"k": JOB_KS[0], "alpha_target": UNREACHABLE, "rr_budget": WARM_BUDGET},
            )
            self.check(status == 200, f"warm-up job failed with {status}")
            response = body["response"]
            self.check(response["sampled"] == WARM_BUDGET, "warm-up sampled the wrong amount")
            self.first_ms.append(1e3 * latency)
            server.state["size"][t["tenant"]] = response["num_rr_sets"]
            self.check_repeat(server, t["tenant"], JOB_KS[0], WARM_BUDGET, response["seeds"])
        # The index files every cycle starts from (see prepare).
        server.state["saved"] = {}
        for t in tenants:
            index_dir = Path(t["index_dir"])
            saved = index_dir.with_name(index_dir.name + "-warm")
            shutil.copytree(index_dir, saved)
            server.state["saved"][t["tenant"]] = (index_dir, saved)

    def check_repeat(self, server: Server, tenant: str, k: int, budget: int, seeds: List[int]) -> None:
        """A job on a sketch must give the seeds of the first job on it."""
        with self.lock:
            first = self.first_reply.setdefault((id(server), tenant, k, budget), seeds)
        self.check(seeds == first, f"{tenant} k={k} at {budget} RR sets differs from its first reply")

    def prepare(self, index: int, traced: bool) -> None:
        """Put every tenant back to its sketch at the end of warm-up.

        Growth jobs add RR sets, and every job adds to the claims history
        its reply ships, so without this a cycle's cost would depend on
        how many cycles came before it, and so on the program's speed.
        The tenant's engine is evicted (which checkpoints it), the index
        files saved after warm-up are put back, and one repeat job
        warm-loads them.
        """
        server = self.server(index, traced)
        params = {"k": JOB_KS[0], "alpha_target": REPEAT_TARGET, "rr_budget": WARM_BUDGET}
        for t in server.info["tenants"]:
            tenant, lane = t["tenant"], t["shard"]
            _, status, _, _ = self.timed(server, lane, "client.request", "POST", "/graphs/g/evict",
                                         None, {"X-Tenant": tenant})
            if status != 200:
                raise RuntimeError(f"evicting {tenant} failed with {status}")
            index_dir, saved = server.state["saved"][tenant]
            shutil.rmtree(index_dir)
            shutil.copytree(saved, index_dir)
            _, status, body, _ = self.job(server, lane, "client.request", tenant, params)
            if status != 200:
                raise RuntimeError(f"warm-loading {tenant} failed with {status}")
            response = body["response"]
            self.check(response["sampled"] == 0 and response["num_rr_sets"] == WARM_BUDGET,
                       "the reset did not restore the warm-up sketch")
            self.check_repeat(server, tenant, JOB_KS[0], WARM_BUDGET, response["seeds"])
            server.state["size"][tenant] = WARM_BUDGET

    def cycle(self, index: int, traced: bool) -> float:
        server = self.server(index, traced)
        size = server.state["size"]

        def lane(which: int) -> None:
            tenants = server.state["lanes"][which]
            n = self.graphs[tenants[0]][0]
            for kind, tenant, k in cluster_jobs(self.ctx.seed, index, which, tenants, CLUSTER_CYCLE // CONNECTIONS):
                before = size[tenant]
                budget = before + GROWTH if kind == "growth" else before
                target = UNREACHABLE if kind == "growth" else REPEAT_TARGET
                latency, status, body, nbytes = self.job(
                    server, which, "client.request", tenant,
                    {"k": k, "alpha_target": target, "rr_budget": budget},
                )
                op = {"kind": "request", "latency": latency, "ok": status == 200, "cycle": index,
                      "status": status, "growth": kind == "growth", "bytes": nbytes}
                if status == 200:
                    response = body["response"]
                    seeds = response["seeds"]
                    self.check(len(seeds) == k and len(set(seeds)) == k, f"not {k} distinct seeds")
                    self.check(all(0 <= s < n for s in seeds), "seed out of range")
                    self.check(response["num_rr_sets"] == budget, f"{kind} job ended at the wrong size")
                    if kind == "growth":
                        self.check(response["sampled"] == GROWTH, "growth job sampled the wrong amount")
                    else:
                        self.check(response["sampled"] == 0, "repeat job sampled")
                        self.check_repeat(server, tenant, k, budget, seeds)
                    size[tenant] = response["num_rr_sets"]
                    op.update(engine_s=response["engine_seconds"], requeues=body["requeues"],
                              rr_sets=response["num_rr_sets"])
                with self.lock:
                    self.ops.append(op)

        thread_seconds = self.run_lanes([lambda w=w: lane(w) for w in range(CONNECTIONS)])
        if not traced and index < MEMORY_CYCLES:
            # The worker processes hold the sketches.
            self.memory.append(sum(rss_mb(pid) for pid in child_pids(server.proc.pid)))
        return thread_seconds

    def layer_metrics(self) -> Dict[str, float]:
        traced = [op for op in self.ops if op.get("traced")]
        done = [op for op in traced if op["ok"]]

        def front_ms(growth: bool) -> float:
            fronts = [op["latency"] - op["engine_s"] for op in done if op["growth"] == growth]
            return 1e3 * statistics.median(fronts) if fronts else 0.0

        return {
            "cluster.front_sampled_ms": front_ms(True),
            "cluster.front_repeat_ms": front_ms(False),
            "cluster.worker_ms": 1e3 * statistics.median(op["engine_s"] for op in done),
            "cluster.reply_bytes": statistics.median(op["bytes"] for op in done),
            "cluster.requeues": float(sum(op["requeues"] for op in done)),
            "cluster.rejected": float(sum(op["status"] == 503 for op in traced)),
        }
