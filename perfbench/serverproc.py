#!/usr/bin/env python3
"""A server under test, in its own process.

    python3 perfbench/serverproc.py http --index-dir DIR --stream-seed S
    python3 perfbench/serverproc.py cluster --state-dir DIR --seed S

``http`` serves a warm ``SeedQueryServer`` on the pokec-sim index in
``DIR``; ``cluster`` runs a ``ClusterFrontend`` with two workers and
four tenant graphs.  Both bind a free port and print one JSON ready
line (port, pid, the monotonic clock at readiness and what they
serve), then run until SIGTERM, which drains them.

With ``--trace-out PATH`` the process records the benchmark's spans
(``spans.py``) and writes them to ``PATH`` on exit; each cluster worker
writes its own to ``PATH.worker<id>-<pid>``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time
from pathlib import Path
from typing import Any, List, Optional, Tuple

HERE = Path(__file__).resolve().parent

#: Cluster tenants: graph size, count, worker (shard) count.
TENANT_N = 800
TENANTS = 4
CLUSTER_WORKERS = 2


def tenant_graphs(seed: int) -> List[Tuple[Any, int]]:
    """Four distinct power-law graphs, two routed to each shard.

    Candidates are drawn in a seeded order and kept while their shard
    has room, so every seed gets the same balanced layout.
    """
    from repro.graph import assign_wc_weights, power_law_graph
    from repro.serve.cluster.registry import shard_for
    from repro.serve.index import graph_fingerprint

    per_shard = TENANTS // CLUSTER_WORKERS
    chosen: List[Tuple[Any, int]] = []
    taken = [0] * CLUSTER_WORKERS
    candidate = 0
    while len(chosen) < TENANTS:
        graph = assign_wc_weights(power_law_graph(TENANT_N, 4, seed=1_000 * seed + candidate))
        shard = shard_for(graph_fingerprint(graph), CLUSTER_WORKERS)
        if taken[shard] < per_shard:
            taken[shard] += 1
            chosen.append((graph, shard))
        candidate += 1
    return chosen


def ready(info: dict) -> None:
    print(json.dumps({**info, "pid": os.getpid(), "ready": time.perf_counter()}), flush=True)


def serve_http(args: argparse.Namespace, tracer: Any) -> None:
    from inproc import DATASET, SCALE
    from repro.datasets import load_dataset
    from repro.serve import SeedQueryEngine, SeedQueryServer

    frame = tracer.begin("graph.load") if tracer else None
    graph = load_dataset(DATASET, scale=SCALE)
    if frame:
        tracer.end(frame)
    engine = SeedQueryEngine(graph, "IC", seed=args.stream_seed, index_dir=args.index_dir)
    server = SeedQueryServer(engine, port=0, own_engine=True)

    async def main() -> None:
        await server.start()
        ready({"port": server.port, "n": graph.n, "m": graph.m, "kernel": engine.kernel,
               "stream": args.stream_seed, "num_rr_sets": engine.num_rr_sets})
        await server.serve_forever()

    asyncio.run(main())


def serve_cluster(args: argparse.Namespace, tracer: Any) -> None:
    from repro.serve.cluster import ClusterFrontend

    frame = tracer.begin("graph.load") if tracer else None
    graphs = tenant_graphs(args.seed)
    if frame:
        tracer.end(frame)
    front = ClusterFrontend(port=0, workers=CLUSTER_WORKERS, state_dir=args.state_dir)

    async def main() -> None:
        await front.start()
        tenants = []
        for i, (graph, shard) in enumerate(graphs):
            tenant = f"tenant{i}"
            index_dir = Path(args.state_dir) / tenant
            described = front.register_graph(graph, "g", tenant=tenant, seed=args.seed + i, index_dir=index_dir)
            if described["shard"] != shard:
                raise RuntimeError("shard routing disagrees with the tenant layout")
            tenants.append({"tenant": tenant, "shard": shard, "n": graph.n, "m": graph.m,
                            "index_dir": str(index_dir)})
        ready({"port": front.port, "tenants": tenants})
        await front.serve_forever()

    asyncio.run(main())


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("kind", choices=("http", "cluster"))
    parser.add_argument("--index-dir")
    parser.add_argument("--stream-seed", type=int, default=0)
    parser.add_argument("--state-dir")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    tracer = None
    if args.trace_out:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
        tracer.enabled = True
        if args.kind == "cluster":
            import repro.serve.cluster.worker as worker_mod

            original = worker_mod._cluster_worker

            def traced_worker(worker_id: int, *rest: Any) -> None:
                tracer.reset()  # drop what the fork copied from the front end
                try:
                    original(worker_id, *rest)
                finally:
                    tracer.dump(Path(f"{args.trace_out}.worker{worker_id}-{os.getpid()}"))

            worker_mod._cluster_worker = traced_worker
    if args.kind == "http":
        serve_http(args, tracer)
    else:
        serve_cluster(args, tracer)
    if tracer is not None:
        tracer.dump(Path(args.trace_out))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
