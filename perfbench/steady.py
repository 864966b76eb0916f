#!/usr/bin/env python3
"""Steadiness report: run workloads N times and show each metric's spread.

    python3 perfbench/steady.py --workload cold_grow --runs 10 [--first-seed 1]
    python3 perfbench/steady.py --workload all --runs 10

Each run lasts ``run_seconds`` of ``BENCHMARK.json`` and uses its own
seed (``--first-seed`` upwards), so a workload's spread includes its
input variation.  Per metric it prints the median, the quartiles
(``statistics.quantiles(n=4)``), the IQR and the range as shares of the
median, the IQR share of the values before host-speed normalization
(``raw%``), and the metric's bound from ``BENCHMARK.json``; a spread
above a third of its bound is flagged.  Each run's host-speed probe
(``calibration_s`` of the report line) goes to stderr with its wall
time.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

sys.path.insert(0, str(HERE))
from common import spread  # noqa: E402


def one_run(workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("report: "):
            report_line = json.loads(line[len("report: "):])
            result["calibration_s"] = report_line["calibration_s"]
            result["raw_metrics"] = report_line["raw_metrics"]
    result["wall_s"] = time.perf_counter() - started
    return result


def report(workload: str, results: List[Dict[str, Any]], bounds: Dict[str, float]) -> None:
    print(f"\n{workload}: {len(results)} runs, "
          f"wall {min(r['wall_s'] for r in results):.1f}-{max(r['wall_s'] for r in results):.1f} s, "
          f"failed {sum(r['failed'] for r in results)}/{sum(r['attempted'] for r in results)}")
    print(f"  {'metric':26s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'iqr%':>7s} {'range%':>7s} {'raw%':>7s} {'bound%':>7s}")
    for name in results[0]["metrics"]:
        row = spread([r["metrics"][name]["value"] for r in results])
        raw = spread([r["raw_metrics"][name] for r in results])
        bound = bounds.get(name)
        flag = "  <-- above bound/3" if bound is not None and row["iqr_share"] > bound / 3 else ""
        print(f"  {name:26s} {row['median']:14.4f} {row['q1']:14.4f} {row['q3']:14.4f} "
              f"{100 * row['iqr_share']:7.2f} {100 * row['range_share']:7.2f} {100 * raw['iqr_share']:7.2f} "
              f"{'' if bound is None else f'{100 * bound:7.1f}'}{flag}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    for workload in workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(one_run(workload, seed, spec["run_seconds"]))
            print(f"  {workload} seed {seed}: {results[-1]['wall_s']:.1f} s, "
                  f"probe {1e3 * results[-1].get('calibration_s', 0.0):.1f} ms", file=sys.stderr)
        report(workload, results, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
