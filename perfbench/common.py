"""Shared helpers of the repository benchmark: statistics, the pinned
environment, provenance, process memory and a small HTTP client.

Nothing here imports :mod:`repro`; the workload modules do, after
``run.py`` has pinned the environment and put ``src`` on the path.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: Variables that change which code path the program takes.  The
#: benchmark measures the program as shipped, so it removes them from
#: its own environment and from every server it starts.
STRIPPED_ENV = ("REPRO_KERNEL", "REPRO_DELTA_STRICT", "REPRO_TEST_SEED")

#: ``memory_mb`` is read in each of the first MEMORY_CYCLES untraced
#: cycles.  That is a fixed point in a run's sequence of operations, so
#: a faster program, which gets through more cycles, reads the same
#: sketch sizes and histories as a slower one.
MEMORY_CYCLES = 3


def pinned_env(src_dir: Optional[Path] = None) -> Dict[str, str]:
    """This process's environment without :data:`STRIPPED_ENV`.

    With *src_dir*, ``PYTHONPATH`` points at it, so a child process
    imports the checkout's sources and nothing installed elsewhere.
    """
    env = {k: v for k, v in os.environ.items() if k not in STRIPPED_ENV}
    if src_dir is not None:
        env["PYTHONPATH"] = str(src_dir)
    return env


def strip_env() -> None:
    for name in STRIPPED_ENV:
        os.environ.pop(name, None)


def cpu_plan() -> Tuple[List[int], List[int]]:
    """CPUs for the load generator and for the server under test.

    The same sampling work measured on this kind of 2-vCPU box varies
    by up to 40% when the scheduler may move the process between CPUs,
    and by about 2% when it may not.  With two or more CPUs the
    benchmark therefore keeps itself on the first and the server on
    the rest; with one CPU both share it.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return cpus, cpus
    return cpus[:1], cpus[1:]


def pin(pid: int, cpus: Sequence[int]) -> None:
    """Restrict every thread of *pid* to *cpus*."""
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            os.sched_setaffinity(int(task.name), set(cpus))
        except ProcessLookupError:  # the thread ended meanwhile
            pass


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def _rank(count: int, pct: float) -> int:
    # The tolerance keeps 99.9% of 10000 at rank 9990, not 9991.
    return max(1, math.ceil(pct * count / 100.0 - 1e-9))


def percentile(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile (``pct`` in ``(0, 100]``)."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(len(samples), pct) - 1]


def samples_beyond(count: int, pct: float) -> int:
    """Samples ranked above the nearest-rank ``pct`` percentile."""
    return count - _rank(count, pct)


def tail_percentile(samples: Sequence[float]) -> Dict[str, float]:
    """The highest of the 99.9th, 99th, 95th, 90th, 75th and 50th
    percentiles with at least ten samples above it.

    Returns the chosen percentile, its value, how many samples lie
    beyond it and the sample count.  When even the median lacks ten
    samples beyond it, the median is returned with its (short) count,
    so the caller can state it.
    """
    candidates = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
    n = len(samples)
    chosen = candidates[-1]
    for pct in candidates:
        if samples_beyond(n, pct) >= 10:
            chosen = pct
            break
    return {
        "percentile": chosen,
        "value": percentile(samples, chosen),
        "beyond": samples_beyond(n, chosen),
        "samples": n,
    }


def spread(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and (max-min)/median of *values*."""
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / med if med else float("nan"),
        "range_share": (max(values) - min(values)) / med if med else float("nan"),
        "runs": len(values),
    }


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------
#: :func:`calibrate`'s median on the reference host (a quiet 2-vCPU
#: 2.0 GHz VM).  End-to-end times are reported at this speed.
REFERENCE_CALIBRATION_S = 0.0125

#: Seconds between host-speed probes.  A probe is one :func:`calibrate`
#: (about 12.5 ms), so probing costs about 11% of a run.  The host's
#: speed moves within a second: over 150 s of alternating probes and
#: ``cold_grow`` answers, normalizing 11-s windows of answers by probes
#: taken every 0.11 s cut their spread from 7.6% to 2.1%, by probes
#: every 1.1 s only to 3.3%, and by probes every 3.3 s not at all.
PROBE_EVERY_S = 0.1

_CALIBRATION_VALUES = None


def calibrate() -> float:
    """Time a fixed mix of interpreter and numpy work (seconds).

    The benchmark's own code, so it moves only with the host.  On a
    shared 2-vCPU host the speed of the same work drifts by 20-30%
    between runs and within a second; this probe, taken every
    PROBE_EVERY_S between operations (:meth:`Context.probe`), moves
    with it, and ``run.py`` divides that drift out of the end-to-end
    times.
    """
    import numpy as np

    global _CALIBRATION_VALUES
    if _CALIBRATION_VALUES is None:
        _CALIBRATION_VALUES = np.random.default_rng(0).integers(0, 1 << 20, 50_000)
    values = _CALIBRATION_VALUES
    started = time.perf_counter()
    table: Dict[int, int] = {}
    for i in range(20_000):
        table[i % 4093] = table.get(i % 4093, 0) + i
    np.argsort(values, kind="stable")
    np.bincount(values & 4095)
    return time.perf_counter() - started


# ----------------------------------------------------------------------
# Processes and provenance
# ----------------------------------------------------------------------
def rss_mb(pid: Optional[int] = None) -> float:
    """Resident set size of *pid* (default: this process) in MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmRSS in {path}")


def child_pids(pid: int) -> List[int]:
    """Direct children of *pid* (Linux ``/proc``)."""
    children: List[int] = []
    for task in Path(f"/proc/{pid}/task").iterdir():
        text = (task / "children").read_text(encoding="ascii")
        children.extend(int(tok) for tok in text.split())
    return children


def git_commit(root: Path) -> str:
    """The checkout's commit, or ``"unknown"`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(root: Path, kernel: Any, graphs: Dict[str, Tuple[int, int]]) -> Dict[str, Any]:
    import numpy

    return {
        "kernel": kernel,
        "commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "graphs": {name: {"n": n, "m": m} for name, (n, m) in graphs.items()},
        "stripped_env": list(STRIPPED_ENV),
    }


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------
class JsonConnection:
    """One keep-alive HTTP/1.1 connection speaking JSON (stdlib only).

    The benchmark's own client, so that a change to the program's
    client code cannot move the numbers measured through it.
    """

    def __init__(self, host: str, port: int, timeout: float = 120.0) -> None:
        self._conn = http.client.HTTPConnection(host, port, timeout=timeout)

    def request(
        self,
        method: str,
        path: str,
        payload: Optional[Dict[str, Any]] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Any, int]:
        """Send one request; returns ``(status, json_body, body_bytes)``."""
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        head = {"Content-Type": "application/json"}
        if headers:
            head.update(headers)
        self._conn.request(method, path, body=body, headers=head)
        response = self._conn.getresponse()
        raw = response.read()
        return response.status, json.loads(raw) if raw else None, len(raw)

    def close(self) -> None:
        self._conn.close()


def wait_for_line(proc: subprocess.Popen, timeout: float) -> Dict[str, Any]:
    """Read the JSON ready line a server process prints on start."""
    deadline = time.monotonic() + timeout
    assert proc.stdout is not None
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        if not line:
            break
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise RuntimeError(f"server process {proc.pid} did not become ready")


def stop_process(proc: subprocess.Popen, timeout: float = 60.0) -> int:
    """SIGTERM (graceful drain), then SIGKILL after *timeout*; waits."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=10)
    if proc.stdout is not None:
        proc.stdout.close()
    return proc.returncode


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class WrongAnswer(Exception):
    """The program returned an answer that fails an output check."""


class Context:
    """What a workload gets from ``run.py``."""

    def __init__(self, root: Path, work: Path, seed: int, tracer: Any) -> None:
        self.root = root
        self.src = root / "src"
        self.work = work
        self.seed = int(seed)
        self.tracer = tracer
        self.bench_cpus, self.server_cpus = cpu_plan()
        #: The CPUs the run's work uses, probed in turn (a server
        #: workload adds the server's).
        self.probe_cpus = list(self.bench_cpus)
        #: Host-speed probes (seconds of :func:`calibrate`) of the run,
        #: and the CPU each ran on.
        self.probes: List[float] = []
        self.probed_cpus: List[int] = []
        #: Time the probes took, which ``run.py`` takes out of the cycles.
        self.probe_seconds = 0.0
        self._probed = -math.inf

    def probe(self, force: bool = False) -> None:
        """Probe the host's speed if PROBE_EVERY_S have passed since the
        last probe (always with *force*).  ``run.py`` probes between
        cycles; a workload whose cycles last longer than that probes
        between its operations, outside their timers."""
        started = time.perf_counter()
        if not force and started - self._probed < PROBE_EVERY_S:
            return
        cpu = self.probe_cpus[len(self.probes) % len(self.probe_cpus)]
        os.sched_setaffinity(0, {cpu})
        try:
            self.probes.append(calibrate())
            self.probed_cpus.append(cpu)
        finally:
            os.sched_setaffinity(0, self.bench_cpus)
        self._probed = time.perf_counter()
        self.probe_seconds += self._probed - started

    @property
    def trace(self) -> bool:
        return self.tracer is not None


class Workload:
    """One benchmark workload: a set-up repeated a few times, then
    cycles of operations until the run's time is up.

    Every operation is recorded in :attr:`ops` as a dict with at least
    ``kind``, ``latency`` (seconds), ``ok`` and ``cycle``.  Operations
    whose kind is in :attr:`latency_kinds` make up the latency and
    throughput figures.  A failed or refused operation has ``ok``
    False; an answer that fails a check raises :class:`WrongAnswer`.
    """

    name = ""
    latency_kinds: Tuple[str, ...] = ("answer",)

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.ops: List[Dict[str, Any]] = []
        self.graphs: Dict[str, Tuple[int, int]] = {}
        self.kernel: Any = None
        #: RSS readings (MiB) of the process(es) holding the sketch.
        self.memory: List[float] = []

    def check(self, condition: bool, message: str) -> None:
        if not condition:
            raise WrongAnswer(f"{self.name}: {message}")

    def setup(self, rep: int, last: bool) -> None:
        raise NotImplementedError

    def prepare(self, index: int, traced: bool) -> None:
        """Untimed work before cycle *index*; a traced run traces it."""

    def cycle(self, index: int, traced: bool) -> float:
        """Run one cycle on input draw *index*; returns the
        thread-seconds it took (the sum of its load-generating
        threads' run times)."""
        raise NotImplementedError

    def first_answer_ms(self) -> float:
        raise NotImplementedError

    def latency_ms(self, pct: float) -> float:
        """``latency_p50_ms``/``latency_p95_ms``: the *pct*-th percentile
        of every successful operation in :attr:`latency_kinds`."""
        return 1e3 * percentile(
            [op["latency"] for op in self.ops if op["kind"] in self.latency_kinds and op["ok"]], pct
        )

    def memory_mb(self) -> float:
        """Median of :attr:`memory`, read in the first MEMORY_CYCLES cycles."""
        return statistics.median(self.memory)

    def remote_trace(self) -> Optional[Dict[str, Any]]:
        """Spans of the traced server process, with its time windows."""
        return None

    def layer_metrics(self) -> Dict[str, float]:
        """Per-layer figures only this workload can give (server/cluster)."""
        return {}

    def close(self) -> None:
        pass
