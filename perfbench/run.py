"""The repository benchmark: three workloads, end-to-end and per-layer.

Run from the repository root::

    python3 perfbench/run.py --workload array-1e5 --seed 0 --seconds 25 --trace 0

Workloads (each runs in this one process; see ``BENCHMARK.json``):

- ``array-1e5``: ``run_scenario`` on the numpy array engine with the
  distributed formation protocol, 3448 clusters x 28 members
  (N = 99,992), Bernoulli p = 0.1, 40 crashes, 3 executions;
- ``event-1e3``: ``run_scenario`` on the event engine with oracle
  clusters, 18 x 55 (N = 1,008), p = 0.1, 4 crashes, 2 executions;
- ``live-dashboard``: a spooled event run (8 x 15, N = 128, 4
  crashes, 2 executions) written through ``SpoolingTracer``, reduced by the
  ``repro trace`` payload builders, then served by an in-process
  ``DashboardServer`` while the benchmark appends the recorded bytes in
  whole-line chunks (one closed-loop client polls after each append),
  and finally served finished.

``--trace 0`` times untraced operations (at least three, then as many
as fit in ``--seconds``) and prints every end-to-end metric, its
timings scaled to one host speed (see :class:`HostSpeed`).
``--trace 1`` runs one untraced and one traced operation and prints
every per-layer metric: the self times of spans recorded around each
layer's public calls (see ``layers.py``), as shares of the traced
operation's wall clock, which they partition.  Every run checks its
outputs; the last line of standard output is one JSON object, and the
exit code is non-zero when a check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import gc
import hashlib
import heapq
import http.client
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from layers import install, layer_metrics
from spans import SpanRecorder

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
EXPECTED_PATH = BENCH_DIR / "expected.json"
BENCHMARK_PATH = ROOT / "BENCHMARK.json"

#: Fresh interpreters whose set-up time is sampled for ``setup_s``.
SETUP_SAMPLES = 3
#: Fewest timed operations in a run, whatever ``--seconds`` says.
MIN_OPS = 3
#: The reference sample: event steps, nodes of its fixed little
#: network, size of its gather table and gathered entries, and the
#: sampling period (seconds of wall clock).
REFERENCE_STEPS = 500
REFERENCE_NODES = 20_000
REFERENCE_TABLE = 2_000_000
REFERENCE_GATHER = 50_000
REFERENCE_PERIOD = 0.1
#: CPU seconds one sample is taken to last on the reference host (about
#: its median on one 2.1 GHz Xeon vCPU).  Timings are reported as if the
#: host ran the sample this fast.
REFERENCE_S = 0.0025
#: Whole-line chunks the recorded spool is appended in while served.
GROW_CHUNKS = 3
#: Rounds of the request mix on the finished spool.
STATIC_ROUNDS = 100
#: The request mix of one dashboard poll.
ENDPOINTS = (
    "/api/summary", "/api/timeline", "/api/topology", "/api/latency", "/metrics",
)

SIM_WORKLOADS = {
    "array-1e5": dict(
        engine="array", formation="protocol", cluster_count=3448,
        members_per_cluster=28, loss_probability=0.1, crash_count=40,
        executions=3,
    ),
    "event-1e3": dict(
        engine="event", cluster_count=18, members_per_cluster=55,
        loss_probability=0.1, crash_count=4, executions=2,
    ),
}
LIVE_SCENARIO = dict(
    engine="event", cluster_count=8, members_per_cluster=15,
    loss_probability=0.1, crash_count=4, executions=2,
)
WORKLOADS = tuple(SIM_WORKLOADS) + ("live-dashboard",)


# ----------------------------------------------------------------------
# Checks and statistics
# ----------------------------------------------------------------------
class Ledger:
    """Operations attempted and failed; a failed check fails its op."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def op(self, problems: List[str], what: str) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)


def tail(samples_ms: List[float]) -> Tuple[str, float, int]:
    """Highest of p50..p99.9 with at least ten samples beyond it."""
    ordered = sorted(samples_ms)
    n = len(ordered)
    best = ("p50", statistics.median(ordered))
    for label, q in (("p75", 0.75), ("p90", 0.90), ("p95", 0.95),
                     ("p99", 0.99), ("p99.9", 0.999)):
        rank = math.ceil(q * n)  # nearest rank
        if n - rank >= 10:
            best = (label, ordered[rank - 1])
    return best[0], best[1], n


class _RefNode:
    __slots__ = ("neighbors", "heard", "count")

    def __init__(self, nid: int) -> None:
        self.neighbors = [(nid * 7919 + k * 104729) % REFERENCE_NODES
                          for k in range(8)]
        self.heard = [0] * 8
        self.count = 0


class HostSpeed:
    """The host's current speed, sampled while the run is timed.

    A shared host's speed drifts by up to 2x over seconds to minutes
    (another tenant on the sibling hyperthread), more than any affordable
    run length averages out.  Every ``REFERENCE_PERIOD`` a ``SIGALRM``
    handler runs a fixed sample in the measured thread and records its
    CPU seconds, so the samples come from the same CPU at the same time
    as the work they are set against.  The sample is a little
    discrete-event loop (a heap of events over a network of nodes, the
    interpreter work of the event engine) followed by a random gather
    from a 16 MB numpy table (the memory traffic of the array engine);
    on either engine the pair tracked the host better than either half.
    A timing's ``scale`` (``REFERENCE_S`` over the median sample inside
    its window) reports it as if on the reference host; the raw timings
    are printed beside the scaled ones.  The sample depends on nothing
    in ``repro``.
    """

    def __init__(self) -> None:
        import numpy as np

        self.nodes = [_RefNode(nid) for nid in range(REFERENCE_NODES)]
        self.table = np.arange(REFERENCE_TABLE, dtype=np.float64)
        self.picks = np.random.default_rng(0).integers(
            0, REFERENCE_TABLE, size=REFERENCE_GATHER
        )
        #: (perf_counter at the sample's end, CPU seconds of the sample)
        self.samples: List[Tuple[float, float]] = []
        self.sample()  # the first call pays for cold caches: not kept
        self.samples.clear()

    def sample(self) -> None:
        nodes = self.nodes
        push, pop = heapq.heappush, heapq.heappop
        started = time.thread_time()
        heap = [(i, (i * 7919) % REFERENCE_NODES) for i in range(64)]
        for _ in range(REFERENCE_STEPS):
            now, nid = pop(heap)
            node = nodes[nid]
            node.count += 1
            for other in node.neighbors[:4]:
                nodes[other].heard[nid & 7] = now
            push(heap, (now + nid % 101 + 1, node.neighbors[now & 7]))
        float(self.table[self.picks].sum())
        self.samples.append((time.perf_counter(), time.thread_time() - started))

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, lambda _signum, _frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_PERIOD, REFERENCE_PERIOD)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float = -math.inf, end: float = math.inf) -> float:
        """Factor from seconds timed in ``[start, end]`` to seconds on the
        reference host (all samples if none fell inside)."""
        inside = [cpu for at, cpu in self.samples if start <= at <= end]
        return REFERENCE_S / statistics.median(
            inside or [cpu for _at, cpu in self.samples]
        )


def repeat(seconds: float, op: Callable[[], Any]) -> List[Tuple[Any, float, float]]:
    """``(result, start, end)`` of ``op`` run at least ``MIN_OPS`` times,
    then for as long as another run is expected (by the median so far)
    to end within ``seconds`` of the first one's start."""
    runs: List[Tuple[Any, float, float]] = []
    started = time.perf_counter()
    while len(runs) < MIN_OPS or (
        time.perf_counter() - started
        + statistics.median(end - start for _, start, end in runs) <= seconds
    ):
        op_started = time.perf_counter()
        result = op()
        runs.append((result, op_started, time.perf_counter()))
    return runs


def scaled_rate(host: HostSpeed, rates: List[Tuple[float, float, float]]) -> float:
    """Median of ``(rate, start, end)`` rates, each scaled to the
    reference host by the samples taken while it was timed."""
    print(f"raw node_exec_per_s samples: {[round(r, 3) for r, _, _ in rates]}")
    scaled = [rate / host.scale(start, end) for rate, start, end in rates]
    print(f"node_exec_per_s samples: {[round(r, 3) for r in scaled]}")
    return statistics.median(scaled)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def compare(got: Dict[str, Any], want: Dict[str, Any], what: str) -> List[str]:
    return [
        f"{what} {key}: {got.get(key)!r} != {value!r}"
        for key, value in want.items()
        if got.get(key) != value
    ]


# ----------------------------------------------------------------------
# Set-up (shared by the measured process and the set-up probes)
# ----------------------------------------------------------------------
class Setup:
    def __init__(self, workload: str, seed: int) -> None:
        started = time.perf_counter()
        import repro  # noqa: F401  (the import itself is measured)

        self.import_s = time.perf_counter() - started
        from repro.experiments.runner import ScenarioConfig

        self.workload = workload
        self.seed = seed
        fields = SIM_WORKLOADS.get(workload, LIVE_SCENARIO)
        self.config = ScenarioConfig(seed=seed, **fields)
        self.server = None
        self.work: Optional[Path] = None
        if workload == "live-dashboard":
            self._start_server()

    def _start_server(self) -> None:
        from repro.serve.http import DashboardServer
        from repro.serve.state import SpoolView

        self.work = WORK / f"{os.getpid()}"
        self.work.mkdir(parents=True, exist_ok=True)
        self.recorded = self.work / "recorded.jsonl"
        self.served = self.work / "served.jsonl"
        self.served.write_bytes(b"")
        self.server = DashboardServer(("127.0.0.1", 0), SpoolView(self.served))
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(
            target=self.server.serve_forever, kwargs={"poll_interval": 0.05},
            daemon=True,
        )
        self.thread.start()

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=30)
        if self.work is not None:
            shutil.rmtree(self.work, ignore_errors=True)
            try:
                WORK.rmdir()
            except OSError:
                pass  # another run's directory is still there


def sample_setup(workload: str, seed: int) -> Tuple[List[float], List[str]]:
    """Seconds from interpreter start to ready, in fresh interpreters."""
    samples, problems = [], []
    for _ in range(SETUP_SAMPLES):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, cwd=str(ROOT),
        )
        try:
            line = child.stdout.readline()
            samples.append(time.perf_counter() - started)
        finally:
            child.stdout.close()
            code = child.wait(timeout=120)
        if line != b"ready\n" or code != 0:
            problems.append(f"set-up probe said {line!r}, exit {code}")
    return samples, problems


# ----------------------------------------------------------------------
# Simulation workloads
# ----------------------------------------------------------------------
def sim_outputs(result) -> Dict[str, Any]:
    return {
        "nodes": len(result.network),
        "mean_completeness": result.properties.mean_completeness,
        "accuracy_violations": len(result.properties.accuracy_violations),
        "transmissions": result.messages.transmissions,
        "deliveries": result.messages.deliveries,
    }


class SimWorkload:
    def __init__(self, setup: Setup, ledger: Ledger, pins: Optional[dict]) -> None:
        from repro.experiments.runner import run_scenario
        from repro.sim.trace import NullTracer

        self.setup = setup
        self.ledger = ledger
        self.pins = pins
        self.run_scenario = run_scenario
        self.null_tracer = NullTracer
        self.reference: Optional[Dict[str, Any]] = None
        self.node_exec = 0  # node count x executions, set by each run
        self.results: List[Any] = []

    def one_run(self, recorder=None, profiler=None, keep=False) -> float:
        gc.collect()
        started = time.perf_counter()
        if recorder is None:
            result = self.run_scenario(self.setup.config, tracer=self.null_tracer())
        else:
            with recorder.span("scenario.run"):
                result = self.run_scenario(
                    self.setup.config, tracer=self.null_tracer(),
                    profiler=profiler,
                )
        seconds = time.perf_counter() - started
        got = sim_outputs(result)
        self.node_exec = got["nodes"] * self.setup.config.executions
        if self.reference is None:
            self.reference = got
        problems = compare(got, self.reference, "run differs from first:")
        if self.pins is not None:
            problems += compare(got, self.pins, "pinned")
        self.ledger.op(problems, f"{self.setup.workload} run")
        if keep:
            self.results.append(result)
        return seconds

    def warm_up(self) -> None:
        """One untimed, unchecked run of the same scenario cut to one
        execution: it loads every module the run needs and runs the
        set-up, formation and round code at full size."""
        gc.collect()
        warm = dataclasses.replace(self.setup.config, executions=1)
        self.run_scenario(warm, tracer=self.null_tracer())

    def measure(self, seconds: float, host: HostSpeed) -> Dict[str, float]:
        self.warm_up()
        runs = repeat(seconds, self.one_run)
        return {
            "node_exec_per_s": scaled_rate(
                host, [(self.node_exec / s, start, end) for s, start, end in runs]
            ),
            "peak_rss_mb": peak_rss_mb(),
        }

    def trace(self) -> Dict[str, float]:
        from repro.obs.profiler import PhaseProfiler

        self.warm_up()
        untraced = self.one_run()
        recorder = SpanRecorder()
        done = install(recorder)
        profiler = PhaseProfiler() if self.setup.config.engine == "array" else None
        try:
            self.one_run(recorder, profiler=profiler, keep=True)
        finally:
            done.restore()
        metrics, gap = layer_metrics(
            done, "scenario.run", untraced, self.setup.import_s, self.results,
            profiler_seconds=profiler.seconds if profiler else None,
        )
        check_partition(self.ledger, metrics["trace.root_s"], gap)
        self.results.clear()
        return metrics


def check_partition(ledger: Ledger, root_s: float, gap: float) -> None:
    problems = []
    if abs(gap) > 1e-6 * max(root_s, 1.0):
        problems.append(f"self times miss the root by {gap:.3e} s")
    ledger.op(problems, "span partition")


# ----------------------------------------------------------------------
# Live dashboard
# ----------------------------------------------------------------------
def whole_line_chunks(data: bytes, count: int) -> List[bytes]:
    cuts = [0]
    for i in range(1, count):
        at = data.find(b"\n", max(cuts[-1], len(data) * i // count)) + 1
        if at > cuts[-1]:
            cuts.append(at)
    cuts.append(len(data))
    return [data[a:b] for a, b in zip(cuts, cuts[1:]) if b > a]


class LiveWorkload:
    def __init__(self, setup: Setup, ledger: Ledger, pins: Optional[dict]) -> None:
        from repro.experiments.runner import run_scenario
        from repro.obs import analyze, cli, spool, topology

        self.setup = setup
        self.ledger = ledger
        self.pins = pins
        self.run_scenario = run_scenario
        self.analyze, self.cli, self.spool, self.topology = (
            analyze, cli, spool, topology,
        )
        self.recorder = None
        self.requests = 0  # sent to the server, for the /metrics check
        self.handled: Optional[threading.Semaphore] = None
        # Filled by the warm-up write.
        self.spool_bytes = b""
        self.reference: Dict[str, Any] = {}
        self.expected: Dict[str, bytes] = {}
        self.reduce_bodies: Optional[Dict[str, bytes]] = None
        # Per pass: bodies answered while the spool grew.
        self.grown: List[List[Tuple[int, str, int, bytes]]] = []
        self.results: List[Any] = []

    # -- stages --------------------------------------------------------
    def span(self, name: str):
        if self.recorder is None:
            return contextlib.nullcontext()
        return self.recorder.span(name)

    def write(self, keep=False) -> float:
        gc.collect()
        path = self.setup.recorded
        started = time.perf_counter()
        with self.span("bench.write"):
            tracer = self.spool.SpoolingTracer(path)
            try:
                with self.span("scenario.run"):
                    result = self.run_scenario(self.setup.config, tracer=tracer)
            finally:
                tracer.close()
        seconds = time.perf_counter() - started
        data = path.read_bytes()
        got = sim_outputs(result)
        got["records"] = tracer.spooled
        got["spool_sha256"] = hashlib.sha256(data).hexdigest()
        if not self.reference:
            self.reference = got
            self.spool_bytes = data
        problems = compare(got, self.reference, "spool run differs from first:")
        if self.pins is not None:
            problems += compare(got, {
                k: v for k, v in self.pins.items() if k in got
            }, "pinned")
        self.ledger.op(problems, "spooled run")
        if keep:
            self.results.append(result)
        return seconds

    def reduce(self) -> float:
        """The ``repro trace`` payloads of the recorded spool, timed."""
        a, render, iter_spool = self.analyze, self.cli.render_json, self.spool.iter_spool
        path = self.setup.recorded
        started = time.perf_counter()
        with self.span("bench.reduce"):
            summary = a.summarize(iter_spool(path))
            rows, meta = a.timeline(iter_spool(path))
            target = min(summary.crash_times)
            chain = a.lineage(iter_spool(path), target)
            bodies = {
                "/api/summary": render(a.summary_payload(summary)),
                "/api/timeline": render(a.timeline_payload(rows, meta)),
                "/api/latency": render(a.latency_payload(summary)),
                "lineage": render(a.lineage_payload(chain)),
            }
        seconds = time.perf_counter() - started
        bodies = {k: v.encode("utf-8") for k, v in bodies.items()}
        problems = []
        if self.reduce_bodies is None:
            self.reduce_bodies = bodies
            self.expected.update(
                (k, v) for k, v in bodies.items() if k.startswith("/api/")
            )
            problems += self._check_latency(a.latency_payload(summary))
        elif bodies != self.reduce_bodies:
            problems.append("reduction payloads differ from the first pass")
        self.ledger.op(problems, "spool reduction")
        return summary.records / seconds

    def _check_latency(self, payload: Dict[str, Any]) -> List[str]:
        """Detection latency, from the spool's crash and detection records."""
        latencies = {str(r["node"]): r["latency_phi"] for r in payload["crashes"]}
        problems = [
            f"node {node} detected {lat} phi before its crash"
            for node, lat in latencies.items()
            if lat is not None and lat < 0
        ]
        print(f"detection latency (phi) per crashed node: {latencies}")
        if self.pins is not None and latencies != self.pins["latency_phi"]:
            problems.append(
                f"latency {latencies} != pinned {self.pins['latency_phi']}"
            )
        return problems

    def get(self, path: str) -> Tuple[float, int, bytes]:
        with self.span("http.client") as span_id:
            if self.recorder is not None:
                self.recorder.adopt = span_id
            started = time.perf_counter()
            conn = http.client.HTTPConnection("127.0.0.1", self.setup.port, timeout=120)
            try:
                conn.request("GET", path)
                response = conn.getresponse()
                body = response.read()
            finally:
                conn.close()
            seconds = time.perf_counter() - started
            self.requests += 1
            if self.handled is not None:
                # Keep the handler's span inside this one.
                self.handled.acquire(timeout=120)
        return seconds, response.status, body

    def metrics_problems(self, status: int, body: bytes) -> List[str]:
        want = f"repro_serve_requests_total {self.requests}".encode()
        lines = body.split(b"\n")
        if status != 200:
            return [f"/metrics status {status}"]
        if want not in lines and want + b".0" not in lines:
            return [f"/metrics lacks {want!r}"]
        return []

    def grow(self) -> List[float]:
        chunks = whole_line_chunks(self.spool_bytes, GROW_CHUNKS)
        latencies, answered = [], []
        with self.span("bench.grow"):
            self.setup.served.write_bytes(b"")
            for k, chunk in enumerate(chunks):
                with self.setup.served.open("ab") as handle:
                    handle.write(chunk)
                for path in ENDPOINTS:
                    seconds, status, body = self.get(path)
                    latencies.append(1000.0 * seconds)
                    if path == "/metrics":
                        self.ledger.op(self.metrics_problems(status, body), path)
                    else:
                        answered.append((k, path, status, body))
        self.grown.append(answered)
        return latencies

    def serve_finished(self) -> List[float]:
        latencies = []
        with self.span("bench.static"):
            for _ in range(STATIC_ROUNDS):
                for path in ENDPOINTS:
                    seconds, status, body = self.get(path)
                    latencies.append(1000.0 * seconds)
                    if path == "/metrics":
                        problems = self.metrics_problems(status, body)
                    elif status != 200:
                        problems = [f"status {status}"]
                    elif body != self.expected[path]:
                        problems = ["body differs from render_json of the payload"]
                    else:
                        problems = []
                    self.ledger.op(problems, f"finished {path}")
        return latencies

    def one_pass(self, keep=False) -> Dict[str, Any]:
        started = time.perf_counter()
        with self.span("bench.pass"):
            write_s = self.write(keep=keep)
            rate = self.reduce()
            live = self.grow()
            static = self.serve_finished()
        return {
            "pass_s": time.perf_counter() - started, "write_s": write_s,
            "rate": rate, "live": live, "static": static,
        }

    # -- expectations (untimed) -----------------------------------------
    def bodies(self, records: Callable[[], Any]) -> Dict[str, bytes]:
        """``render_json`` bodies of the JSON endpoints for the records
        that each call of ``records`` iterates."""
        a, topology = self.analyze, self.topology
        summary = a.summarize(records())
        rows, meta = a.timeline(records())
        view = topology.topology_view(records())
        payloads = {
            "/api/summary": a.summary_payload(summary),
            "/api/timeline": a.timeline_payload(rows, meta),
            "/api/topology": topology.topology_payload(view),
            "/api/latency": a.latency_payload(summary),
        }
        return {
            path: self.cli.render_json(payload).encode("utf-8")
            for path, payload in payloads.items()
        }

    def check_grown(self) -> None:
        """Each body served while growing equals the payload of its prefix.

        Chunks are whole lines and a spool parses line by line, so the
        records of a prefix are the first records of the whole spool.
        """
        records = list(self.spool.iter_spool(self.setup.recorded))
        ends, total = [], 0
        for chunk in whole_line_chunks(self.spool_bytes, GROW_CHUNKS):
            total += chunk.count(b"\n")
            ends.append(total)
        if total != len(records):
            self.ledger.op([f"{total} lines but {len(records)} records"], "prefixes")
            return
        for k, end in enumerate(ends):
            want = self.bodies(lambda: records[:end])
            for answered in self.grown:
                for chunk_index, path, status, body in answered:
                    if chunk_index != k:
                        continue
                    problems = []
                    if status != 200:
                        problems.append(f"status {status}")
                    elif body != want[path]:
                        problems.append(
                            "body differs from render_json of the prefix payload"
                        )
                    self.ledger.op(problems, f"growing {path} after chunk {k + 1}")

    # -- modes -----------------------------------------------------------
    def warm_up(self) -> None:
        """The first spooled run, and the topology body its spool must be
        served with (the first reduction supplies the other bodies)."""
        self.write()
        view = self.topology.topology_view(
            self.spool.iter_spool(self.setup.recorded)
        )
        self.expected["/api/topology"] = self.cli.render_json(
            self.topology.topology_payload(view)
        ).encode("utf-8")

    def measure(self, seconds: float, host: HostSpeed) -> Dict[str, float]:
        self.warm_up()
        runs = repeat(seconds, self.one_pass)
        passes = [p for p, _start, _end in runs]
        rss = peak_rss_mb()
        self.check_grown()
        # The stages of a pass, printed for reading; the named metric is
        # the whole session's throughput.
        live = [x for p in passes for x in p["live"]]
        static = [x for p in passes for x in p["static"]]
        for name, samples in (("live_http_ms", live), ("static_http_ms", static)):
            label, value, n = tail(samples)
            print(f"{name}: p50={statistics.median(samples):.4f} "
                  f"{label}={value:.4f} (n={n})")
        for name, key in (("pass_s", "pass_s"), ("traced_run_s", "write_s"),
                          ("reduce_records_per_s", "rate")):
            print(f"{name} samples: {[round(p[key], 4) for p in passes]}")
        node_exec = self.reference["nodes"] * self.setup.config.executions
        return {
            "peak_rss_mb": rss,
            "node_exec_per_s": scaled_rate(
                host, [(node_exec / p["pass_s"], start, end) for p, start, end in runs]
            ),
        }

    def trace(self) -> Dict[str, float]:
        from repro.serve.http import DashboardHandler

        self.warm_up()
        started = time.perf_counter()
        self.one_pass()
        untraced = time.perf_counter() - started
        recorder = SpanRecorder()
        done = install(recorder)
        handled = threading.Semaphore(0)
        traced_do_get = DashboardHandler.do_GET

        def do_get(handler) -> None:
            try:
                traced_do_get(handler)
            finally:
                handled.release()

        done.patch((DashboardHandler,), "do_GET", do_get)
        self.recorder, self.handled = recorder, handled
        try:
            self.one_pass(keep=True)
        finally:
            self.recorder, self.handled = None, None
            done.restore()
        self.check_grown()
        metrics, gap = layer_metrics(
            done, "bench.pass", untraced, self.setup.import_s, self.results,
            spool_bytes=len(self.spool_bytes),
        )
        check_partition(self.ledger, metrics["trace.root_s"], gap)
        self.results.clear()
        return metrics


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    setup = Setup(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        setup.close()
        return 0

    expected = json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))
    declared = json.loads(BENCHMARK_PATH.read_text(encoding="utf-8"))
    pins = (
        expected["pins"][args.workload]
        if args.seed == expected["default_seed"] else None
    )
    ledger = Ledger()
    cls = LiveWorkload if args.workload == "live-dashboard" else SimWorkload
    try:
        workload = cls(setup, ledger, pins)
        if args.trace:
            metrics = workload.trace()
            section = "per_layer"
        else:
            with HostSpeed() as host:
                probes_started = time.perf_counter()
                samples, problems = sample_setup(args.workload, args.seed)
                probes_ended = time.perf_counter()
                ledger.op(problems, "set-up probes")
                metrics = workload.measure(args.seconds, host)
            # A probe is too short to hold enough samples of its own, so
            # the samples taken during all of them scale their median.
            metrics["setup_s"] = statistics.median(samples) * host.scale(
                probes_started, probes_ended
            )
            print(f"raw setup_s samples: {[round(s, 4) for s in samples]}")
            cpu = [c for _at, c in host.samples]
            print(f"reference samples: {len(cpu)}, median "
                  f"{statistics.median(cpu) * 1000:.4f} ms CPU")
            section = "end_to_end"
    finally:
        setup.close()

    units = {m["name"]: m["unit"] for m in declared[section]}
    if set(metrics) != set(units):
        raise RuntimeError(
            f"measured {sorted(metrics)} but BENCHMARK.json {section} "
            f"names {sorted(units)}"
        )
    print(f"ops={ledger.attempted} ops_failed={ledger.failed}")
    out = {}
    for name, unit in units.items():
        print(f"{name} = {metrics[name]} {unit}")
        out[name] = {"value": metrics[name], "unit": unit}
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": out,
    }))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
