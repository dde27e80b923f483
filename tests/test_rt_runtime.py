"""Real-network runtime tests: a scenario over actual localhost UDP
sockets, substrate conformance of both node types, spooling under
concurrent emitters, timebase-aware analysis, and the sim/real
differential (``differential:realnet``).

Runs here keep the field small (a dozen nodes, 3 executions) so each
wall-clock run stays around a second; CI's smoke job covers the
>= 20-node scale.
"""

import json
import threading

import pytest

from repro.audit.realnet import (
    check_realnet,
    realnet_repro_snippet,
    realnet_spec,
)
from repro.errors import ExperimentError, NodeStateError
from repro.experiments.runner import ScenarioConfig
from repro.fds.config import FdsConfig
from repro.fds.substrate import Substrate, TimerHandle, TimerScheduler
from repro.obs.analyze import TraceMeta, summarize
from repro.obs.spool import SpoolingTracer, read_spool
from repro.rt.collector import merge_spools, spool_files
from repro.rt.runtime import WALL_TIMEBASE, run_rt_scenario
from repro.sim.loss import sweep_loss_params
from repro.sim.trace import RecordingTracer, TraceRecord

#: The realnet shape: perfect links, a tight lattice, phi=8.
RT_SHAPE = dict(
    engine="rt",
    loss_kind="perfect",
    spacing_factor=1.25,
    max_backups=2,
    fds=FdsConfig(phi=8.0, thop=0.5),
)

SMALL = ScenarioConfig(
    seed=7,
    cluster_count=2,
    members_per_cluster=5,
    crash_count=1,
    executions=3,
    **RT_SHAPE,
)


@pytest.fixture(scope="module")
def small_run():
    """One shared runtime run (real sockets; ~1 s of wall clock)."""
    return run_rt_scenario(SMALL)


@pytest.fixture(scope="module")
def spooled_run(tmp_path_factory):
    spool_dir = tmp_path_factory.mktemp("rt-spool")
    return run_rt_scenario(SMALL, spool_dir=spool_dir), spool_dir


# ----------------------------------------------------------------------
# Substrate conformance
# ----------------------------------------------------------------------
def test_both_substrates_satisfy_the_protocols(small_run):
    from repro.sim.engine import Simulator
    from repro.sim.medium import RadioMedium
    from repro.sim.node import SimNode
    from repro.util.geometry import Vec2

    rt_node = next(iter(small_run.network.values()))
    assert isinstance(rt_node, Substrate)
    assert isinstance(rt_node.timers, TimerScheduler)
    assert isinstance(rt_node.timers.create(lambda: None), TimerHandle)

    sim = Simulator()
    medium = RadioMedium(sim, transmission_range=100.0, max_delay=0.01)
    sim_node = SimNode(0, Vec2(0.0, 0.0), sim, medium)
    assert isinstance(sim_node, Substrate)
    assert isinstance(sim_node.timers, TimerScheduler)


# ----------------------------------------------------------------------
# The runtime itself
# ----------------------------------------------------------------------
def test_rt_run_detects_the_injected_crash(small_run):
    result = small_run
    # Each cluster is members_per_cluster members plus its head.
    assert len(result.network) == 2 * (SMALL.members_per_cluster + 1)
    assert len(result.crash_times) == 1
    [(victim, crashed_at)] = result.crash_times.items()
    assert not result.network[victim].is_operational
    latency = result.detection_latencies[victim]
    assert latency is not None
    # Loss-independent anchor: 0.4 phi + 2 thop, in wall seconds, with
    # a generous band for scheduler jitter.
    phi, thop = result.fds.phi, result.fds.thop
    anchor = 0.4 * phi + 2 * thop
    assert latency == pytest.approx(anchor, abs=0.3 * phi)
    assert result.codec_errors == 0
    assert result.properties.mean_completeness == 1.0


def test_rt_messages_really_crossed_sockets(small_run):
    sent = sum(n.sent_count for n in small_run.network.values())
    received = sum(n.received_count for n in small_run.network.values())
    assert sent > 0
    assert received > sent  # broadcast fan-out multiplies deliveries
    assert small_run.tracer.count("radio.tx") == sent


def test_rt_crashed_node_is_silent_after_the_kill(small_run):
    [(victim, crashed_at)] = small_run.crash_times.items()
    for record in small_run.tracer.iter_kind("radio.tx"):
        if record.node == int(victim):
            assert record.time <= crashed_at + 1e-9


def test_rt_crash_twice_raises(small_run):
    [(victim, _)] = small_run.crash_times.items()
    with pytest.raises(NodeStateError):
        small_run.network[victim].crash()


def test_rt_meta_record_carries_wall_timebase(small_run):
    [meta_record] = list(small_run.tracer.iter_kind("meta.scenario"))
    assert meta_record.detail["timebase"] == WALL_TIMEBASE
    assert meta_record.detail["time_scale"] == SMALL.time_scale
    assert meta_record.detail["phi"] == pytest.approx(
        SMALL.fds.phi * SMALL.time_scale
    )


def test_rt_scenario_rejects_bad_knobs():
    with pytest.raises(ExperimentError):
        ScenarioConfig(time_scale=0.0, **RT_SHAPE)


# ----------------------------------------------------------------------
# Spool mode: per-node JSONL, merged for the analyzers
# ----------------------------------------------------------------------
def test_spooled_run_merges_into_one_analyzable_trace(spooled_run):
    result, spool_dir = spooled_run
    files = spool_files(spool_dir)
    # One spool per node plus the run spool, all non-empty.
    assert len(files) == len(result.network) + 1
    assert result.merged_spool is not None
    merged = read_spool(result.merged_spool)
    assert merged
    times = [r.time for r in merged]
    assert times == sorted(times)

    summary = summarize(merged)
    assert summary.meta.found
    assert summary.meta.timebase == WALL_TIMEBASE
    assert summary.meta.wall_clock
    assert summary.kinds["sim.crash"] == 1
    assert summary.kinds["fds.detection"] >= 1
    [(victim, _)] = result.crash_times.items()
    latencies = summary.detection_latencies_phi()
    assert latencies[int(victim)] == pytest.approx(0.525, abs=0.3)
    # The disk path agrees with the result object, both anchored on the
    # instant the kill callback actually ran.
    assert result.detection_latencies[victim] == pytest.approx(
        latencies[int(victim)] * result.fds.phi, abs=0.05 * result.fds.phi
    )


def test_merge_is_idempotent_and_excludes_itself(spooled_run):
    result, spool_dir = spooled_run
    first = result.merged_spool.read_text(encoding="utf-8")
    merge_spools(spool_dir)
    assert result.merged_spool.read_text(encoding="utf-8") == first


# ----------------------------------------------------------------------
# Satellite: concurrent spool emission
# ----------------------------------------------------------------------
def test_spooling_tracer_concurrent_emit(tmp_path):
    path = tmp_path / "contended.jsonl"
    tracer = SpoolingTracer(path, flush_every=7)
    threads = 8
    per_thread = 500
    barrier = threading.Barrier(threads)

    def hammer(worker: int) -> None:
        barrier.wait()
        for i in range(per_thread):
            tracer.emit(TraceRecord(
                time=float(i),
                kind="contention.test",
                node=worker,
                detail={"i": i},
            ))

    workers = [
        threading.Thread(target=hammer, args=(w,)) for w in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    tracer.close()

    assert tracer.spooled == threads * per_thread
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == threads * per_thread
    # Every line is intact JSON (no interleaved partial writes), and
    # every (node, i) pair survived exactly once.
    seen = set()
    for line in lines:
        payload = json.loads(line)
        seen.add((payload["node"], payload["i"]))
    assert len(seen) == threads * per_thread


def test_spooling_tracer_close_is_safe_under_emit(tmp_path):
    from repro.errors import ConfigurationError

    tracer = SpoolingTracer(tmp_path / "closing.jsonl")
    tracer.emit(TraceRecord(time=0.0, kind="x", node=None, detail={}))
    tracer.close()
    tracer.close()  # idempotent
    with pytest.raises(ConfigurationError):
        tracer.emit(TraceRecord(time=1.0, kind="x", node=None, detail={}))


# ----------------------------------------------------------------------
# Satellite: timebase-aware analysis
# ----------------------------------------------------------------------
def test_trace_meta_timebase_defaults_to_phi_for_old_spools():
    old_style = TraceRecord(
        time=0.0,
        kind="meta.scenario",
        node=None,
        detail={"phi": 8.0, "thop": 0.5, "nodes": 4},
    )
    meta = TraceMeta.from_record(old_style)
    assert meta.timebase == "phi"
    assert not meta.wall_clock


def test_trace_latency_cli_labels_wall_units(spooled_run, capsys):
    from repro.obs.cli import cmd_trace
    import argparse

    result, _spool_dir = spooled_run
    args = argparse.Namespace(
        trace_action="latency", spool=str(result.merged_spool)
    )
    assert cmd_trace(args) == 0
    out = capsys.readouterr().out
    assert "latency (ms)" in out
    assert "wall seconds" in out


def test_trace_latency_cli_keeps_phi_units_for_sim(tmp_path, capsys):
    from repro.experiments.runner import ScenarioConfig, run_scenario
    from repro.obs.cli import cmd_trace
    from repro.sim.trace import record_to_dict
    import argparse

    sim = run_scenario(ScenarioConfig(
        cluster_count=2, members_per_cluster=5, crash_count=1,
        executions=3, seed=7, loss_probability=0.0,
    ))
    spool = tmp_path / "sim.jsonl"
    with spool.open("w", encoding="utf-8") as handle:
        for record in sim.tracer.records:
            handle.write(json.dumps(record_to_dict(record)) + "\n")
    args = argparse.Namespace(trace_action="latency", spool=str(spool))
    assert cmd_trace(args) == 0
    out = capsys.readouterr().out
    assert "latency (phi)" in out
    assert "latency (ms)" not in out


# ----------------------------------------------------------------------
# differential:realnet
# ----------------------------------------------------------------------
def test_realnet_spec_distribution_is_deterministic():
    assert realnet_spec(3) == realnet_spec(3)
    assert realnet_spec(3) != realnet_spec(4)


def test_realnet_differential_perfect_loss():
    spec = ScenarioConfig(
        seed=11, cluster_count=2, members_per_cluster=5, crash_count=1,
        executions=3, **RT_SHAPE,
    )
    assert check_realnet(spec) == []


def test_realnet_differential_bounded_loss():
    spec = ScenarioConfig(
        seed=5, cluster_count=2, members_per_cluster=6, crash_count=2,
        executions=3, **dict(
            RT_SHAPE, loss_kind="bounded",
            loss_params=sweep_loss_params("bounded", 0.15, 2),
        ),
    )
    assert check_realnet(spec) == []


def test_realnet_repro_snippet_is_valid_python():
    spec = realnet_spec(0)
    from repro.audit.differential import Violation

    snippet = realnet_repro_snippet(
        spec, [Violation(kind="differential:realnet", description="demo")]
    )
    compile(snippet, "<repro>", "exec")
    assert f"seed={spec.seed}" in snippet
    assert "check_realnet" in snippet


# ----------------------------------------------------------------------
# One latency reduction: the run table and the spool agree exactly
# ----------------------------------------------------------------------
def _table_rows(out: str):
    lines = out.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("----"))
    rows = []
    for line in lines[start + 1:]:
        if not line.strip() or line.startswith(" "):
            break
        rows.append(line.split())
    return rows


def test_rt_run_table_matches_trace_latency(tmp_path, capsys):
    """``repro scenario --engine rt`` anchors latency on the executed
    crash instant, which is what the merged spool's ``sim.crash`` records
    carry, so the run's table and ``repro trace latency`` print the same
    numbers."""
    from repro.__main__ import main

    # The exit code reflects accuracy, which wall-clock jitter on a
    # loaded host can break; only the two latency views are compared.
    merged = tmp_path / "merged.jsonl"
    main([
        "scenario", "--engine", "rt", "--loss-kind", "perfect",
        "--clusters", "2", "--members", "10", "--crashes", "2",
        "--executions", "4", "--seed", "3", "--trace-out", str(merged),
    ])
    run_out = capsys.readouterr().out
    assert "nodes                      22" in run_out
    assert main(["trace", "latency", str(merged)]) == 0
    trace_out = capsys.readouterr().out

    # node, crashed_at, latency (phi) -- columns 0, 1 and 3 of both.
    run_rows = [(r[0], r[1], r[3]) for r in _table_rows(run_out)]
    trace_rows = [(r[0], r[1], r[3]) for r in _table_rows(trace_out)]
    assert len(run_rows) == 2
    assert all(latency != "-" for _node, _at, latency in run_rows)
    assert run_rows == trace_rows
