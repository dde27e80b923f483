"""Tests of the span fold and of the layer wrappers on small real runs.

Run from the repository root::

    python3 -m pytest perfbench/test_spans.py
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from spans import Span, SpanRecorder, self_times, union_length  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_union_length_merges_overlaps_and_nesting():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 4)]) == 3.0
    assert union_length([(0, 3), (2, 5)]) == 5.0
    assert union_length([(0, 10), (2, 3), (4, 5)]) == 10.0
    assert union_length([(3, 3), (5, 4)]) == 0.0


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        Span(1, "root", 0.0, 10.0, None),
        Span(2, "a", 1.0, 4.0, 1),
        Span(3, "b", 3.0, 6.0, 1),  # overlaps a by one second
        Span(4, "c", 1.5, 2.0, 2),  # nested in a: not subtracted from root
    ]
    selfs = self_times(spans, {})
    assert selfs == pytest.approx({"root": 5.0, "a": 2.5, "b": 3.0, "c": 0.5})


def test_child_outside_its_parent_is_clipped():
    spans = [Span(1, "root", 0.0, 4.0, None), Span(2, "late", 3.0, 6.0, 1)]
    assert self_times(spans, {})["root"] == pytest.approx(3.0)


def test_generator_resumed_many_times_partitions_its_caller():
    clock = FakeClock()
    recorder = SpanRecorder(clock)

    def records(n):
        for i in range(n):
            clock.advance(1.0)  # parsing one record
            yield i

    with recorder.span("root"):
        for _ in recorder.iterate("gen", records(5)):
            clock.advance(2.0)  # the caller's own work per record
    agg = recorder.aggregates()[("gen", 1)]
    assert agg[0] == 6  # five records and the exhausting resume
    selfs = self_times(recorder.spans(), recorder.aggregates())
    assert selfs == pytest.approx({"root": 10.0, "gen": 5.0})
    assert sum(selfs.values()) == pytest.approx(15.0)


def test_nested_aggregated_calls_and_spans_sum_to_root():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    emit = recorder.wrap_calls("emit", lambda: clock.advance(0.5))

    def transmit():
        clock.advance(1.0)
        emit()

    transmit = recorder.wrap_calls("transmit", transmit)

    def receive():
        clock.advance(2.0)
        transmit()

    receive = recorder.wrap_calls("receive", receive)
    setup = recorder.wrap_span("setup", lambda: clock.advance(3.0))
    with recorder.span("root"):
        setup()
        for _ in range(4):
            receive()
            clock.advance(0.25)
        transmit()
    selfs = self_times(recorder.spans(), recorder.aggregates())
    assert selfs == pytest.approx({
        "root": 1.0, "setup": 3.0, "receive": 8.0, "transmit": 5.0,
        "emit": 2.5,
    })
    assert sum(selfs.values()) == pytest.approx(19.5)


def test_thread_adopts_the_causing_span():
    recorder = SpanRecorder()
    with recorder.span("client") as client:
        recorder.adopt = client
        worker = threading.Thread(
            target=recorder.wrap_span("handler", lambda: None)
        )
        worker.start()
        worker.join(timeout=10)
    assert not worker.is_alive()
    handler = [s for s in recorder.spans() if s.name == "handler"]
    assert [s.parent for s in handler] == [client]
    root = [s for s in recorder.spans() if s.name == "client"][0]
    selfs = self_times(recorder.spans(), recorder.aggregates())
    assert sum(selfs.values()) == pytest.approx(root.end - root.start)


def test_span_inside_an_aggregated_call_is_refused():
    recorder = SpanRecorder()
    inner = recorder.wrap_span("inner", lambda: None)
    outer = recorder.wrap_calls("outer", inner)
    with pytest.raises(RuntimeError):
        outer()


@pytest.mark.parametrize("engine", ["event", "array"])
def test_layer_self_times_partition_a_real_run(engine, tmp_path):
    from layers import install, layer_metrics
    from repro.experiments.runner import ScenarioConfig, run_scenario
    from repro.obs.profiler import PhaseProfiler
    from repro.obs.spool import SpoolingTracer

    config = ScenarioConfig(
        engine=engine, cluster_count=2, members_per_cluster=12,
        crash_count=1, executions=3,
        formation="protocol" if engine == "array" else "oracle",
    )
    recorder = SpanRecorder()
    done = install(recorder)
    profiler = PhaseProfiler() if engine == "array" else None
    try:
        with recorder.span("scenario.run"):
            with SpoolingTracer(tmp_path / "spool.jsonl") as tracer:
                result = run_scenario(config, tracer=tracer, profiler=profiler)
    finally:
        done.restore()
    metrics, gap = layer_metrics(
        done, "scenario.run", 1.0, 0.0, [result],
        profiler_seconds=profiler.seconds if profiler else None,
    )
    assert abs(gap) < 1e-9
    shares = {name: value for name, value in metrics.items()
              if name.endswith("share") and name != "array.intercluster.share"}
    assert sum(shares.values()) == pytest.approx(1.0)
    assert metrics["obs.emit.records"] == tracer.spooled > 0
    if engine == "event":
        assert metrics["fds.on_receive.calls"] == result.messages.deliveries
        assert metrics["sim.run.self_share"] > 0
        assert metrics["array.formation.share"] == 0
    else:
        assert metrics["array.loss.calls"] > 0
        assert metrics["array.formation.share"] > 0
        assert metrics["array.rounds.self_share"] > 0
        assert metrics["radio.transmit.share"] == 0
