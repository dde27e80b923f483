"""Wrappers around the public calls into each layer of ``repro``.

:func:`install` replaces each public entry point named below with a
wrapper that records it on a :class:`~spans.SpanRecorder`: coarse calls
as spans, per-message calls as aggregated calls.  Every module that
imported a wrapped function by name is patched too, so the program's
own call sites reach the wrapper.  The program's source is untouched;
:meth:`Installed.restore` puts the originals back.

:func:`layer_metrics` folds the recording into the per-layer metrics of
``BENCHMARK.json``.  Every layer time is a self time reported as a share
of the traced root's wall clock, so the shares of all layers add up to
1 (a layer that did not run on a workload reports 0).
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

from spans import COUNT, SpanRecorder, self_times

#: Self-time metric for each span or aggregated-call name: the layer's
#: self seconds as a share of the traced root's wall clock.
#: ``.self_share`` marks a layer whose calls enclose other measured
#: layers.  Shares, unlike seconds, are defined (as 0) for a layer that
#: did not run on a workload, and they do not move with the host's speed.
SELF_TIME_METRICS = {
    "scenario.run": "scenario.run.self_share",
    "sim.build_network": "sim.build_network.share",
    "cluster.build_clusters": "cluster.build_clusters.share",
    "fds.install_fds": "fds.install_fds.share",
    "metrics.evaluate_properties": "metrics.evaluate_properties.share",
    "sim.run": "sim.run.self_share",
    "radio.transmit": "radio.transmit.share",
    "fds.on_receive": "fds.on_receive.share",
    "fds.intercluster": "fds.intercluster.share",
    "obs.emit": "obs.emit.share",
    "array.formation": "array.formation.share",
    "array.rounds": "array.rounds.self_share",
    "array.loss": "array.loss.share",
    "obs.iter_spool": "obs.iter_spool.share",
    "obs.summarize": "obs.summarize.self_share",
    "obs.timeline": "obs.timeline.self_share",
    "obs.lineage": "obs.lineage.self_share",
    "obs.topology_view": "obs.topology_view.self_share",
    "obs.render_json": "obs.render_json.share",
    "serve.request": "serve.request.self_share",
    "http.client": "http.client.self_share",
    "bench.pass": "bench.self_share",
    "bench.write": "bench.self_share",
    "bench.reduce": "bench.self_share",
    "bench.grow": "bench.self_share",
    "bench.static": "bench.self_share",
}

#: Reductions whose calls under a request count as re-reductions.
REDUCTIONS = ("obs.summarize", "obs.timeline", "obs.lineage", "obs.topology_view")


class Installed:
    """The patches :func:`install` made, and counters kept beside them."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[Any, str, Any]] = []
        #: Records yielded through wrapped ``iter_spool`` generators.
        self.spool_records = 0
        self.spool_records_lock = threading.Lock()

    def patch(self, owners, attr: str, wrapper) -> None:
        for owner in owners:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def install(recorder: SpanRecorder) -> Installed:
    """Wrap every layer's public calls; returns the handle to undo it."""
    from repro.cluster import geometric
    from repro.experiments import runner
    from repro.fds import intercluster, service
    from repro.metrics import properties
    from repro.obs import analyze, cli, spool, topology
    from repro.serve import http, state
    from repro.sim import medium, network
    from repro.sim.array_engine import formation, loss, rounds

    done = Installed(recorder)
    span, calls = recorder.wrap_span, recorder.wrap_calls

    # Run set-up (event engine); runner imported each by name.
    for name, module, attr in (
        ("sim.build_network", network, "build_network"),
        ("cluster.build_clusters", geometric, "build_clusters"),
        ("fds.install_fds", service, "install_fds"),
        ("metrics.evaluate_properties", properties, "evaluate_properties"),
    ):
        done.patch((module, runner), attr, span(name, getattr(module, attr)))

    # Event engine, per message.
    done.patch(
        (service.FdsDeployment,), "run_executions",
        span("sim.run", service.FdsDeployment.run_executions),
    )
    done.patch(
        (medium.RadioMedium,), "transmit",
        calls("radio.transmit", medium.RadioMedium.transmit),
    )
    done.patch(
        (service.FdsProtocol,), "on_receive",
        calls("fds.on_receive", service.FdsProtocol.on_receive),
    )
    forwarder = intercluster.InterclusterForwarder
    for attr in ("on_local_update", "on_foreign_update", "on_overheard_report"):
        done.patch(
            (forwarder,), attr, calls("fds.intercluster", getattr(forwarder, attr))
        )
    done.patch(
        (spool.SpoolingTracer,), "emit",
        calls("obs.emit", spool.SpoolingTracer.emit),
    )

    # Array engine.
    for attr in ("run_array_formation", "formation_array_layout"):
        done.patch(
            (formation,), attr, span("array.formation", getattr(formation, attr))
        )
    done.patch(
        (rounds.ArrayRoundEngine,), "run_execution",
        span("array.rounds", rounds.ArrayRoundEngine.run_execution),
    )
    for attr in ("delivered", "draw_into"):
        done.patch(
            (loss.ArrayLossDraw,), attr,
            calls("array.loss", getattr(loss.ArrayLossDraw, attr)),
        )

    # Spool reading, reductions, serialization, serving.
    original_iter_spool = spool.iter_spool

    def iter_spool(*args, **kwargs):
        for record in recorder.iterate(
            "obs.iter_spool", original_iter_spool(*args, **kwargs)
        ):
            with done.spool_records_lock:
                done.spool_records += 1
            yield record

    done.patch((spool, state), "iter_spool", iter_spool)
    for name, module, attr, importers in (
        ("obs.summarize", analyze, "summarize", (state,)),
        ("obs.timeline", analyze, "timeline", (state,)),
        ("obs.lineage", analyze, "lineage", (state,)),
        ("obs.topology_view", topology, "topology_view", (state,)),
    ):
        done.patch(
            (module,) + importers, attr, span(name, getattr(module, attr))
        )
    done.patch(
        (cli, http), "render_json", calls("obs.render_json", cli.render_json)
    )
    done.patch(
        (http.DashboardHandler,), "do_GET",
        span("serve.request", http.DashboardHandler.do_GET),
    )
    return done


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    done: Installed,
    root_name: str,
    untraced_s: float,
    import_s: float,
    results: List[Any],
    profiler_seconds: Optional[Dict[str, float]] = None,
    spool_bytes: int = 0,
) -> Tuple[Dict[str, float], float]:
    """Per-layer metrics of one traced pass, and the partition gap.

    ``results`` are the scenario results the pass produced (their
    message counts are the forwarding and radio counters).  The gap is
    the root's wall clock minus the sum of every self time; it is zero
    up to rounding when the spans partition the root.
    """
    spans = done.recorder.spans()
    aggregates = done.recorder.aggregates()
    selfs = self_times(spans, aggregates)
    roots = [s for s in spans if s.name == root_name]
    if len(roots) != 1:
        raise RuntimeError(f"expected one {root_name!r} root, got {len(roots)}")
    root_s = roots[0].end - roots[0].start

    out: Dict[str, float] = dict.fromkeys(SELF_TIME_METRICS.values(), 0.0)
    unknown = set(selfs) - set(SELF_TIME_METRICS)
    if unknown:
        raise RuntimeError(f"spans without a layer metric: {sorted(unknown)}")
    for name, seconds in selfs.items():
        out[SELF_TIME_METRICS[name]] += seconds / root_s
    gap = root_s - sum(selfs.values())

    def calls(name: str) -> int:
        return sum(
            int(agg[COUNT]) for (n, _e), agg in aggregates.items() if n == name
        )

    by_id = {s.id: s for s in spans}
    requests = [s for s in spans if s.name == "serve.request"]
    rereductions = sum(
        1 for s in spans
        if s.name in REDUCTIONS
        and by_id.get(s.parent) is not None
        and by_id[s.parent].name == "serve.request"
    )
    out.update({
        "import.s": import_s,
        "trace.root_s": root_s,
        "trace_overhead_ratio": _ratio(root_s, untraced_s),
        "radio.transmit.calls": calls("radio.transmit"),
        "fds.on_receive.calls": calls("fds.on_receive"),
        "array.loss.calls": calls("array.loss"),
        "array.intercluster.share": (profiler_seconds or {}).get(
            "array.intercluster", 0.0
        ) / root_s,
        "obs.emit.records": calls("obs.emit"),
        "obs.spool.bytes": spool_bytes,
        "obs.iter_spool.records": done.spool_records,
        "serve.requests": len(requests),
        "serve.rereductions": rereductions,
        "serve.rereduce_ratio": _ratio(rereductions, len(requests)),
    })

    sent = retrans = bgw = deliveries = losses = events = 0
    array_attempted = array_delivered = 0
    for result in results:
        m = result.messages
        sent += m.reports_sent
        retrans += m.report_retransmissions
        bgw += m.bgw_activations
        if result.config.engine == "array":
            array_attempted += m.deliveries + m.losses
            array_delivered += m.deliveries
        else:
            deliveries += m.deliveries
            losses += m.losses
            events += result.network.sim.processed_events
    out.update({
        "fds.reports_sent": sent,
        "fds.report_retransmissions": retrans,
        "fds.bgw_activations": bgw,
        "fds.report_useful_ratio": _ratio(sent, sent + retrans),
        "radio.deliveries": deliveries,
        "radio.delivery_ratio": _ratio(deliveries, deliveries + losses),
        "sim.events": events,
        "array.loss.attempted": array_attempted,
        "array.loss.delivered_ratio": _ratio(array_delivered, array_attempted),
    })
    return dict(out), gap
