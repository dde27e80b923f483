"""End-to-end scenario execution through the array engine.

:func:`run_array_scenario` is the array-engine twin of
:func:`repro.experiments.runner.run_scenario`: same
:class:`~repro.experiments.runner.ScenarioConfig` in, the same
:class:`~repro.experiments.runner.ScenarioResult` out, with a trace of
the same verdict-bearing record kinds.  The field, the faultload, and the
crash schedule reuse the *identical* seeded streams as the event engine
(``stream("placement")``, ``stream("faultload")``), so a scenario's
topology and ground truth match bit-for-bit across engines; only the
per-copy loss draws come from the engine-private ``stream("array",
"loss")``.

Support matrix: every ``ScenarioConfig`` runs on this engine -- both
formation modes (``"oracle"`` builds the lattice layout directly;
``"protocol"`` runs the vectorized six-round distributed formation, see
:mod:`repro.sim.array_engine.formation`), every loss kind (including
the stateful ``gilbert`` chains, see
:mod:`repro.sim.array_engine.loss`), and energy tracking (see
:mod:`repro.sim.array_engine.energy`).  No config is rejected here.

With ``formation="protocol"`` the member positions still come from the
shared ``stream("placement")`` (bit-identical field across engines),
formation loss draws ride the engine-private loss stream under the
``"fm"`` chain family, the RCC backoff uniforms come from
``stream("array", "formation")``, and the FDS epoch starts one round
after formation parks the clock -- the event path's
``network.sim.now + thop``.  Nodes the protocol leaves unclustered run
no FDS: they are excluded from the completeness observer set (the
paper's scope) but remain crash candidates, exactly like the event
engine.
"""

from __future__ import annotations

import time as _time
from typing import Optional

import numpy as np

from repro.failure.faultload import crash_executions, scenario_crashes
from repro.metrics.collectors import MessageCounts
from repro.metrics.properties import score_properties
from repro.obs.analyze import META_KIND, PROFILE_KIND
from repro.obs.profiler import (
    PHASE_ARRAY_LAYOUT,
    PHASE_ARRAY_ROUNDS,
    PHASE_ARRAY_SCORE,
    PhaseProfiler,
)
from repro.energy.model import EnergyConfig
from repro.experiments.runner import ScenarioResult
from repro.sim.array_engine.energy import ArrayEnergyLedger
from repro.sim.array_engine.layout import build_array_layout
from repro.sim.array_engine.loss import ArrayLossDraw
from repro.sim.array_engine.rounds import ArrayRoundEngine
from repro.sim.trace import RecordingTracer, Tracer
from repro.types import NodeId
from repro.util.rng import RngFactory


def run_array_scenario(
    config,
    tracer: Optional[Tracer] = None,
    profiler: Optional[PhaseProfiler] = None,
    record_energy_journal: bool = False,
) -> ScenarioResult:
    """Run one scenario through the round-level array engine.

    Accepts the same :class:`~repro.experiments.runner.ScenarioConfig`
    as the event path (callers normally go through
    ``run_scenario(config)`` with ``engine="array"``).
    """
    rngs = RngFactory(config.seed)
    if tracer is None:
        tracer = RecordingTracer()

    loss = ArrayLossDraw(
        config.loss_kind,
        config.loss_params,
        loss_probability=config.loss_probability,
        transmission_range=config.transmission_range,
        rng=rngs.stream("array", "loss"),
    )

    t0 = _time.perf_counter()
    outcome = None
    if config.formation == "oracle":
        layout = build_array_layout(
            cluster_count=config.cluster_count,
            members_per_cluster=config.members_per_cluster,
            radius=config.transmission_range,
            rng=rngs.stream("placement"),
            spacing_factor=config.spacing_factor,
            deputy_count=config.fds.deputy_count,
            max_backups=(
                config.max_backups if config.max_backups is not None else 2
            ),
            keep_pair_dist=(config.loss_kind == "distance"),
        )
        fds_start = 0.0
    else:
        from repro.cluster.formation import FormationConfig
        from repro.sim.array_engine.formation import (
            formation_array_layout,
            run_array_formation,
        )
        from repro.sim.array_engine.layout import lattice_positions

        xs, ys = lattice_positions(
            cluster_count=config.cluster_count,
            members_per_cluster=config.members_per_cluster,
            radius=config.transmission_range,
            rng=rngs.stream("placement"),
            spacing_factor=config.spacing_factor,
        )
        # Mirror the event path's construction exactly (defaults for
        # deputy_count/max_backups) so the extracted layouts agree.
        formation_config = FormationConfig(
            thop=config.fds.thop,
            iterations=config.formation_iterations,
            backoff_fraction=config.formation_backoff_fraction,
        )
        outcome = run_array_formation(
            xs, ys, config.transmission_range, formation_config,
            loss, rngs.stream("array", "formation"),
        )
        layout = formation_array_layout(
            outcome, keep_pair_dist=(config.loss_kind == "distance")
        )
        # The event path starts the FDS one round after formation parks
        # the clock (run_formation's total_duration, then + thop).
        fds_start = formation_config.total_duration() + config.fds.thop
    if profiler is not None:
        profiler.add_seconds(PHASE_ARRAY_LAYOUT, _time.perf_counter() - t0)

    # Same candidate order and stream as the event path: operational
    # node IDs ascending, heads excluded -- in the lattice that is every
    # member NID; under the protocol, heads sit anywhere, and unclustered
    # nodes remain candidates.
    if config.formation == "oracle":
        candidates = tuple(
            NodeId(int(n))
            for n in range(config.cluster_count, layout.node_count)
        )
    else:
        head_set = frozenset(int(h) for h in layout.head_nids)
        candidates = tuple(
            NodeId(n)
            for n in range(layout.node_count)
            if n not in head_set
        )
    faultload = scenario_crashes(candidates, config, config.fds, fds_start)
    crash_times = {e.node_id: e.time for e in faultload.events}
    # First 0-based execution each node is dead in; never-crashing nodes
    # stay alive past the horizon.
    crash_exec = np.full(
        layout.node_count, config.executions + 1, dtype=np.int64
    )
    for nid, k in crash_executions(
        faultload, fds_start, config.fds.phi
    ).items():
        crash_exec[int(nid)] = k

    if tracer.enabled:
        tracer.record(
            0.0,
            META_KIND,
            phi=config.fds.phi,
            thop=config.fds.thop,
            nodes=layout.node_count,
            seed=config.seed,
            executions=config.executions,
            fds_start=fds_start,
        )
        # Cluster map for the dashboard's /api/topology, same shape as
        # the event engine's record (heads/members/deputies/boundaries).
        from repro.obs.topology import TOPOLOGY_KIND, array_topology_detail

        tracer.record(0.0, TOPOLOGY_KIND, **array_topology_detail(layout))
        # Crash ground truth, as the event engine's node runtime emits
        # it -- the spool must stay self-describing (``repro trace
        # latency`` recovers crash times from ``sim.crash`` alone).
        for event in faultload.events:
            tracer.record(event.time, "sim.crash", node=int(event.node_id))

    energy = (
        ArrayEnergyLedger(
            layout.node_count,
            EnergyConfig(),
            start=fds_start,
            record_journal=record_energy_journal,
        )
        if config.track_energy
        else None
    )
    engine = ArrayRoundEngine(
        layout,
        config.fds,
        loss,
        tracer,
        crash_exec,
        fds_start=fds_start,
        profiler=profiler,
        energy=energy,
    )
    t0 = _time.perf_counter()
    for e in range(config.executions):
        engine.run_execution(e)
    if profiler is not None:
        profiler.add_seconds(
            PHASE_ARRAY_ROUNDS, _time.perf_counter() - t0,
            calls=config.executions,
        )

    # The event scheduler parks the clock at the tail of the last
    # execution window; mirror it so latency/accuracy horizons agree.
    horizon = fds_start + (config.executions - 1) * config.fds.phi
    horizon += 0.95 * config.fds.phi

    # Observers are the operational clustered nodes; the oracle lattice
    # clusters everyone, protocol layouts leave ``assign == PAD`` out.
    t0 = _time.perf_counter()
    crashed = crash_exec <= config.executions
    report = score_properties(
        engine.known,
        np.asarray(engine.t_ids, dtype=np.int64),
        crashed,
        ~crashed & (layout.assign >= 0),
    )
    if profiler is not None:
        profiler.add_seconds(PHASE_ARRAY_SCORE, _time.perf_counter() - t0)

    formation_tx = outcome.transmissions if outcome is not None else 0
    messages = MessageCounts(
        transmissions=engine.transmissions + formation_tx,
        deliveries=loss.delivered_count,
        losses=loss.attempted - loss.delivered_count,
        peer_requests=engine.peer_requests,
        peer_forwards=engine.peer_forwards,
        peer_recoveries=engine.peer_recoveries,
        reports_sent=engine.reports_sent,
        report_retransmissions=engine.report_retransmissions,
        bgw_activations=engine.bgw_activations,
        origin_retransmissions=0,
    )

    if profiler is not None and profiler.enabled and tracer.enabled:
        for phase, seconds, _share, calls in profiler.shares():
            tracer.record(
                horizon, PROFILE_KIND, phase=phase, seconds=seconds,
                calls=calls,
            )

    return ScenarioResult(
        config=config,
        fds=config.fds,
        network=layout,
        layout=layout,
        faultload=faultload,
        crash_times=crash_times,
        fds_start=fds_start,
        horizon=horizon,
        properties=report,
        messages=messages,
        tracer=tracer,
        energy=energy,
        formation=outcome,
    )
