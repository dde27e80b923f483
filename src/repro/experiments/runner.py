"""Generic end-to-end scenario runner.

One call builds the field, forms clusters (oracle by default, or the
distributed protocol), installs the FDS, injects the faultload, runs the
requested executions, and scores the result -- the shared engine behind
the examples, the ablations, and the scenario benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.cluster.formation import FormationConfig, run_formation
from repro.cluster.geometric import build_clusters
from repro.energy.model import EnergyConfig, EnergyModel
from repro.errors import ExperimentError
from repro.failure.faultload import Faultload, scenario_crashes
from repro.failure.injection import FailureInjector
from repro.fds.config import FdsConfig
from repro.fds.service import FdsDeployment, install_fds
from repro.metrics.collectors import MessageCounts, collect_message_counts
from repro.metrics.properties import PropertyReport, evaluate_properties
from repro.obs.analyze import (
    DETECTION_KIND,
    META_KIND,
    PROFILE_KIND,
    detection_latency,
    first_detections,
)
from repro.obs.profiler import PhaseProfiler
from repro.sim.loss import LOSS_KINDS, build_loss_model
from repro.sim.network import NetworkConfig, build_network
from repro.sim.trace import RecordingTracer, Tracer
from repro.topology.generators import multi_cluster_field
from repro.topology.graph import UnitDiskGraph
from repro.types import NodeId, SimTime
from repro.util.parallel import parallel_map
from repro.util.rng import RngFactory

if TYPE_CHECKING:
    import argparse


#: Execution engines a :class:`ScenarioConfig` can run on.
ENGINES = ("event", "array", "rt")

#: Cluster formation modes.
FORMATIONS = ("oracle", "protocol")


@dataclass(frozen=True)
class ScenarioConfig:
    """A complete end-to-end scenario description, whichever engine runs it."""

    cluster_count: int = 4
    members_per_cluster: int = 30
    transmission_range: float = 100.0
    loss_probability: float = 0.1
    crash_count: int = 2
    executions: int = 5
    seed: int = 0
    fds: FdsConfig = field(default_factory=FdsConfig)
    #: ``"oracle"`` builds clusters geometrically; ``"protocol"`` runs the
    #: distributed formation over the lossy medium first.
    formation: str = "oracle"
    #: Formation iterations (F4 has no termination rule; this is how many
    #: six-round iterations the protocol runs).  Only used with
    #: ``formation="protocol"``.
    formation_iterations: int = 3
    #: Upper bound of the RCC declaration backoff as a fraction of a
    #: round (see :func:`repro.cluster.rcc.declaration_backoff`).
    formation_backoff_fraction: float = 0.4
    track_energy: bool = False
    #: Radio hot-path selector; ``False`` runs the scalar reference loop
    #: (same seeded results bit-for-bit, only slower -- see sim/medium.py).
    vectorized: bool = True
    #: Declarative loss-model spec (see :func:`repro.sim.loss.build_loss_model`).
    #: ``"bernoulli"`` with empty params reproduces the classic behaviour
    #: driven by ``loss_probability``; the spec stays a plain (kind, tuple)
    #: pair so configs remain frozen, hashable, and picklable for the
    #: parallel fabric.
    loss_kind: str = "bernoulli"
    loss_params: Tuple[Tuple[str, float], ...] = ()
    #: CH lattice spacing as a fraction of the radio range (must stay in
    #: (1, 2)); tighter spacing widens the lens overlaps, giving nodes
    #: multiple boundary duties.
    spacing_factor: float = 1.6
    #: Per-boundary BGW cap (``None`` = clustering default).
    max_backups: Optional[int] = None
    #: Execution engine: ``"event"`` runs the discrete-event simulator
    #: (the scalar reference -- every message is a scheduled callback);
    #: ``"array"`` runs the round-level numpy engine
    #: (:mod:`repro.sim.array_engine`), which batches each φ-interval
    #: across the whole field and scales to 10^6 nodes; ``"rt"`` runs
    #: every node over localhost UDP with wall-clock timers
    #: (:mod:`repro.rt.runtime`).  Same placement and faultload streams
    #: on all three; loss draws are engine-private.
    engine: str = "event"
    #: rt only: wall seconds per scenario second.  The default maps
    #: ``thop=0.5`` to a 25 ms round -- wide enough that asyncio timer
    #: jitter and socket latency stay well inside the round budget on a
    #: loaded host.
    time_scale: float = 0.05

    def __post_init__(self) -> None:
        if self.formation not in FORMATIONS:
            raise ExperimentError(
                f"formation must be one of {FORMATIONS}, got "
                f"{self.formation!r}"
            )
        if self.engine not in ENGINES:
            raise ExperimentError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )
        if self.loss_kind not in LOSS_KINDS:
            raise ExperimentError(
                f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}"
            )
        for name in ("cluster_count", "members_per_cluster", "executions",
                     "formation_iterations"):
            if getattr(self, name) < 1:
                raise ExperimentError(
                    f"{name} must be >= 1, got {getattr(self, name)!r}"
                )
        if self.crash_count < 0:
            raise ExperimentError("crash_count must be >= 0")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ExperimentError(
                "loss_probability must be in [0, 1], got "
                f"{self.loss_probability!r}"
            )
        if not 1.0 < self.spacing_factor < 2.0:
            raise ExperimentError(
                "spacing_factor must be in (1, 2), got "
                f"{self.spacing_factor!r}"
            )
        if not 0.0 < self.formation_backoff_fraction <= 0.9:
            raise ExperimentError(
                "formation_backoff_fraction must be in (0, 0.9], got "
                f"{self.formation_backoff_fraction!r}"
            )
        if self.time_scale <= 0:
            raise ExperimentError(
                f"time_scale must be > 0, got {self.time_scale!r}"
            )
        if self.engine == "rt":
            if self.formation != "oracle":
                raise ExperimentError(
                    "the rt engine builds oracle clusters only; "
                    "formation='protocol' needs the event or array engine"
                )
            if self.track_energy:
                raise ExperimentError(
                    "the rt engine keeps no energy ledger; track_energy "
                    "needs the event or array engine"
                )

    def wall_fds(self) -> FdsConfig:
        """The protocol config in wall seconds for the rt engine: phi,
        thop and wait_slot times ``time_scale``, so relative protocol
        timing is preserved exactly."""
        fds, scale = self.fds, self.time_scale
        return replace(
            fds,
            phi=fds.phi * scale,
            thop=fds.thop * scale,
            wait_slot=fds.wait_slot * scale,
        )


@dataclass
class ScenarioResult:
    """Everything one scenario run produced, whichever engine ran it.

    The event, array and runtime engines all return this type, so a run
    is scored, summarized and audited the same way on each.
    """

    #: The config asked for.
    config: ScenarioConfig
    #: The protocol config actually run (wall-scaled on the runtime).
    fds: FdsConfig
    #: The node population; ``len()`` is the node count on every engine:
    #: the event :class:`~repro.sim.network.Network`, the array engine's
    #: :class:`~repro.sim.array_engine.layout.ArrayLayout`, or the
    #: runtime's ``{node id: RtNode}`` map.
    network: object
    #: ``ClusterLayout`` (event, runtime) or ``ArrayLayout`` (array);
    #: both expose ``cluster_count``.
    layout: object
    faultload: Faultload
    #: Executed crash time per crashed node.
    crash_times: Dict[NodeId, SimTime]
    #: First FDS epoch (after formation, or the runtime's warmup).
    fds_start: SimTime
    #: End of the last execution window, ``fds_start + (executions - 1)
    #: * phi + 0.95 * phi``: where the event scheduler parks its clock.
    horizon: SimTime
    properties: PropertyReport
    messages: MessageCounts
    #: ``None`` for a runtime run that spooled per node instead.
    tracer: Optional[Tracer]
    #: Energy ledger, populated iff energy was tracked.
    energy: object = None
    #: Event engine: the installed :class:`FdsDeployment`.
    deployment: Optional[FdsDeployment] = None
    #: Array engine with ``formation="protocol"``: the converged
    #: :class:`~repro.sim.array_engine.formation.FormationOutcome`.
    formation: object = None
    #: Runtime with a spool directory: the per-node spools' directory and
    #: their merged trace.
    spool_dir: Optional[Path] = None
    merged_spool: Optional[Path] = None
    #: Runtime: undecodable datagrams dropped.
    codec_errors: int = 0

    def _first_detections(self) -> Optional[Dict[NodeId, SimTime]]:
        """First detection per target from the tracer's in-memory
        records, else from the run's complete spool; ``None`` if the run
        kept neither."""
        iter_kind = getattr(self.tracer, "iter_kind", None)
        if iter_kind is not None:
            return first_detections(iter_kind(DETECTION_KIND))
        spool = self.merged_spool
        if spool is None and getattr(self.tracer, "closed", False):
            spool = self.tracer.path
        if spool is None:
            return None
        from repro.obs.spool import iter_spool

        return first_detections(iter_spool(spool, kinds=(DETECTION_KIND,)))

    @cached_property
    def detection_latencies(self) -> Dict[NodeId, Optional[SimTime]]:
        """Crash-to-first-detection seconds per crashed node (``None``:
        never detected, or the run kept no detection records).  Computed
        once, since on a spooled run it reads the whole spool: read it
        after the run's spool is closed."""
        return detection_latency(self._first_detections(), self.crash_times)

    def summary(self) -> Dict[str, float]:
        """Scalar digest; ``mean_detection_latency`` is left out when no
        crash has a known latency."""
        out = {
            "nodes": float(len(self.network)),
            "clusters": float(self.layout.cluster_count),
            "crashes": float(len(self.faultload)),
            "mean_completeness": self.properties.mean_completeness,
            "accuracy_violations": float(
                len(self.properties.accuracy_violations)
            ),
            "transmissions": float(self.messages.transmissions),
            "observed_loss_rate": self.messages.loss_rate,
        }
        latencies = [
            v for v in self.detection_latencies.values() if v is not None
        ]
        if latencies:
            out["mean_detection_latency"] = float(
                sum(latencies) / len(latencies)
            )
        return out


def summary_lines(summary: Dict[str, float]) -> List[str]:
    """A summary as CLI lines, printing ``unknown`` for a missing mean
    detection latency."""
    lines = [f"  {key:26s} {value:.6g}" for key, value in summary.items()]
    if "mean_detection_latency" not in summary:
        lines.append(f"  {'mean_detection_latency':26s} unknown")
    return lines


#: The scenario CLI flags as ``(flag, ScenarioConfig field, help)``.
#: Type and default come from the field; ``engine``, ``formation`` and
#: ``loss_kind`` take their choices from :data:`ENGINES`,
#: :data:`FORMATIONS` and :data:`~repro.sim.loss.LOSS_KINDS`.
SCENARIO_FLAGS = (
    ("--clusters", "cluster_count", None),
    ("--members", "members_per_cluster", "members per cluster (a cluster "
                                         "is its head plus its members)"),
    ("--loss-p", "loss_probability", "per-copy drop probability of the "
                                     "bernoulli/bounded loss kinds"),
    ("--crashes", "crash_count", None),
    ("--executions", "executions", None),
    ("--seed", "seed", None),
    ("--engine", "engine", "'event' = discrete-event reference; 'array' = "
                           "round-level numpy engine (scales to 10^6 "
                           "nodes); 'rt' = every node over localhost UDP "
                           "with wall-clock timers"),
    ("--formation", "formation", "cluster formation: geometric oracle or "
                                 "the distributed six-round protocol"),
    ("--formation-iterations", "formation_iterations",
     "six-round formation iterations (protocol formation only)"),
    ("--formation-backoff", "formation_backoff_fraction",
     "RCC declaration backoff upper bound as a fraction of a round, "
     "in (0, 0.9]"),
    ("--loss-kind", "loss_kind", "loss model kind"),
    ("--track-energy", "track_energy", "charge the per-node energy ledger "
                                       "and print its totals"),
    ("--time-scale", "time_scale", "rt engine: wall seconds per scenario "
                                   "second"),
)

_FLAG_CHOICES = {
    "engine": ENGINES,
    "formation": FORMATIONS,
    "loss_kind": LOSS_KINDS,
}


def add_scenario_flags(
    parser: argparse.ArgumentParser, seed: bool = True
) -> None:
    """Register :data:`SCENARIO_FLAGS` on ``parser`` (``seed=False``
    leaves ``--seed`` out, for commands that take a seed list)."""
    defaults = {f.name: f.default for f in fields(ScenarioConfig)}
    registered = []
    for flag, name, help_text in SCENARIO_FLAGS:
        if name == "seed" and not seed:
            continue
        registered.append(name)
        default = defaults[name]
        if isinstance(default, bool):
            parser.add_argument(flag, dest=name, action="store_true",
                                help=help_text)
            continue
        parser.add_argument(
            flag, dest=name, type=type(default), default=default,
            choices=_FLAG_CHOICES.get(name),
            metavar=None if name in _FLAG_CHOICES else flag[2:].upper(),
            help=f"{help_text or name.replace('_', ' ')} "
                 "(default: %(default)s)",
        )
    parser.set_defaults(scenario_fields=tuple(registered))


def config_from_args(args: argparse.Namespace) -> ScenarioConfig:
    """The :class:`ScenarioConfig` a parser from :func:`add_scenario_flags`
    parsed; fields without a flag keep their defaults."""
    return ScenarioConfig(
        **{name: getattr(args, name) for name in args.scenario_fields}
    )


def latency_table(result: ScenarioResult) -> Optional[str]:
    """Per-crash detection latency as a table (``None`` without crashes)."""
    if not result.crash_times:
        return None
    from repro.util.tables import render_table

    phi = result.fds.phi
    latencies = result.detection_latencies
    rows = []
    for nid in sorted(result.crash_times):
        latency = latencies[nid]
        rows.append([
            int(nid),
            f"{result.crash_times[nid]:.3f}",
            "-" if latency is None else f"{latency:.3f}",
            "-" if latency is None else f"{latency / phi:.3f}",
        ])
    unit = "wall seconds" if result.config.engine == "rt" else "s"
    return render_table(
        ["node", "crashed_at (s)", "latency (s)", "latency (phi)"],
        rows, title=f"Detection latency, phi={phi:g} {unit}",
    )


def run_scenario(
    config: ScenarioConfig,
    tracer: Optional[Tracer] = None,
    profiler: Optional[PhaseProfiler] = None,
) -> "ScenarioResult":
    """Build, run, and score one end-to-end scenario.

    ``tracer`` overrides the default in-memory :class:`RecordingTracer`
    -- pass a :class:`~repro.obs.spool.SpoolingTracer` to stream the
    trace to disk instead of holding it (soaks, campaigns).  ``profiler``
    attaches a :class:`~repro.obs.profiler.PhaseProfiler` to the
    simulator; its per-phase totals are appended to the trace as
    ``profile.phase`` records at run end.  Either way the run is stamped
    with a ``meta.scenario`` record so post-hoc analysis (``repro
    trace``) can recover phi/thop/seed from the trace alone.

    With ``engine="array"`` the run is delegated to
    :func:`repro.sim.array_engine.run_array_scenario`, with
    ``engine="rt"`` to :func:`repro.rt.runtime.run_rt_scenario` (which
    takes no profiler); every engine returns a :class:`ScenarioResult`.
    """
    if config.engine == "array":
        from repro.sim.array_engine import run_array_scenario

        return run_array_scenario(config, tracer=tracer, profiler=profiler)
    if config.engine == "rt":
        if profiler is not None:
            raise ExperimentError("the rt engine takes no phase profiler")
        from repro.rt.runtime import run_rt_scenario

        return run_rt_scenario(config, tracer=tracer)

    rngs = RngFactory(config.seed)
    positions = multi_cluster_field(
        cluster_count=config.cluster_count,
        members_per_cluster=config.members_per_cluster,
        radius=config.transmission_range,
        rng=rngs.stream("placement"),
        spacing_factor=config.spacing_factor,
    )
    if tracer is None:
        tracer = RecordingTracer()
    loss_model = build_loss_model(
        config.loss_kind,
        config.loss_params,
        loss_probability=config.loss_probability,
        transmission_range=config.transmission_range,
    )
    network = build_network(
        positions,
        NetworkConfig(
            transmission_range=config.transmission_range,
            loss_probability=config.loss_probability,
            seed=config.seed,
            vectorized=config.vectorized,
        ),
        loss_model=loss_model,
        tracer=tracer,
    )
    if profiler is not None:
        network.sim.profiler = profiler

    if config.formation == "oracle":
        graph = UnitDiskGraph(positions, radius=config.transmission_range)
        if config.max_backups is None:
            layout = build_clusters(graph)
        else:
            layout = build_clusters(graph, max_backups=config.max_backups)
        fds_start = 0.0
    else:
        formation_config = FormationConfig(
            thop=config.fds.thop,
            iterations=config.formation_iterations,
            backoff_fraction=config.formation_backoff_fraction,
        )
        layout = run_formation(network, formation_config)
        fds_start = network.sim.now + config.fds.thop

    energy = EnergyModel(EnergyConfig()) if config.track_energy else None
    deployment = install_fds(
        network, layout, config.fds, energy=energy, start_time=fds_start
    )

    injector = FailureInjector(network, config.fds, fds_start=fds_start)
    faultload = scenario_crashes(
        tuple(
            nid for nid in network.operational_ids()
            if nid not in layout.heads
        ),
        config,
        config.fds,
        fds_start,
    )
    faultload.inject(injector)
    crash_times = {e.node_id: e.time for e in faultload.events}

    if tracer.enabled:
        tracer.record(
            network.sim.now,
            META_KIND,
            phi=config.fds.phi,
            thop=config.fds.thop,
            nodes=len(network),
            seed=config.seed,
            executions=config.executions,
            fds_start=fds_start,
        )
        # Cluster map right after the run description: the spool alone
        # must be able to draw the field (repro serve's /api/topology).
        from repro.obs.topology import TOPOLOGY_KIND, layout_topology_detail

        tracer.record(
            network.sim.now,
            TOPOLOGY_KIND,
            **layout_topology_detail(layout, positions),
        )

    deployment.run_executions(config.executions)

    if profiler is not None and profiler.enabled and tracer.enabled:
        for phase, seconds, _share, calls in profiler.shares():
            tracer.record(
                network.sim.now,
                PROFILE_KIND,
                phase=phase,
                seconds=seconds,
                calls=calls,
            )

    return ScenarioResult(
        config=config,
        fds=config.fds,
        network=network,
        layout=layout,
        faultload=faultload,
        crash_times=crash_times,
        fds_start=fds_start,
        horizon=network.sim.now,
        properties=evaluate_properties(deployment),
        messages=collect_message_counts(deployment),
        tracer=tracer,
        energy=energy,
        deployment=deployment,
    )


def scenario_summary(config: ScenarioConfig) -> Dict[str, float]:
    """Run one scenario and keep only its scalar summary.

    Module-level (picklable) so it can cross a process boundary; dropping
    the heavyweight :class:`ScenarioResult` in the worker keeps the
    inter-process payload to a small dict of floats.
    """
    return run_scenario(config).summary()


def run_scenario_summaries(
    configs: Sequence[ScenarioConfig],
    workers: Optional[int] = 1,
) -> List[Dict[str, float]]:
    """Summaries for each config, in input order, optionally across a
    process pool.

    ``workers=1`` runs serially in-process; ``workers=None`` uses all
    CPUs.  A run is a pure function of its config and
    :func:`~repro.util.parallel.parallel_map` preserves input order, so
    results are bit-identical for any worker count.
    """
    return parallel_map(scenario_summary, list(configs), workers=workers)
