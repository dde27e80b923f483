"""The asyncio-UDP scenario runtime.

:func:`run_rt_scenario` is the ``engine="rt"`` branch of
:func:`repro.experiments.runner.run_scenario`: from the same
:class:`~repro.experiments.runner.ScenarioConfig` it builds the same
seeded field and cluster layout from the same named RNG streams and
installs the same :class:`~repro.fds.service.FdsProtocol` objects --
but each node is an :class:`~repro.rt.substrate.RtNode` hosted by an
asyncio task and bound to its own localhost UDP socket, timers are
wall-clock ``call_later`` callbacks, and every message crosses a real
socket as a length-prefixed JSON frame (:mod:`repro.rt.codec`).

**Clock model.**  Protocol timing constants are *pre-scaled*: the wall
:class:`~repro.fds.config.FdsConfig` (``ScenarioConfig.wall_fds()``)
carries ``phi * time_scale`` and ``thop * time_scale`` seconds, and
every trace timestamp is wall seconds since the run epoch.  Because
the trace's ``meta.scenario`` record carries the *same* scaled
phi/thop, all phi-unit analysis (``repro trace latency``, the audit
oracles) works unchanged; the meta record additionally carries
``timebase="wall_ms"`` so displays label latencies in milliseconds
instead of phi units.

**Broadcast emulation.**  The unit-disk radio has no UDP analogue, so a
send fans out as one unicast datagram per in-range neighbor (computed
from the same seeded placement the simulator uses), each copy subject to
a seeded drop draw (the config's loss model, private stream) and a
uniform ``(0, max_delay]`` artificial delay -- mirroring
:class:`~repro.sim.medium.RadioMedium` semantics at the socket layer.

**Crash injection.**  The faultload (stream-identical to the
simulator's, see :func:`repro.failure.faultload.scenario_crashes`)
kills each victim at its wall-scaled crash time: the node fail-stops,
its supervisor task is cancelled, and its socket closes.
"""

from __future__ import annotations

import asyncio
from pathlib import Path
from typing import Dict, Optional

from repro.cluster.geometric import build_clusters
from repro.errors import ExperimentError
from repro.experiments.runner import ScenarioConfig, ScenarioResult
from repro.failure.faultload import Faultload, scenario_crashes
from repro.fds.service import FdsProtocol
from repro.metrics.collectors import count_messages
from repro.metrics.properties import score_histories
from repro.obs.analyze import META_KIND
from repro.obs.profiler import NULL_PROFILER
from repro.obs.spool import SpoolingTracer
from repro.rt.codec import CodecError, decode_frame, encode_frame
from repro.rt.collector import merge_spools
from repro.rt.faults import CrashDriver
from repro.rt.substrate import RtNode
from repro.sim.loss import build_loss_model
from repro.sim.medium import Envelope, draw_delays
from repro.sim.trace import RecordingTracer, Tracer
from repro.topology.generators import multi_cluster_field
from repro.topology.graph import UnitDiskGraph
from repro.types import NodeId
from repro.util.rng import RngFactory

#: Trace kind emitted when an undecodable datagram is dropped.
CODEC_ERROR_KIND = "rt.codec_error"

#: The meta.scenario timebase stamp of runtime traces (wall-clock run;
#: latency displays should use milliseconds).  Simulator traces omit the
#: field and default to ``"phi"``.
WALL_TIMEBASE = "wall_ms"


#: Wall seconds between the run epoch (socket binding) and the first
#: FDS execution.
WARMUP = 0.25


class _NodeDatagramProtocol(asyncio.DatagramProtocol):
    """One node's socket: decode, trace, deliver -- and never die."""

    def __init__(self, runtime: "RtRuntime", node: RtNode) -> None:
        self._runtime = runtime
        self._node = node

    def datagram_received(self, data: bytes, addr) -> None:
        runtime = self._runtime
        node = self._node
        now = runtime.now
        try:
            frame = decode_frame(data)
        except CodecError as exc:
            runtime.codec_errors += 1
            if node.tracer.enabled:
                node.tracer.record(
                    now,
                    CODEC_ERROR_KIND,
                    node=int(node.node_id),
                    error=str(exc),
                )
            return
        envelope = Envelope(
            sender=frame.sender,
            recipient=frame.recipient,
            payload=frame.payload,
            sent_at=frame.sent_at,
            received_at=now,
            overheard=(
                frame.recipient is not None
                and frame.recipient != node.node_id
            ),
        )
        if node.is_operational and node.tracer.enabled:
            node.tracer.record(
                now,
                "radio.rx",
                node=int(node.node_id),
                sender=int(frame.sender),
                overheard=envelope.overheard,
                latency=now - frame.sent_at,
            )
        node.deliver(envelope)

    def error_received(self, exc) -> None:  # pragma: no cover - platform
        # ICMP errors from a crashed peer's closed port are expected noise.
        pass


class RtRuntime:
    """One scenario's worth of UDP nodes on the running event loop.

    Build it, then ``await run()`` (or use :func:`run_rt_scenario` from
    synchronous code).  ``spool_dir`` switches tracing from one shared
    in-memory tracer to per-node JSONL spools in the existing spool
    format, merged at shutdown for ``repro trace``.
    """

    def __init__(
        self,
        config: ScenarioConfig,
        tracer: Optional[Tracer] = None,
        spool_dir: Optional[Path] = None,
        merged_out: Optional[Path] = None,
    ) -> None:
        if config.engine != "rt":
            raise ExperimentError(
                f"RtRuntime runs engine='rt' configs, got {config.engine!r}"
            )
        self.config = config
        #: The protocol config in wall seconds.
        self.fds = config.wall_fds()
        rngs = RngFactory(config.seed)
        self.positions = multi_cluster_field(
            cluster_count=config.cluster_count,
            members_per_cluster=config.members_per_cluster,
            radius=config.transmission_range,
            rng=rngs.stream("placement"),
            spacing_factor=config.spacing_factor,
        )
        self.graph = UnitDiskGraph(
            self.positions, radius=config.transmission_range
        )
        if config.max_backups is None:
            self.layout = build_clusters(self.graph)
        else:
            self.layout = build_clusters(
                self.graph, max_backups=config.max_backups
            )
        # Loss and delay draws are runtime-private streams: the
        # differential never compares per-copy outcomes, only
        # loss-independent anchors (same policy as the array engine).
        self.loss_model = build_loss_model(
            config.loss_kind,
            config.loss_params,
            loss_probability=config.loss_probability,
            transmission_range=config.transmission_range,
        )
        self._loss_rng = rngs.stream("rt", "loss")
        self._delay_rng = rngs.stream("rt", "delay")
        #: Artificial per-copy delay bound; same 0.2 * thop proportion as
        #: the simulator's default (max_delay=0.1 against thop=0.5).
        self.max_delay = 0.2 * self.fds.thop

        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        if self.spool_dir is not None:
            self.spool_dir.mkdir(parents=True, exist_ok=True)
            self._shared_tracer: Optional[Tracer] = None
            self._run_tracer: Tracer = SpoolingTracer(
                self.spool_dir / "run.jsonl", flush_every=64
            )
        else:
            self._shared_tracer = tracer if tracer is not None else RecordingTracer()
            self._run_tracer = self._shared_tracer
        self.merged_out = merged_out
        self._node_spools: Dict[NodeId, SpoolingTracer] = {}

        self.nodes: Dict[NodeId, RtNode] = {}
        self.protocols: Dict[NodeId, FdsProtocol] = {}
        self._transports: Dict[NodeId, asyncio.DatagramTransport] = {}
        self._addrs: Dict[NodeId, tuple] = {}
        self._tasks: Dict[NodeId, asyncio.Task] = {}
        self._stop = asyncio.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._epoch = 0.0
        self.codec_errors = 0
        #: Copies the loss model dropped.
        self.losses = 0
        self.fds_start = 0.0
        self.faultload: Optional[Faultload] = None

    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Wall seconds since the run epoch (the substrate clock)."""
        assert self._loop is not None
        return self._loop.time() - self._epoch

    def _node_tracer(self, node_id: NodeId) -> Tracer:
        if self.spool_dir is None:
            assert self._shared_tracer is not None
            return self._shared_tracer
        spool = SpoolingTracer(
            self.spool_dir / f"node-{int(node_id):05d}.jsonl", flush_every=64
        )
        self._node_spools[node_id] = spool
        return spool

    # ------------------------------------------------------------------
    # Link layer (broadcast emulation over unicast UDP)
    # ------------------------------------------------------------------
    def transmit(
        self, sender: NodeId, payload: object, recipient: Optional[NodeId]
    ) -> int:
        """Fan ``payload`` out to every in-range neighbor of ``sender``."""
        now = self.now
        frame = encode_frame(sender, recipient, now, payload)
        tracer = self.nodes[sender].tracer
        if tracer.enabled:
            tracer.record(
                now,
                "radio.tx",
                node=int(sender),
                recipient=None if recipient is None else int(recipient),
            )
        assert self._loop is not None
        sent = 0
        for neighbor in self.graph.neighbors(sender):
            distance = self.graph.distance(sender, neighbor)
            if self.loss_model.is_lost(
                sender, neighbor, distance, now, self._loss_rng
            ):
                self.losses += 1
                if tracer.enabled:
                    tracer.record(
                        now,
                        "radio.loss",
                        node=int(neighbor),
                        sender=int(sender),
                    )
                continue
            delay = float(draw_delays(self._delay_rng, self.max_delay, 1)[0])
            self._loop.call_later(
                delay, self._sendto, sender, frame, neighbor
            )
            sent += 1
        return sent

    def _sendto(self, sender: NodeId, frame: bytes, neighbor: NodeId) -> None:
        transport = self._transports.get(sender)
        if transport is None or transport.is_closing():
            return  # the sender crashed while the copy was in flight
        addr = self._addrs.get(neighbor)
        if addr is not None:
            transport.sendto(frame, addr)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def crash_node(self, node_id: NodeId) -> None:
        """Fail-stop one node: mute it, kill its task, close its socket."""
        node = self.nodes[node_id]
        if not node.is_operational:
            return
        node.crash()
        task = self._tasks.get(node_id)
        if task is not None and not task.done():
            task.cancel()
        transport = self._transports.pop(node_id, None)
        if transport is not None:
            transport.close()

    # ------------------------------------------------------------------
    # Orchestration
    # ------------------------------------------------------------------
    async def _node_main(self, node: RtNode) -> None:
        """Per-node supervisor: alive until shutdown or crash-cancel."""
        try:
            await self._stop.wait()
        except asyncio.CancelledError:
            pass

    async def run(self) -> ScenarioResult:
        config = self.config
        fds = self.fds
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._epoch = loop.time()

        # Bind one UDP socket per node, then publish the address book.
        for nid in sorted(self.positions):
            node = RtNode(
                NodeId(nid),
                self.positions[nid],
                loop,
                link=self,
                clock=lambda: self.now,
                tracer=self._node_tracer(NodeId(nid)),
                profiler=NULL_PROFILER,
            )
            self.nodes[NodeId(nid)] = node
            transport, _protocol = await loop.create_datagram_endpoint(
                lambda node=node: _NodeDatagramProtocol(self, node),
                local_addr=("127.0.0.1", 0),
            )
            self._transports[NodeId(nid)] = transport
            self._addrs[NodeId(nid)] = transport.get_extra_info("sockname")

        # First execution epoch: after warmup, and strictly in the future.
        self.fds_start = max(WARMUP, self.now + 0.05)

        if self._run_tracer.enabled:
            self._run_tracer.record(
                self.now,
                META_KIND,
                phi=fds.phi,
                thop=fds.thop,
                nodes=len(self.nodes),
                seed=config.seed,
                executions=config.executions,
                fds_start=self.fds_start,
                timebase=WALL_TIMEBASE,
                time_scale=config.time_scale,
            )
            # The run spool carries the cluster map too, so a merged rt
            # trace feeds the dashboard's /api/topology unchanged.
            from repro.obs.topology import (
                TOPOLOGY_KIND,
                layout_topology_detail,
            )

            self._run_tracer.record(
                self.now,
                TOPOLOGY_KIND,
                **layout_topology_detail(self.layout, self.positions),
            )

        # Same protocol objects as the simulator, on the rt substrate.
        for nid, node in sorted(self.nodes.items()):
            view = self.layout.local_view(nid)
            protocol = FdsProtocol(fds, view)
            node.add_protocol(protocol)
            self.protocols[nid] = protocol
            protocol.start(self.fds_start, config.executions, first_index=0)

        self.faultload = scenario_crashes(
            tuple(
                nid for nid in sorted(self.nodes)
                if nid not in self.layout.heads
            ),
            config,
            fds,
            self.fds_start,
        )
        driver = CrashDriver(loop, self)
        driver.schedule(self.faultload)

        for nid, node in self.nodes.items():
            self._tasks[nid] = loop.create_task(self._node_main(node))

        # Mirror FdsDeployment.run_executions' horizon, plus a short
        # drain so the last delayed copies land before sockets close.
        end = (
            self.fds_start
            + (config.executions - 1) * fds.phi
            + 0.95 * fds.phi
        )
        await asyncio.sleep(max(0.0, end - self.now) + 2 * self.max_delay)

        # Clean shutdown: crashes that never fired stay unfired, timers
        # disarm, supervisor tasks end, sockets close, spools flush.
        driver.cancel_pending()
        for node in self.nodes.values():
            node.timers.stop_all()
        self._stop.set()
        for task in self._tasks.values():
            if not task.done():
                task.cancel()
        await asyncio.gather(*self._tasks.values(), return_exceptions=True)
        for transport in self._transports.values():
            transport.close()
        self._transports.clear()
        await asyncio.sleep(0)

        merged: Optional[Path] = None
        if self.spool_dir is not None:
            for spool in self._node_spools.values():
                spool.close()
            if isinstance(self._run_tracer, SpoolingTracer):
                self._run_tracer.close()
            merged = merge_spools(self.spool_dir, out=self.merged_out)

        nodes = self.nodes
        crash_times = {
            e.node_id: nodes[e.node_id].crashed_at
            for e in self.faultload.events
            if nodes[e.node_id].crashed_at is not None
        }
        return ScenarioResult(
            config=config,
            fds=fds,
            network=nodes,
            layout=self.layout,
            faultload=self.faultload,
            crash_times=crash_times,
            fds_start=self.fds_start,
            horizon=end,
            properties=score_histories(
                {nid: p.history for nid, p in self.protocols.items()},
                nodes,
                crash_times,
                (
                    nid
                    for nid, node in nodes.items()
                    if node.is_operational and self.layout.is_clustered(nid)
                ),
            ),
            messages=count_messages(
                self.protocols,
                transmissions=sum(n.sent_count for n in nodes.values()),
                deliveries=sum(n.received_count for n in nodes.values()),
                losses=self.losses,
            ),
            tracer=self._shared_tracer,
            spool_dir=self.spool_dir,
            merged_spool=merged,
            codec_errors=self.codec_errors,
        )


def run_rt_scenario(
    config: ScenarioConfig,
    tracer: Optional[Tracer] = None,
    spool_dir: Optional[Path] = None,
    merged_out: Optional[Path] = None,
) -> ScenarioResult:
    """Run one ``engine="rt"`` scenario to completion (synchronous entry
    point).  With ``spool_dir`` every node spools to its own JSONL file
    there, merged at shutdown into ``merged_out`` (default
    ``<spool_dir>/merged.jsonl``)."""
    runtime = RtRuntime(
        config, tracer=tracer, spool_dir=spool_dir, merged_out=merged_out
    )
    return asyncio.run(runtime.run())
