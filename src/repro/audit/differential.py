"""Differential conformance checking of whole scenario runs.

One seeded :class:`~repro.experiments.runner.ScenarioConfig` describes a
complete experiment (topology, crash schedule, loss model).
:func:`check_spec` runs it under paired configurations and asserts what
each pair promises:

- **vectorized vs scalar medium**: bit-identical traces (the scalar loop
  is the reference implementation of the same seeded draws);
- **parallel vs serial fabric**: identical summaries (the process pool
  must not perturb results);
- **digest ablation (R-2 off)**: no bit-identity promise -- instead both
  runs must satisfy every applicable trace audit;

plus ground-truth oracles on the primary run:

- **completeness**: under a loss model whose total drop budget is below
  the forwarding machinery's tolerance (``max_forward_retries`` drops can
  never exhaust the GW ladder *and* the origin watch), every injected
  crash must be known to every operational clustered node by the end;
- **accuracy**: a detection of a node that is operational at the end must
  be refuted, unless it happened inside the final recovery window (where
  the refutation legitimately falls past the horizon);

plus the trace audits of :mod:`repro.audit.invariants` and a directed
:func:`probe_forwarder_conformance` that drives an
:class:`~repro.fds.intercluster.InterclusterForwarder` with crafted
seeded traffic (merged duties, partial acknowledgment coverage, inbound
retries) and replays the recorded events through the reference model --
the divergences such probes target are too rare in end-to-end runs for a
random soak to find.

When a violation is found, :func:`shrink_spec` greedily reduces the
scenario (fewer executions, clusters, members, crashes; simpler loss)
while the violation reproduces, and :func:`repro_snippet` renders the
minimal config as a ready-to-paste pytest case.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.audit.invariants import run_audit_statuses
from repro.experiments.runner import (
    ScenarioConfig,
    ScenarioResult,
    run_scenario,
    run_scenario_summaries,
)
from repro.fds.config import FdsConfig
from repro.fds.events import (
    DETECTION,
    REFUTATION,
    TAKEOVER,
    TAKEOVER_REVERTED,
)
from repro.fds.intercluster import InterclusterForwarder
from repro.fds.messages import FailureReport, HealthStatusUpdate
from repro.sim.engine import Simulator
from repro.sim.loss import DEFAULT_BOUNDED_BUDGET, sweep_loss_params
from repro.sim.medium import RadioMedium
from repro.sim.node import SimNode
from repro.sim.trace import RecordingTracer, iter_jsonl
from repro.util.geometry import Vec2


def random_spec(rng: np.random.Generator) -> ScenarioConfig:
    """Sample one scenario from the soak distribution.

    Biased toward tight 2x2 lattices (multi-boundary gateways, the
    geometry where inter-cluster forwarding earns its keep) and toward
    the bounded-adversary loss model, under which completeness is a hard
    guarantee rather than a probabilistic one.  ``phi`` is deliberately
    generous relative to ``thop`` so the round-structure audit stays
    applicable (the simulator is event-driven; a long idle tail costs no
    wall-clock).  A config *is* a repro: same config, same verdict.
    """
    loss_kind = str(
        rng.choice(["perfect", "bounded", "bounded", "bernoulli", "gilbert"])
    )
    # Draw order is part of the distribution: keep it.
    seed = int(rng.integers(0, 2**31 - 1))
    cluster_count = int(rng.choice([2, 3, 4, 4]))
    members_per_cluster = int(rng.integers(8, 17))
    crash_count = int(rng.integers(0, 4))
    executions = int(rng.integers(4, 8))
    loss_p = float(rng.choice([0.15, 0.25, 0.35]))
    loss_budget = int(rng.integers(1, 3))
    return ScenarioConfig(
        seed=seed,
        cluster_count=cluster_count,
        members_per_cluster=members_per_cluster,
        crash_count=crash_count,
        executions=executions,
        loss_kind=loss_kind,
        loss_params=sweep_loss_params(loss_kind, loss_p, loss_budget),
        spacing_factor=float(rng.choice([1.25, 1.4, 1.6])),
        max_backups=int(rng.choice([1, 2, 3])),
        fds=FdsConfig(phi=20.0, thop=0.5),
    )


@dataclass(frozen=True)
class Violation:
    """One conformance failure of a config."""

    kind: str
    description: str


def trace_fingerprint(tracer: RecordingTracer) -> str:
    """Stable digest of a full trace (the bit-identity currency).

    Streams line by line into the hash -- a soak trace never has to
    exist as one giant string just to be fingerprinted.
    """
    digest = hashlib.sha256()
    for line in iter_jsonl(tracer.records):
        digest.update(line.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def completeness_guaranteed(config: ScenarioConfig) -> bool:
    """Whether the config's loss model makes completeness deterministic.

    Blocking one boundary crossing costs at least ``max_forward_retries
    + 1`` targeted drops (the GW's attempts alone), and the origin watch
    re-triggers the whole ladder besides -- so any adversary limited to
    ``max_forward_retries`` total drops cannot prevent eventual
    propagation.  Under unbounded Bernoulli loss the paper only promises
    probabilistic completeness, so the oracle would be unsound.
    """
    if config.loss_kind == "perfect":
        return True
    if config.loss_kind == "bounded":
        budget = dict(config.loss_params).get("budget", DEFAULT_BOUNDED_BUDGET)
        return budget <= config.fds.max_forward_retries
    return False


def completeness_violations(
    config: ScenarioConfig, result: ScenarioResult
) -> List[Violation]:
    if not completeness_guaranteed(config):
        return []
    return [
        Violation(
            kind="completeness",
            description=(
                f"crash of node {int(nid)} unknown to some operational "
                f"node at the end despite loss within the drop budget"
            ),
        )
        for nid in result.properties.incomplete_failures
    ]


def accuracy_violations(result: ScenarioResult) -> List[Violation]:
    """False suspicions must be refuted (or fall in the final window).

    Trace-based: pair every detection of a node that is operational at
    the end with a later refutation *somewhere*.  A detection inside the
    last ``recovery window`` before the horizon may legitimately still be
    awaiting its repair, so it is excused; when the run had no actual
    drops there is no excuse and the final-state report must be clean.
    Works on every engine: the window uses the protocol config the run
    actually used (wall-scaled on the runtime).
    """
    config = result.fds
    horizon = result.horizon
    window = (config.max_forward_retries + 1) * config.phi
    refuted_at: dict = {}
    for record in result.tracer.iter_kind(REFUTATION):
        target = int(record.detail["target"])
        refuted_at.setdefault(target, []).append(record.time)
    violations: List[Violation] = []
    for record in result.tracer.iter_kind(DETECTION):
        target = int(record.detail["target"])
        if target in result.crash_times:
            continue
        if any(t >= record.time for t in refuted_at.get(target, [])):
            continue
        if record.time > horizon - window:
            continue  # refutation legitimately past the horizon
        violations.append(
            Violation(
                kind="accuracy",
                description=(
                    f"node {record.node} detected operational node "
                    f"{target} at t={record.time:.3f} with no refutation "
                    f"in the remaining {horizon - record.time:.1f}s"
                ),
            )
        )
    if result.messages.losses == 0:
        violations.extend(
            Violation(
                kind="accuracy",
                description=(
                    f"node {int(a)} still suspects operational node "
                    f"{int(b)} at the end of a loss-free run"
                ),
            )
            for a, b in result.properties.accuracy_violations
        )
    return violations


def predetected(latencies: Dict) -> Set[int]:
    """Targets first detected *before* their crash (negative latency):
    falsely suspected while alive, so exempt from latency anchors."""
    return {
        int(t) for t, v in latencies.items() if v is not None and v < 0
    }


def audit_violations(result: ScenarioResult, label: str) -> List[Violation]:
    violations: List[Violation] = []
    for status in run_audit_statuses(
        result.tracer, result.fds, result.crash_times
    ):
        violations.extend(
            Violation(
                kind=f"audit:{finding.audit}",
                description=f"[{label}] {finding.description}",
            )
            for finding in status.findings
        )
    return violations


# ----------------------------------------------------------------------
# Array-engine differential pair
# ----------------------------------------------------------------------
#: The record kinds both engines emit with identical semantics -- the
#: service's externally visible verdicts.  The event engine additionally
#: traces transport-level kinds (relays, peer requests, gateway duties)
#: that the round-level engine folds into counters.
VERDICT_KINDS = (DETECTION, REFUTATION, TAKEOVER, TAKEOVER_REVERTED)


def verdict_records(tracer: RecordingTracer) -> List[Tuple]:
    """The verdict-bearing records of a trace as comparable tuples."""
    return [
        (
            record.time,
            record.kind,
            record.node,
            tuple(sorted(record.detail.items())),
        )
        for record in tracer.records
        if record.kind in VERDICT_KINDS
    ]


def array_engine_violations(
    config: ScenarioConfig, event: ScenarioResult
) -> List[Violation]:
    """Verdict-level equivalence of the round-level array engine.

    The engines share the placement and faultload streams (bit-identical
    topology and crash schedule) but draw per-copy loss privately, so
    the pair compares what is loss-independent or guaranteed:

    - field shape: node/cluster/crash counts must be equal;
    - crashed-target detections: a crashed node is silent, so its CH
      detects it at exactly ``0.4*phi + 2*thop`` after the crash no
      matter what the links do -- the per-target latency maps must be
      equal entry for entry (including never-detected ``None`` for a
      crash at the horizon).  The anchor assumes the CH was not already
      suspecting the target when it crashed, so a target that either
      engine *falsely* detected before its crash time (possible under
      heavy loss, and timed by each engine's private draws) is exempt;
    - guaranteed completeness: when the loss model's drop budget is
      within the forwarding tolerance, both engines must report every
      crash to every operational node;
    - the accuracy oracle: the array run must satisfy the same
      trace-based refutation discipline as the event run;
    - perfect links: with no loss draws at all, the verdict-bearing
      records must match bit for bit, times included.

    Raw completeness under unbounded Bernoulli loss, transmission
    counts, and transport-level trace kinds are deliberately *not*
    compared: they depend on which copies each engine's private stream
    dropped.

    The loss-independent anchors above hold under every loss kind the
    soak distribution samples, including the stateful ``gilbert``
    chains -- each engine drives its own chains from its private stream,
    but crashed-target latencies and guaranteed completeness do not
    depend on the draws.

    An **energy sub-pair** reruns the array engine with the ledger
    journal on and replays every charge batch through the scalar
    :class:`~repro.energy.model.EnergyModel`: levels, counters, totals
    and spread must be bit-identical, and the debit population must
    mirror the run's message accounting exactly (one transmit debit per
    transmission, one receive debit per delivered copy).
    """
    array = run_scenario(replace(config, engine="array"))
    violations: List[Violation] = []

    event_summary = event.summary()
    array_summary = array.summary()
    for key in ("nodes", "clusters", "crashes"):
        if event_summary[key] != array_summary[key]:
            violations.append(
                Violation(
                    kind="differential:array",
                    description=(
                        f"field shape diverged between engines: {key} "
                        f"{array_summary[key]} != {event_summary[key]}"
                    ),
                )
            )

    event_latencies = event.detection_latencies
    array_latencies = array.detection_latencies
    exempt = predetected(event_latencies) | predetected(array_latencies)
    event_latencies = {
        t: v for t, v in event_latencies.items() if t not in exempt
    }
    array_latencies = {
        t: v for t, v in array_latencies.items() if t not in exempt
    }
    if event_latencies != array_latencies:
        violations.append(
            Violation(
                kind="differential:array",
                description=(
                    "crashed-target detection latencies diverged "
                    f"(loss-independent anchor): array {array_latencies} "
                    f"!= event {event_latencies}"
                ),
            )
        )

    if completeness_guaranteed(config):
        for label, result in (("event", event), ("array", array)):
            if result.properties.mean_completeness != 1.0:
                violations.append(
                    Violation(
                        kind="differential:array",
                        description=(
                            f"{label} engine incomplete "
                            f"({result.properties.mean_completeness:.4f}) "
                            "despite loss within the drop budget"
                        ),
                    )
                )

    violations.extend(
        Violation(kind="differential:array", description=f"[array] {v.description}")
        for v in accuracy_violations(array)
    )

    if config.loss_kind == "perfect":
        if verdict_records(event.tracer) != verdict_records(array.tracer):
            violations.append(
                Violation(
                    kind="differential:array",
                    description=(
                        "verdict records diverged between engines on "
                        "loss-free links (must be bit-identical)"
                    ),
                )
            )

    violations.extend(energy_ledger_violations(config))
    return violations


def formation_violations(config: ScenarioConfig) -> List[Violation]:
    """The distributed-formation pair: event vs array, plus shape audit.

    **Lossless leg** (both engines, ``formation="protocol"`` over
    perfect links): the placement stream is shared and no loss draw is
    consulted, so the six-round protocol must converge to the *same*
    clustering on both engines -- the extracted
    :class:`~repro.cluster.state.ClusterLayout` (clusters, deputies,
    boundaries, unclustered set) and the FDS phase's verdict records
    must be bit-identical, times included.

    **Lossy leg** (array engine only, the config's own loss model): the
    engines draw formation loss from private streams, so under loss the
    elected head sets legitimately diverge (which also re-deals the
    faultload candidate list) and no cross-engine comparison is sound.
    Instead the array outcome must satisfy the structural layout
    invariants of :func:`~repro.sim.array_engine.formation.
    formation_shape_violations`: heads marked and self-affiliated,
    members in radio range of their confirmed head, forwarder ladders
    within width and strictly NID-ascending, extraction round-trips
    through ``ClusterLayout`` validation.
    """
    from repro.sim.array_engine.formation import (
        formation_cluster_layout,
        formation_shape_violations,
    )

    violations: List[Violation] = []

    lossless = replace(
        config, loss_kind="perfect", loss_params=(), formation="protocol"
    )
    event = run_scenario(replace(lossless, engine="event"))
    array = run_scenario(replace(lossless, engine="array"))
    layout = formation_cluster_layout(array.formation)
    for field_name, got, want in (
        ("clusters", layout.clusters, event.layout.clusters),
        ("boundaries", layout.boundaries, event.layout.boundaries),
        ("unclustered", layout.unclustered, event.layout.unclustered),
    ):
        if got != want:
            violations.append(
                Violation(
                    kind="differential:formation",
                    description=(
                        f"lossless formation layouts diverged on "
                        f"{field_name}: array {got!r} != event {want!r}"
                    ),
                )
            )
    if verdict_records(event.tracer) != verdict_records(array.tracer):
        violations.append(
            Violation(
                kind="differential:formation",
                description=(
                    "verdict records diverged between engines after "
                    "lossless protocol formation (must be bit-identical)"
                ),
            )
        )
    if event.properties.completeness != array.properties.completeness:
        violations.append(
            Violation(
                kind="differential:formation",
                description=(
                    "completeness diverged after lossless protocol "
                    f"formation: array {array.properties.completeness} "
                    f"!= event {event.properties.completeness}"
                ),
            )
        )

    if config.loss_kind != "perfect":
        lossy = run_scenario(
            replace(config, engine="array", formation="protocol")
        )
        violations.extend(
            Violation(
                kind="differential:formation",
                description=f"lossy formation shape invariant broken: {v}",
            )
            for v in formation_shape_violations(lossy.formation)
        )
    return violations


def energy_ledger_violations(config: ScenarioConfig) -> List[Violation]:
    """The array energy ledger vs a scalar EnergyModel replay.

    Runs the config through the array engine with ``track_energy`` on and
    the charge journal recording, then replays the journal debit by
    debit through :class:`~repro.energy.model.EnergyModel`.  The two
    must agree bit for bit (per-node levels and counters, totals,
    spread), and the ledger's counters must mirror the run's message
    accounting: one transmit debit per counted transmission, one
    receive debit per delivered copy.
    """
    from repro.sim.array_engine import run_array_scenario
    from repro.sim.array_engine.energy import replay_journal

    result = run_array_scenario(
        replace(config, engine="array", track_energy=True),
        record_energy_journal=True,
    )
    ledger = result.energy
    model = replay_journal(ledger)
    violations: List[Violation] = []

    if ledger.totals() != model.totals() or ledger.spread() != model.spread():
        violations.append(
            Violation(
                kind="differential:energy",
                description=(
                    "array energy ledger diverged from the scalar replay: "
                    f"ledger {ledger.totals()} spread {ledger.spread()} != "
                    f"model {model.totals()} spread {model.spread()}"
                ),
            )
        )
    for node in range(ledger.node_count):
        entry = model._entry(node)
        if (
            entry.level != ledger.level[node]
            or entry.tx_count != ledger.tx_count[node]
            or entry.rx_count != ledger.rx_count[node]
        ):
            violations.append(
                Violation(
                    kind="differential:energy",
                    description=(
                        f"array energy ledger diverged at node {node}: "
                        f"level {ledger.level[node]!r} tx "
                        f"{int(ledger.tx_count[node])} rx "
                        f"{int(ledger.rx_count[node])} != scalar "
                        f"{entry.level!r}/{entry.tx_count}/{entry.rx_count}"
                    ),
                )
            )
            break  # one node is a repro; don't spam N findings

    totals = ledger.totals()
    if totals["tx_total"] != float(result.messages.transmissions):
        violations.append(
            Violation(
                kind="differential:energy",
                description=(
                    "transmit debits do not mirror message accounting: "
                    f"tx_total {totals['tx_total']} != transmissions "
                    f"{result.messages.transmissions}"
                ),
            )
        )
    if totals["rx_total"] != float(result.messages.deliveries):
        violations.append(
            Violation(
                kind="differential:energy",
                description=(
                    "receive debits do not mirror delivered copies: "
                    f"rx_total {totals['rx_total']} != deliveries "
                    f"{result.messages.deliveries}"
                ),
            )
        )
    return violations


# ----------------------------------------------------------------------
# Directed forwarder-conformance probes
# ----------------------------------------------------------------------
def probe_forwarder_conformance(scenario: ScenarioConfig) -> List[Violation]:
    """Drive a forwarder through the rare paths and replay the trace.

    Three seeded probes on a tiny synthetic medium:

    1. **merged duties**: two local updates with disjoint news toward the
       same destination while the first timer is in flight -- the re-armed
       watch must keep covering the first update's failures;
    2. **inbound retry**: a foreign update starts a duty toward our own
       CH which is never acknowledged -- every retry wait must follow the
       *origin* boundary's BGW ladder, not another boundary's;
    3. **origin watch**: a CH's multi-failure watch acknowledged by two
       partial overheard reports -- coverage must accumulate (a lone
       superset match would rebroadcast spuriously).

    The recorded events go through the same
    :func:`~repro.audit.invariants.audit_forwarder_conformance` model as
    end-to-end traces, so a reintroduced forwarding bug fails here even
    when the random topology never exercises it.
    """
    rng = np.random.default_rng(scenario.seed)
    config = scenario.fds
    ids = [int(x) for x in rng.permutation(np.arange(10, 90))[:8]]
    my_id, my_head, peer_b, peer_c, f1, f2, f3, _spare = ids
    violations: List[Violation] = []

    def fresh_node() -> Tuple[Simulator, SimNode, RecordingTracer]:
        sim = Simulator()
        tracer = RecordingTracer()
        medium = RadioMedium(
            sim, transmission_range=100.0, max_delay=0.01, tracer=tracer
        )
        node = SimNode(my_id, Vec2(0, 0), sim, medium)
        for i, other in enumerate((my_head, peer_b, peer_c)):
            SimNode(other, Vec2(5000.0 + 300.0 * i, 5000.0), sim, medium)
        return sim, node, tracer

    def forwarder(node: SimNode, duties, head_boundaries=()):
        return InterclusterForwarder(
            node,
            config,
            duties=dict(duties),
            head_boundaries=dict(head_boundaries),
            get_head=lambda: my_head,
            get_history=lambda: frozenset(),
            rebroadcast_update=lambda: None,
        )

    def run_probe(name: str, drive: Callable[[Simulator, SimNode], None]) -> None:
        sim, node, tracer = fresh_node()
        drive(sim, node)
        sim.run()
        violations.extend(
            Violation(kind=f"probe:{name}", description=v.description)
            for v in audit_violations(
                _ProbeResult(tracer, config), f"probe:{name}"
            )
            if v.kind == "audit:forwarder-conformance"
        )

    # The ladder check needs the *other* boundary to be the longer one,
    # or taking max() over all duties would coincide with the right answer.
    n_b = int(rng.integers(0, 3))
    n_c = n_b + 1 + int(rng.integers(0, 2))

    def drive_merge(sim: Simulator, node: SimNode) -> None:
        fwd = forwarder(node, {peer_b: (0, n_b)})
        fwd.on_local_update(
            HealthStatusUpdate(
                head=my_head, execution=1, new_failures=frozenset({f1})
            )
        )
        # Second report lands mid-flight, before the first ack window ends.
        sim.schedule_in(
            config.thop,
            lambda: fwd.on_local_update(
                HealthStatusUpdate(
                    head=my_head, execution=1, new_failures=frozenset({f2})
                )
            ),
        )

    def drive_inbound(sim: Simulator, node: SimNode) -> None:
        fwd = forwarder(node, {peer_b: (0, n_b), peer_c: (0, n_c)})
        fwd.on_foreign_update(
            HealthStatusUpdate(
                head=peer_b, execution=1, new_failures=frozenset({f3})
            )
        )

    def drive_origin(sim: Simulator, node: SimNode) -> None:
        fwd = forwarder(
            node, {}, head_boundaries={peer_b: 1, peer_c: 1}
        )
        update = HealthStatusUpdate(
            head=my_id, execution=1, new_failures=frozenset({f1, f2})
        )
        fwd._get_head = lambda: my_id  # probe plays the CH itself
        fwd.on_local_update(update)
        for covered in (frozenset({f1}), frozenset({f2})):
            fwd.on_overheard_report(
                FailureReport(
                    sender=peer_b,
                    origin=my_id,
                    target_head=peer_c,
                    failures=covered,
                )
            )

    run_probe("merged-duties", drive_merge)
    run_probe("inbound-retry", drive_inbound)
    run_probe("origin-watch", drive_origin)
    return violations


class _ProbeResult:
    """Just enough of a ScenarioResult for :func:`audit_violations`."""

    def __init__(self, tracer: RecordingTracer, fds: FdsConfig) -> None:
        self.tracer = tracer
        self.fds = fds
        self.crash_times: dict = {}


# ----------------------------------------------------------------------
# The differential check
# ----------------------------------------------------------------------
def check_spec(
    config: ScenarioConfig,
    check_parallel: bool = True,
    check_probes: bool = True,
    check_array: bool = True,
    check_formation: bool = True,
) -> List[Violation]:
    """Run every paired configuration and oracle; return all violations.

    ``check_parallel=False`` skips the process-pool pair (needed when the
    code under test is monkeypatched -- patches do not cross process
    boundaries).  ``check_probes=False`` skips the directed forwarder
    probes (used by the shrinker, whose violations are end-to-end).
    ``check_array=False`` skips the array-engine equivalence pair.
    ``check_formation=False`` skips the distributed-formation pair.
    """
    violations: List[Violation] = []

    base = run_scenario(config)
    scalar = run_scenario(replace(config, vectorized=False))
    base_fp = trace_fingerprint(base.tracer)
    if base_fp != trace_fingerprint(scalar.tracer):
        violations.append(
            Violation(
                kind="differential:vectorized",
                description=(
                    "vectorized and scalar medium paths diverged on "
                    "identical seeds (traces not bit-identical)"
                ),
            )
        )

    if check_parallel:
        serial = run_scenario_summaries([config], workers=1)
        pooled = run_scenario_summaries([config], workers=2)
        if serial != pooled:
            violations.append(
                Violation(
                    kind="differential:parallel",
                    description=(
                        "parallel experiment fabric produced a different "
                        f"summary than the serial run: {pooled} != {serial}"
                    ),
                )
            )

    ablated = run_scenario(
        replace(config, fds=replace(config.fds, use_digests=False))
    )

    violations.extend(completeness_violations(config, base))
    violations.extend(accuracy_violations(base))
    violations.extend(audit_violations(base, "base"))
    violations.extend(audit_violations(scalar, "scalar"))
    violations.extend(audit_violations(ablated, "no-digests"))
    if check_array:
        violations.extend(array_engine_violations(config, base))
    if check_formation:
        violations.extend(formation_violations(config))
    if check_probes:
        violations.extend(probe_forwarder_conformance(config))
    return violations


# ----------------------------------------------------------------------
# Shrinking
# ----------------------------------------------------------------------
def _with_budget(config: ScenarioConfig, budget: float) -> ScenarioConfig:
    """``config`` with the ``"budget"`` entry of its loss params replaced."""
    return replace(
        config,
        loss_params=tuple(
            (key, budget if key == "budget" else value)
            for key, value in config.loss_params
        ),
    )


def shrink_spec(
    config: ScenarioConfig,
    check_parallel: bool = True,
    max_evals: int = 32,
    still_fails: Optional[Callable[[ScenarioConfig], bool]] = None,
) -> ScenarioConfig:
    """Greedily reduce a failing config while it keeps failing.

    Each pass tries one simplification (fewer executions, clusters,
    members, crashes; smaller drop budget; perfect links; fewer backups)
    and keeps it if the config still produces *any* violation.  Bounded
    by ``max_evals`` full re-checks, so shrinking a pathological config
    cannot run away.
    """
    if still_fails is None:

        def still_fails(candidate: ScenarioConfig) -> bool:
            return bool(check_spec(candidate, check_parallel=check_parallel))

    evals = 0

    def attempt(candidate: ScenarioConfig) -> bool:
        nonlocal evals
        if evals >= max_evals:
            return False
        evals += 1
        return still_fails(candidate)

    def budget(c: ScenarioConfig) -> float:
        return dict(c.loss_params).get("budget", 0.0)

    current = config
    passes: Sequence[Callable[[ScenarioConfig], Optional[ScenarioConfig]]] = (
        lambda c: replace(c, executions=c.executions - 1)
        if c.executions > 3
        else None,
        lambda c: replace(c, cluster_count=c.cluster_count - 1)
        if c.cluster_count > 2
        else None,
        lambda c: replace(
            c, members_per_cluster=max(4, (3 * c.members_per_cluster) // 4)
        )
        if c.members_per_cluster > 4
        else None,
        lambda c: replace(c, crash_count=c.crash_count - 1)
        if c.crash_count > 0
        else None,
        lambda c: _with_budget(c, budget(c) - 1)
        if c.loss_kind == "bounded" and budget(c) > 0
        else None,
        lambda c: replace(c, loss_kind="perfect", loss_params=())
        if c.loss_kind != "perfect"
        else None,
        lambda c: replace(c, max_backups=c.max_backups - 1)
        if c.max_backups is not None and c.max_backups > 0
        else None,
    )
    progress = True
    while progress and evals < max_evals:
        progress = False
        for simplify in passes:
            candidate = simplify(current)
            if candidate is not None and attempt(candidate):
                current = candidate
                progress = True
    return current


def repro_snippet(
    config: ScenarioConfig, violations: Sequence[Violation]
) -> str:
    """A ready-to-paste pytest case reproducing the violations."""
    lines = [f"    #   - {v.kind}: {v.description}" for v in violations]
    body = "\n".join(lines) if lines else "    #   (violations list was empty)"
    return (
        "from repro.audit.differential import check_spec\n"
        "from repro.experiments.runner import ScenarioConfig\n"
        "from repro.fds.config import FdsConfig\n"
        "\n"
        "\n"
        "def test_soak_regression():\n"
        "    # Shrunk from a failing soak run; observed violations:\n"
        f"{body}\n"
        f"    config = {config!r}\n"
        "    assert check_spec(config) == []\n"
    )
