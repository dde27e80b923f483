"""Fault loads: declarative collections of crash events.

A :class:`Faultload` separates *what fails when* from the machinery that
injects it, so experiments can log and replay the exact fault scenario.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.failure.injection import CrashEvent, FailureInjector
from repro.fds.config import FdsConfig
from repro.types import NodeId, SimTime
from repro.util.rng import RngFactory


@dataclass(frozen=True)
class Faultload:
    """An ordered, immutable crash schedule."""

    events: Tuple[CrashEvent, ...] = ()

    def __post_init__(self) -> None:
        times = [e.time for e in self.events]
        if sorted(times) != times:
            raise ConfigurationError("faultload events must be time-ordered")
        ids = [e.node_id for e in self.events]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("a node can only crash once (fail-stop)")

    def __len__(self) -> int:
        return len(self.events)

    def node_ids(self) -> Tuple[NodeId, ...]:
        return tuple(e.node_id for e in self.events)

    def inject(self, injector: FailureInjector) -> None:
        """Schedule every event on the given injector."""
        injector.schedule_crashes(self.events)


def make_random_crashes(
    candidates: Sequence[NodeId],
    count: int,
    config: FdsConfig,
    rng: np.random.Generator,
    fds_start: SimTime = 0.0,
    first_execution: int = 1,
    last_execution: int | None = None,
) -> Faultload:
    """``count`` distinct nodes crashing in random inter-execution gaps.

    Each crash is placed in the gap before a uniformly drawn execution in
    ``[first_execution, last_execution]`` (default: first only), at 60% of
    the interval -- safely outside the execution window
    (:func:`crash_executions` inverts the placement).
    """
    if count < 0:
        raise ConfigurationError(f"count must be >= 0, got {count}")
    if count > len(candidates):
        raise ConfigurationError(
            f"cannot crash {count} of {len(candidates)} candidates"
        )
    if first_execution < 1:
        raise ConfigurationError("first_execution must be >= 1")
    last = first_execution if last_execution is None else last_execution
    if last < first_execution:
        raise ConfigurationError("last_execution must be >= first_execution")
    chosen = rng.choice(np.asarray(candidates, dtype=np.int64), size=count, replace=False)
    events = []
    for nid in chosen:
        execution = int(rng.integers(first_execution, last + 1))
        time = fds_start + (execution - 1) * config.phi + 0.6 * config.phi
        events.append(CrashEvent(node_id=NodeId(int(nid)), time=time))
    events.sort(key=lambda e: (e.time, e.node_id))
    return Faultload(events=tuple(events))


def scenario_crashes(
    candidates: Sequence[NodeId],
    config,
    fds: FdsConfig,
    fds_start: SimTime,
) -> Faultload:
    """The crash schedule of a scenario run, on every engine.

    ``config.crash_count`` of ``candidates`` (operational non-heads,
    ascending) crash in executions ``[1, max(1, executions - 2)]``,
    drawn from the seed's ``"faultload"`` stream of a
    :class:`~repro.experiments.runner.ScenarioConfig`.  Engines that
    share the candidate order crash the same nodes in the same
    executions; only ``fds.phi`` (wall-scaled on the rt engine) and
    ``fds_start`` move the times.
    """
    return make_random_crashes(
        candidates,
        config.crash_count,
        fds,
        RngFactory(config.seed).stream("faultload"),
        fds_start=fds_start,
        first_execution=1,
        last_execution=max(1, config.executions - 2),
    )


def crash_executions(
    faultload: Faultload, fds_start: SimTime, phi: float
) -> Dict[NodeId, int]:
    """First 0-based execution during which each crashed node is dead.

    Inverts :func:`make_random_crashes`' placement ``fds_start + (k - 1)
    * phi + 0.6 * phi`` -- after every round of execution ``k - 1``,
    before execution ``k`` -- so the node is alive through execution
    ``k - 1`` and silent from ``k`` on.
    """
    return {
        event.node_id: round((event.time - fds_start - 0.6 * phi) / phi) + 1
        for event in faultload.events
    }
