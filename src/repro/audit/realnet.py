"""Sim-vs-real differential conformance (``differential:realnet``).

One seeded :class:`~repro.experiments.runner.ScenarioConfig` runs twice:
on the discrete-event simulator (``engine="event"``, virtual time) and on
the asyncio UDP runtime (``engine="rt"``, wall time scaled by
``time_scale``).  Both runs derive topology and faultload from the same
named RNG streams, so the *loss-independent* structure is comparable
exactly; everything the wall clock or private loss draws can legitimately
perturb is compared through tolerance bands or oracles instead:

- **field shape** -- node/cluster counts, the crashed-node set, and each
  crash's execution index must match exactly (stream identity);
- **completeness oracle** -- when the config's loss model keeps the drop
  budget within the forwarding tolerance
  (:func:`~repro.audit.differential.completeness_guaranteed`), the two
  runs' completeness verdicts must agree (the guarantee itself is the
  sim soak's oracle; realnet checks runtime conformance);
- **accuracy oracle** -- both runs must satisfy the same refutation
  discipline: any detection of a node that is operational at the end
  must be refuted later, unless it falls inside the final recovery
  window; on loss-free links the final suspicion state must be clean;
- **latency anchors** -- a crashed member is silent, so its CH detects
  it at ``0.4*phi + 2*thop`` after the crash regardless of the links.
  Per crashed target (excluding targets falsely detected *before* their
  crash in either run), detected-ness must agree and the phi-unit
  latencies must lie within ``tolerance_phi`` of each other -- the band
  that absorbs asyncio timer jitter and socket latency.

On divergence, :func:`realnet_repro_snippet` renders the config as a
ready-to-paste seeded pytest case.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.audit.differential import (
    Violation,
    accuracy_violations,
    completeness_guaranteed,
    predetected,
)
from repro.experiments.runner import ScenarioConfig, ScenarioResult, run_scenario
from repro.failure.faultload import crash_executions
from repro.fds.config import FdsConfig
from repro.sim.loss import sweep_loss_params

#: Default wall-clock tolerance band for phi-unit latency comparison.
DEFAULT_TOLERANCE_PHI = 0.15


def realnet_spec(seed: int) -> ScenarioConfig:
    """Sample one rt-sized config from the realnet soak distribution.

    Wall time is real here, so the distribution stays small (two
    clusters, a handful of executions) and uses ``phi=8`` scenario
    seconds: at the default ``time_scale=0.05`` one execution is 0.4
    wall seconds and a whole run stays under ~2.5 s.
    """
    rng = np.random.default_rng(seed)
    loss_kind = str(rng.choice(["perfect", "perfect", "bernoulli", "bounded"]))
    # Draw order is part of the distribution: keep it.
    config_seed = int(rng.integers(0, 2**31 - 1))
    members_per_cluster = int(rng.integers(5, 9))
    crash_count = int(rng.integers(1, 3))
    executions = int(rng.integers(3, 5))
    loss_p = float(rng.choice([0.1, 0.15]))
    loss_budget = int(rng.integers(1, 3))
    return ScenarioConfig(
        engine="rt",
        seed=config_seed,
        cluster_count=2,
        members_per_cluster=members_per_cluster,
        crash_count=crash_count,
        executions=executions,
        loss_kind=loss_kind,
        loss_params=sweep_loss_params(loss_kind, loss_p, loss_budget),
        spacing_factor=1.25,
        max_backups=2,
        fds=FdsConfig(phi=8.0, thop=0.5),
    )


# ----------------------------------------------------------------------
# Per-run reductions
# ----------------------------------------------------------------------
def _latencies_phi(
    result: ScenarioResult,
) -> Tuple[Dict[int, Optional[float]], set]:
    """Per-crashed-target detection latency in phi units, plus the set
    of targets falsely detected before their crash (anchor-exempt)."""
    phi = result.fds.phi
    latencies = {
        int(nid): (None if seconds is None else seconds / phi)
        for nid, seconds in result.detection_latencies.items()
    }
    return latencies, predetected(latencies)


# ----------------------------------------------------------------------
# The differential pair
# ----------------------------------------------------------------------
def check_realnet(
    config: ScenarioConfig,
    tolerance_phi: float = DEFAULT_TOLERANCE_PHI,
    sim: Optional[ScenarioResult] = None,
    rt: Optional[ScenarioResult] = None,
) -> List[Violation]:
    """Run ``config`` on the event and rt engines; return every
    divergence.

    ``sim``/``rt`` let a caller that already ran one side (or both)
    reuse the results; both runs must have used in-memory tracers.
    """
    if sim is None:
        sim = run_scenario(replace(config, engine="event"))
    if rt is None:
        rt = run_scenario(replace(config, engine="rt"))
    violations: List[Violation] = []

    def diverged(description: str) -> None:
        violations.append(
            Violation(kind="differential:realnet", description=description)
        )

    # Field shape (stream identity makes exact equality the contract).
    sim_summary, rt_summary = sim.summary(), rt.summary()
    for key, noun in (("nodes", "node"), ("clusters", "cluster")):
        if rt_summary[key] != sim_summary[key]:
            diverged(
                f"{noun} counts diverged: rt {int(rt_summary[key])} != "
                f"sim {int(sim_summary[key])}"
            )
    sim_crashed = tuple(sorted(int(n) for n in sim.crash_times))
    rt_crashed = tuple(sorted(int(n) for n in rt.crash_times))
    if sim_crashed != rt_crashed:
        diverged(
            f"crashed-node sets diverged (faultload stream identity "
            f"broken): rt {rt_crashed} != sim {sim_crashed}"
        )
    else:
        # The faultloads' *scheduled* executions: executed runtime crash
        # times carry timer jitter, the schedule does not.
        sim_execs = crash_executions(sim.faultload, sim.fds_start, sim.fds.phi)
        rt_execs = crash_executions(rt.faultload, rt.fds_start, rt.fds.phi)
        if sim_execs != rt_execs:
            diverged(
                f"crash execution indices diverged: rt {rt_execs} != "
                f"sim {sim_execs}"
            )

    # Completeness oracle: when the loss model makes completeness
    # deterministic, the sim and rt verdicts must agree.  (Whether the
    # guarantee itself holds is the sim soak's oracle; realnet only
    # checks that the runtime conforms to the simulator.)
    if completeness_guaranteed(config):
        sim_complete = sim.properties.is_complete
        rt_complete = rt.properties.is_complete
        if sim_complete != rt_complete:
            diverged(
                f"completeness verdicts diverged under deterministic "
                f"loss: sim {'complete' if sim_complete else 'incomplete'} "
                f"vs rt {'complete' if rt_complete else 'incomplete'}"
            )

    # Accuracy oracle on the runtime run (the sim side is covered by
    # differential.accuracy_violations in check_spec / the soak).
    violations.extend(
        Violation(kind=v.kind, description=f"[realnet] {v.description}")
        for v in accuracy_violations(rt)
    )

    # Loss-independent latency anchors, in phi units with a wall band.
    if sim_crashed == rt_crashed:
        sim_lat, sim_pre = _latencies_phi(sim)
        rt_lat, rt_pre = _latencies_phi(rt)
        exempt = sim_pre | rt_pre
        for target in sorted(set(sim_lat) - exempt):
            s, r = sim_lat[target], rt_lat.get(target)
            if (s is None) != (r is None):
                diverged(
                    f"crash of node {target} detected in "
                    f"{'sim' if s is not None else 'rt'} only "
                    f"(sim={s}, rt={r})"
                )
            elif s is not None and r is not None and abs(s - r) > tolerance_phi:
                diverged(
                    f"detection latency of node {target} off the anchor: "
                    f"rt {r:.3f} phi vs sim {s:.3f} phi "
                    f"(|delta| {abs(s - r):.3f} > tolerance {tolerance_phi})"
                )
    return violations


@dataclass
class RealnetVerdict:
    """One config's differential outcome."""

    spec: ScenarioConfig
    violations: List[Violation]

    @property
    def clean(self) -> bool:
        return not self.violations


@dataclass
class RealnetSuiteResult:
    """A whole ``repro rt diff`` sweep."""

    verdicts: List[RealnetVerdict] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return all(v.clean for v in self.verdicts)

    @property
    def failures(self) -> List[RealnetVerdict]:
        return [v for v in self.verdicts if not v.clean]


def run_realnet_suite(
    count: int,
    seed: int = 0,
    time_scale: float = 0.05,
    tolerance_phi: float = DEFAULT_TOLERANCE_PHI,
    log=None,
) -> RealnetSuiteResult:
    """Check ``count`` seeded configs from the realnet distribution."""
    result = RealnetSuiteResult()
    for index in range(count):
        spec = replace(realnet_spec(seed + index), time_scale=time_scale)
        violations = check_realnet(spec, tolerance_phi=tolerance_phi)
        result.verdicts.append(RealnetVerdict(spec, violations))
        if log is not None:
            status = "ok" if not violations else (
                f"{len(violations)} violation(s)"
            )
            log(
                f"realnet[{index}] seed={spec.seed} "
                f"loss={spec.loss_kind} crashes={spec.crash_count} "
                f"executions={spec.executions}: {status}"
            )
    return result


def realnet_repro_snippet(
    config: ScenarioConfig, violations: List[Violation]
) -> str:
    """A ready-to-paste pytest case reproducing a realnet divergence."""
    lines = [f"    #   - {v.kind}: {v.description}" for v in violations]
    body = "\n".join(lines) if lines else "    #   (violations list was empty)"
    return (
        "from repro.audit.realnet import check_realnet\n"
        "from repro.experiments.runner import ScenarioConfig\n"
        "from repro.fds.config import FdsConfig\n"
        "\n"
        "\n"
        "def test_realnet_regression():\n"
        "    # Shrunk from a failing sim/real differential; observed:\n"
        f"{body}\n"
        f"    config = {config!r}\n"
        "    assert check_realnet(config) == []\n"
    )
