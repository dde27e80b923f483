"""Golden fingerprints of seeded array-engine runs.

The array engine replays bit-exactly from its seed (see the draw-order
contract in :mod:`repro.sim.array_engine.rounds`), so a rewrite of any
of its phases must reproduce the same runs, draw for draw.  Each case
hashes what a run reports -- ``summary()``, ``MessageCounts``,
``PropertyReport`` and, when tracked, the energy ``totals()`` -- and
compares it with the hash recorded before the inter-cluster fixpoint
was rewritten over bit-packed knowledge.  A mismatch means the
engine's observable behaviour moved; if that is intended, re-record the
hash and say why in the change.

The fields are small (a few hundred nodes) but every case forwards
across clusters, and together they cover each loss kind (``bounded``
runs out of budget in the middle of a fixpoint), the FDS ablations
that change the ladders, energy tracking, protocol formation, and a
field with more than 64 tracked targets (multi-word knowledge).
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.experiments.runner import ScenarioConfig, run_scenario
from repro.fds.config import FdsConfig


def _config(**overrides) -> ScenarioConfig:
    base = dict(
        cluster_count=12,
        members_per_cluster=14,
        loss_probability=0.2,
        crash_count=4,
        executions=5,
        seed=5,
        engine="array",
    )
    base.update(overrides)
    return ScenarioConfig(**base)


CASES = {
    "perfect": _config(loss_kind="perfect"),
    "bernoulli": _config(),
    "bounded": _config(
        cluster_count=40, crash_count=20, loss_kind="bounded",
        loss_probability=0.05, loss_params=(("p", 0.05), ("budget", 850.0)),
    ),
    "distance": _config(loss_kind="distance"),
    "gilbert": _config(loss_kind="gilbert"),
    "no_implicit_ack": _config(fds=FdsConfig(implicit_ack=False)),
    "no_digests": _config(fds=FdsConfig(use_digests=False)),
    "energy_gilbert": _config(loss_kind="gilbert", track_energy=True),
    "energy_distance": _config(loss_kind="distance", track_energy=True),
    "protocol": _config(formation="protocol", cluster_count=16),
    "wide_distance": _config(
        cluster_count=30, members_per_cluster=20, crash_count=130,
        loss_kind="distance",
    ),
}

GOLDEN = {
    "perfect": (
        "fb5d9804f88a8fcae580ce154c485ef3"
        "15964bad60f0710eb960e114cf69b0f1"
    ),
    "bernoulli": (
        "aac1071a32c2e5a593839e93ace75bb0"
        "d913f476f3e8ed981767ca7483f3ef97"
    ),
    "bounded": (
        "9026f0b300233c975b93e2d11fbd3bb1"
        "4c2513cedb360332984cada8edefd027"
    ),
    "distance": (
        "52874c3c7bf0fa39090a673bbd9dfbdc"
        "c1066149d71369467f0c18a2c8a925da"
    ),
    "gilbert": (
        "f6d17d8bd8e451c01a15001af981e7c9"
        "14bbd8f99a2f8d7653897061283cb3e5"
    ),
    "no_implicit_ack": (
        "b0cbbc6a8b953d0b5f0316a7ff69294b"
        "3a6c2bfc1f4f3ec0d6caad0ed296a415"
    ),
    "no_digests": (
        "2acac0061fe776cc53f2ecef0fd20d5a"
        "9bc63a753ba5b3b5bdca674e4e650c3b"
    ),
    "energy_gilbert": (
        "b4f676b99c2c797eca42eaa309ab0f07"
        "906d52abbbc81ce8e2ee8039c616130f"
    ),
    "energy_distance": (
        "da362bf0d461301c5e8f14a7a5167f50"
        "a1f698b44c2df185be46ec31c95e8fa2"
    ),
    "protocol": (
        "7e1c6bfeac022b06a13944c378b25561"
        "7c3c183980006b0e1ab4093af1251d92"
    ),
    "wide_distance": (
        "ef2133ad112472e74564b60f4fb37541"
        "55eb26c202dca95e3ba67bae58f47e5e"
    ),
}


def _canon(value):
    """JSON-ready form, exact for floats and blind to numpy scalar types."""
    if dataclasses.is_dataclass(value):
        return {
            f.name: _canon(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return [[_canon(k), _canon(v)] for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value).hex()
    return value


def fingerprint(result) -> str:
    """SHA-256 of what a run reports (summary, messages, properties, energy)."""
    energy = result.energy.totals() if result.energy is not None else None
    payload = _canon(
        [result.summary(), result.messages, result.properties, energy]
    )
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_array_run_matches_golden_fingerprint(name):
    result = run_scenario(CASES[name])
    assert result.messages.reports_sent > 0  # forwarding ran
    assert fingerprint(result) == GOLDEN[name]


def test_wide_case_tracks_more_than_64_targets():
    result = run_scenario(CASES["wide_distance"])
    assert result.properties.crashed_count > 64
    assert len(result.properties.completeness) > 64
