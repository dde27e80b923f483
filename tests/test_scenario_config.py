"""One scenario config for every engine: sampler pins, the shared CLI
flag table, rt through ``run_scenario``, and bad values rejected before
anything runs."""

import argparse
import hashlib
from dataclasses import fields, replace

import numpy as np
import pytest

from repro.__main__ import build_parser, main
from repro.audit.differential import random_spec
from repro.audit.realnet import realnet_spec
from repro.campaign.store import canonical_config_dict, canonical_json
from repro.errors import ExperimentError
from repro.experiments.runner import (
    ENGINES,
    SCENARIO_FLAGS,
    ScenarioConfig,
    add_scenario_flags,
    config_from_args,
    run_scenario,
)
from repro.failure.faultload import crash_executions, scenario_crashes
from repro.fds.config import FdsConfig
from repro.sim.loss import LOSS_KINDS


def _digest(configs) -> str:
    payload = canonical_json([canonical_config_dict(c) for c in configs])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Sampler pins
# ----------------------------------------------------------------------
# Recorded before the soak and realnet samplers returned ScenarioConfig:
# the canonical dicts of the soak spec's config (``time_scale`` at its
# 0.05 default) for the first 50 draws of ``default_rng(0)``, and of the
# realnet rt scenario mapped field for field onto a config with
# ``engine="rt"`` for seeds 0..19.
SOAK_PIN = "d6c23b1645ac670d70c02d89e55441a2fd978a707df2cf2c19fb1658d433bc80"
REALNET_PIN = "6482177eff24500af7a9f104e6341adcf9b9c3cae655d55d256297242cf7b682"


def test_soak_sampler_matches_pin():
    rng = np.random.default_rng(0)
    assert _digest(random_spec(rng) for _ in range(50)) == SOAK_PIN


def test_realnet_sampler_matches_pin():
    configs = [realnet_spec(seed) for seed in range(20)]
    assert all(c.engine == "rt" for c in configs)
    assert _digest(configs) == REALNET_PIN


# ----------------------------------------------------------------------
# One flag table
# ----------------------------------------------------------------------
def test_flag_defaults_are_the_config_defaults():
    parser = argparse.ArgumentParser()
    add_scenario_flags(parser)
    args = parser.parse_args([])
    assert config_from_args(args) == ScenarioConfig()
    defaults = {f.name: f.default for f in fields(ScenarioConfig)}
    for _flag, name, _help in SCENARIO_FLAGS:
        assert getattr(args, name) == defaults[name], name


def test_flag_choices_come_from_the_config():
    parser = argparse.ArgumentParser()
    add_scenario_flags(parser)
    choices = {
        action.dest: tuple(action.choices)
        for action in parser._actions if action.choices
    }
    assert choices["engine"] == ENGINES
    assert choices["loss_kind"] == LOSS_KINDS


@pytest.mark.parametrize("argv", [
    [],
    ["--clusters", "3", "--members", "7", "--loss-p", "0.2",
     "--crashes", "1", "--executions", "4", "--engine", "array",
     "--formation", "protocol", "--formation-iterations", "2",
     "--formation-backoff", "0.3", "--loss-kind", "gilbert",
     "--track-energy", "--time-scale", "0.1"],
])
def test_scenario_and_campaign_build_equal_configs(argv):
    scenario = build_parser().parse_args(["scenario", *argv])
    campaign = build_parser().parse_args(
        ["campaign", "run", "--kind", "scenario", *argv]
    )
    assert config_from_args(scenario) == config_from_args(campaign)


def test_campaign_keeps_a_seed_list_in_place_of_seed():
    args = build_parser().parse_args(
        ["campaign", "run", "--kind", "scenario", "--seed", "9"]
    )
    # --seed is the Monte Carlo estimator's; the scenario seed list is
    # --seed-base/--seeds and never reaches the base config.
    assert "seed" not in args.scenario_fields
    assert config_from_args(args).seed == ScenarioConfig().seed


# ----------------------------------------------------------------------
# The rt engine behind run_scenario
# ----------------------------------------------------------------------
def test_rt_runs_through_run_scenario_with_its_config():
    base = ScenarioConfig(
        cluster_count=2, members_per_cluster=10, crash_count=1,
        executions=3, seed=3, loss_kind="perfect",
        fds=FdsConfig(phi=8.0, thop=0.5),
    )
    config = replace(base, engine="rt")
    result = run_scenario(config)
    assert len(result.network) == 22
    assert result.config == config
    assert result.fds == config.wall_fds()
    # Same faultload stream as the event engine: same victims, same
    # executions, wall-scaled times.
    event = run_scenario(base)
    assert sorted(event.crash_times) == sorted(result.crash_times)
    assert crash_executions(
        event.faultload, event.fds_start, event.fds.phi
    ) == crash_executions(result.faultload, result.fds_start, result.fds.phi)


def test_wall_fds_scales_every_timing_knob():
    config = ScenarioConfig(fds=FdsConfig(phi=8.0, thop=0.5), time_scale=0.1)
    wall = config.wall_fds()
    assert wall.phi == pytest.approx(0.8)
    assert wall.thop == pytest.approx(0.05)
    assert wall.wait_slot == pytest.approx(config.fds.wait_slot * 0.1)
    assert replace(wall, phi=8.0, thop=0.5,
                   wait_slot=config.fds.wait_slot) == config.fds


def test_scenario_crashes_is_the_window_rule():
    config = ScenarioConfig(crash_count=3, executions=6, seed=11)
    candidates = tuple(range(4, 40))
    faultload = scenario_crashes(candidates, config, config.fds, 2.0)
    assert len(faultload) == 3
    executions = crash_executions(faultload, 2.0, config.fds.phi)
    assert all(1 <= k <= 4 for k in executions.values())
    wall = scenario_crashes(candidates, config, config.wall_fds(), 0.3)
    assert wall.node_ids() == faultload.node_ids()


# ----------------------------------------------------------------------
# Bad values fail before anything runs
# ----------------------------------------------------------------------
@pytest.mark.parametrize("overrides", [
    {"cluster_count": 0},
    {"members_per_cluster": 0},
    {"loss_probability": 1.5},
    {"loss_probability": -0.1},
    {"spacing_factor": 2.0},
    {"spacing_factor": 1.0},
    {"time_scale": 0.0},
    {"engine": "rt", "formation": "protocol"},
    {"engine": "rt", "track_energy": True},
])
def test_config_rejects_bad_values(overrides):
    with pytest.raises(ExperimentError):
        ScenarioConfig(**overrides)


def test_rt_takes_no_profiler():
    from repro.obs.profiler import PhaseProfiler

    with pytest.raises(ExperimentError, match="profiler"):
        run_scenario(ScenarioConfig(engine="rt"), profiler=PhaseProfiler())


@pytest.mark.parametrize("argv", [
    ["scenario", "--loss-p", "1.5"],
    ["scenario", "--engine", "rt", "--formation", "protocol"],
    ["scenario", "--engine", "rt", "--profile"],
    ["scenario", "--engine", "rt", "--trace-out", "rt.jsonl.gz"],
])
def test_scenario_cli_prints_one_error_line(argv, capsys, tmp_path,
                                            monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1
    assert out.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_campaign_with_zero_clusters_writes_no_manifest(tmp_path, capsys):
    store = tmp_path / "store"
    assert main([
        "campaign", "run", "--kind", "scenario", "--clusters", "0",
        "--seeds", "2", "--store", str(store),
    ]) == 1
    assert capsys.readouterr().out.startswith("error: cluster_count")
    assert not list(store.glob("campaigns/*/manifest.json"))
