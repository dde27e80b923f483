"""The parallel experiment fabric: ordering, seeding, bit-identity.

The fabric's contract is that ``workers`` is *purely* a throughput knob:
``repeat_scenario``, ``mc_chunked``, and ``sweep_measure`` return
bit-identical results for any worker count, because work is split by fixed
rules (per-seed configs, a constant chunk count, the full grid), each unit
carries its own seed material, and aggregation happens in input order.
"""

import numpy as np
import pytest

from repro.analysis.montecarlo import (
    DEFAULT_MC_CHUNKS,
    McEstimate,
    mc_chunked,
    mc_false_detection,
    merge_estimates,
)
from repro.analysis.sweep import sweep_measure
from repro.errors import AnalysisError, ConfigurationError, ExperimentError
from repro.experiments.repeat import repeat_scenario
from repro.experiments.runner import (
    ScenarioConfig,
    run_scenario,
    run_scenario_summaries,
)
from repro.util.parallel import (
    chunk_sizes,
    parallel_map,
    resolve_workers,
    spawn_rngs,
    spawn_seed_sequences,
)


def _square(x):  # module-level: must be picklable for the pool
    return x * x


def _np_measure(n, p):  # deterministic, picklable sweep measure
    return float(n) * p + 0.5


SMALL = ScenarioConfig(
    cluster_count=2,
    members_per_cluster=8,
    loss_probability=0.15,
    crash_count=1,
    executions=2,
)


class TestPrimitives:
    def test_resolve_workers(self):
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(None) >= 1
        with pytest.raises(ExperimentError):
            resolve_workers(0)

    def test_parallel_map_preserves_order(self):
        items = list(range(20))
        serial = parallel_map(_square, items, workers=1)
        pooled = parallel_map(_square, items, workers=3)
        assert serial == [x * x for x in items]
        assert pooled == serial

    def test_parallel_map_empty_and_singleton(self):
        assert parallel_map(_square, [], workers=4) == []
        assert parallel_map(_square, [7], workers=4) == [49]

    def test_chunk_sizes_balanced(self):
        sizes = chunk_sizes(10, 3)
        assert sum(sizes) == 10
        assert max(sizes) - min(sizes) <= 1
        # More chunks than items: empty chunks are dropped, not emitted.
        assert all(s > 0 for s in chunk_sizes(2, 8))
        # Purely a function of (total, chunks).
        assert chunk_sizes(1000, 8) == chunk_sizes(1000, 8)

    def test_spawn_seed_sequences_deterministic_and_distinct(self):
        first = [np.random.default_rng(s).random() for s in spawn_seed_sequences(5, 4)]
        second = [np.random.default_rng(s).random() for s in spawn_seed_sequences(5, 4)]
        assert first == second
        assert len(set(first)) == 4  # children draw distinct streams

    def test_spawn_rngs(self):
        a, b = spawn_rngs(9, 2)
        assert a.random() != b.random()
        again = spawn_rngs(9, 2)
        assert again[0].random() != again[1].random()


class TestRepeatParallel:
    def test_repeat_bit_identical_to_serial(self):
        seeds = [1, 2, 3, 4]
        serial = repeat_scenario(SMALL, seeds, workers=1)
        pooled = repeat_scenario(SMALL, seeds, workers=2)
        assert pooled.metrics == serial.metrics
        assert pooled.seeds == serial.seeds

    def test_summaries_match_direct_runs(self):
        from dataclasses import replace

        configs = [replace(SMALL, seed=s) for s in (11, 12)]
        pooled = run_scenario_summaries(configs, workers=2)
        direct = [run_scenario(c).summary() for c in configs]
        assert pooled == direct


class TestMonteCarloParallel:
    def test_mc_bit_identical_to_serial(self):
        serial = mc_chunked(
            mc_false_detection, 60, 0.2, 4000, seed=3, workers=1
        )
        pooled = mc_chunked(
            mc_false_detection, 60, 0.2, 4000, seed=3, workers=3
        )
        assert pooled == serial
        assert serial.trials == 4000

    def test_chunking_is_fixed_not_worker_derived(self):
        # The estimate depends on the chunk count, which is a constant --
        # if it ever tracked ``workers`` the bit-identity guarantee dies.
        assert DEFAULT_MC_CHUNKS == 8
        one = mc_chunked(
            mc_false_detection, 60, 0.2, 3000, seed=5, workers=1
        )
        two = mc_chunked(
            mc_false_detection, 60, 0.2, 3000, seed=5, workers=2
        )
        assert one == two

    def test_merge_estimates_pools_counts(self):
        parts = [
            McEstimate(estimate=0.5, prefactor=1.0,
                       conditional_successes=5, trials=10),
            McEstimate(estimate=0.25, prefactor=1.0,
                       conditional_successes=5, trials=20),
        ]
        merged = merge_estimates(parts)
        assert merged.trials == 30
        assert merged.conditional_successes == 10
        assert merged.estimate == pytest.approx(10 / 30)

    def test_merge_rejects_mismatched_prefactors(self):
        parts = [
            McEstimate(estimate=0.5, prefactor=1.0,
                       conditional_successes=1, trials=2),
            McEstimate(estimate=0.5, prefactor=2.0,
                       conditional_successes=1, trials=2),
        ]
        with pytest.raises(AnalysisError):
            merge_estimates(parts)

    def test_merge_rejects_empty_sequence(self):
        with pytest.raises(ConfigurationError):
            merge_estimates([])

    def test_merge_rejects_mismatched_parameters(self):
        # Chunks from different (n, p) experiments must never be pooled.
        parts = [
            McEstimate(estimate=0.5, prefactor=1.0,
                       conditional_successes=1, trials=2, n=40, p=0.4),
            McEstimate(estimate=0.5, prefactor=1.0,
                       conditional_successes=1, trials=2, n=41, p=0.4),
        ]
        with pytest.raises(ConfigurationError):
            merge_estimates(parts)

    def test_merge_carries_parameters(self):
        parts = [
            McEstimate(estimate=0.5, prefactor=1.0,
                       conditional_successes=1, trials=2, n=40, p=0.4),
            McEstimate(estimate=0.5, prefactor=1.0,
                       conditional_successes=1, trials=2, n=40, p=0.4),
        ]
        merged = merge_estimates(parts)
        assert merged.n == 40
        assert merged.p == 0.4


class TestSweepParallel:
    def test_sweep_bit_identical_to_serial(self):
        serial = sweep_measure(
            "toy", _np_measure,
            p_values=(0.1, 0.2, 0.3), n_values=(10, 20), workers=1,
        )
        pooled = sweep_measure(
            "toy", _np_measure,
            p_values=(0.1, 0.2, 0.3), n_values=(10, 20), workers=2,
        )
        assert pooled.curves == serial.curves
        assert pooled.p_values == serial.p_values
        assert serial.value_at(20, 0.3) == pytest.approx(20 * 0.3 + 0.5)
