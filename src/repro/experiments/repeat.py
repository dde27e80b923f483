"""Multi-seed repetition of scenarios with aggregate statistics.

One seeded run can get lucky; credible protocol claims need replication.
:func:`repeat_scenario` runs the same scenario under independent seeds and
aggregates each summary metric with mean/min/max and the standard error,
so benches and reports can state e.g. "completeness 1.0 across 20 seeds"
instead of "completeness 1.0 once".

Replications are independent, so they parallelize embarrassingly: pass
``workers > 1`` to fan the per-seed runs over a process pool.  Each run
derives all randomness from its own seed and results are aggregated in
seed order, so the aggregate is bit-identical for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ExperimentError
from repro.experiments.runner import ScenarioConfig, run_scenario_summaries
from repro.metrics.summary import SeriesSummary, summarize
from repro.util.tables import render_table


@dataclass(frozen=True)
class RepeatedResult:
    """Aggregated summaries over the repeated runs."""

    config: ScenarioConfig
    seeds: Tuple[int, ...]
    metrics: Dict[str, SeriesSummary]

    def mean(self, key: str) -> float:
        try:
            return self.metrics[key].mean
        except KeyError:
            raise ExperimentError(f"no metric {key!r} collected") from None

    def worst(self, key: str, lower_is_worse: bool = True) -> float:
        summary = self.metrics[key]
        return summary.minimum if lower_is_worse else summary.maximum

    def as_table(self) -> str:
        rows = [
            [key, s.mean, s.stderr, s.minimum, s.maximum]
            for key, s in sorted(self.metrics.items())
        ]
        return render_table(
            ["metric", "mean", "stderr", "min", "max"],
            rows,
            title=f"{len(self.seeds)} seeds",
        )


def check_seeds(seeds: Sequence[int]) -> Tuple[int, ...]:
    """Validate a replication seed list (non-empty, distinct)."""
    if not seeds:
        raise ExperimentError("seeds must be non-empty")
    if len(set(seeds)) != len(seeds):
        raise ExperimentError("seeds must be distinct")
    return tuple(int(s) for s in seeds)


def aggregate_summaries(
    config: ScenarioConfig,
    seeds: Sequence[int],
    summaries: Sequence[Dict[str, float]],
) -> RepeatedResult:
    """Fold per-seed summary dicts (in seed order) into a RepeatedResult.

    Shared by :func:`repeat_scenario` and the durable campaign runner
    (:mod:`repro.campaign`): both produce the same per-seed summaries, so
    routing them through one aggregation keeps a resumed or cache-served
    campaign bit-identical to a direct in-memory repeat.
    """
    collected: Dict[str, List[float]] = {}
    for summary in summaries:
        for key, value in summary.items():
            collected.setdefault(key, []).append(float(value))
    return RepeatedResult(
        config=config,
        seeds=tuple(int(s) for s in seeds),
        metrics={key: summarize(values) for key, values in collected.items()},
    )


def repeat_scenario(
    config: ScenarioConfig,
    seeds: Sequence[int],
    workers: Optional[int] = 1,
) -> RepeatedResult:
    """Run ``config`` once per seed; aggregate the scalar summaries.

    ``workers=1`` (default) runs the seeds serially; larger values (or
    ``None`` for all CPUs) fan the independent replications over a process
    pool.  Summaries are always aggregated in seed order, so the result is
    bit-identical for any worker count.
    """
    seeds = check_seeds(seeds)
    configs = [replace(config, seed=int(seed)) for seed in seeds]
    summaries = run_scenario_summaries(configs, workers=workers)
    return aggregate_summaries(config, seeds, summaries)
