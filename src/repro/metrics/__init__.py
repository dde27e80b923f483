"""Metrics: ground-truth scoring of FDS runs."""

from repro.metrics.collectors import MessageCounts, collect_message_counts
from repro.metrics.properties import (
    PropertyReport,
    evaluate_properties,
    score_properties,
)
from repro.metrics.summary import SeriesSummary, summarize

__all__ = [
    "MessageCounts",
    "collect_message_counts",
    "PropertyReport",
    "evaluate_properties",
    "score_properties",
    "SeriesSummary",
    "summarize",
]
