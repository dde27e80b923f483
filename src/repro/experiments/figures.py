"""Regeneration of the paper's Figures 5, 6, and 7.

Each figure function evaluates the corresponding Section 5 measure over
the paper's exact grid (p = 0.05..0.50 step 0.05; N in {50, 75, 100};
R = 100 m; worst-case member position) and returns a
:class:`~repro.analysis.sweep.MeasureSeries` whose rows are the figure's
curves.  :func:`render_figure` prints them as the table the benchmark
emits.

:data:`PAPER_CLAIMS` encodes every *quantitative sentence* the paper's
evaluation text states about the figures, and :func:`check_paper_claims`
verifies our reproduction satisfies each one -- this is the
reproduction-fidelity gate (absolute curve values cannot be compared
because the paper publishes plots, not tables).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.analysis.ch_false_detection import p_false_detection_on_ch
from repro.analysis.false_detection import p_false_detection
from repro.analysis.incompleteness import p_incompleteness
from repro.analysis.sweep import (
    PAPER_N_VALUES,
    PAPER_P_GRID,
    MeasureSeries,
    sweep_measure,
)
from repro.util.tables import render_series_table


def figure5_false_detection() -> MeasureSeries:
    """Figure 5: P^(False detection) vs p for N in {50, 75, 100}."""
    return sweep_measure("fig5:p_false_detection", p_false_detection)


def figure6_false_detection_on_ch() -> MeasureSeries:
    """Figure 6: P(False detection on CH) vs p for N in {50, 75, 100}."""
    return sweep_measure(
        "fig6:p_false_detection_on_ch", p_false_detection_on_ch
    )


def figure7_incompleteness() -> MeasureSeries:
    """Figure 7: P^(Incompleteness) vs p for N in {50, 75, 100}."""
    return sweep_measure("fig7:p_incompleteness", p_incompleteness)


def render_figure(series: MeasureSeries, title: str | None = None) -> str:
    """The figure as an aligned text table (one column per N curve)."""
    ns = sorted(series.curves)
    return render_series_table(
        "p",
        list(series.p_values),
        {f"N={n}": list(series.curves[n]) for n in ns},
        title=title or series.name,
    )


# ----------------------------------------------------------------------
# The paper's quantitative claims about its figures
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Claim:
    """One checkable statement from the paper's evaluation text."""

    claim_id: str
    statement: str
    check: Callable[[], bool]


def _claim_fig5_small_at_high_density() -> bool:
    # "if the cluster is densely or moderately densely populated (N = 100
    # or N = 75), the values ... are very small, even when p equals 0.5."
    return (
        p_false_detection(100, 0.5) < 1e-4
        and p_false_detection(75, 0.5) < 1e-3
    )


def _claim_fig5_reasonable_at_n50() -> bool:
    # "Even with ... N = 50, the results of the measure are still very
    # reasonable" -- the curve tops out well below 1e-2.
    return p_false_detection(50, 0.5) < 1e-2


def _claim_fig6_negligible_below_quarter() -> bool:
    # "the likelihood of such a false detection is practically negligible
    # or extremely low when p is below 0.25."
    return all(
        p_false_detection_on_ch(n, 0.20) < 1e-20 for n in PAPER_N_VALUES
    )


def _claim_fig6_below_1e6_at_n50() -> bool:
    # "the value of this measure is still below 10^-6 even when N drops
    # to 50" (at p = 0.5).
    return p_false_detection_on_ch(50, 0.5) < 1e-6


def _claim_ch_more_likely_than_dch() -> bool:
    # "it seems a bit surprising that the CH is more likely than the DCH
    # to make a false detection" -- P^(FD) > P(FDoCH) pointwise.
    return all(
        p_false_detection(n, p) > p_false_detection_on_ch(n, p)
        for n in PAPER_N_VALUES
        for p in PAPER_P_GRID
    )


def _claim_fig7_density_improves() -> bool:
    # "when N increases from 50 to 100, P^(Incompleteness) decreases
    # significantly" -- at least an order-of-magnitude win everywhere on
    # the grid, growing to many orders of magnitude at low p.
    return (
        all(
            p_incompleteness(100, p) < p_incompleteness(50, p) * 0.15
            for p in PAPER_P_GRID
        )
        and p_incompleteness(100, 0.05) < p_incompleteness(50, 0.05) * 1e-6
    )


def _sensitivity(measure: Callable[[int, float], float], n: int) -> float:
    """Orders of magnitude a measure spans across the paper's p range."""
    import math

    low = measure(n, PAPER_P_GRID[0])
    high = measure(n, PAPER_P_GRID[-1])
    return math.log10(high) - math.log10(low)


def _claim_fig7_larger_n_more_sensitive() -> bool:
    # "P^(Incompleteness) becomes more sensitive to p when N becomes
    # larger" -- the N=100 curve spans more decades than the N=50 curve.
    return _sensitivity(p_incompleteness, 100) > _sensitivity(
        p_incompleteness, 50
    )


def _claim_monotone_in_p() -> bool:
    # All three curves rise monotonically with p for every N.
    for n in PAPER_N_VALUES:
        for measure in (
            p_false_detection,
            p_false_detection_on_ch,
            p_incompleteness,
        ):
            values = [measure(n, p) for p in PAPER_P_GRID]
            if any(b <= a for a, b in zip(values, values[1:])):
                return False
    return True


def _claim_monotone_in_n() -> bool:
    # Density helps: for fixed p, every measure decreases as N grows.
    for p in PAPER_P_GRID:
        for measure in (
            p_false_detection,
            p_false_detection_on_ch,
            p_incompleteness,
        ):
            values = [measure(n, p) for n in PAPER_N_VALUES]
            if any(b >= a for a, b in zip(values, values[1:])):
                return False
    return True


PAPER_CLAIMS: Tuple[Claim, ...] = (
    Claim(
        "fig5-high-density-small",
        "Fig 5: N=100/N=75 stay very small even at p=0.5",
        _claim_fig5_small_at_high_density,
    ),
    Claim(
        "fig5-n50-reasonable",
        "Fig 5: N=50 still very reasonable at p=0.5",
        _claim_fig5_reasonable_at_n50,
    ),
    Claim(
        "fig6-negligible-below-0.25",
        "Fig 6: practically negligible for p below 0.25",
        _claim_fig6_negligible_below_quarter,
    ),
    Claim(
        "fig6-below-1e-6-at-n50",
        "Fig 6: below 1e-6 even at N=50, p=0.5",
        _claim_fig6_below_1e6_at_n50,
    ),
    Claim(
        "ch-more-likely-than-dch",
        "Fig 5 vs 6: the CH is more likely than the DCH to false-detect",
        _claim_ch_more_likely_than_dch,
    ),
    Claim(
        "fig7-density-improves",
        "Fig 7: N 50 -> 100 decreases incompleteness significantly",
        _claim_fig7_density_improves,
    ),
    Claim(
        "fig7-sensitivity-grows-with-n",
        "Figs 5-7: larger N makes measures more sensitive to p",
        _claim_fig7_larger_n_more_sensitive,
    ),
    Claim(
        "monotone-in-p",
        "All curves increase monotonically with p",
        _claim_monotone_in_p,
    ),
    Claim(
        "monotone-in-n",
        "All measures decrease monotonically with N",
        _claim_monotone_in_n,
    ),
)


def check_paper_claims() -> List[Tuple[Claim, bool]]:
    """Evaluate every encoded claim; returns (claim, passed) pairs."""
    return [(claim, claim.check()) for claim in PAPER_CLAIMS]
