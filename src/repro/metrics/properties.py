"""Completeness and accuracy scoring against ground truth.

The paper's target properties (Section 4.1), made measurable:

- **Completeness**: "every node failure will be reported to every
  operational node."  For each crashed node, the fraction of operational,
  clustered nodes whose failure knowledge includes it.  (A node partitioned
  from the network is not "operational" by the paper's definition and is
  excluded.)
- **Accuracy**: "no operational node will be suspected by other
  operational nodes."  Every (suspector, suspected) pair where the
  suspected node is in fact operational is a violation.

Every engine scores through one vectorized kernel,
:func:`score_properties`, over a boolean knowledge matrix (node x
target).  The event and runtime engines build that matrix from each
protocol's :class:`~repro.fds.reports.ReportHistory`
(:func:`score_histories`); the array engine hands over the matrix it
already keeps.  Ground truth comes from the engine -- exactly the
vantage point the paper's analysis takes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Tuple

import numpy as np

from repro.types import NodeId

if TYPE_CHECKING:
    from repro.fds.service import FdsDeployment


@dataclass(frozen=True)
class PropertyReport:
    """Scored completeness/accuracy of one run."""

    #: crashed node -> fraction of operational clustered nodes that know.
    completeness: Dict[NodeId, float]
    #: (suspector, suspected-but-operational) pairs.
    accuracy_violations: Tuple[Tuple[NodeId, NodeId], ...]
    #: crashed nodes some operational node does NOT know about.
    incomplete_failures: Tuple[NodeId, ...]
    operational_count: int
    crashed_count: int

    @property
    def mean_completeness(self) -> float:
        """Average completeness over all crashed nodes (1.0 if none)."""
        if not self.completeness:
            return 1.0
        return sum(self.completeness.values()) / len(self.completeness)

    @property
    def is_complete(self) -> bool:
        return not self.incomplete_failures

    @property
    def is_accurate(self) -> bool:
        return not self.accuracy_violations


def score_properties(
    known: np.ndarray,
    target_ids: np.ndarray,
    crashed: np.ndarray,
    observers: np.ndarray,
) -> PropertyReport:
    """Score one finished run from its knowledge matrix.

    ``known[n, c]`` says node ``n`` (rows are node ids) holds target
    ``target_ids[c]`` as failed.  ``crashed`` and ``observers`` are
    node-id masks: ground-truth crashes, and the operational nodes whose
    knowledge completeness counts (the paper's scope: clustered ones).
    A crashed node nobody knows about has no column.  Accuracy pairs
    scan every operational node -- observer or not -- sorted by
    (suspector, suspected).
    """
    op_mask = ~crashed
    op_ids = np.flatnonzero(op_mask)
    crashed_ids = np.flatnonzero(crashed)
    obs_ids = np.flatnonzero(observers)
    target_ids = np.asarray(target_ids, dtype=np.int64)
    column = {int(t): c for c, t in enumerate(target_ids)}

    completeness: Dict[NodeId, float] = {}
    incomplete: List[NodeId] = []
    for v in crashed_ids:
        col = column.get(int(v))
        if not obs_ids.size:
            frac = 1.0
        elif col is None:
            frac = 0.0
        else:
            frac = float(known[obs_ids, col].sum()) / float(obs_ids.size)
        completeness[NodeId(int(v))] = frac
        if frac < 1.0:
            incomplete.append(NodeId(int(v)))

    violations: List[Tuple[NodeId, NodeId]] = []
    if target_ids.size and op_ids.size:
        op_cols = np.flatnonzero(op_mask[target_ids])
        if op_cols.size:
            sub = known[np.ix_(op_ids, op_cols)]
            rows, cols = np.nonzero(sub)
            sus = target_ids[op_cols][cols]
            order = np.lexsort((sus, op_ids[rows]))
            violations = [
                (NodeId(int(op_ids[rows[i]])), NodeId(int(sus[i])))
                for i in order
            ]

    return PropertyReport(
        completeness=completeness,
        accuracy_violations=tuple(violations),
        incomplete_failures=tuple(incomplete),
        operational_count=int(obs_ids.size),
        crashed_count=int(crashed_ids.size),
    )


def score_histories(
    histories: Mapping[NodeId, object],
    node_ids: Iterable[NodeId],
    crashed: Iterable[NodeId],
    observers: Iterable[NodeId],
) -> PropertyReport:
    """Build the knowledge matrix from per-node failure knowledge
    (objects with a ``known`` id set, typically
    :class:`~repro.fds.reports.ReportHistory`) and score it.

    Suspicions of ids outside ``node_ids`` can be neither complete nor
    inaccurate, so they get no column.
    """
    node_set = {int(n) for n in node_ids}
    size = max(node_set, default=-1) + 1
    pairs = np.array(
        [
            (int(nid), int(t))
            for nid, history in histories.items()
            if int(nid) in node_set
            for t in history.known
            if int(t) in node_set
        ],
        dtype=np.int64,
    ).reshape(-1, 2)
    targets = np.unique(pairs[:, 1])
    known = np.zeros((size, targets.size), dtype=bool)
    known[pairs[:, 0], np.searchsorted(targets, pairs[:, 1])] = True

    def mask(ids: Iterable[NodeId]) -> np.ndarray:
        out = np.zeros(size, dtype=bool)
        out[[int(n) for n in ids]] = True
        return out

    return score_properties(known, targets, mask(crashed), mask(observers))


def evaluate_properties(deployment: "FdsDeployment") -> PropertyReport:
    """Score a finished event-engine run."""
    network = deployment.network
    return score_histories(
        {nid: p.history for nid, p in deployment.protocols.items()},
        network.nodes,
        network.crashed_ids(),
        (
            nid
            for nid in network.operational_ids()
            if deployment.layout.is_clustered(nid)
        ),
    )


def evaluate_histories(
    network,
    histories: Dict[NodeId, "object"],
) -> PropertyReport:
    """Score completeness/accuracy from raw per-node failure knowledge.

    Used for baseline detectors, which have no cluster layout; every
    operational node with a history is an observer.
    """
    return score_histories(
        histories,
        network.nodes,
        network.crashed_ids(),
        (nid for nid in network.operational_ids() if nid in histories),
    )
