"""Cluster structure data model.

A :class:`Cluster` is the unit the FDS executes in: a clusterhead (CH), its
one-hop members, a ranked list of deputy clusterheads (DCHs, feature F2),
and -- per neighboring cluster -- a :class:`Boundary` holding the primary
gateway (GW) and ranked backup gateways (BGWs).

:class:`ClusterLayout` is the whole-network structure; it validates the
paper's structural invariants on construction:

- every member of a cluster is a one-hop neighbor of its CH (clusters map
  to unit disks, Section 3);
- every node is affiliated with exactly one cluster (feature F3 -- this
  includes gateways, which older algorithms left unaffiliated);
- deputies and gateways are members of the cluster they serve.

:class:`LocalClusterView` is the slice of the layout a single node is
allowed to know -- what the formation protocol's announcements told it.
The FDS protocol consumes only local views, never the global layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Mapping, Optional, Tuple

from repro.errors import ClusteringError
from repro.topology.graph import UnitDiskGraph
from repro.types import NodeId, NodeRole


@dataclass(frozen=True)
class Boundary:
    """The forwarding roles between two neighboring clusters.

    ``gateway`` is the primary GW; ``backups`` are the BGWs in rank order
    (rank 1 first -- rank k waits ``k * 2*Thop`` before stepping in,
    Section 4.3).  All of them belong to *one* of the two clusters
    (``owner``), per feature F3.
    """

    owner: NodeId
    peer: NodeId
    gateway: NodeId
    backups: Tuple[NodeId, ...] = ()

    @property
    def all_forwarders(self) -> Tuple[NodeId, ...]:
        """GW first, then BGWs in rank order."""
        return (self.gateway, *self.backups)

    @property
    def backup_count(self) -> int:
        """``n`` in the paper's standby-timeout formulas."""
        return len(self.backups)


@dataclass(frozen=True)
class Cluster:
    """One cluster: CH, members (CH included), ranked deputies."""

    head: NodeId
    members: FrozenSet[NodeId]
    deputies: Tuple[NodeId, ...] = ()

    def __post_init__(self) -> None:
        if self.head not in self.members:
            raise ClusteringError(
                f"clusterhead {self.head} must be in its own member set"
            )
        for deputy in self.deputies:
            if deputy == self.head or deputy not in self.members:
                raise ClusteringError(
                    f"deputy {deputy} of cluster {self.head} must be a "
                    "non-head member"
                )
        if len(set(self.deputies)) != len(self.deputies):
            raise ClusteringError(f"duplicate deputies in cluster {self.head}")

    @property
    def size(self) -> int:
        """Total population ``N`` of the cluster (CH included)."""
        return len(self.members)

    @property
    def ordinary_members(self) -> FrozenSet[NodeId]:
        """Members other than the CH."""
        return self.members - {self.head}

    @property
    def primary_deputy(self) -> Optional[NodeId]:
        """The highest-ranked DCH (the CH-failure detection authority)."""
        return self.deputies[0] if self.deputies else None


@dataclass(frozen=True)
class LocalClusterView:
    """What one node knows about its own cluster and boundary duties."""

    node_id: NodeId
    role: NodeRole
    head: NodeId
    members: FrozenSet[NodeId]
    deputies: Tuple[NodeId, ...]
    #: For GW/BGW nodes: peer CH -> (my rank, boundary backup count n).
    #: Rank 0 is the primary gateway; ranks 1..n are BGWs.
    gateway_duties: Mapping[NodeId, Tuple[int, int]] = field(default_factory=dict)
    #: For CH nodes: peer CH -> number of forwarders (GW + BGWs) on the
    #: outgoing boundary.  Drives the origin's implicit-ack watch (Fig. 3).
    head_boundaries: Mapping[NodeId, int] = field(default_factory=dict)

    @property
    def is_head(self) -> bool:
        return self.node_id == self.head

    @property
    def is_primary_deputy(self) -> bool:
        return bool(self.deputies) and self.deputies[0] == self.node_id


class ClusterLayout:
    """The network-wide cluster structure, with invariant validation."""

    def __init__(
        self,
        clusters: Iterable[Cluster],
        boundaries: Iterable[Boundary] = (),
        graph: Optional[UnitDiskGraph] = None,
        unclustered: Iterable[NodeId] = (),
    ) -> None:
        self.clusters: Dict[NodeId, Cluster] = {}
        for cluster in clusters:
            if cluster.head in self.clusters:
                raise ClusteringError(f"duplicate cluster head {cluster.head}")
            self.clusters[cluster.head] = cluster
        self.unclustered: FrozenSet[NodeId] = frozenset(unclustered)

        self._affiliation: Dict[NodeId, NodeId] = {}
        for cluster in self.clusters.values():
            for member in cluster.members:
                if member in self._affiliation:
                    raise ClusteringError(
                        f"node {member} is affiliated with two clusters "
                        f"({self._affiliation[member]} and {cluster.head}); "
                        "feature F3 requires exactly one"
                    )
                self._affiliation[member] = cluster.head
        overlap = self.unclustered & set(self._affiliation)
        if overlap:
            raise ClusteringError(
                f"nodes both clustered and unclustered: {sorted(overlap)}"
            )

        self.boundaries: Dict[Tuple[NodeId, NodeId], Boundary] = {}
        for boundary in boundaries:
            self._add_boundary(boundary)

        if graph is not None:
            self._validate_against_graph(graph)

    # ------------------------------------------------------------------
    def _add_boundary(self, boundary: Boundary) -> None:
        if boundary.owner not in self.clusters:
            raise ClusteringError(f"boundary owner {boundary.owner} is not a CH")
        if boundary.peer not in self.clusters:
            raise ClusteringError(f"boundary peer {boundary.peer} is not a CH")
        owner_cluster = self.clusters[boundary.owner]
        for forwarder in boundary.all_forwarders:
            if forwarder not in owner_cluster.members:
                raise ClusteringError(
                    f"forwarder {forwarder} on boundary "
                    f"{boundary.owner}->{boundary.peer} is not a member of "
                    f"its owning cluster {boundary.owner}"
                )
        key = (boundary.owner, boundary.peer)
        if key in self.boundaries:
            raise ClusteringError(f"duplicate boundary {key}")
        self.boundaries[key] = boundary

    def _validate_against_graph(self, graph: UnitDiskGraph) -> None:
        for cluster in self.clusters.values():
            for member in cluster.ordinary_members:
                if not graph.are_neighbors(cluster.head, member):
                    raise ClusteringError(
                        f"member {member} is not a one-hop neighbor of its "
                        f"CH {cluster.head}; clusters must map to unit disks"
                    )
        for (owner, peer), boundary in self.boundaries.items():
            for forwarder in boundary.all_forwarders:
                if not graph.are_neighbors(forwarder, peer):
                    raise ClusteringError(
                        f"forwarder {forwarder} on boundary {owner}->{peer} "
                        f"cannot reach the peer CH {peer}"
                    )
        covered = set(self._affiliation) | set(self.unclustered)
        missing = set(graph.nodes()) - covered
        if missing:
            raise ClusteringError(
                f"layout does not account for nodes {sorted(missing)}"
            )

    # ------------------------------------------------------------------
    @property
    def cluster_count(self) -> int:
        return len(self.clusters)

    @property
    def heads(self) -> Tuple[NodeId, ...]:
        """All clusterhead NIDs, sorted."""
        return tuple(sorted(self.clusters))

    def cluster_of(self, node_id: NodeId) -> Cluster:
        """The cluster a node is affiliated with."""
        try:
            return self.clusters[self._affiliation[node_id]]
        except KeyError:
            raise ClusteringError(f"node {node_id} is not clustered") from None

    def is_clustered(self, node_id: NodeId) -> bool:
        return node_id in self._affiliation

    def role_of(self, node_id: NodeId) -> NodeRole:
        """The role a node plays in the layout.

        A node with several roles reports the most specific one in the
        order CH > GW > BGW > DCH > OM (a deputy that is also a gateway is
        reported as a gateway; its deputy rank is still visible in the
        cluster's ``deputies`` tuple).
        """
        if node_id in self.unclustered:
            return NodeRole.UNMARKED
        cluster = self.cluster_of(node_id)
        if node_id == cluster.head:
            return NodeRole.CH
        ranks = self._gateway_ranks(node_id, cluster.head)
        if any(rank == 0 for rank, _n in ranks.values()):
            return NodeRole.GW
        if ranks:
            return NodeRole.BGW
        if node_id in cluster.deputies:
            return NodeRole.DCH
        return NodeRole.OM

    def _gateway_ranks(
        self, node_id: NodeId, head: NodeId
    ) -> Dict[NodeId, Tuple[int, int]]:
        duties: Dict[NodeId, Tuple[int, int]] = {}
        for (owner, peer), boundary in self.boundaries.items():
            if owner != head:
                continue
            forwarders = boundary.all_forwarders
            if node_id in forwarders:
                duties[peer] = (forwarders.index(node_id), boundary.backup_count)
        return duties

    def local_view(self, node_id: NodeId) -> LocalClusterView:
        """The per-node knowledge slice the FDS protocol is given."""
        if node_id in self.unclustered:
            return LocalClusterView(
                node_id=node_id,
                role=NodeRole.UNMARKED,
                head=node_id,
                members=frozenset({node_id}),
                deputies=(),
            )
        cluster = self.cluster_of(node_id)
        head_boundaries: Dict[NodeId, int] = {}
        if node_id == cluster.head:
            for (owner, peer), boundary in self.boundaries.items():
                if owner == cluster.head:
                    head_boundaries[peer] = len(boundary.all_forwarders)
        return LocalClusterView(
            node_id=node_id,
            role=self.role_of(node_id),
            head=cluster.head,
            members=cluster.members,
            deputies=cluster.deputies,
            gateway_duties=self._gateway_ranks(node_id, cluster.head),
            head_boundaries=head_boundaries,
        )

    def neighboring_heads(self, head: NodeId) -> Tuple[NodeId, ...]:
        """CHs this cluster has an outgoing boundary to."""
        return tuple(
            sorted(peer for (owner, peer) in self.boundaries if owner == head)
        )

    def clustered_nodes(self) -> Tuple[NodeId, ...]:
        """All nodes affiliated with some cluster, sorted."""
        return tuple(sorted(self._affiliation))

    def summary(self) -> Dict[str, float]:
        """Structural statistics, for reports and sanity checks."""
        sizes = [c.size for c in self.clusters.values()]
        return {
            "clusters": float(len(self.clusters)),
            "clustered_nodes": float(len(self._affiliation)),
            "unclustered_nodes": float(len(self.unclustered)),
            "min_cluster_size": float(min(sizes)) if sizes else 0.0,
            "mean_cluster_size": float(sum(sizes) / len(sizes)) if sizes else 0.0,
            "max_cluster_size": float(max(sizes)) if sizes else 0.0,
            "boundaries": float(len(self.boundaries)),
            "mean_backups_per_boundary": (
                float(
                    sum(b.backup_count for b in self.boundaries.values())
                    / len(self.boundaries)
                )
                if self.boundaries
                else 0.0
            ),
        }
