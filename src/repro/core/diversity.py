"""Path-diversity metrics for a requester/provider pair.

The UPSIM keeps "all redundant paths between requester and provider"; how
much that redundancy is actually worth depends on *disjointness* — two
paths sharing a node still die together when that node fails.  This
module quantifies the diversity of a pair:

* :func:`node_connectivity` / :func:`edge_connectivity` — the number of
  node-/edge-disjoint paths (Menger), i.e. how many independent failures
  the pair survives;
* :func:`shared_components` — the components on *every* path: exactly the
  order-1 cut sets, the single points of failure;
* :func:`diversity_report` — the combined view used by the examples.

All metrics operate on any :class:`~repro.network.topology.Topology`, so
they apply equally to the full infrastructure and to a generated UPSIM.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Set, Tuple

from repro.core.pathdiscovery import PathSet, discover_paths
from repro.errors import PathDiscoveryError
from repro.network.topology import Topology

__all__ = [
    "node_connectivity",
    "edge_connectivity",
    "shared_components",
    "DiversityReport",
    "diversity_report",
]


def _check(topology: Topology, requester: str, provider: str) -> None:
    for role, node in (("requester", requester), ("provider", provider)):
        if not topology.has_node(node):
            raise PathDiscoveryError(
                f"{role} {node!r} is not a component of topology "
                f"{topology.name!r}"
            )
    if requester == provider:
        raise PathDiscoveryError(
            "diversity metrics need two distinct endpoints"
        )


def node_connectivity(topology: Topology, requester: str, provider: str) -> int:
    """Maximum number of internally node-disjoint requester→provider paths.

    By Menger's theorem this equals the minimum number of *intermediate*
    node failures that disconnect the pair.  0 means disconnected.
    """
    import networkx as nx

    _check(topology, requester, provider)
    graph = topology.to_networkx()
    if not nx.has_path(graph, requester, provider):
        return 0
    if graph.has_edge(requester, provider):
        # direct link: connectivity via the remaining graph + 1
        reduced = graph.copy()
        reduced.remove_edge(requester, provider)
        if not nx.has_path(reduced, requester, provider):
            return 1
        return 1 + nx.node_connectivity(reduced, requester, provider)
    return nx.node_connectivity(graph, requester, provider)


def edge_connectivity(topology: Topology, requester: str, provider: str) -> int:
    """Maximum number of edge-disjoint paths (minimum link cut)."""
    import networkx as nx

    _check(topology, requester, provider)
    graph = topology.to_networkx()
    if not nx.has_path(graph, requester, provider):
        return 0
    return nx.edge_connectivity(graph, requester, provider)


def shared_components(
    path_set: PathSet, *, include_endpoints: bool = False
) -> Set[str]:
    """Nodes present on every discovered path — the single points of
    failure of the pair (endpoints excluded by default: they are trivially
    on every path)."""
    if not path_set:
        raise PathDiscoveryError(
            f"pair ({path_set.requester!r}, {path_set.provider!r}) has no paths"
        )
    shared: Set[str] = set(path_set.paths[0])
    for path in path_set.paths[1:]:
        shared &= set(path)
    if not include_endpoints:
        shared -= {path_set.requester, path_set.provider}
    return shared


@dataclass(frozen=True)
class DiversityReport:
    """Redundancy profile of one requester/provider pair."""

    requester: str
    provider: str
    path_count: int
    node_disjoint_paths: int
    edge_disjoint_paths: int
    single_points_of_failure: Tuple[str, ...]
    shortest_hops: int
    longest_hops: int

    @property
    def survives_any_single_node_failure(self) -> bool:
        """True iff no single intermediate-node failure disconnects the pair.

        That holds with two internally node-disjoint paths (Menger) or
        with a direct link, which no intermediate failure can cut.
        """
        return self.node_disjoint_paths >= 2 or self.shortest_hops == 1

    @property
    def redundancy_ratio(self) -> float:
        """Disjoint paths per discovered path: 1.0 = fully diverse."""
        if self.path_count == 0:
            return 0.0
        return self.node_disjoint_paths / self.path_count


def diversity_report(
    topology: Topology,
    requester: str,
    provider: str,
    *,
    max_paths: Optional[int] = None,
) -> DiversityReport:
    """Compute the full diversity profile of a pair."""
    path_set = discover_paths(topology, requester, provider, max_paths=max_paths)
    if not path_set:
        raise PathDiscoveryError(
            f"no path between {requester!r} and {provider!r}"
        )
    return DiversityReport(
        requester=requester,
        provider=provider,
        path_count=path_set.count,
        node_disjoint_paths=node_connectivity(topology, requester, provider),
        edge_disjoint_paths=edge_connectivity(topology, requester, provider),
        single_points_of_failure=tuple(sorted(shared_components(path_set))),
        shortest_hops=len(path_set.shortest()) - 1,
        longest_hops=len(path_set.longest()) - 1,
    )
