"""Graph view of a deployed ICT infrastructure.

Path discovery "sees the infrastructure as a graph" (Section VI-G).
:class:`Topology` wraps a :class:`repro.uml.objects.ObjectModel` with the
graph-theoretic interface the algorithms need — neighbor iteration,
networkx export, structural statistics — while keeping the UML model as
the single source of truth for component properties.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    import networkx as nx

    from repro.core.engine import CompiledTopology

from repro.errors import TopologyError
from repro.uml.objects import InstanceSpecification, Link, ObjectModel

__all__ = ["Topology"]


class Topology:
    """A read-mostly graph view over an infrastructure object model.

    Node identity is the instance name; edge identity is the (unordered)
    pair of instance names.  The underlying object model may keep evolving
    (dynamic environments, Section V-A3); the view reads through, so no
    refresh step is needed.
    """

    def __init__(self, object_model: ObjectModel):
        self.model = object_model
        #: ``(model, revision, digest)`` of the last :meth:`fingerprint`
        self._fingerprint: Optional[Tuple[ObjectModel, int, str]] = None

    # -- size and membership ----------------------------------------------

    @property
    def name(self) -> str:
        return self.model.name

    def node_count(self) -> int:
        return len(self.model)

    def link_count(self) -> int:
        return len(self.model.links)

    def nodes(self) -> List[str]:
        return self.model.instance_names()

    def has_node(self, name: str) -> bool:
        return self.model.has_instance(name)

    def __contains__(self, name: str) -> bool:
        return self.has_node(name)

    def __len__(self) -> int:
        return self.node_count()

    # -- structure -----------------------------------------------------------

    def neighbors(self, name: str) -> List[str]:
        if not self.model.has_instance(name):
            raise TopologyError(f"unknown node {name!r}")
        return [inst.name for inst in self.model.neighbors(name)]

    def degree(self, name: str) -> int:
        if not self.model.has_instance(name):
            raise TopologyError(f"unknown node {name!r}")
        return self.model.degree(name)

    def edges(self) -> List[Tuple[str, str]]:
        return [(link.end1.name, link.end2.name) for link in self.model.links]

    def link_between(self, a: str, b: str) -> Link:
        link = self.model.find_link(a, b)
        if link is None:
            raise TopologyError(f"no link between {a!r} and {b!r}")
        return link

    def instance(self, name: str) -> InstanceSpecification:
        if not self.model.has_instance(name):
            raise TopologyError(f"unknown node {name!r}")
        return self.model.get_instance(name)

    def is_connected(self) -> bool:
        return self.model.is_connected()

    # -- properties -------------------------------------------------------------

    def node_property(self, name: str, attribute: str) -> Any:
        """Property value of a node, inherited from its class (Section V-E)."""
        return self.instance(name).property_value(attribute)

    def link_property(self, a: str, b: str, attribute: str) -> Any:
        link = self.link_between(a, b)
        values = link.property_dict()
        if attribute not in values:
            raise TopologyError(
                f"link {a!r}--{b!r} has no property {attribute!r}"
            )
        return values[attribute]

    def nodes_of_kind(self, stereotype_name: str) -> List[str]:
        """Nodes whose class carries the given network-profile stereotype
        (e.g. ``"Server"``, ``"Printer"``, ``"Client"``)."""
        return [
            inst.name
            for inst in self.model.instances
            if inst.classifier.has_stereotype(stereotype_name)
        ]

    # -- identity and compilation -------------------------------------------------

    def fingerprint(self) -> str:
        """Content hash of the graph structure (nodes + links, in model
        order).

        Any mutation of the underlying object model — adding/removing an
        instance or a link, or reordering them — changes the fingerprint.
        The path engine keys every compiled artifact and memoized result
        on it, so stale caches can never be served for a mutated model.
        Every :class:`ObjectModel` mutator bumps ``model.revision``, so
        the digest is computed once per model revision and served from
        this view's cache until the next mutation.
        """
        model = self.model
        cached = self._fingerprint
        if (
            cached is not None
            and cached[0] is model
            and cached[1] == model.revision
        ):
            return cached[2]
        digest = hashlib.blake2b(digest_size=16)
        for name in model.instance_names():
            digest.update(b"\x00n")
            digest.update(name.encode("utf-8"))
        for a, b in self.edges():
            digest.update(b"\x00l")
            digest.update(a.encode("utf-8"))
            digest.update(b"\x01")
            digest.update(b.encode("utf-8"))
        self._fingerprint = (model, model.revision, digest.hexdigest())
        return self._fingerprint[2]

    def compiled(self) -> "CompiledTopology":
        """The compiled integer-ID CSR view used by the path engine.

        Reuses the cached compilation while :meth:`fingerprint` — cached
        per model revision — is unchanged; recompiles transparently after
        a model mutation.
        """
        from repro.core.engine import compile_topology

        return compile_topology(self)

    def with_faults(self, plan, *, tick: Optional[int] = None) -> "Topology":
        """Overlay a :class:`~repro.resilience.faults.FaultPlan` on this view.

        Returns a copy-on-write
        :class:`~repro.resilience.overlay.FaultOverlayTopology`: the
        shared object model is untouched, this view keeps answering
        nominally, and the overlay answers as if the plan's faults had
        happened.  *plan* also accepts spec strings (``"crash:c1"``) or
        an iterable of them; flapping faults need a *tick* to resolve
        their seeded schedule.
        """
        from repro.resilience.faults import FaultPlan

        if not isinstance(plan, FaultPlan):
            plan = FaultPlan.parse(plan)
        return plan.apply(self, tick=tick)

    # -- conversions --------------------------------------------------------------

    def to_networkx(self, *, with_properties: bool = False) -> nx.Graph:
        """Export an undirected networkx graph.

        With ``with_properties=True``, node/edge attribute dicts carry the
        full inherited property dictionaries — convenient for third-party
        analysis, at the cost of materializing every property.
        """
        import networkx as nx

        graph = nx.Graph(name=self.model.name)
        for instance in self.model.instances:
            if with_properties:
                graph.add_node(
                    instance.name,
                    classifier=instance.classifier.name,
                    **instance.property_dict(),
                )
            else:
                graph.add_node(instance.name, classifier=instance.classifier.name)
        for link in self.model.links:
            if with_properties:
                graph.add_edge(link.end1.name, link.end2.name, **link.property_dict())
            else:
                graph.add_edge(link.end1.name, link.end2.name)
        return graph

    # -- statistics ---------------------------------------------------------------

    def degree_histogram(self) -> Dict[int, int]:
        histogram: Dict[int, int] = {}
        for name in self.nodes():
            d = self.degree(name)
            histogram[d] = histogram.get(d, 0) + 1
        return dict(sorted(histogram.items()))

    def cycle_rank(self) -> int:
        """Number of independent cycles (E - V + C).

        "Real networks usually contain few loops, while most clients are
        located in tree-like structures" (Section V-D); the cycle rank
        quantifies exactly how few, and drives the path-count analysis in
        the scalability benchmarks.
        """
        components = len(self.model.connected_components())
        return self.link_count() - self.node_count() + components

    def summary(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "nodes": self.node_count(),
            "links": self.link_count(),
            "connected": self.is_connected(),
            "cycle_rank": self.cycle_rank(),
            "degree_histogram": self.degree_histogram(),
        }
