"""Copy-on-write fault overlays over a :class:`~repro.network.topology.Topology`.

A :class:`FaultOverlayTopology` presents the base infrastructure *as if*
a resolved :class:`~repro.resilience.faults.FaultPlan` had happened:
crashed components and severed links are filtered out of every structural
read, degrade faults override MTBF/MTTR property reads, and nothing else
changes — the underlying object model is shared, never copied, and never
mutated, so the nominal view stays valid (and its compiled-engine caches
stay warm) while any number of fault scenarios are analyzed against the
same model.

The overlay *is a* ``Topology``: the compiled path engine, the pipeline
and every analysis accept it unchanged.  Its :meth:`fingerprint` hashes
``(base fingerprint, plan fingerprint)``, so

* equal plans over the same base compile once and share memoized
  PathSets (injecting the same fault twice is a cache hit);
* different plans — or a mutated base model — invalidate implicitly;
* the nominal topology's fingerprint is untouched, so cached nominal
  results are reused after a fault campaign ends.

Overlays nest: applying a plan to an overlay composes the filters, which
is how k-fault campaigns layer an extra fault over a standing degraded
state.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Set, Tuple

from repro.dependability.cutsets import link_component_name
from repro.errors import FaultPlanError, TopologyError
from repro.network.topology import Topology
from repro.resilience.faults import FaultPlan
from repro.uml.objects import InstanceSpecification, Link

__all__ = ["FaultOverlayTopology"]


def link_names(topology: Topology) -> Set[str]:
    """Canonical ``a|b`` names of every link of *topology*."""
    return {link_component_name(a, b) for a, b in topology.edges()}


def check_plan(base: Topology, plan: FaultPlan, links: Set[str]) -> None:
    """Raise :class:`FaultPlanError` unless every fault target of *plan*
    exists in *base*; *links* is ``link_names(base)``, computed once by a
    caller that checks many plans."""
    problems: List[str] = []
    for fault in plan:
        if fault.kind == "cut":
            if fault.target not in links:
                problems.append(f"cut: no link {fault.target!r}")
        elif fault.kind == "degrade" and "|" in fault.target:
            if fault.target not in links:
                problems.append(f"degrade: no link {fault.target!r}")
        elif not base.has_node(fault.target):
            problems.append(f"{fault.kind}: no component {fault.target!r}")
    if problems:
        raise FaultPlanError(
            f"fault plan does not match topology {base.name!r}: "
            f"{'; '.join(problems)}"
        )


class FaultOverlayTopology(Topology):
    """A topology view with a resolved fault plan applied on read."""

    def __init__(self, base: Topology, plan: FaultPlan):
        if not plan.is_resolved:
            raise FaultPlanError(
                "overlay requires a resolved plan (no flapping faults); "
                "resolve with FaultPlan.at(tick) first"
            )
        super().__init__(base.model)
        self.base = base
        self.plan = plan
        self._down: Set[str] = set(plan.downed_nodes())
        self._cut: Set[str] = set(plan.cut_links())
        self._overrides = plan.overrides()
        check_plan(base, plan, link_names(base))

    # -- size and membership ----------------------------------------------

    def node_count(self) -> int:
        return len(self.nodes())

    def link_count(self) -> int:
        return len(self.edges())

    def nodes(self) -> List[str]:
        down = self._down
        return [name for name in self.base.nodes() if name not in down]

    def has_node(self, name: str) -> bool:
        return name not in self._down and self.base.has_node(name)

    # -- structure -----------------------------------------------------------

    def _alive_edge(self, a: str, b: str) -> bool:
        return (
            a not in self._down
            and b not in self._down
            and link_component_name(a, b) not in self._cut
        )

    def neighbors(self, name: str) -> List[str]:
        if not self.has_node(name):
            raise TopologyError(f"unknown node {name!r}")
        return [
            other
            for other in self.base.neighbors(name)
            if self._alive_edge(name, other)
        ]

    def degree(self, name: str) -> int:
        return len(self.neighbors(name))

    def edges(self) -> List[Tuple[str, str]]:
        return [
            (a, b) for a, b in self.base.edges() if self._alive_edge(a, b)
        ]

    def link_between(self, a: str, b: str) -> Link:
        if not self._alive_edge(a, b):
            raise TopologyError(f"no link between {a!r} and {b!r}")
        return self.base.link_between(a, b)

    def instance(self, name: str) -> InstanceSpecification:
        if not self.has_node(name):
            raise TopologyError(f"unknown node {name!r}")
        return self.base.instance(name)

    def nodes_of_kind(self, stereotype_name: str) -> List[str]:
        down = self._down
        return [
            name
            for name in self.base.nodes_of_kind(stereotype_name)
            if name not in down
        ]

    def is_connected(self) -> bool:
        nodes = self.nodes()
        if not nodes:
            return False
        return len(self.reachable_from(nodes[0])) == len(nodes)

    def reachable_from(self, start: str) -> Set[str]:
        """Names reachable from *start* through the surviving structure."""
        if not self.has_node(start):
            raise TopologyError(f"unknown node {start!r}")
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbor in self.neighbors(node):
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        return seen

    def cycle_rank(self) -> int:
        components = 0
        remaining = set(self.nodes())
        while remaining:
            components += 1
            remaining -= self.reachable_from(next(iter(remaining)))
        return self.link_count() - self.node_count() + components

    # -- properties -------------------------------------------------------------

    def node_property(self, name: str, attribute: str) -> Any:
        override = self._overrides.get(name)
        if override is not None and attribute in override:
            self.instance(name)  # membership check (crashed nodes are gone)
            return override[attribute]
        return super().node_property(name, attribute)

    def link_property(self, a: str, b: str, attribute: str) -> Any:
        override = self._overrides.get(link_component_name(a, b))
        if override is not None and attribute in override:
            self.link_between(a, b)  # membership check (cut links are gone)
            return override[attribute]
        if not self._alive_edge(a, b):
            raise TopologyError(f"no link between {a!r} and {b!r}")
        return self.base.link_property(a, b, attribute)

    def availability_overrides(self) -> Dict[str, Dict[str, float]]:
        """Per-component MTBF/MTTR overrides, for availability tables."""
        return {name: dict(vals) for name, vals in self._overrides.items()}

    # -- identity and conversions ----------------------------------------------

    def fingerprint(self) -> str:
        """Hash of ``(base fingerprint, plan fingerprint)``.

        Recomputed on every call (like the base), so a mutation of the
        shared object model invalidates overlay caches too.
        """
        digest = hashlib.blake2b(digest_size=16)
        digest.update(b"overlay\x00")
        digest.update(self.base.fingerprint().encode("ascii"))
        digest.update(b"\x00")
        digest.update(self.plan.fingerprint().encode("ascii"))
        return digest.hexdigest()

    def to_networkx(self, *, with_properties: bool = False):
        graph = self.base.to_networkx(with_properties=with_properties)
        graph.remove_nodes_from(
            [n for n in list(graph.nodes) if n in self._down]
        )
        graph.remove_edges_from(
            [
                (a, b)
                for a, b in list(graph.edges)
                if link_component_name(a, b) in self._cut
            ]
        )
        return graph
