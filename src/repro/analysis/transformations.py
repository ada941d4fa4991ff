"""Transformation of a UPSIM into dependability models (ref [20]).

Section VII: "Such analysis can be performed by transforming the UPSIM to
a reliability block diagram (RBD) or fault-tree (FT), in which entities
correspond to components of the UPSIM.  The availability for individual
components can be calculated using the component attributes MTBF and
MTTR, as seen in Formula 1."

This module provides that complementary transformation:

* :func:`component_availabilities` — Formula (1) over every UPSIM entity
  (instances *and* links, both carry the «Component» attributes);
* :func:`pair_rbd` — the parallel-of-series RBD of one atomic service's
  discovered paths (every redundant path a series branch);
* :func:`pair_fault_tree` — its dual fault tree;
* :func:`service_rbd` — the whole composite service: series over the
  distinct requester/provider pairs of their path-redundancy structures
  (every atomic service must execute, Section V-A2).

The RBDs contain repeated blocks wherever paths share components, so
evaluation must use factoring (the default ``method="auto"`` does).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.core.pathdiscovery import PathSet
from repro.core.upsim import UPSIM
from repro.dependability.availability import instance_availability, link_availability
from repro.dependability.cutsets import link_component_name, path_components
from repro.dependability.faulttree import FaultTreeNode, from_rbd
from repro.dependability.rbd import Block, Parallel, RBDNode, Series, simplify
from repro.errors import AnalysisError
from repro.network.topology import Topology
from repro.uml.objects import ObjectModel

__all__ = [
    "component_availabilities",
    "pair_rbd",
    "pair_fault_tree",
    "service_rbd",
    "pair_path_sets",
    "service_path_set_groups",
    "service_availability_kernel",
]


def component_availabilities(
    model: ObjectModel | Topology,
    *,
    formula: str = "paper",
    include_links: bool = True,
) -> Dict[str, float]:
    """Formula (1) for every instance (and link) of a model.

    Link availabilities are keyed by :func:`link_component_name` of their
    endpoints, matching the component names produced by
    :func:`repro.dependability.cutsets.path_components`.

    Formula 1 resolves once per signature within the call: once per
    classifier for instances without slots (an instance with slots may
    override the class values, so it resolves on its own) and once per
    association for links.  Nothing is kept across calls, so a
    ``StereotypeApplication.set_value`` always shows in the next table.
    """
    object_model = model.model if isinstance(model, Topology) else model
    table: Dict[str, float] = {}
    per_class: Dict[object, float] = {}
    for instance in object_model.instances:
        if instance.slots:
            value = instance_availability(instance, formula=formula).availability
        else:
            value = per_class.get(instance.classifier)
            if value is None:
                value = per_class[instance.classifier] = instance_availability(
                    instance, formula=formula
                ).availability
        table[instance.name] = value
    if include_links:
        per_association: Dict[object, float] = {}
        for link in object_model.links:
            value = per_association.get(link.association)
            if value is None:
                value = per_association[link.association] = link_availability(
                    link, formula=formula
                ).availability
            table[link_component_name(link.end1.name, link.end2.name)] = value
    return table


def pair_path_sets(
    path_set: PathSet, *, include_links: bool = True
) -> List[FrozenSet[str]]:
    """Minimal component sets of the pair's discovered paths."""
    if not path_set:
        raise AnalysisError(
            f"pair ({path_set.requester!r}, {path_set.provider!r}) has no paths"
        )
    return [
        path_components(path, include_links=include_links)
        for path in path_set.paths
    ]


def pair_rbd(path_set: PathSet, *, include_links: bool = True) -> RBDNode:
    """The RBD of one atomic service: redundant paths in parallel, each a
    series of its components.

    Components shared between paths appear as repeated blocks; evaluating
    with ``method="auto"`` (factoring) keeps the result exact.
    """
    if not path_set:
        raise AnalysisError(
            f"pair ({path_set.requester!r}, {path_set.provider!r}) has no paths"
        )
    branches: List[RBDNode] = []
    for path in path_set.paths:
        blocks: List[RBDNode] = []
        for index, node in enumerate(path):
            blocks.append(Block(node))
            if include_links and index + 1 < len(path):
                blocks.append(Block(link_component_name(node, path[index + 1])))
        branches.append(Series(blocks) if len(blocks) > 1 else blocks[0])
    structure = Parallel(branches) if len(branches) > 1 else branches[0]
    return simplify(structure)


def pair_fault_tree(path_set: PathSet, *, include_links: bool = True) -> FaultTreeNode:
    """The dual fault tree of :func:`pair_rbd`."""
    return from_rbd(pair_rbd(path_set, include_links=include_links))


def _distinct_pairs(upsim: UPSIM) -> List[Tuple[Tuple[str, str], PathSet]]:
    """Distinct unordered (requester, provider) pairs of the UPSIM.

    Table I repeats pairs (``login_to_printer`` and ``select_documents``
    share (p2, printS)); repeated pairs describe the *same* connectivity
    event — their availability must be counted once, not multiplied.
    """
    seen: Dict[Tuple[str, str], PathSet] = {}
    for path_set in upsim.path_sets.values():
        key = tuple(sorted((path_set.requester, path_set.provider)))
        if key not in seen:
            seen[key] = path_set
    return list(seen.items())


def service_rbd(upsim: UPSIM, *, include_links: bool = True) -> RBDNode:
    """The composite-service RBD: series over distinct pairs.

    "It is assumed that each atomic service is being executed — in series
    or in parallel" (Section V-A2): all atomic services are required, so
    pair structures combine in series regardless of activity-diagram
    parallelism (a parallel branch is still mandatory).  Identical pairs
    are deduplicated — see :func:`_distinct_pairs`.
    """
    branches = [
        pair_rbd(path_set, include_links=include_links)
        for _, path_set in _distinct_pairs(upsim)
    ]
    if not branches:
        raise AnalysisError("UPSIM has no path sets")
    structure = Series(branches) if len(branches) > 1 else branches[0]
    return simplify(structure)


def service_path_set_groups(
    upsim: UPSIM, *, include_links: bool = True
) -> List[List[FrozenSet[str]]]:
    """Per distinct pair, the component path sets — the input shape of the
    exact evaluator (:func:`repro.analysis.exact.system_availability`)."""
    return [
        pair_path_sets(path_set, include_links=include_links)
        for _, path_set in _distinct_pairs(upsim)
    ]


def service_availability_kernel(upsim: UPSIM, *, include_links: bool = True):
    """The compiled BDD kernel of the whole service structure.

    Groups follow :func:`service_path_set_groups` order (distinct pairs),
    so ``kernel.group_roots[i]`` is the i-th distinct pair's function.
    The variable order comes from the engine's CSR ids
    (:func:`repro.dependability.bdd.order_from_topology`); the compile
    sifts away from that seed order only when the diagram blows up
    relative to its input.  The kernel compiles in the calling
    process and is memoized by structure fingerprint — a campaign
    re-evaluating the same UPSIM under hundreds of fault combinations
    compiles once.
    """
    from repro.dependability.bdd import compile_structure, order_from_topology

    groups = service_path_set_groups(upsim, include_links=include_links)
    components = {c for group in groups for path in group for c in path}
    order = order_from_topology(Topology(upsim.model), components)
    return compile_structure(groups, order=order)
