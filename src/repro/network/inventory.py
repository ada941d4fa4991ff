"""Infrastructure inventory and availability-budget reporting.

The methodology's inputs are infrastructure models maintained by
operators; this module provides the summary views that make a model
reviewable before analysis: per-device-kind inventories, availability
budgets (which component class contributes how much expected downtime),
and structural health indicators (articulation points — nodes whose loss
splits the network, the topology-level single points of failure).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from repro.dependability.availability import (
    downtime_minutes_per_year,
    instance_availability,
)
from repro.network.topology import Topology

__all__ = ["KindSummary", "inventory", "availability_budget", "articulation_points"]


@dataclass(frozen=True)
class KindSummary:
    """Aggregate of one device class in a deployed model."""

    class_name: str
    kind: str
    count: int
    mtbf: float
    mttr: float
    availability: float
    expected_downtime_minutes_per_year: float


_KINDS = ("Router", "Switch", "Printer", "Client", "Server")


def _kind_of(classifier) -> str:
    for kind in _KINDS:
        if classifier.has_stereotype(kind):
            return kind
    return "Other"


def inventory(topology: Topology) -> List[KindSummary]:
    """Per-class inventory of a deployed infrastructure, sorted by the
    total expected annual downtime the class contributes (count × per-unit
    downtime) — the maintenance-priority view."""
    groups: Dict[str, List] = {}
    for name in topology.nodes():
        instance = topology.instance(name)
        groups.setdefault(instance.classifier.name, []).append(instance)
    summaries: List[KindSummary] = []
    for class_name, instances in groups.items():
        resolved = instance_availability(instances[0])
        per_unit_downtime = downtime_minutes_per_year(resolved.availability)
        summaries.append(
            KindSummary(
                class_name=class_name,
                kind=_kind_of(instances[0].classifier),
                count=len(instances),
                mtbf=resolved.mtbf,
                mttr=resolved.mttr,
                availability=resolved.availability,
                expected_downtime_minutes_per_year=per_unit_downtime,
            )
        )
    summaries.sort(
        key=lambda s: -s.count * s.expected_downtime_minutes_per_year
    )
    return summaries


def availability_budget(topology: Topology) -> Dict[str, float]:
    """Fraction of total expected component downtime per device class.

    Highlights where the unavailability actually lives — in the case study
    ~99% of expected component downtime sits in the clients (Comp), which
    is why the paper's user-perceived view differs so strongly from a
    core-centric one.
    """
    downtimes: Dict[str, float] = {}
    for summary in inventory(topology):
        downtimes[summary.class_name] = (
            summary.count * summary.expected_downtime_minutes_per_year
        )
    total = sum(downtimes.values())
    if total <= 0.0:
        return {name: 0.0 for name in downtimes}
    return {name: value / total for name, value in downtimes.items()}


def articulation_points(topology: Topology) -> Set[str]:
    """Nodes whose removal disconnects the network.

    These are topology-level single points of failure for *some* pair;
    whether they matter for a given user is exactly what the UPSIM
    analysis answers per pair.  They are the engine's cut vertices of
    the compiled topology.
    """
    from repro.core.engine import compile_topology  # import cycle

    return set(compile_topology(topology).articulation_points())
