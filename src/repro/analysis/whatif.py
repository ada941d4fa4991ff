"""What-if failure analysis on a UPSIM (the §VII troubleshooting use-case).

"The generated UPSIM can be used to visualize the set of ICT components
and their connections relevant for a particular pair requester and
provider.  This alone is very helpful in case of service problems, as it
provides a quick overview on which ICT components can be the cause."

:func:`failure_impact` answers the operational question directly: *if
component X fails, what happens to this service invocation?* — which
atomic services lose connectivity entirely, which merely lose redundancy,
and what the degraded availability is.  :func:`impact_table` runs it for
every UPSIM component and ranks by severity, producing the triage list a
service operator would start from.

Every faulted or churned state is the nominal structure with a down set
forced to 0, because taking nodes or links away never creates a path.
:class:`Nominal` is that one conditioning primitive: what-if, the
resilience campaign (:func:`repro.resilience.run_campaign`) and the live
churn evaluator (:class:`repro.core.LiveEvaluator`) all read surviving
path counts and conditioned availabilities off it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.analysis.transformations import component_availabilities
from repro.core.engine import CompiledTopology, compile_topology
from repro.core.pathdiscovery import PathSet
from repro.core.upsim import UPSIM
from repro.dependability.bdd import compile_structure, order_from_compiled
from repro.dependability.cutsets import link_component_name, path_components
from repro.errors import AnalysisError
from repro.network.topology import Topology
from repro.obs import trace as _trace

__all__ = [
    "FailureImpact",
    "Nominal",
    "failure_impact",
    "combined_failure_impact",
    "impact_table",
]


@dataclass(frozen=True)
class FailureImpact:
    """Consequences of one component being down, for one UPSIM."""

    component: str
    #: atomic services with no remaining path (hard outage)
    disconnected_services: Tuple[str, ...]
    #: atomic services that lost at least one redundant path but still work
    degraded_services: Tuple[str, ...]
    #: service availability with the component forced down
    conditional_availability: float
    #: service availability with all components nominal
    baseline_availability: float

    @property
    def is_single_point_of_failure(self) -> bool:
        return bool(self.disconnected_services)

    @property
    def availability_loss(self) -> float:
        return self.baseline_availability - self.conditional_availability


class Nominal:
    """The nominal service structure, conditioned on down sets.

    Built from keyed path sets (atomic services or endpoint pairs), the
    Formula-1 *table* and the compiled topology whose CSR ids give the
    variable order.  Keys with the same unordered
    endpoints describe one connectivity event and share one group
    (``group`` maps each key to it).  ``masks`` holds each group's paths
    as int bitmasks over the components (``bits``); the groups with paths
    share one memoized kernel and the table's validated probability
    ``vector``.  A group without paths is never connected, and a
    truncated path set, which would miss surviving paths, raises
    :class:`AnalysisError`.  Never mutated after construction, so an
    abandoned churn worker may hold one.
    """

    def __init__(
        self,
        path_sets: Mapping[Hashable, PathSet],
        table: Mapping[str, float],
        compiled: CompiledTopology,
        *,
        include_links: bool = True,
    ):
        self.group: Dict[Hashable, int] = {}
        self.groups: List[List[FrozenSet[str]]] = []
        distinct: Dict[Tuple[str, ...], int] = {}
        for key, path_set in path_sets.items():
            if path_set.truncated:
                raise AnalysisError(
                    f"pair ({path_set.requester!r}, {path_set.provider!r}) has "
                    f"a truncated path set; conditioning it would miss "
                    f"surviving paths"
                )
            pair = tuple(sorted((path_set.requester, path_set.provider)))
            if pair not in distinct:
                distinct[pair] = len(self.groups)
                self.groups.append(
                    [
                        path_components(path, include_links=include_links)
                        for path in path_set.paths
                    ]
                )
            self.group[key] = distinct[pair]
        order = order_from_compiled(
            compiled, {c for group in self.groups for path in group for c in path}
        )
        self.bits = {name: 1 << bit for bit, name in enumerate(order)}
        self.masks = [
            tuple(sum(self.bits[c] for c in path) for path in group)
            for group in self.groups
        ]
        self.table = table
        self._live = [i for i, group in enumerate(self.groups) if group]
        self.kernel = self.vector = None
        if self._live:
            # sorted paths meet their near-duplicates early in the OR fold,
            # which keeps the cold build's intermediates small
            self.kernel = compile_structure(
                [sorted(self.groups[i], key=sorted) for i in self._live],
                order=order,
            )
            self.vector = self.kernel.probability_vector(table)

    def survivors(self, gone: Iterable[str]) -> List[int]:
        """Per group, how many of its paths avoid every *gone* element."""
        mask = 0
        for name in gone:
            mask |= self.bits.get(name, 0)
        return [len([p for p in paths if not p & mask]) for paths in self.masks]

    def rows(
        self, scenarios: Sequence[Tuple[Iterable[str], Mapping[str, float]]]
    ) -> Tuple[List[float], List[List[float]]]:
        """``(system, per-group)`` availability of each ``(gone, table)``
        row: the *table* with every *gone* element forced to 0.

        One row is one scalar ``evaluate_vector`` sweep and more rows are
        one ``evaluate_many_all`` batch; both run the same per-node
        arithmetic, so a row reads the same bits either way.
        """
        k, width = len(scenarios), len(self.groups)
        if self.kernel is None:
            return [0.0] * k, [[0.0] * width for _ in range(k)]
        index = self.kernel.index
        vectors = {id(self.table): self.vector}
        matrix = []
        for gone, table in scenarios:
            vector = vectors.get(id(table))
            if vector is None:
                vector = vectors[id(table)] = self.kernel.probability_vector(table)
            row = vector.copy()
            row[[index[name] for name in gone if name in index]] = 0.0
            matrix.append(row)
        if k == 1:
            system, values = self.kernel.evaluate_vector(matrix[0])
            systems, groups = [system], [list(values)]
        else:
            systems, groups = self.kernel.evaluate_many_all(np.stack(matrix))
            systems, groups = systems.tolist(), groups.tolist()
        if len(self._live) < width:
            systems = [0.0] * k
            groups = [
                [found.get(g, 0.0) for g in range(width)]
                for found in (dict(zip(self._live, values)) for values in groups)
            ]
        return systems, groups


def _check_components(
    upsim: UPSIM, names: Iterable[str], table: Mapping[str, float]
) -> None:
    for name in names:
        if name not in table:
            raise AnalysisError(
                f"component {name!r} is not part of UPSIM {upsim.model.name!r}"
            )


def _impacts(
    upsim: UPSIM,
    downs: Sequence[FrozenSet[str]],
    table: Mapping[str, float],
    *,
    include_links: bool,
) -> List[FailureImpact]:
    """One :class:`FailureImpact` per down set: the baseline and every
    conditioned availability are rows of one :meth:`Nominal.rows` call,
    under the variable order of
    :func:`~repro.analysis.transformations.service_availability_kernel`."""
    nominal = Nominal(
        upsim.path_sets,
        table,
        compile_topology(Topology(upsim.model)),
        include_links=include_links,
    )
    (baseline, *conditionals), _ = nominal.rows(
        [(frozenset(), table)] + [(down, table) for down in downs]
    )
    impacts = []
    for down, conditional in zip(downs, conditionals):
        counts = nominal.survivors(down)
        impacts.append(
            FailureImpact(
                "+".join(sorted(down)),
                tuple(s for s, g in nominal.group.items() if not counts[g]),
                tuple(
                    s
                    for s, g in nominal.group.items()
                    if 0 < counts[g] < len(nominal.masks[g])
                ),
                conditional_availability=conditional,
                baseline_availability=baseline,
            )
        )
    return impacts


def combined_failure_impact(
    upsim: UPSIM,
    components: Sequence[str],
    *,
    include_links: bool = True,
    availabilities: Optional[Dict[str, float]] = None,
) -> FailureImpact:
    """Assess *components* (nodes and/or ``a|b`` link names) all being down
    at once — the k-fault scenario a resilience campaign sweeps.

    With an empty sequence this degenerates to the nominal evaluation of
    the given availability table (useful for degrade-only fault plans,
    where nothing is structurally down but the table carries overridden
    MTBF/MTTR values).

    Baseline and conditional availability are two rows of one
    :class:`Nominal`: the service structure compiles once (and is found
    in the kernel cache on every later call for the same UPSIM).
    """
    with _trace.span("analysis.failure_impact", components=len(components)):
        table = (
            availabilities
            if availabilities is not None
            else component_availabilities(upsim.model, include_links=include_links)
        )
        down = frozenset(components)
        _check_components(upsim, down, table)
        (impact,) = _impacts(upsim, [down], table, include_links=include_links)
        return impact


def failure_impact(
    upsim: UPSIM,
    component: str,
    *,
    include_links: bool = True,
    availabilities: Optional[Dict[str, float]] = None,
) -> FailureImpact:
    """Assess the impact of *component* (a node or ``a|b`` link name) being
    down on every atomic service of the UPSIM."""
    return combined_failure_impact(
        upsim,
        (component,),
        include_links=include_links,
        availabilities=availabilities,
    )


def impact_table(
    upsim: UPSIM,
    *,
    include_links: bool = False,
    components: Optional[Sequence[str]] = None,
) -> List[FailureImpact]:
    """Failure impact for every UPSIM component (or the given subset),
    ranked most severe first (hard outages before degradations, then by
    availability loss).

    Defaults to node granularity (``include_links=False``) — the triage
    view an operator wants; pass ``include_links=True`` to rank cables too.

    The whole scan is one batched
    :meth:`~repro.dependability.bdd.AvailabilityKernel.evaluate_many_all`
    sweep: one probability matrix with one row per candidate component,
    one vectorized DAG pass, instead of a full evaluation per component.
    """
    if components is not None:
        names = list(components)
    else:
        names = list(upsim.component_names)
        if include_links:
            names.extend(
                link_component_name(a, b) for a, b in sorted(upsim.used_links())
            )
    table = component_availabilities(upsim.model, include_links=include_links)
    _check_components(upsim, names, table)
    with _trace.span("analysis.impact_table", components=len(names)):
        impacts = _impacts(
            upsim,
            [frozenset((name,)) for name in names],
            table,
            include_links=include_links,
        )
    impacts.sort(
        key=lambda impact: (
            -len(impact.disconnected_services),
            -impact.availability_loss,
            impact.component,
        )
    )
    return impacts
