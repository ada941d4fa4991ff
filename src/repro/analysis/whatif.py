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
service operator would start from.  Both, and the resilience campaign,
evaluate through :func:`conditional_availabilities`, the one batched
route that conditions the nominal structure on elements being down.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.exact import DEFAULT_KERNEL, KERNELS, system_availability
from repro.analysis.transformations import (
    component_availabilities,
    pair_path_sets,
    service_availability_kernel,
    service_path_set_groups,
)
from repro.core.upsim import UPSIM
from repro.errors import AnalysisError
from repro.obs import trace as _trace

__all__ = [
    "FailureImpact",
    "failure_impact",
    "combined_failure_impact",
    "impact_table",
    "conditional_availabilities",
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


def _service_path_sets(
    upsim: UPSIM, *, include_links: bool
) -> Dict[str, List[FrozenSet[str]]]:
    """Per atomic service, the component sets of its paths."""
    return {
        atomic_service: pair_path_sets(path_set, include_links=include_links)
        for atomic_service, path_set in upsim.path_sets.items()
    }


def _outages(
    service_sets: Dict[str, List[FrozenSet[str]]], gone: FrozenSet[str]
) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """``(disconnected, degraded)`` atomic services with *gone* down: no
    surviving path, or fewer surviving paths than nominal."""
    disconnected: List[str] = []
    degraded: List[str] = []
    if gone:
        for atomic_service, sets in service_sets.items():
            surviving = sum(1 for path in sets if path.isdisjoint(gone))
            if not surviving:
                disconnected.append(atomic_service)
            elif surviving < len(sets):
                degraded.append(atomic_service)
    return tuple(disconnected), tuple(degraded)


def conditional_availabilities(
    upsim: UPSIM,
    scenarios: Sequence[Tuple[AbstractSet[str], Mapping[str, float]]],
    *,
    include_links: bool = True,
    kernel: str = DEFAULT_KERNEL,
) -> List[float]:
    """Service availability under each ``(gone, table)`` scenario: the
    availability *table* with every *gone* element forced to 0.

    Taking nodes or links away never creates a path, so a faulted
    service's structure is the nominal one conditioned on the gone
    elements being down, and one compile serves every scenario.  With
    ``kernel="bdd"`` the scenarios are the rows of one
    :meth:`~repro.dependability.bdd.AvailabilityKernel.evaluate_many`
    batch (scenarios sharing a table object share its probability
    vector); ``"ie"``/``"enum"`` run
    :func:`repro.analysis.exact.system_availability` once per scenario.
    """
    if kernel != "bdd":
        groups = service_path_set_groups(upsim, include_links=include_links)
        values = []
        for gone, table in scenarios:
            forced = dict(table)
            forced.update(dict.fromkeys(gone, 0.0))
            values.append(system_availability(groups, forced, kernel=kernel))
        return values

    import numpy as np

    compiled = service_availability_kernel(upsim, include_links=include_links)
    vectors: Dict[int, np.ndarray] = {}
    matrix = np.empty((len(scenarios), len(compiled.variables)))
    for row, (gone, table) in enumerate(scenarios):
        vector = vectors.get(id(table))
        if vector is None:
            vector = vectors[id(table)] = compiled.probability_vector(table)
        matrix[row] = vector
        for name in gone:
            column = compiled.index.get(name)
            if column is not None:
                matrix[row, column] = 0.0
    return compiled.evaluate_many(matrix).tolist()


def _check_components(
    upsim: UPSIM, names: Iterable[str], table: Mapping[str, float]
) -> None:
    for name in names:
        if name not in table:
            raise AnalysisError(
                f"component {name!r} is not part of UPSIM {upsim.model.name!r}"
            )


def combined_failure_impact(
    upsim: UPSIM,
    components: Sequence[str],
    *,
    include_links: bool = True,
    availabilities: Optional[Dict[str, float]] = None,
    kernel: str = DEFAULT_KERNEL,
) -> FailureImpact:
    """Assess *components* (nodes and/or ``a|b`` link names) all being down
    at once — the k-fault scenario a resilience campaign sweeps.

    With an empty sequence this degenerates to the nominal evaluation of
    the given availability table (useful for degrade-only fault plans,
    where nothing is structurally down but the table carries overridden
    MTBF/MTTR values).

    Baseline and conditional availability are two scenarios of
    :func:`conditional_availabilities`: with the default ``kernel="bdd"``
    the service structure compiles once (and is found in the kernel cache
    on every later call for the same UPSIM); ``"enum"``/``"ie"`` route
    through :func:`repro.analysis.exact.system_availability`.
    """
    if kernel not in KERNELS:
        raise AnalysisError(
            f"unknown availability kernel {kernel!r}; expected one of {KERNELS}"
        )
    with _trace.span(
        "analysis.failure_impact", components=len(components), kernel=kernel
    ):
        table = (
            availabilities
            if availabilities is not None
            else component_availabilities(upsim.model, include_links=include_links)
        )
        down = frozenset(components)
        _check_components(upsim, down, table)
        disconnected, degraded = _outages(
            _service_path_sets(upsim, include_links=include_links), down
        )
        baseline, conditional = conditional_availabilities(
            upsim,
            [(frozenset(), table), (down, table)],
            include_links=include_links,
            kernel=kernel,
        )
        return FailureImpact(
            component="+".join(sorted(down)),
            disconnected_services=disconnected,
            degraded_services=degraded,
            conditional_availability=conditional,
            baseline_availability=baseline,
        )


def failure_impact(
    upsim: UPSIM,
    component: str,
    *,
    include_links: bool = True,
    availabilities: Optional[Dict[str, float]] = None,
    kernel: str = DEFAULT_KERNEL,
) -> FailureImpact:
    """Assess the impact of *component* (a node or ``a|b`` link name) being
    down on every atomic service of the UPSIM."""
    return combined_failure_impact(
        upsim,
        (component,),
        include_links=include_links,
        availabilities=availabilities,
        kernel=kernel,
    )


def impact_table(
    upsim: UPSIM,
    *,
    include_links: bool = False,
    components: Optional[Sequence[str]] = None,
    kernel: str = DEFAULT_KERNEL,
) -> List[FailureImpact]:
    """Failure impact for every UPSIM component (or the given subset),
    ranked most severe first (hard outages before degradations, then by
    availability loss).

    Defaults to node granularity (``include_links=False``) — the triage
    view an operator wants; pass ``include_links=True`` to rank cables too.

    With the default ``kernel="bdd"`` the whole scan is one batched
    :meth:`~repro.dependability.bdd.AvailabilityKernel.evaluate_many`
    sweep: one probability matrix with one row per candidate component,
    one vectorized DAG pass, instead of a full evaluation per component.
    """
    if components is not None:
        names = list(components)
    else:
        names = list(upsim.component_names)
        if include_links:
            from repro.dependability.cutsets import link_component_name

            names.extend(
                link_component_name(a, b) for a, b in sorted(upsim.used_links())
            )
    table = component_availabilities(upsim.model, include_links=include_links)
    _check_components(upsim, names, table)
    with _trace.span(
        "analysis.impact_table", components=len(names), kernel=kernel
    ):
        service_sets = _service_path_sets(upsim, include_links=include_links)
        downs = [frozenset((name,)) for name in names]
        baseline, *conditionals = conditional_availabilities(
            upsim,
            [(frozenset(), table)] + [(down, table) for down in downs],
            include_links=include_links,
            kernel=kernel,
        )
        impacts = [
            FailureImpact(
                name,
                *_outages(service_sets, down),
                conditional_availability=conditional,
                baseline_availability=baseline,
            )
            for name, down, conditional in zip(names, downs, conditionals)
        ]
    impacts.sort(
        key=lambda impact: (
            -len(impact.disconnected_services),
            -impact.availability_loss,
            impact.component,
        )
    )
    return impacts
