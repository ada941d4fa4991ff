"""Fault campaigns by overlay rediscovery: the reference route.

:func:`run_campaign_overlay` sweeps and ranks exactly like
:func:`repro.resilience.run_campaign`, but evaluates every distinct
resolved fault plan the slow, obvious way: apply the plan as a
copy-on-write overlay (:meth:`FaultPlan.apply`), rediscover every
mapping pair on it (:func:`discover_many_resilient`), and evaluate the
availability with :func:`combined_failure_impact`.

The production campaign conditions one nominal compile instead.  The
metamorphic relation "a campaign by conditioning equals a campaign by
overlay rediscovery" is :func:`assert_conditioning_matches_overlay`.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.analysis.transformations import component_availabilities
from repro.analysis.whatif import combined_failure_impact
from repro.core.mapping import ServiceMapping
from repro.core.upsim import generate_upsim
from repro.errors import FaultPlanError
from repro.network.topology import Topology
from repro.resilience import (
    CampaignReport,
    CampaignResult,
    Fault,
    FaultPlan,
    default_candidates,
    discover_many_resilient,
    run_campaign,
)
from repro.resilience.campaign import _degraded_table
from repro.services.composite import CompositeService
from repro.uml.objects import ObjectModel

__all__ = ["run_campaign_overlay", "assert_conditioning_matches_overlay"]


def _evaluate(topology, upsim, pairs, plan, nominal, kernel):
    """(diagnostics, unreachable, disconnected, degraded, availability)
    of one resolved plan, by overlay rediscovery."""
    outcome = discover_many_resilient(plan.apply(topology), pairs)
    table = _degraded_table(upsim, plan, nominal)
    structural = [name for name in plan.component_names() if name in table]
    impact = combined_failure_impact(
        upsim, structural, availabilities=table, kernel=kernel
    )
    degraded = set(impact.degraded_services)
    weakened = {
        target
        for target in plan.overrides()
        if table.get(target) != nominal.get(target)
    }
    for atomic_service, path_set in upsim.path_sets.items():
        if atomic_service in degraded:
            continue
        if atomic_service in impact.disconnected_services:
            continue
        touched = set(path_set.nodes())
        touched.update("|".join(sorted(link)) for link in path_set.links())
        if touched & weakened:
            degraded.add(atomic_service)
    return (
        tuple(outcome.diagnostics),
        tuple((d.requester, d.provider) for d in outcome.failed()),
        impact.disconnected_services,
        tuple(sorted(degraded)),
        impact.conditional_availability,
    )


def run_campaign_overlay(
    infrastructure: Union[ObjectModel, Topology],
    service: CompositeService,
    mapping: ServiceMapping,
    *,
    candidates: Optional[Iterable[Union[Fault, str]]] = None,
    k: int = 1,
    ticks: int = 4,
    include_links: bool = False,
    kernel: str = "bdd",
) -> CampaignReport:
    """:func:`repro.resilience.run_campaign` by overlay rediscovery."""
    if k < 1:
        raise FaultPlanError(f"campaign needs k >= 1, got {k}")
    if ticks < 1:
        raise FaultPlanError(f"campaign needs ticks >= 1, got {ticks}")
    topology = (
        infrastructure
        if isinstance(infrastructure, Topology)
        else Topology(infrastructure)
    )
    upsim = generate_upsim(topology, service, mapping)
    pairs = tuple(
        (pair.requester, pair.provider)
        for pair in mapping.pairs_for_service(service)
    )
    nominal = component_availabilities(upsim.model, include_links=True)
    baseline = combined_failure_impact(
        upsim, (), availabilities=nominal, kernel=kernel
    ).baseline_availability
    if candidates is None:
        pool = default_candidates(upsim, include_links=include_links)
    else:
        pool = [Fault.parse(c) if isinstance(c, str) else c for c in candidates]
    if not pool:
        raise FaultPlanError("campaign has no candidate faults to inject")

    memo: Dict[str, tuple] = {}
    results: List[CampaignResult] = []
    for size in range(1, min(k, len(pool)) + 1):
        for combo in combinations(pool, size):
            plan = FaultPlan(combo)
            if len(plan) < size:
                continue
            tick_range = range(ticks) if not plan.is_resolved else range(1)
            unreachable: Dict[Tuple[str, str], None] = {}
            disconnected: Dict[str, None] = {}
            degraded: Dict[str, None] = {}
            total = 0.0
            active = 0
            worst = None
            for tick in tick_range:
                resolved = plan.at(tick)
                key = resolved.fingerprint()
                if key not in memo:
                    memo[key] = _evaluate(
                        topology, upsim, pairs, resolved, nominal, kernel
                    )
                evaluation = memo[key]
                diagnostics, lost, cut_off, weakened, availability = evaluation
                if len(resolved):
                    active += 1
                total += availability
                unreachable.update(dict.fromkeys(lost))
                disconnected.update(dict.fromkeys(cut_off))
                degraded.update(dict.fromkeys(weakened))
                if worst is None or len(lost) > len(worst[1]):
                    worst = evaluation
            availability = total / len(tick_range)
            results.append(
                CampaignResult(
                    faults=plan.specs(),
                    fingerprint=plan.fingerprint(),
                    ticks_evaluated=len(tick_range),
                    active_ticks=active,
                    unreachable_pairs=tuple(unreachable),
                    disconnected_services=tuple(disconnected),
                    degraded_services=tuple(degraded),
                    availability=availability,
                    availability_loss=baseline - availability,
                    diagnostics=worst[0],
                )
            )
    results.sort(
        key=lambda r: (-len(r.unreachable_pairs), -r.availability_loss, r.faults)
    )
    return CampaignReport(
        service_name=service.name,
        topology_fingerprint=topology.fingerprint(),
        baseline_availability=baseline,
        pairs=pairs,
        results=results,
    )


def assert_conditioning_matches_overlay(
    infrastructure, service, mapping, **kwargs
) -> Optional[CampaignReport]:
    """The relation itself: both routes give byte-identical JSON reports
    (or raise the same error type with the same message)."""
    try:
        expected = run_campaign_overlay(infrastructure, service, mapping, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the relation covers errors too
        try:
            run_campaign(infrastructure, service, mapping, **kwargs)
        except type(exc) as got:
            assert str(got) == str(exc)
            return None
        raise AssertionError(f"conditioning route did not raise {exc!r}")
    report = run_campaign(infrastructure, service, mapping, **kwargs)
    assert report.to_json() == expected.to_json()
    return report
