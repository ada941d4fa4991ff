"""Fault-injection campaigns: sweep fault combinations, rank the damage.

:func:`run_campaign` answers "which failures hurt this service's users,
and how much?" systematically: it generates candidate faults (every
UPSIM component crash by default, optionally cable cuts), sweeps all
single- and k-fault combinations, and ranks them by unreachable-pair
count and availability loss.

Every combination is evaluated by *conditioning* the nominal UPSIM, not
by rediscovering a faulted copy of the topology.  The UPSIM holds
exactly the components on some requester-provider path, and taking
nodes or links away never creates a simple path, so under a fault plan a
pair's surviving paths are exactly its nominal paths that avoid every
crashed node and cut link.  Reachability, path counts and outages are
read off the surviving path counts of one
:class:`repro.analysis.whatif.Nominal` (the conditioning primitive churn
and what-if share); availability is one row per plan (degrade overrides
applied, gone elements at 0) of one batch over its nominal compile, led
by the empty-down baseline row.  The nearest-cut diagnostic of an
unreachable pair walks the base adjacency around the downed elements
(:func:`repro.resilience.runner._nearest_cut`).

Determinism contract: a campaign is a pure function of its inputs.
Flapping faults resolve through seeded schedules, evaluation memoizes by
resolved-plan fingerprint (so a flap that resolves to the same crash
pattern on two ticks is evaluated once), and
:meth:`CampaignReport.to_dict` excludes wall-clock timing.  Equal inputs
therefore produce byte-identical reports — byte-identical, too, to
applying each plan as a :class:`~repro.resilience.overlay.FaultOverlayTopology`
and rediscovering every pair with the degradation-tolerant runner.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.analysis.transformations import component_availabilities
from repro.analysis.whatif import Nominal
from repro.core.engine import compile_topology
from repro.core.mapping import ServiceMapping
from repro.core.upsim import UPSIM, generate_upsim
from repro.dependability.availability import (
    steady_state_availability,
    with_redundancy,
)
from repro.errors import FaultPlanError
from repro.network.topology import Topology
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.resilience.faults import Fault, FaultPlan
from repro.resilience.overlay import check_plan, link_names
from repro.resilience.runner import PairDiagnostic, _adjacency, _nearest_cut
from repro.services.composite import CompositeService
from repro.uml.objects import ObjectModel

__all__ = ["CampaignResult", "CampaignReport", "run_campaign", "default_candidates"]

#: :func:`run_campaign`'s ``kernel=`` values: the compiled BDD, and the
#: inclusion–exclusion and state-enumeration oracles.
_KERNELS = ("bdd", "ie", "enum")

_M_CAMPAIGNS = _metrics.counter(
    "repro_campaign_runs_total", "Fault-injection campaigns executed"
)
_M_COMBINATIONS = _metrics.counter(
    "repro_campaign_combinations_total",
    "Fault combinations swept across campaigns",
)
_M_FAULTS_INJECTED = _metrics.counter(
    "repro_campaign_faults_injected_total",
    "Individual faults applied over all evaluated fault plans",
)
_M_MEMO_HITS = _metrics.counter(
    "repro_campaign_memo_hits_total",
    "Campaign evaluations answered from the resolved-plan memo",
)


@dataclass(frozen=True)
class CampaignResult:
    """Aggregated consequences of one fault combination.

    Plans without flapping evaluate exactly once (``ticks_evaluated ==
    1``); flapping plans are swept over the tick range and aggregated:
    unreachable pairs and service outages are unions over ticks,
    availability is the per-tick mean, and ``diagnostics`` carries the
    worst tick's per-pair records.
    """

    faults: Tuple[str, ...]
    fingerprint: str
    ticks_evaluated: int
    #: ticks on which at least one fault was active (flap schedules)
    active_ticks: int
    unreachable_pairs: Tuple[Tuple[str, str], ...]
    disconnected_services: Tuple[str, ...]
    degraded_services: Tuple[str, ...]
    #: mean service availability over the evaluated ticks
    availability: float
    #: nominal baseline minus :attr:`availability`
    availability_loss: float
    diagnostics: Tuple[PairDiagnostic, ...] = ()

    @property
    def is_single_point_of_failure(self) -> bool:
        """A *single* injected fault that severs at least one pair."""
        return len(self.faults) == 1 and bool(self.unreachable_pairs)

    def to_dict(self) -> Dict[str, object]:
        return {
            "faults": list(self.faults),
            "fingerprint": self.fingerprint,
            "ticks_evaluated": self.ticks_evaluated,
            "active_ticks": self.active_ticks,
            "unreachable_pairs": [list(p) for p in self.unreachable_pairs],
            "disconnected_services": list(self.disconnected_services),
            "degraded_services": list(self.degraded_services),
            "availability": self.availability,
            "availability_loss": self.availability_loss,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


@dataclass
class CampaignReport:
    """Machine-readable outcome of one campaign, ranked most severe first."""

    service_name: str
    topology_fingerprint: str
    baseline_availability: float
    pairs: Tuple[Tuple[str, str], ...]
    results: List[CampaignResult] = field(default_factory=list)

    def single_points_of_failure(self) -> List[CampaignResult]:
        return [r for r in self.results if r.is_single_point_of_failure]

    def worst(self, n: int = 5) -> List[CampaignResult]:
        return self.results[:n]

    def to_dict(self) -> Dict[str, object]:
        return {
            "service": self.service_name,
            "topology_fingerprint": self.topology_fingerprint,
            "baseline_availability": self.baseline_availability,
            "pairs": [list(p) for p in self.pairs],
            "results": [r.to_dict() for r in self.results],
        }

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def to_text(self, *, limit: Optional[int] = 10) -> str:
        if limit is not None and limit < 0:
            raise FaultPlanError(f"campaign ranking needs limit >= 0, got {limit}")
        lines = [
            f"fault campaign for service {self.service_name!r} "
            f"(baseline availability {self.baseline_availability:.9f})",
            f"{'faults':<32} {'unreachable':>11} {'outages':>8} "
            f"{'availability':>13} {'loss':>10}",
        ]
        shown = self.results if limit is None else self.results[:limit]
        for result in shown:
            lines.append(
                f"{' + '.join(result.faults):<32} "
                f"{len(result.unreachable_pairs):>11} "
                f"{len(result.disconnected_services):>8} "
                f"{result.availability:>13.9f} "
                f"{result.availability_loss:>10.3e}"
            )
        hidden = len(self.results) - len(shown)
        if hidden > 0:
            lines.append(f"... {hidden} more combination(s)")
        return "\n".join(lines)


def default_candidates(
    upsim: UPSIM, *, include_links: bool = False
) -> List[Fault]:
    """One crash fault per UPSIM component (the components whose failure
    can affect this service at all), plus one cut per used link when
    ``include_links`` is set."""
    candidates = [Fault.crash(name) for name in sorted(upsim.component_names)]
    if include_links:
        candidates.extend(
            Fault.cut(a, b) for a, b in sorted(upsim.used_links())
        )
    return candidates


def _degraded_table(
    upsim: UPSIM, plan: FaultPlan, nominal: Dict[str, float]
) -> Dict[str, float]:
    """The availability table with the plan's degrade overrides applied."""
    overrides = plan.overrides()
    if not overrides:
        return nominal
    table = dict(nominal)
    model = upsim.model
    for target, values in overrides.items():
        if target not in table:
            continue  # degraded component outside the user-perceived scope
        if "|" in target and not model.has_instance(target):
            a, b = target.split("|", 1)
            link = model.find_link(a, b)
            properties = link.property_dict() if link is not None else {}
        else:
            properties = model.get_instance(target).property_dict()
        mtbf = float(values.get("MTBF", properties.get("MTBF", 0.0)))
        mttr = float(values.get("MTTR", properties.get("MTTR", 0.0)))
        redundant = int(properties.get("redundantComponents") or 0)
        table[target] = with_redundancy(
            steady_state_availability(mtbf, mttr), redundant
        )
    return table


@dataclass
class _Evaluation:
    """Cached per-resolved-plan evaluation."""

    diagnostics: Tuple[PairDiagnostic, ...]
    unreachable: Tuple[Tuple[str, str], ...]
    disconnected: Tuple[str, ...]
    degraded: Tuple[str, ...]
    #: filled in by the campaign's one batched evaluation
    availability: float = 0.0


def run_campaign(
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
    """Sweep all 1..k-fault combinations of the candidate faults.

    *candidates* accepts :class:`Fault` objects or spec strings; the
    default is every UPSIM component crash (plus used-link cuts with
    ``include_links``).  *ticks* bounds the schedule sweep for flapping
    candidates; plans without flapping are evaluated once.  Evaluations
    are memoized by resolved-plan fingerprint, so overlapping
    combinations and repeating flap schedules cost nothing extra.

    Every distinct resolved plan is checked against the topology and
    then conditions the nominal UPSIM: a pair's surviving paths are its
    nominal paths that avoid every crashed node and cut link, and the
    plan's availability is one row — degrade overrides applied, gone
    elements set to 0 — of one batch over the nominal structure.

    *kernel* is the end-to-end benchmark's oracle hook and goes when
    that benchmark checks against the test oracles instead.  The
    default ``"bdd"`` evaluates every row in one
    :meth:`~repro.dependability.bdd.AvailabilityKernel.evaluate_many_all`
    pass of the nominal compile; ``"ie"`` (inclusion–exclusion over the
    system path sets) and ``"enum"`` (state enumeration) evaluate row by
    row.  The report is byte-identical for equal inputs regardless of
    kernel (up to float noise between kernels).
    """
    if k < 1:
        raise FaultPlanError(f"campaign needs k >= 1, got {k}")
    if ticks < 1:
        raise FaultPlanError(f"campaign needs ticks >= 1, got {ticks}")
    if kernel not in _KERNELS:
        raise FaultPlanError(
            f"unknown availability kernel {kernel!r}; expected one of {_KERNELS}"
        )
    topology = (
        infrastructure
        if isinstance(infrastructure, Topology)
        else Topology(infrastructure)
    )
    # nominal reference: strict generation — a campaign over a service
    # that does not work nominally has no baseline to degrade from
    upsim = generate_upsim(topology, service, mapping)
    pairs = tuple(
        (pair.requester, pair.provider)
        for pair in mapping.pairs_for_service(service)
    )
    nominal_table = component_availabilities(upsim.model, include_links=True)
    nominal = Nominal(
        upsim.path_sets,
        nominal_table,
        compile_topology(Topology(upsim.model)),
    )

    if candidates is None:
        fault_pool = default_candidates(upsim, include_links=include_links)
    else:
        fault_pool = [
            Fault.parse(c) if isinstance(c, str) else c for c in candidates
        ]
    if not fault_pool:
        raise FaultPlanError("campaign has no candidate faults to inject")

    links = link_names(topology)
    adjacency = _adjacency(topology)
    # each (requester, provider) pair's group in the nominal, and the
    # elements each atomic service's paths visit
    services = nominal.group
    pair_group = {
        (path_set.requester, path_set.provider): services[atomic_service]
        for atomic_service, path_set in upsim.path_sets.items()
    }
    touched = {
        atomic_service: frozenset().union(*nominal.groups[group])
        for atomic_service, group in services.items()
    }

    def condition(
        plan: FaultPlan,
    ) -> Tuple[_Evaluation, Tuple[FrozenSet[str], Dict[str, float]]]:
        """The plan's diagnostics and outages, read off the nominal's
        surviving path counts, and its availability row: the gone elements
        and the degraded table."""
        check_plan(topology, plan, links)
        table = _degraded_table(upsim, plan, nominal_table)
        down = set(plan.downed_nodes())
        cut = set(plan.cut_links())
        gone = frozenset(down | cut)
        counts = nominal.survivors(gone)
        context = plan.specs()
        diagnostics = []
        for requester, provider in dict.fromkeys(pairs):
            count = counts[pair_group[(requester, provider)]]
            status, reason, frontier = "ok", "", ()
            if requester in down or provider in down:
                role, node = (
                    ("requester", requester)
                    if requester in down
                    else ("provider", provider)
                )
                status = "unreachable"
                reason = f"{role} {node!r} crashed by fault injection"
                frontier = (node,)
            elif not count:
                status, reason = "unreachable", "no surviving path"
                frontier = _nearest_cut(adjacency, down, cut, requester)
            diagnostics.append(
                PairDiagnostic(
                    requester,
                    provider,
                    status,
                    reason=reason,
                    path_count=count,
                    fault_context=context,
                    nearest_cut=frontier,
                )
            )
        disconnected = tuple(s for s, g in services.items() if not counts[g])
        # degrade faults leave every path alive but still weaken any
        # service whose paths visit an overridden component
        weakened = {
            target
            for target in plan.overrides()
            if table.get(target) != nominal_table.get(target)
        }
        degraded = {
            atomic_service
            for atomic_service, group in services.items()
            if counts[group]
            and (
                counts[group] < len(nominal.masks[group])
                or touched[atomic_service] & weakened
            )
        }
        evaluation = _Evaluation(
            diagnostics=tuple(diagnostics),
            unreachable=tuple(
                (d.requester, d.provider) for d in diagnostics if not d.ok
            ),
            disconnected=disconnected,
            degraded=tuple(sorted(degraded)),
        )
        return evaluation, (gone, table)

    _M_CAMPAIGNS.inc()
    with _trace.span(
        "campaign.run", service=service.name, k=k, ticks=ticks, kernel=kernel
    ) as sweep_span:
        sweep = list(_combinations(fault_pool, k, ticks))
        evaluations: Dict[str, _Evaluation] = {}
        # the empty-down nominal row leads the batch: the baseline
        scenarios = [(frozenset(), nominal_table)]
        for _, resolved_plans in sweep:
            for fingerprint, resolved in resolved_plans:
                if fingerprint in evaluations:
                    _M_MEMO_HITS.inc()
                    continue
                _M_FAULTS_INJECTED.inc(len(resolved))
                evaluations[fingerprint], row = condition(resolved)
                scenarios.append(row)
        with _trace.span(
            "campaign.evaluate", rows=len(evaluations), kernel=kernel
        ):
            baseline, *availabilities = _evaluate(nominal, scenarios, kernel)
        for evaluation, availability in zip(
            evaluations.values(), availabilities
        ):
            evaluation.availability = availability
        sweep_span.set(plans=len(evaluations))
        results = _sweep(sweep, evaluations, baseline, sweep_span)
    _metrics.gauge(
        "repro_campaign_memo_entries",
        "Distinct resolved fault plans evaluated by the last campaign",
    ).set(len(evaluations))
    return CampaignReport(
        service_name=service.name,
        topology_fingerprint=topology.fingerprint(),
        baseline_availability=baseline,
        pairs=pairs,
        results=results,
    )


def _evaluate(
    nominal: Nominal,
    scenarios: List[Tuple[FrozenSet[str], Dict[str, float]]],
    kernel: str,
) -> List[float]:
    """The service availability of every ``(gone, table)`` row."""
    if kernel == "bdd":
        return nominal.rows(scenarios)[0]
    from repro.analysis.exact import system_availability_reference, system_path_sets
    from repro.dependability.cutsets import inclusion_exclusion

    forced = [{**table, **dict.fromkeys(gone, 0.0)} for gone, table in scenarios]
    if kernel == "ie":
        sets = system_path_sets(nominal.groups)
        return [inclusion_exclusion(sets, table) for table in forced]
    return [system_availability_reference(nominal.groups, table) for table in forced]


def _combinations(
    fault_pool: List[Fault], k: int, ticks: int
) -> Iterator[Tuple[FaultPlan, List[Tuple[str, FaultPlan]]]]:
    """All 1..k-fault combinations, each with its ``(fingerprint, plan)``
    resolution per swept tick."""
    for size in range(1, min(k, len(fault_pool)) + 1):
        for combo in combinations(fault_pool, size):
            plan = FaultPlan(combo)
            if len(plan) < size:
                continue  # duplicate faults collapsed — same as a smaller combo
            _M_COMBINATIONS.inc()
            resolved = (
                [plan] if plan.is_resolved else [plan.at(t) for t in range(ticks)]
            )
            yield plan, [(r.fingerprint(), r) for r in resolved]


def _sweep(
    sweep: List[Tuple[FaultPlan, List[Tuple[str, FaultPlan]]]],
    evaluations: Dict[str, _Evaluation],
    baseline: float,
    sweep_span,
) -> List[CampaignResult]:
    """Every combination aggregated over its ticks, ranked most severe
    first."""
    results: List[CampaignResult] = []
    for plan, resolved_plans in sweep:
        unreachable: Dict[Tuple[str, str], None] = {}
        disconnected: Dict[str, None] = {}
        degraded: Dict[str, None] = {}
        availability_sum = 0.0
        active_ticks = 0
        worst: Optional[_Evaluation] = None
        for fingerprint, resolved in resolved_plans:
            evaluation = evaluations[fingerprint]
            if len(resolved):
                active_ticks += 1
            availability_sum += evaluation.availability
            for pair in evaluation.unreachable:
                unreachable.setdefault(pair)
            for name in evaluation.disconnected:
                disconnected.setdefault(name)
            for name in evaluation.degraded:
                degraded.setdefault(name)
            if worst is None or len(evaluation.unreachable) > len(
                worst.unreachable
            ):
                worst = evaluation
        assert worst is not None
        availability = availability_sum / len(resolved_plans)
        results.append(
            CampaignResult(
                faults=plan.specs(),
                fingerprint=plan.fingerprint(),
                ticks_evaluated=len(resolved_plans),
                active_ticks=active_ticks,
                unreachable_pairs=tuple(unreachable),
                disconnected_services=tuple(disconnected),
                degraded_services=tuple(degraded),
                availability=availability,
                availability_loss=baseline - availability,
                diagnostics=worst.diagnostics,
            )
        )

    results.sort(
        key=lambda r: (
            -len(r.unreachable_pairs),
            -r.availability_loss,
            r.faults,
        )
    )
    sweep_span.set(combinations=len(results))
    return results
