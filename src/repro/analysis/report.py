"""User-perceived availability reports for a generated UPSIM.

Packages the full Section VII analysis of one service invocation
perspective: per atomic service the pair availability (exact, RBD, bounds,
Monte-Carlo cross-check), the composite-service availability, expected
annual downtime, and component importance ranking — rendered as the text
tables the examples and benchmarks print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.transformations import (
    component_availabilities,
    service_availability_kernel,
    service_path_set_groups,
)
from repro.core.upsim import UPSIM
from repro.dependability.availability import downtime_minutes_per_year
from repro.dependability.cutsets import esary_proschan_bounds
from repro.dependability.importance import ImportanceRow, importance_from_birnbaum
from repro.errors import AnalysisError
from repro.obs import trace as _trace

if TYPE_CHECKING:  # Monte-Carlo runs only with montecarlo_samples > 0
    from repro.dependability.montecarlo import MCEstimate

__all__ = ["PairReport", "AvailabilityReport", "analyze_upsim"]


def _sample_service_availability(
    groups: Sequence[Sequence[FrozenSet[str]]],
    availabilities: Dict[str, float],
    *,
    samples: int,
    seed: int,
    batch: int = 262_144,
) -> MCEstimate:
    """Monte-Carlo estimate of P(every pair connected).

    The conjunction over pairs must be sampled *jointly* — concatenating
    each pair's path sets into independent samplers would compute the
    union, not the conjunction — so the union of all components is
    sampled once per trial and every group tested against it.  Runs in
    batches to bound peak memory.
    """
    import numpy as np

    from repro.dependability.montecarlo import MCEstimate

    components = sorted({c for group in groups for path in group for c in path})
    index = {name: i for i, name in enumerate(components)}
    avail = np.array([availabilities[c] for c in components])
    group_indices = [
        [
            np.array(sorted(index[c] for c in path), dtype=np.intp)
            for path in group
        ]
        for group in groups
    ]
    rng = np.random.default_rng(seed)
    remaining = samples
    up_count = 0
    while remaining > 0:
        current = min(remaining, batch)
        states = rng.random((current, len(components))) < avail
        up_all = np.ones(current, dtype=bool)
        for paths in group_indices:
            group_up = np.zeros(current, dtype=bool)
            for idx in paths:
                group_up |= states[:, idx].all(axis=1)
            up_all &= group_up
        up_count += int(up_all.sum())
        remaining -= current
    mean = up_count / samples
    stderr = float(np.sqrt(max(mean * (1.0 - mean), 1e-12) / samples))
    return MCEstimate(mean, stderr, samples)


@dataclass(frozen=True)
class PairReport:
    """Availability of one atomic service's requester/provider pair."""

    atomic_service: str
    requester: str
    provider: str
    path_count: int
    availability: float
    lower_bound: float
    upper_bound: float
    downtime_minutes_per_year: float
    min_cut_sets: Tuple[FrozenSet[str], ...]

    def smallest_cuts(self) -> List[FrozenSet[str]]:
        """The minimal cut sets of smallest order — the single points of
        failure when the order is 1."""
        if not self.min_cut_sets:
            return []
        smallest = min(len(cut) for cut in self.min_cut_sets)
        return [cut for cut in self.min_cut_sets if len(cut) == smallest]


@dataclass
class AvailabilityReport:
    """Full user-perceived dependability report for one UPSIM."""

    service_name: str
    pairs: List[PairReport]
    service_availability: float
    service_downtime_minutes_per_year: float
    importance: List[ImportanceRow] = field(default_factory=list)
    montecarlo: Optional[MCEstimate] = None
    #: Extra user-perceived dimensions (a
    #: :class:`repro.dimensions.DimensionReport`), present when
    #: :func:`analyze_upsim` was called with ``dimensions=``.
    dimensions: Optional[object] = None

    def pair(self, atomic_service: str) -> PairReport:
        for report in self.pairs:
            if report.atomic_service == atomic_service:
                return report
        raise AnalysisError(f"no pair report for atomic service {atomic_service!r}")

    def to_text(self) -> str:
        """Render the report as an aligned text table."""
        lines: List[str] = []
        lines.append(f"User-perceived availability report: {self.service_name}")
        lines.append("")
        header = (
            f"{'atomic service':<22} {'requester':<10} {'provider':<10} "
            f"{'paths':>5} {'availability':>14} {'downtime [min/y]':>17}"
        )
        lines.append(header)
        lines.append("-" * len(header))
        for pair in self.pairs:
            lines.append(
                f"{pair.atomic_service:<22} {pair.requester:<10} "
                f"{pair.provider:<10} {pair.path_count:>5} "
                f"{pair.availability:>14.9f} "
                f"{pair.downtime_minutes_per_year:>17.1f}"
            )
        lines.append("-" * len(header))
        lines.append(
            f"{'service (all pairs)':<50} "
            f"{self.service_availability:>14.9f} "
            f"{self.service_downtime_minutes_per_year:>17.1f}"
        )
        if self.montecarlo is not None:
            low, high = self.montecarlo.confidence_interval()
            lines.append(
                f"Monte-Carlo cross-check: {self.montecarlo.mean:.9f} "
                f"(95% CI [{low:.9f}, {high:.9f}], "
                f"n={self.montecarlo.samples})"
            )
        if self.dimensions is not None:
            lines.append("")
            lines.append(self.dimensions.to_text())
        if self.importance:
            lines.append("")
            lines.append("Component importance (Birnbaum ranking):")
            lines.append(
                f"{'component':<14} {'A_i':>12} {'Birnbaum':>12} "
                f"{'FV':>10} {'RAW':>10}"
            )
            for row in self.importance[:10]:
                lines.append(
                    f"{row.component:<14} {row.availability:>12.7f} "
                    f"{row.birnbaum:>12.3e} {row.fussell_vesely:>10.4f} "
                    f"{row.risk_achievement_worth:>10.1f}"
                )
        return "\n".join(lines)


def analyze_upsim(
    upsim: UPSIM,
    *,
    formula: str = "paper",
    include_links: bool = True,
    montecarlo_samples: int = 0,
    importance_components: int = 10,
    seed: int = 0,
    dimensions: Optional[Sequence[str]] = None,
) -> AvailabilityReport:
    """Analyze a UPSIM end to end.

    Every quantity of the report — all pair availabilities, the service
    availability, per-pair minimal cut sets and the full importance
    gradient — comes from one compiled BDD of the service structure,
    evaluated in a handful of O(|BDD|) passes; it is exact at any
    component count.

    Parameters
    ----------
    formula:
        ``"paper"`` applies Formula (1), ``"exact"`` the renewal formula.
    include_links:
        Whether link (connector) failures participate.
    montecarlo_samples:
        If > 0, add a Monte-Carlo cross-check of the service availability.
    importance_components:
        Number of node components to rank (0 disables).  Importance is
        evaluated against the exact service availability.
    dimensions:
        Registered dimension names to evaluate alongside the availability
        analysis (one shared structure pass —
        :func:`repro.dimensions.evaluate_dimensions`); the result lands
        in :attr:`AvailabilityReport.dimensions` and its ``to_text()``
        section.
    """
    if montecarlo_samples < 0:
        raise AnalysisError(
            f"Monte-Carlo samples must be >= 0, got {montecarlo_samples}"
        )
    with _trace.span("analysis.analyze_upsim", service=upsim.service_name):
        report = _analyze_upsim_traced(
            upsim,
            formula=formula,
            include_links=include_links,
            montecarlo_samples=montecarlo_samples,
            importance_components=importance_components,
            seed=seed,
        )
        if dimensions:
            from repro.dimensions import evaluate_dimensions

            report.dimensions = evaluate_dimensions(
                upsim,
                list(dimensions),
                include_links=include_links,
                formula=formula,
            )
        return report


def _analyze_upsim_traced(
    upsim: UPSIM,
    *,
    formula: str,
    include_links: bool,
    montecarlo_samples: int,
    importance_components: int,
    seed: int,
) -> AvailabilityReport:
    availabilities = component_availabilities(
        upsim.model, formula=formula, include_links=include_links
    )
    kernel = service_availability_kernel(upsim, include_links=include_links)
    service_availability, group_values = kernel.evaluate_all(availabilities)

    # kernel groups are the distinct unordered pairs in first-seen order;
    # atomic services repeating a pair share its group (same keying as
    # transformations._distinct_pairs)
    group_index: Dict[Tuple[str, str], int] = {}
    group_cuts: Dict[int, Tuple[FrozenSet[str], ...]] = {}
    pair_reports: List[PairReport] = []
    for atomic_service, path_set in upsim.path_sets.items():
        key = tuple(sorted((path_set.requester, path_set.provider)))
        index = group_index.setdefault(key, len(group_index))
        if index not in group_cuts:
            group_cuts[index] = tuple(kernel.minimal_cut_sets(group=index))
        exact = group_values[index]
        cuts = group_cuts[index]
        lower, upper = esary_proschan_bounds(
            kernel.minimal_path_sets(group=index), cuts, availabilities
        )
        pair_reports.append(
            PairReport(
                atomic_service=atomic_service,
                requester=path_set.requester,
                provider=path_set.provider,
                path_count=path_set.count,
                availability=exact,
                lower_bound=lower,
                upper_bound=upper,
                downtime_minutes_per_year=downtime_minutes_per_year(exact),
                min_cut_sets=cuts,
            )
        )

    montecarlo: Optional[MCEstimate] = None
    if montecarlo_samples > 0:
        montecarlo = _sample_service_availability(
            service_path_set_groups(upsim, include_links=include_links),
            availabilities,
            samples=montecarlo_samples,
            seed=seed,
        )

    importance: List[ImportanceRow] = []
    if importance_components > 0:
        importance = importance_from_birnbaum(
            availabilities,
            service_availability,
            kernel.birnbaum(availabilities),
            list(upsim.component_names),
        )[:importance_components]

    return AvailabilityReport(
        service_name=upsim.service_name,
        pairs=pair_reports,
        service_availability=service_availability,
        service_downtime_minutes_per_year=downtime_minutes_per_year(
            service_availability
        ),
        importance=importance,
        montecarlo=montecarlo,
    )
