"""The vectorized population evaluation plane: one kernel per attachment,
one affine step per user.

``evaluate_population`` turns "availability as perceived by each of a
million users" into a few numpy passes:

1. **Structure dedup** — users sharing an attachment point and service
   collapse to one compiled structure query: per distinct attachment the
   service mapping is instantiated once, path discovery runs once (the
   engine's PathSet LRU shares the pairs that do not involve the user
   across attachments), and the path-set groups compile into one memoized
   :class:`~repro.dependability.bdd.AvailabilityKernel`.  Each
   attachment's plan remembers its kernel's cache key, so a warm op
   fetches the kernels without re-planning them.
2. **Shannon expansion on the device** — within an attachment group the
   only per-user annotation is the availability ``d`` of the user's own
   access device.  Components are independent, so the system
   availability is linear in each component's availability:
   ``A(d) = A0 + d · (A1 − A0)``, where ``A0``/``A1`` are the kernel's
   root with the device held at 0 and at 1 — two scalar
   :meth:`~repro.dependability.bdd.AvailabilityKernel.evaluate_perturbed`
   sweeps per attachment.
3. **One affine pass per user** — user *u* of class *c* at attachment
   *k* has ``d = b[c, k] · (1 − jitter[c] · r_u)``
   (:meth:`~repro.workload.population.Population.device_table`), so
   ``A_u = alpha[g] + beta[g] · r_u`` with ``alpha = A0 + slope · b`` and
   ``beta = −slope · b · jitter`` per (class, attachment) group *g*.
   The per-user work is one group index, two gathers, one multiply and
   one add.

Class summaries gather each class's values once, take the mean of that
copy, and select the p50, p90 and p99 order statistics in it with nested
single-kth partitions (a small or heavily tied class sorts instead); the
percentiles follow numpy's ``linear`` rule, so they equal
``np.percentile`` exactly.  The worst-served drilldown lists the ``top``
smallest values overall, found by one threshold pass over the users;
users tied at the threshold are listed by lowest user index.

``evaluate_population_naive`` is the honest scalar oracle: a Python loop
over users, one availability table and one
:meth:`~repro.dependability.bdd.AvailabilityKernel.availability` call
each (kernels still reused per attachment — the baseline is "no
vectorization", not "no engine").  The plane evaluates the same
polynomial in a different operation order, so the two agree to 1e-12;
the equivalence tests assert that bound.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from repro import store as _store
from repro.analysis.transformations import pair_path_sets
from repro.core.engine import compile_topology, discover_many
from repro.core.mapping import ServiceMapping
from repro.dependability.bdd import (
    AvailabilityKernel,
    compile_many,
    kernel_cache_get,
    order_from_compiled,
)
from repro.errors import AnalysisError
from repro.network.topology import Topology
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.services.composite import CompositeService
from repro.workload.population import Population

__all__ = [
    "ClassSummary",
    "WorstUser",
    "PopulationReport",
    "evaluate_population",
    "evaluate_population_naive",
]

_M_USERS = _metrics.counter(
    "repro_workload_users_evaluated_total",
    "Users served by the population evaluation plane",
)
_M_ROWS = _metrics.counter(
    "repro_workload_rows_evaluated_total",
    "Kernel rows swept by the population plane (device at 0 and at 1)",
)
_M_DEDUP = _metrics.gauge(
    "repro_workload_dedup_ratio",
    "users / kernel rows swept of the most recent population evaluation",
)


@dataclass(frozen=True)
class ClassSummary:
    """Availability distribution of one user class across its users.

    ``p50``/``p90``/``p99`` are *tail* values: the availability exceeded
    by 50% / 90% / 99% of the class's users (so ``p99 <= p90 <= p50`` —
    the deeper the tail, the worse the guaranteed experience).
    """

    name: str
    users: int
    mean: float
    minimum: float
    p50: float
    p90: float
    p99: float

    def to_row(self) -> str:
        return (
            f"{self.name:<12} {self.users:>9} {self.mean:>13.9f} "
            f"{self.p50:>13.9f} {self.p90:>13.9f} {self.p99:>13.9f} "
            f"{self.minimum:>13.9f}"
        )


@dataclass(frozen=True)
class WorstUser:
    """One row of the worst-served-user drilldown."""

    user: int
    user_class: str
    attachment: str
    availability: float


@dataclass
class PopulationReport:
    """End-to-end result of one population evaluation."""

    #: per-user availability, population order (length ``n_users``)
    availability: np.ndarray
    #: distinct (attachment, service) keys evaluated
    keys: int
    #: kernel rows swept: two (device at 0 and at 1) per key whose
    #: device is in the service structure
    rows: int
    #: registered dimension the per-user values belong to
    #: (availability-shaped: mode ``bdd-prob``, ``prob_rule="root"``)
    dimension: str = "availability"
    class_summaries: List[ClassSummary] = field(default_factory=list)
    worst: List[WorstUser] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def n_users(self) -> int:
        return len(self.availability)

    @property
    def dedup_ratio(self) -> float:
        """Users per kernel row swept."""
        return self.n_users / self.rows if self.rows else float(self.n_users)

    def to_text(self) -> str:
        lines = [
            f"population: {self.n_users} users over {self.keys} "
            f"attachment key(s); {self.rows} kernel row(s) swept "
            f"({self.dedup_ratio:.1f} users/row)"
            + (
                f"; dimension {self.dimension}"
                if self.dimension != "availability"
                else ""
            )
            + f"; {self.seconds:.3f}s",
            "",
            f"{'class':<12} {'users':>9} {'mean':>13} {'p50':>13} "
            f"{'p90':>13} {'p99':>13} {'min':>13}",
        ]
        lines.append("-" * len(lines[-1]))
        for summary in self.class_summaries:
            lines.append(summary.to_row())
        if self.worst:
            lines.append("")
            lines.append("worst-served users:")
            for entry in self.worst:
                lines.append(
                    f"  user {entry.user} ({entry.user_class} @ "
                    f"{entry.attachment}): A = {entry.availability:.9f}"
                )
        return "\n".join(lines)


MappingFactory = Callable[[str], ServiceMapping]


def _dimension_table(
    topology: Topology,
    dimension: str,
    *,
    include_links: bool,
    formula: str,
) -> Dict[str, float]:
    """Resolve *dimension* to its validated per-component table.

    The plane's perturbed-sweep machinery assumes an availability-shaped
    dimension: a probability table folded through the BDD with the system
    root as the per-user value — registry mode ``"bdd-prob"`` with
    ``prob_rule="root"``.  ``"mean-groups"`` (performability) and the
    semiring/custom modes have no single root to perturb, so they are
    rejected rather than silently mis-evaluated.
    """
    from repro.dependability.cutsets import link_component_name
    from repro.dimensions import get_dimension

    dim = get_dimension(dimension)
    if dim.mode != "bdd-prob" or dim.prob_rule != "root":
        raise AnalysisError(
            f"evaluate_population requires an availability-shaped dimension "
            f"(mode='bdd-prob', prob_rule='root'); {dim.name!r} has "
            f"mode={dim.mode!r}, prob_rule={dim.prob_rule!r}"
        )
    model = topology.model
    names = [instance.name for instance in model.instances]
    if include_links:
        names.extend(
            link_component_name(link.end1.name, link.end2.name)
            for link in model.links
        )
    return dim.primary.resolve(
        topology, names, include_links=include_links, formula=formula
    )


#: Per-attachment compile plans: ``(topology fingerprint, include_links,
#: distinct pairs)`` -> the structure fingerprint of the attachment's
#: kernel.  A hit fetches the kernel from the kernel tier and skips
#: discovery, the path-set groups, the variable order and the structure
#: fingerprint; the kernel LRU stays the only owner of kernels, so a
#: kernel it evicted (or ``kernel_cache_clear``) just re-plans.
_PLANS = _store.LRU(maxsize=4096)


def _distinct_pairs(
    mapping: ServiceMapping, service: CompositeService
) -> Tuple[Tuple[str, str], ...]:
    """The service's (requester, provider) pairs under *mapping*, one per
    unordered pair, in first-seen order."""
    seen: Dict[Tuple[str, str], Tuple[str, str]] = {}
    for pair in mapping.pairs_for_service(service):
        key = tuple(sorted((pair.requester, pair.provider)))
        if key not in seen:
            seen[key] = (pair.requester, pair.provider)
    return tuple(seen.values())


def _kernels_for_attachments(
    topology: Topology,
    service: CompositeService,
    mapping_for: MappingFactory,
    attachments: Sequence[str],
    *,
    include_links: bool,
) -> Tuple[Dict[str, AvailabilityKernel], str]:
    """One compiled kernel per attachment (the structure-dedup level),
    plus whether the plans came from the memo: ``"hit"`` (all),
    ``"miss"`` (none) or ``"partial"``.

    A planned attachment fetches its kernel by structure fingerprint.  The rest
    batch their path discovery through :func:`discover_many`, so
    duplicate pairs — the service legs that do not involve the user,
    identical for every attachment — enumerate once; kernels memoize by
    structure fingerprint in the shared LRU.  Cold compiles run in this
    process through :func:`compile_many`.
    """
    fingerprint = topology.fingerprint()
    kernels: Dict[str, AvailabilityKernel] = {}
    pending: Dict[str, Tuple[Tuple[str, str], ...]] = {}
    for attachment in attachments:
        pairs = _distinct_pairs(mapping_for(attachment), service)
        key = _PLANS.get((fingerprint, include_links, pairs))
        kernel = kernel_cache_get(key) if key is not None else None
        if kernel is None:
            pending[attachment] = pairs
        else:
            kernels[attachment] = kernel
    if not pending:
        return kernels, "hit"

    discovered = discover_many(
        topology, [pair for pairs in pending.values() for pair in pairs]
    )
    compiled_topology = compile_topology(topology)
    structures: List[List[List[FrozenSet[str]]]] = []
    orders: List[Tuple[str, ...]] = []
    for pairs in pending.values():
        groups = [
            pair_path_sets(discovered[pair], include_links=include_links)
            for pair in pairs
        ]
        components = {c for group in groups for path in group for c in path}
        structures.append(groups)
        orders.append(order_from_compiled(compiled_topology, components))
    compiled = compile_many(structures, orders=orders)
    for (attachment, pairs), kernel in zip(pending.items(), compiled):
        _PLANS.put((fingerprint, include_links, pairs), kernel.fingerprint)
        kernels[attachment] = kernel
    return kernels, "partial" if len(pending) < len(attachments) else "miss"


#: classes up to this many users sort their values; larger ones select
_SORT_CUTOFF = 4096

#: values of a strided sample that :func:`_order_statistics` checks for
#: repeats before it selects
_TIE_PROBE = 64

#: the summary's tail percentiles p50, p90 and p99 as quantiles
_TAILS = (0.5, 0.1, 0.01)


def _lerp(a: float, b: float, virtual: float) -> float:
    """numpy's ``linear`` percentile between the order statistics at
    ``floor(virtual)`` (*a*) and the next one (*b*), term for term: the
    two-sided lerp interpolates from *b* once the weight reaches 0.5."""
    t = virtual - math.floor(virtual)
    diff = b - a
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t


def _repeats(sample: np.ndarray) -> bool:
    """Whether *sample* holds some value twice."""
    ordered = np.sort(sample)
    return bool((ordered[1:] == ordered[:-1]).any())


def _order_statistics(
    values: np.ndarray, top: int
) -> Tuple[float, Tuple[float, ...], np.ndarray]:
    """The minimum, ``np.percentile(values, (50, 10, 1))`` and the
    ``min(top, n)`` smallest values ascending, of a non-empty array that
    this reorders in place.

    A small class, or one whose strided sample repeats a value, sorts:
    numpy's selection slows down many-fold when the wanted rank lies in
    a large run of equal values, its sort does not.  A larger class
    selects with nested single-kth partitions: at the p50 index, then
    at the p90 index inside the part left of it, then at the p99 index
    inside what is left of that.  Each partition leaves the order
    statistic at its index, so the next one above is the minimum of the
    slice up to the previous pivot, and the last prefix holds the
    smallest values.
    """
    n = len(values)
    ranks = [(n - 1) * q for q in _TAILS]
    if n <= _SORT_CUTOFF or _repeats(values[:: n // _TIE_PROBE]):
        values.sort()
        pairs = [
            (values[lo], values[min(lo + 1, n - 1)])
            for lo in map(math.floor, ranks)
        ]
        head = values
    else:
        # n > _SORT_CUTOFF keeps lo + 1 < hi at every step
        pairs = []
        hi = n
        for lo in map(math.floor, ranks):
            part = values[:hi]
            part.partition(lo)
            pairs.append((part[lo], part[lo + 1 :].min()))
            hi = lo
        # at least one value, for the minimum
        want = max(top, 1)
        head = values[: hi + 1] if want <= hi + 1 else values
        if want < len(head):
            head.partition(want - 1)
        head = np.sort(head[:want])
    percentiles = tuple(
        _lerp(float(a), float(b), virtual)
        for (a, b), virtual in zip(pairs, ranks)
    )
    return float(head[0]), percentiles, head[:top]


def _summarize(
    population: Population,
    availability: np.ndarray,
    report: PopulationReport,
    top: int,
) -> None:
    """Fill per-class percentiles and the worst-served drilldown.

    The worst ``top`` users are the ``top`` smallest values overall, so
    each is among its class's ``top`` smallest: the ``top``-th smallest
    of those is a threshold that one comparison pass turns into the
    candidates.  Users tied at it are listed by lowest user index.
    """
    smallest = []
    for ci, user_class in enumerate(population.classes):
        values = np.compress(population.class_index == ci, availability)
        if not len(values):
            continue
        mean = float(values.mean())
        minimum, (p50, p90, p99), head = _order_statistics(values, top)
        smallest.append(head)
        report.class_summaries.append(
            ClassSummary(
                name=user_class.name,
                users=len(values),
                mean=mean,
                minimum=minimum,
                p50=p50,
                p90=p90,
                p99=p99,
            )
        )
    if top > 0 and len(availability):
        count = min(top, len(availability))
        threshold = np.sort(np.concatenate(smallest))[count - 1]
        candidates = np.flatnonzero(availability <= threshold)
        if len(candidates) > count:
            # more users tie at the threshold than fit: all users below
            # it, then the tied ones among the first ``count`` candidates
            first = candidates[:count]
            candidates = np.concatenate(
                (
                    np.flatnonzero(availability < threshold),
                    first[availability[first] == threshold],
                )
            )
        order = np.argsort(availability[candidates], kind="stable")
        for user in candidates[order[:count]]:
            report.worst.append(
                WorstUser(
                    user=int(user),
                    user_class=population.classes[
                        population.class_index[user]
                    ].name,
                    attachment=population.attachments[
                        population.attachment_index[user]
                    ],
                    availability=float(availability[user]),
                )
            )


def evaluate_population(
    topology: Topology,
    service: CompositeService,
    mapping_for: MappingFactory,
    population: Population,
    *,
    include_links: bool = True,
    formula: str = "paper",
    dimension: str = "availability",
    top: int = 5,
) -> PopulationReport:
    """Per-user availability for a whole population, vectorized.

    *mapping_for* maps an attachment component name to the service
    mapping of a user at that position (build one from a template with
    :func:`repro.workload.mapping_for_user`).  *dimension* names any
    registered availability-shaped dimension (mode ``"bdd-prob"`` with
    ``prob_rule="root"``) from :mod:`repro.dimensions`; its annotation
    table replaces Formula 1 and the per-key expansion is unchanged.
    ``top`` sizes the worst-served-user drilldown.
    """
    if top < 0:
        raise AnalysisError(f"top must be >= 0, got {top}")
    started = time.perf_counter()
    with _trace.span(
        "workload.evaluate_population", users=population.n_users
    ) as span:
        table = _dimension_table(
            topology, dimension, include_links=include_links, formula=formula
        )
        device = population.device_table(table)

        n_attachments = len(population.attachments)
        present = np.flatnonzero(
            np.bincount(population.attachment_index, minlength=n_attachments)
        )
        attachments = [population.attachments[i] for i in present]
        with _trace.span(
            "workload.compile_keys", keys=len(attachments)
        ) as keys_span:
            kernels, plan = _kernels_for_attachments(
                topology,
                service,
                mapping_for,
                attachments,
                include_links=include_links,
            )
            keys_span.set(plan=plan)

        # Per key, the root with the device at 0 (a0) and the change when
        # it goes to 1 (slope): the root is linear in each variable.
        a0 = np.zeros(n_attachments, dtype=np.float64)
        slope = np.zeros(n_attachments, dtype=np.float64)
        rows = 0
        for attachment_ix, attachment in zip(present, attachments):
            kernel = kernels[attachment]
            var = kernel.index.get(attachment)
            if var is None:
                # the user's device is not part of the service structure:
                # every user at this key perceives the base availability
                a0[attachment_ix] = kernel.availability(table)
                continue
            low, high = kernel.evaluate_perturbed(
                kernel.probability_vector(table), var, (0.0, 1.0)
            )
            a0[attachment_ix] = low
            slope[attachment_ix] = high - low
            rows += 2

        # user u of group g = (class, attachment) has device
        # b[g] · (1 − jitter · r_u), so A_u = alpha[g] + beta[g] · r_u
        scaled = slope * device
        alpha = (a0 + scaled).ravel()
        beta = (scaled * -population.jitters()[:, np.newaxis]).ravel()
        group = population.group_index()
        availability = beta.take(group)
        availability *= population.jitter_unit
        availability += alpha.take(group)

        report = PopulationReport(
            availability=availability,
            keys=len(attachments),
            rows=rows,
            dimension=dimension,
        )
        _M_USERS.inc(population.n_users)
        _M_ROWS.inc(rows)
        _M_DEDUP.set(report.dedup_ratio)
        _summarize(population, availability, report, top)
        report.seconds = time.perf_counter() - started
        span.set(
            keys=report.keys,
            rows=report.rows,
            dedup_ratio=round(report.dedup_ratio, 3),
        )
        return report


def evaluate_population_naive(
    topology: Topology,
    service: CompositeService,
    mapping_for: MappingFactory,
    population: Population,
    *,
    include_links: bool = True,
    formula: str = "paper",
    dimension: str = "availability",
) -> np.ndarray:
    """The scalar oracle: one Python-loop evaluation per user.

    Kernels are still compiled once per attachment (the baseline measures
    the per-user loop, not redundant compilation), but every user builds
    their own availability table and runs their own scalar bottom-up
    pass — exactly what a pre-plane caller would write.
    """
    table = _dimension_table(
        topology, dimension, include_links=include_links, formula=formula
    )
    device_avail = population.device_availability(table)
    present = np.unique(population.attachment_index)
    attachments = [population.attachments[i] for i in present]
    kernels, _ = _kernels_for_attachments(
        topology,
        service,
        mapping_for,
        attachments,
        include_links=include_links,
    )
    availability = np.empty(population.n_users, dtype=np.float64)
    for user in range(population.n_users):
        attachment = population.attachments[population.attachment_index[user]]
        kernel = kernels[attachment]
        user_table = dict(table)
        user_table[attachment] = float(device_avail[user])
        availability[user] = kernel.availability(user_table)
    return availability
