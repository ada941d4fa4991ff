"""One-pass multi-dimension evaluation over the compiled structure.

:func:`evaluate_dimensions` is the registry's engine: it builds the
path-set structure **once** (distinct requester/provider pairs), resolves
and validates every needed annotation table **once** (specs shared
between dimensions — availability feeds availability, performability and
responsiveness — resolve a single time), compiles (or warm-starts from
the store) **one** BDD kernel, and evaluates every probability-valued
dimension in **one** vectorized bottom-up pass
(:meth:`~repro.dependability.bdd.AvailabilityKernel.evaluate_many_all`
over a (k_tables, n_variables) matrix).  Semiring dimensions fold the
canonical groups directly; custom dimensions receive the shared
:class:`EvaluationContext`.

Store interaction: the kernel comes from
:func:`~repro.dependability.bdd.compile_structure`, so it warm-starts
from the same ``kernel`` artifact as every other caller.  The compiled
BDD depends only on the path sets and the variable order, never on
which dimensions read it, so a process with a different dimension set
(a custom dimension registered, say) reuses it unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.errors import AnalysisError
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

from repro.dimensions.registry import (
    AnnotationSpec,
    Dimension,
    DimensionRegistry,
    default_registry,
)
from repro.dimensions.semiring import fold_structure

__all__ = [
    "EvaluationContext",
    "DimensionValue",
    "DimensionReport",
    "evaluate_dimensions",
]

_M_EVALUATIONS = _metrics.counter(
    "repro_dimensions_evaluations_total",
    "dimension evaluations by dimension name",
    labelnames=("dimension",),
)
_M_PASSES = _metrics.counter(
    "repro_dimensions_kernel_passes_total",
    "vectorized kernel passes performed by the dimension plane",
)


def _as_groups(
    structure: Any, *, include_links: bool
) -> Tuple[Tuple[Tuple[FrozenSet[str], ...], ...], Any, Optional[Sequence[str]]]:
    """Normalize *structure* (UPSIM or raw path-set groups) to canonical
    groups plus the originating model (if any) and a variable order."""
    if hasattr(structure, "path_sets") and hasattr(structure, "model"):
        from repro.analysis.transformations import service_path_set_groups
        from repro.dependability.bdd import order_from_topology
        from repro.network.topology import Topology

        raw = service_path_set_groups(structure, include_links=include_links)
        components = {c for group in raw for path in group for c in path}
        order = order_from_topology(Topology(structure.model), components)
        model: Any = structure.model
    else:
        raw = structure
        order = None
        model = None
    if not raw:
        raise AnalysisError("dimension evaluation requires at least one group")
    groups: List[Tuple[FrozenSet[str], ...]] = []
    for group in raw:
        if not group:
            raise AnalysisError("a pair with no path sets is never connected")
        groups.append(
            tuple(
                sorted(
                    {frozenset(path) for path in group},
                    key=lambda path: tuple(sorted(path)),
                )
            )
        )
    return tuple(groups), model, order


class EvaluationContext:
    """The state one :func:`evaluate_dimensions` call shares between all
    selected dimensions: canonical groups, memoized annotation tables,
    and the (lazily compiled) BDD kernel.

    Custom dimensions receive this object; its public surface is
    :attr:`groups` (canonical per-pair path tuples, each path a sorted
    component tuple), :attr:`components`, :attr:`model`, and
    :meth:`table`.
    """

    def __init__(
        self,
        structure: Any,
        *,
        include_links: bool = True,
        formula: str = "paper",
        annotations: Optional[Mapping[str, Mapping[str, float]]] = None,
    ):
        path_groups, model, order = _as_groups(
            structure, include_links=include_links
        )
        self.path_groups = path_groups
        #: per pair, the redundant paths as sorted component tuples — the
        #: shape custom fold evaluators iterate.
        self.groups: Tuple[Tuple[Tuple[str, ...], ...], ...] = tuple(
            tuple(tuple(sorted(path)) for path in group)
            for group in path_groups
        )
        self.components: Tuple[str, ...] = tuple(
            sorted({c for group in path_groups for path in group for c in path})
        )
        if not self.components:
            raise AnalysisError(
                "dimension evaluation requires at least one component"
            )
        self.model = model
        self.include_links = include_links
        self.formula = formula
        self._order = order
        self._overrides = {
            key: dict(table) for key, table in (annotations or {}).items()
        }
        self._tables: Dict[str, Dict[str, float]] = {}
        self._kernel = None

    def table(self, spec: AnnotationSpec) -> Dict[str, float]:
        """The validated component table for one annotation spec,
        memoized by key — specs shared across dimensions resolve once."""
        cached = self._tables.get(spec.key)
        if cached is not None:
            return cached
        if spec.key in self._overrides:
            table = spec.validate_table(
                self._overrides[spec.key], self.components
            )
        else:
            table = spec.resolve(
                self.model,
                self.components,
                include_links=self.include_links,
                formula=self.formula,
            )
        self._tables[spec.key] = table
        return table

    def kernel(self):
        """The compiled kernel of :attr:`path_groups`."""
        if self._kernel is None:
            from repro.dependability.bdd import compile_structure

            self._kernel = compile_structure(
                self.path_groups, order=self._order
            )
        return self._kernel


@dataclass(frozen=True)
class DimensionValue:
    """One evaluated dimension: the service-level value plus the
    per-distinct-pair breakdown (same order as the structure's groups)."""

    name: str
    value: float
    per_pair: Tuple[float, ...]
    unit: str = ""
    fmt: str = "{:.6f}"
    higher_is_better: bool = True
    description: str = ""

    def formatted(self) -> str:
        text = self.fmt.format(self.value)
        return f"{text} {self.unit}".rstrip()


class DimensionReport:
    """Evaluated dimensions in selection order, with the fingerprints
    that identify the evaluation (structure + dimension set)."""

    def __init__(
        self,
        values: Sequence[DimensionValue],
        *,
        dimension_fingerprint: str,
        kernel_fingerprint: Optional[str] = None,
    ):
        self._values: Dict[str, DimensionValue] = {
            value.name: value for value in values
        }
        self.dimension_fingerprint = dimension_fingerprint
        self.kernel_fingerprint = kernel_fingerprint

    def names(self) -> Tuple[str, ...]:
        return tuple(self._values)

    def __getitem__(self, name: str) -> DimensionValue:
        try:
            return self._values[name]
        except KeyError:
            raise AnalysisError(
                f"report has no dimension {name!r}; "
                f"evaluated: {list(self._values)}"
            ) from None

    def __contains__(self, name: object) -> bool:
        return name in self._values

    def __iter__(self):
        return iter(self._values.values())

    def __len__(self) -> int:
        return len(self._values)

    def to_dict(self) -> Dict[str, Dict[str, object]]:
        return {
            value.name: {
                "value": value.value,
                "per_pair": list(value.per_pair),
                "unit": value.unit,
                "higher_is_better": value.higher_is_better,
            }
            for value in self
        }

    def to_text(self) -> str:
        """Aligned dimension table (the report/CLI rendering the golden
        snapshot tests pin)."""
        rows = [
            (
                value.name,
                value.formatted(),
                value.fmt.format(min(value.per_pair)),
                value.fmt.format(max(value.per_pair)),
            )
            for value in self
        ]
        headers = ("dimension", "value", "pair min", "pair max")
        widths = [
            max(len(headers[i]), *(len(row[i]) for row in rows))
            for i in range(4)
        ]
        lines = [f"User-perceived dimensions ({len(next(iter(self)).per_pair)} pairs)"]
        lines.append(
            "  "
            + "  ".join(
                header.ljust(widths[i]) for i, header in enumerate(headers)
            ).rstrip()
        )
        for row in rows:
            lines.append(
                "  "
                + "  ".join(
                    cell.ljust(widths[i]) for i, cell in enumerate(row)
                ).rstrip()
            )
        return "\n".join(lines)


def evaluate_dimensions(
    structure: Any,
    names: Optional[Sequence[str]] = None,
    *,
    annotations: Optional[Mapping[str, Mapping[str, float]]] = None,
    params: Optional[Mapping[str, Mapping[str, float]]] = None,
    include_links: bool = True,
    formula: str = "paper",
    registry: Optional[DimensionRegistry] = None,
) -> DimensionReport:
    """Evaluate registered dimensions over one compiled structure.

    Parameters
    ----------
    structure:
        A :class:`repro.core.upsim.UPSIM` (annotations resolve from the
        model) or raw path-set groups (annotation tables for specs
        without defaults must then come via *annotations*).
    names:
        Dimension names to evaluate, in report order; ``None`` evaluates
        every registered dimension.
    annotations:
        Per-annotation-key overrides: ``{"availability": {comp: value}}``.
        Overrides replace resolution entirely for that key and are
        validated against the spec's bounds.
    params:
        Per-dimension parameter overrides:
        ``{"responsiveness": {"deadline": 5.0}}``.
    registry:
        Defaults to the process-wide registry (built-ins plus anything
        the caller registered).
    """
    registry = registry if registry is not None else default_registry()
    dimensions = registry.select(names)
    dimension_fp = registry.fingerprint([d.name for d in dimensions])
    context = EvaluationContext(
        structure,
        include_links=include_links,
        formula=formula,
        annotations=annotations,
    )
    with _trace.span(
        "dimensions.evaluate",
        dimensions=[d.name for d in dimensions],
        groups=len(context.groups),
        fingerprint=dimension_fp,
    ):
        # One vectorized kernel pass covers every bdd-prob dimension:
        # distinct probability tables stack into a (k, n) matrix.
        prob_dimensions = [d for d in dimensions if d.mode == "bdd-prob"]
        prob_results: Dict[str, Tuple[float, np.ndarray]] = {}
        kernel = None
        if prob_dimensions:
            kernel = context.kernel()
            table_keys: List[str] = []
            for dimension in prob_dimensions:
                if dimension.primary.key not in table_keys:
                    table_keys.append(dimension.primary.key)
            matrix = np.stack(
                [
                    kernel.probability_vector(
                        context.table(
                            next(
                                d.primary
                                for d in prob_dimensions
                                if d.primary.key == key
                            )
                        )
                    )
                    for key in table_keys
                ]
            )
            _M_PASSES.inc()
            roots, group_values = kernel.evaluate_many_all(matrix)
            for row, key in enumerate(table_keys):
                prob_results[key] = (float(roots[row]), group_values[row])

        values: List[DimensionValue] = []
        for dimension in dimensions:
            _M_EVALUATIONS.labels(dimension=dimension.name).inc()
            merged_params = dict(dimension.params)
            if params and dimension.name in params:
                merged_params.update(params[dimension.name])
            if dimension.mode == "bdd-prob":
                root, per_group = prob_results[dimension.primary.key]
                per_pair = tuple(float(v) for v in per_group)
                if dimension.prob_rule == "root":
                    value = root
                else:
                    value = float(np.mean(per_group))
            elif dimension.mode == "semiring":
                value, per_pair = fold_structure(
                    dimension.semiring,
                    context.path_groups,
                    context.table(dimension.primary),
                )
            else:
                value, per_pair = dimension.evaluate(
                    context, dimension, merged_params
                )
                per_pair = tuple(float(v) for v in per_pair)
                if len(per_pair) != len(context.groups):
                    raise AnalysisError(
                        f"custom dimension {dimension.name!r} returned "
                        f"{len(per_pair)} per-pair values for "
                        f"{len(context.groups)} groups"
                    )
            values.append(
                DimensionValue(
                    name=dimension.name,
                    value=float(value),
                    per_pair=per_pair,
                    unit=dimension.unit,
                    fmt=dimension.fmt,
                    higher_is_better=dimension.higher_is_better,
                    description=dimension.description,
                )
            )
    return DimensionReport(
        values,
        dimension_fingerprint=dimension_fp,
        kernel_fingerprint=kernel.fingerprint if kernel is not None else None,
    )
