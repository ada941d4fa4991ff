"""Pluggable user-perceived dimensions over one compiled structure.

The paper evaluates several user-perceived properties — availability,
responsiveness, performability — over the *same* user–service path
structure.  This package makes that literal: a dimension is a named
(annotation schema, fold semiring / evaluation rule, formatting) record
in a registry, and :func:`evaluate_dimensions` evaluates any set of
registered dimensions with one structure build, one annotation
resolution per spec, and one vectorized kernel pass.

See ``docs/dimensions.md`` for the registry API, the semiring contract,
and a custom-dimension walkthrough.
"""

from repro.dimensions.builtins import (
    AVAILABILITY_SPEC,
    MEAN_LATENCY_SPEC,
    UNIT_COST_SPEC,
    builtin_dimensions,
    pair_responsiveness_fold,
    resolve_availability,
)
from repro.dimensions.evaluate import (
    DimensionReport,
    DimensionValue,
    EvaluationContext,
    evaluate_dimensions,
)
from repro.dimensions.registry import (
    MODES,
    PROB_RULES,
    AnnotationSpec,
    Dimension,
    DimensionRegistry,
    default_registry,
    dimension_from_dict,
    dimension_names,
    get_dimension,
    register_dimension,
)
from repro.dimensions.semiring import (
    LAWS,
    PROBABILITY,
    SET_UNION,
    TROPICAL_MIN_SUM,
    Semiring,
    fold_group,
    fold_path,
    fold_structure,
    named_semiring,
)

__all__ = [
    "AnnotationSpec",
    "Dimension",
    "DimensionRegistry",
    "DimensionReport",
    "DimensionValue",
    "EvaluationContext",
    "LAWS",
    "MODES",
    "PROB_RULES",
    "PROBABILITY",
    "SET_UNION",
    "TROPICAL_MIN_SUM",
    "Semiring",
    "AVAILABILITY_SPEC",
    "MEAN_LATENCY_SPEC",
    "UNIT_COST_SPEC",
    "builtin_dimensions",
    "default_registry",
    "dimension_from_dict",
    "dimension_names",
    "evaluate_dimensions",
    "fold_group",
    "fold_path",
    "fold_structure",
    "get_dimension",
    "named_semiring",
    "pair_responsiveness_fold",
    "register_dimension",
    "resolve_availability",
]
