"""Exact user-perceived availability by vectorized state enumeration.

The service-level availability is the probability that **every** distinct
requester/provider pair is connected — a conjunction of path-set unions
with heavily shared components (the whole point of the UPSIM: redundant
core components appear in every pair's paths).  Naive series/parallel
multiplication is wrong under sharing; this module computes the exact
value by enumerating all component states, vectorized with numpy:

* the 2^n component states are represented as the integers ``0 … 2^n-1``
  (bit *i* = component *i* up);
* each path becomes a bitmask ``m``; the path works in exactly the states
  with ``state & m == m`` — one vectorized comparison;
* state probabilities are accumulated multiplicatively per bit, again
  vectorized.

With n components this costs O(2^n) memory/time; :data:`MAX_COMPONENTS`
caps n at 22 (≈ 34 MB of float64), which comfortably covers case-study
UPSIMs.  The enumeration is kept as the ``*_reference`` oracle the
product route is tested against: :func:`system_availability` answers
through the compiled :mod:`repro.dependability.bdd` kernel — one O(|BDD|)
pass per probability vector, no component bound, structure memoized
across calls.  :func:`system_path_sets` is the input of the
inclusion–exclusion oracle.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Sequence

import numpy as np

from repro.errors import AnalysisError
from repro.obs import metrics as _metrics

__all__ = [
    "system_availability",
    "pair_availability",
    "system_availability_reference",
    "pair_availability_reference",
    "system_path_sets",
    "MAX_COMPONENTS",
]

#: Exact enumeration bound (2^22 states ≈ 34 MB of probabilities).
MAX_COMPONENTS = 22

_M_EVALUATIONS = _metrics.counter(
    "repro_analysis_evaluations_total", "system_availability evaluations"
)


def _state_probabilities(availabilities: Sequence[float]) -> np.ndarray:
    """Probability of every component state, as a 2^n vector.

    Built iteratively: for each component the state space doubles, the
    lower half (bit clear = down) scaled by ``1-A``, the upper half by
    ``A``.
    """
    probabilities = np.array([1.0])
    for availability in availabilities:
        probabilities = np.concatenate(
            (probabilities * (1.0 - availability), probabilities * availability)
        )
    return probabilities


def system_availability(
    path_set_groups: Sequence[Sequence[FrozenSet[str]]],
    availabilities: Dict[str, float],
) -> float:
    """Exact P(every group has at least one fully-available path set).

    *path_set_groups* holds, per requester/provider pair, that pair's path
    component sets.  Shared components across groups are handled exactly —
    each physical component is one random variable, regardless of how many
    paths and pairs it appears in.

    The structure compiles into a memoized
    :class:`repro.dependability.bdd.AvailabilityKernel` (no component
    bound; repeat evaluations of the same structure only re-run the
    O(|BDD|) probability pass).
    """
    from repro.dependability.bdd import system_availability_bdd

    _M_EVALUATIONS.inc()
    return system_availability_bdd(path_set_groups, availabilities)


def system_path_sets(
    path_set_groups: Sequence[Sequence[FrozenSet[str]]],
) -> List[FrozenSet[str]]:
    """The system-level minimal path sets: the conjunction over groups
    distributes into unions of one path per group, minimized.

    This is the shape inclusion–exclusion needs; the cross product can
    grow multiplicatively, so the incremental result is re-minimized after
    every group and the inclusion–exclusion bound is enforced along the
    way.
    """
    from repro.dependability.cutsets import (
        MAX_INCLUSION_EXCLUSION_SETS,
        minimize_sets,
    )

    if not path_set_groups:
        raise AnalysisError("system_availability requires at least one group")
    sets: List[FrozenSet[str]] = [frozenset()]
    for group in path_set_groups:
        if not group:
            raise AnalysisError("a pair with no path sets is never connected")
        sets = minimize_sets(
            partial | path for partial in sets for path in group
        )
        if len(sets) > MAX_INCLUSION_EXCLUSION_SETS:
            raise AnalysisError(
                f"system path sets exceed {MAX_INCLUSION_EXCLUSION_SETS} "
                f"(got {len(sets)}); use the bdd kernel instead"
            )
    if sets == [frozenset()]:
        raise AnalysisError("system_availability requires at least one component")
    return sets


def system_availability_reference(
    path_set_groups: Sequence[Sequence[FrozenSet[str]]],
    availabilities: Dict[str, float],
) -> float:
    """The seed evaluator — vectorized enumeration of all 2^n component
    states.  Kept verbatim as the oracle the compiled kernels are tested
    against (PR-1 ``*_reference`` convention).
    """
    if not path_set_groups:
        raise AnalysisError("system_availability requires at least one group")
    components: List[str] = sorted(
        {c for group in path_set_groups for path in group for c in path}
    )
    if not components:
        raise AnalysisError("system_availability requires at least one component")
    if len(components) > MAX_COMPONENTS:
        raise AnalysisError(
            f"exact enumeration over {len(components)} components exceeds the "
            f"{MAX_COMPONENTS}-component bound; use Monte Carlo instead"
        )
    missing = [c for c in components if c not in availabilities]
    if missing:
        raise AnalysisError(f"no availability for components {missing}")
    values = [availabilities[c] for c in components]
    for name, value in zip(components, values):
        if not 0.0 <= value <= 1.0:
            raise AnalysisError(
                f"availability of {name!r} must be in [0, 1], got {value}"
            )

    bit = {name: 1 << i for i, name in enumerate(components)}
    n = len(components)
    # bit i of the state integer = component i up.  The probability vector
    # from _state_probabilities is indexed identically: appending component
    # i doubled the space with bit i as the new most-significant bit.
    states = np.arange(1 << n, dtype=np.uint64)
    probabilities = _state_probabilities(values)

    system_up = np.ones(1 << n, dtype=bool)
    for group in path_set_groups:
        if not group:
            raise AnalysisError("a pair with no path sets is never connected")
        group_up = np.zeros(1 << n, dtype=bool)
        for path in group:
            mask = np.uint64(sum(bit[c] for c in path))
            group_up |= (states & mask) == mask
        system_up &= group_up
    return float(probabilities[system_up].sum())


def pair_availability(
    path_sets: Sequence[FrozenSet[str]],
    availabilities: Dict[str, float],
) -> float:
    """Exact availability of a single requester/provider pair."""
    return system_availability([list(path_sets)], availabilities)


def pair_availability_reference(
    path_sets: Sequence[FrozenSet[str]],
    availabilities: Dict[str, float],
) -> float:
    """Seed pair evaluator (state enumeration) — the equivalence oracle."""
    return system_availability_reference([list(path_sets)], availabilities)
