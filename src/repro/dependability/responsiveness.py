"""Responsiveness: probability of service completion within a deadline.

Section VII lists responsiveness [7] among the user-perceived properties
the UPSIM enables "with only minor changes to the mapping file".  The
model here follows the decentralized-service-discovery evaluation of [7]:
every component traversed by a request contributes a random processing /
forwarding latency; responsiveness for deadline *d* is the probability
that the end-to-end latency does not exceed *d* — conditioned on the
components being up at all.

Latency model: each component (node or link) has an exponential latency
with a given mean.  A path's latency is then *hypoexponential* (a sum of
independent exponentials); its CDF is evaluated exactly through the
matrix exponential of the associated phase-type generator — numerically
robust even with repeated rates, where the classical partial-fraction
formula breaks down.

For redundant paths the request races over all of them (the UPSIM keeps
"all redundant paths between requester and provider"), so path latencies
combine as a minimum.  Shared components make path latencies dependent;
:func:`pair_responsiveness` therefore offers both the independence
approximation (fast, upper bound in practice) and an exact Monte-Carlo
evaluation that samples shared latencies once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import AnalysisError

__all__ = [
    "hypoexponential_cdf",
    "path_responsiveness",
    "pair_responsiveness",
    "pair_responsiveness_reference",
    "ResponsivenessResult",
    "structure_completion_samples",
    "service_responsiveness",
]


def hypoexponential_cdf(rates: Sequence[float], deadline: float) -> float:
    """P(X_1 + … + X_n <= deadline) for independent ``X_i ~ Exp(rate_i)``.

    Uses the phase-type representation: the CDF equals
    ``1 - e_1ᵀ exp(Q·t) 1`` with the bidiagonal generator ``Q`` holding
    ``-λ_i`` on the diagonal and ``λ_i`` on the superdiagonal.

    Redundant path sets in a mapped topology overwhelmingly repeat the
    same rate profile (annotation defaults make most paths of equal hop
    count identical), so results are memoized per distinct
    ``(rates, deadline)`` — each profile pays the matrix exponential
    once per process.
    """
    if deadline < 0:
        return 0.0
    return _hypoexponential_cdf(
        tuple(float(rate) for rate in rates), float(deadline)
    )


@lru_cache(maxsize=4096)
def _hypoexponential_cdf(rates: Tuple[float, ...], deadline: float) -> float:
    from scipy.linalg import expm

    rates_arr = np.asarray(rates, dtype=np.float64)
    if rates_arr.size == 0:
        return 1.0
    if np.any(rates_arr <= 0):
        raise AnalysisError("all latency rates must be > 0")
    n = rates_arr.size
    generator = np.zeros((n, n))
    generator[np.arange(n), np.arange(n)] = -rates_arr
    generator[np.arange(n - 1), np.arange(1, n)] = rates_arr[:-1]
    transient = expm(generator * deadline)
    survival = transient[0, :].sum()
    return float(min(1.0, max(0.0, 1.0 - survival)))


def path_responsiveness(
    mean_latencies: Sequence[float], deadline: float
) -> float:
    """Responsiveness of one path from per-component mean latencies."""
    if any(m <= 0 for m in mean_latencies):
        raise AnalysisError("mean latencies must be > 0")
    return hypoexponential_cdf([1.0 / m for m in mean_latencies], deadline)


@dataclass(frozen=True)
class ResponsivenessResult:
    """Responsiveness of a requester/provider pair at one deadline."""

    deadline: float
    probability: float
    per_path: Tuple[float, ...]
    method: str


def pair_responsiveness(
    paths: Sequence[Sequence[str]],
    mean_latency: Dict[str, float],
    deadline: float,
    *,
    availabilities: Optional[Dict[str, float]] = None,
    method: str = "independent",
    samples: int = 50_000,
    seed: int = 0,
) -> ResponsivenessResult:
    """Responsiveness over redundant paths.

    Thin registry-backed delegate: the ``"independent"`` method is the
    single fold implementation behind the registered ``responsiveness``
    dimension (:func:`repro.dimensions.pair_responsiveness_fold`), so the
    legacy API and :func:`repro.dimensions.evaluate_dimensions` can never
    drift apart.  ``"montecarlo"`` (and the equivalence tests) run
    through :func:`pair_responsiveness_reference`, the legacy evaluator
    kept verbatim as the oracle.

    Parameters
    ----------
    paths:
        Component-name sequences (typically node paths; include link names
        if links contribute latency).
    mean_latency:
        Mean latency per component, same unit as *deadline*.
    availabilities:
        Optional steady-state availabilities; when given, a path only
        counts if all its components are up (sampled in the Monte-Carlo
        method; multiplied in the independent method).
    method:
        ``"independent"`` — combine per-path CDFs as
        ``1 - ∏(1 - A_path·F_path(d))``, treating paths as independent;
        ``"montecarlo"`` — sample shared component latencies (and up/down
        states) once per trial, exact in the limit.
    """
    if not paths:
        raise AnalysisError("pair responsiveness requires at least one path")
    if deadline < 0:
        raise AnalysisError(f"deadline must be >= 0, got {deadline}")
    component_names = sorted({c for path in paths for c in path})
    missing = [c for c in component_names if c not in mean_latency]
    if missing:
        raise AnalysisError(f"no mean latency for components {missing}")
    if method == "independent":
        from repro.dimensions.builtins import pair_responsiveness_fold

        probability, per_path = pair_responsiveness_fold(
            paths, mean_latency, deadline, availabilities=availabilities
        )
        return ResponsivenessResult(deadline, probability, per_path, method)
    if method != "montecarlo":
        raise AnalysisError(f"unknown responsiveness method {method!r}")
    return pair_responsiveness_reference(
        paths,
        mean_latency,
        deadline,
        availabilities=availabilities,
        method=method,
        samples=samples,
        seed=seed,
    )


def pair_responsiveness_reference(
    paths: Sequence[Sequence[str]],
    mean_latency: Dict[str, float],
    deadline: float,
    *,
    availabilities: Optional[Dict[str, float]] = None,
    method: str = "independent",
    samples: int = 50_000,
    seed: int = 0,
) -> ResponsivenessResult:
    """The legacy per-module evaluator, kept verbatim as the oracle the
    registry fold is differentially tested against (PR-1 ``*_reference``
    convention)."""
    if not paths:
        raise AnalysisError("pair responsiveness requires at least one path")
    if deadline < 0:
        raise AnalysisError(f"deadline must be >= 0, got {deadline}")
    component_names = sorted({c for path in paths for c in path})
    missing = [c for c in component_names if c not in mean_latency]
    if missing:
        raise AnalysisError(f"no mean latency for components {missing}")

    per_path: List[float] = []
    for path in paths:
        prob = path_responsiveness([mean_latency[c] for c in path], deadline)
        if availabilities is not None:
            for component in path:
                if component not in availabilities:
                    raise AnalysisError(
                        f"no availability for component {component!r}"
                    )
                prob *= availabilities[component]
        per_path.append(prob)

    if method == "independent":
        miss = 1.0
        for prob in per_path:
            miss *= 1.0 - prob
        return ResponsivenessResult(deadline, 1.0 - miss, tuple(per_path), method)

    if method != "montecarlo":
        raise AnalysisError(f"unknown responsiveness method {method!r}")

    rng = np.random.default_rng(seed)
    index = {name: i for i, name in enumerate(component_names)}
    means = np.array([mean_latency[c] for c in component_names])
    latencies = rng.exponential(means, size=(samples, len(component_names)))
    if availabilities is not None:
        avail = np.array([availabilities[c] for c in component_names])
        up = rng.random((samples, len(component_names))) < avail
    else:
        up = np.ones((samples, len(component_names)), dtype=bool)
    success = np.zeros(samples, dtype=bool)
    for path in paths:
        idx = np.array([index[c] for c in path], dtype=np.intp)
        path_ok = up[:, idx].all(axis=1)
        path_latency = latencies[:, idx].sum(axis=1)
        success |= path_ok & (path_latency <= deadline)
    probability = float(success.mean())
    return ResponsivenessResult(deadline, probability, tuple(per_path), method)


# ---------------------------------------------------------------------------
# service-level responsiveness over the activity structure


def structure_completion_samples(
    structure,
    step_means: Dict[str, float],
    samples: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Sampled completion times of a series-parallel activity structure.

    The structure tree comes from
    :meth:`repro.uml.activity.Activity.to_structure`; each leaf (atomic
    service execution) draws an exponential duration with the given mean.
    Series sections add durations; parallel sections complete when their
    slowest branch does (max) — the join semantics of the activity diagram.

    Returns a vector of *samples* completion times (vectorized numpy
    throughout; no Python-level per-sample loop).
    """
    from repro.uml.activity import SPLeaf, SPParallel, SPSeries

    if isinstance(structure, SPLeaf):
        name = structure.atomic_service_name
        if name not in step_means:
            raise AnalysisError(f"no mean duration for atomic service {name!r}")
        mean = step_means[name]
        if mean <= 0:
            raise AnalysisError(
                f"mean duration of {name!r} must be > 0, got {mean}"
            )
        return rng.exponential(mean, size=samples)
    if isinstance(structure, SPSeries):
        total = np.zeros(samples)
        for child in structure.children:
            total += structure_completion_samples(child, step_means, samples, rng)
        return total
    if isinstance(structure, SPParallel):
        stacked = np.stack(
            [
                structure_completion_samples(child, step_means, samples, rng)
                for child in structure.children
            ]
        )
        return stacked.max(axis=0)
    raise AnalysisError(f"unknown structure node {type(structure).__name__}")


def service_responsiveness(
    service,
    step_means: Dict[str, float],
    deadline: float,
    *,
    samples: int = 100_000,
    seed: int = 0,
) -> float:
    """P(the whole composite service completes within *deadline*).

    *service* is a :class:`repro.services.CompositeService` (or any object
    with a ``structure()`` method returning an SP tree); *step_means* maps
    each atomic service to its mean execution duration.  Durations are
    sampled per the activity semantics: sequential steps add, parallel
    branches synchronize at the join (max).

    For a purely sequential service this converges to the hypoexponential
    CDF of the step rates (cross-checked in the tests).
    """
    if deadline < 0:
        raise AnalysisError(f"deadline must be >= 0, got {deadline}")
    if samples <= 0:
        raise AnalysisError(f"samples must be > 0, got {samples}")
    structure = service.structure() if hasattr(service, "structure") else service
    rng = np.random.default_rng(seed)
    times = structure_completion_samples(structure, step_means, samples, rng)
    return float((times <= deadline).mean())
