"""Component importance measures on the user-perceived structure.

The UPSIM's troubleshooting use-case — "a quick overview on which ICT
components can be the cause" of a service problem (Section VII) — is
quantified by classic importance measures.  All measures are computed
against an arbitrary availability evaluator (a function from a component→
availability table to system availability), so they work identically with
the RBD, fault-tree or inclusion–exclusion back ends.

* **Birnbaum** ``I_B(c) = A_sys(A_c := 1) - A_sys(A_c := 0)`` — the
  partial derivative of system availability w.r.t. the component's.
* **Improvement potential** ``I_IP(c) = A_sys(A_c := 1) - A_sys`` — the
  headroom gained by a perfect component.
* **Risk achievement worth** ``RAW(c) = U_sys(A_c := 0) / U_sys`` — how
  much worse unavailability gets if the component is down.
* **Fussell–Vesely** ``I_FV(c) ≈ (U_sys - U_sys(A_c := 1)) / U_sys`` —
  the fraction of system unavailability the component contributes to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.errors import AnalysisError

__all__ = ["ImportanceRow", "importance_table", "importance_from_birnbaum"]

Evaluator = Callable[[Dict[str, float]], float]


@dataclass(frozen=True)
class ImportanceRow:
    """All importance measures for one component."""

    component: str
    availability: float
    birnbaum: float
    improvement_potential: float
    risk_achievement_worth: float
    fussell_vesely: float


def _rank(row: ImportanceRow):
    """Descending Birnbaum importance, rounded to 12 decimals so that
    symmetric components, whose values differ only in float noise,
    rank by name whichever evaluator produced them."""
    return (-round(row.birnbaum, 12), row.component)


def importance_table(
    evaluator: Evaluator,
    availabilities: Dict[str, float],
    components: Sequence[str] | None = None,
) -> List[ImportanceRow]:
    """Compute all measures for every component (or the given subset).

    *evaluator* must be deterministic in its argument; it is called with
    perturbed copies of *availabilities* (component pinned to 0 or 1).
    Rows are sorted by descending Birnbaum importance, ties by name.
    """
    names = list(components) if components is not None else sorted(availabilities)
    unknown = [n for n in names if n not in availabilities]
    if unknown:
        raise AnalysisError(f"no availability for components {unknown}")

    base = evaluator(dict(availabilities))
    if not 0.0 <= base <= 1.0:
        raise AnalysisError(f"evaluator returned {base}, outside [0, 1]")
    base_unavailability = 1.0 - base

    rows: List[ImportanceRow] = []
    for name in names:
        up = dict(availabilities)
        up[name] = 1.0
        down = dict(availabilities)
        down[name] = 0.0
        a_up = evaluator(up)
        a_down = evaluator(down)
        birnbaum = a_up - a_down
        improvement = a_up - base
        if base_unavailability > 0.0:
            raw = (1.0 - a_down) / base_unavailability
            fussell_vesely = (base_unavailability - (1.0 - a_up)) / base_unavailability
        else:
            raw = 1.0
            fussell_vesely = 0.0
        rows.append(
            ImportanceRow(
                component=name,
                availability=availabilities[name],
                birnbaum=birnbaum,
                improvement_potential=improvement,
                risk_achievement_worth=raw,
                fussell_vesely=fussell_vesely,
            )
        )
    rows.sort(key=_rank)
    return rows


def importance_from_birnbaum(
    availabilities: Dict[str, float],
    base_availability: float,
    birnbaum: Dict[str, float],
    components: Sequence[str] | None = None,
) -> List[ImportanceRow]:
    """All measures from precomputed Birnbaum importances.

    System availability is multilinear in each component's availability,
    so ``A(A_c := x) = A + (x - A_c)·I_B(c)`` — the pinned evaluations
    behind every measure follow from the base value and the gradient
    without re-evaluating the system.  Paired with
    :meth:`repro.dependability.bdd.AvailabilityKernel.birnbaum` (which
    yields the whole gradient in one extra DAG pass) this replaces the
    ``2n + 1`` full evaluations of :func:`importance_table`; the rows are
    identical.

    Components missing from *birnbaum* are treated as irrelevant to the
    structure (gradient 0) — e.g. mapped instances that no discovered
    path traverses.
    """
    names = list(components) if components is not None else sorted(availabilities)
    unknown = [n for n in names if n not in availabilities]
    if unknown:
        raise AnalysisError(f"no availability for components {unknown}")
    if not 0.0 <= base_availability <= 1.0:
        raise AnalysisError(
            f"base availability {base_availability} is outside [0, 1]"
        )
    base_unavailability = 1.0 - base_availability

    rows: List[ImportanceRow] = []
    for name in names:
        gradient = birnbaum.get(name, 0.0)
        availability = availabilities[name]
        a_up = base_availability + (1.0 - availability) * gradient
        a_down = base_availability - availability * gradient
        if base_unavailability > 0.0:
            raw = (1.0 - a_down) / base_unavailability
            fussell_vesely = (
                base_unavailability - (1.0 - a_up)
            ) / base_unavailability
        else:
            raw = 1.0
            fussell_vesely = 0.0
        rows.append(
            ImportanceRow(
                component=name,
                availability=availability,
                birnbaum=a_up - a_down,
                improvement_potential=a_up - base_availability,
                risk_achievement_worth=raw,
                fussell_vesely=fussell_vesely,
            )
        )
    rows.sort(key=_rank)
    return rows
