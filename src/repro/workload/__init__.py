"""Population-scale user workloads: millions of users, vectorized end-to-end.

The paper evaluates user-perceived properties for one requester/provider
pair at a time; this package serves whole user *populations*:

* :mod:`repro.workload.population` — the population model: user classes
  (weight, device-availability profile, per-user jitter, demand,
  mobility) distributed over attachment locations of the infrastructure;
* :mod:`repro.workload.plane` — the numpy-vectorized evaluation plane:
  users sharing an attachment point and service collapse to one compiled
  structure query, each query is expanded once on the user's device
  (root with the device at 0 and at 1), and every user's availability is
  one affine step ``alpha + beta · r_u`` in their own jitter draw.

Quick start::

    from repro.casestudy import CLIENTS, printing_mapping, printing_service, usi_topology
    from repro.workload import Population, UserClass, evaluate_population

    pop = Population.generate(
        100_000,
        (UserClass("std"), UserClass("gold", weight=0.2, device_availability=0.9999)),
        CLIENTS,
        seed=7,
    )
    report = evaluate_population(
        usi_topology(),
        printing_service(),
        lambda client: printing_mapping(client, "p2"),
        pop,
    )
    print(report.to_text())
"""

from repro.workload.population import (
    Population,
    UserClass,
    mapping_for_user,
    parse_user_classes,
)
from repro.workload.plane import (
    ClassSummary,
    PopulationReport,
    WorstUser,
    evaluate_population,
    evaluate_population_naive,
)

__all__ = [
    "UserClass",
    "Population",
    "parse_user_classes",
    "mapping_for_user",
    "ClassSummary",
    "WorstUser",
    "PopulationReport",
    "evaluate_population",
    "evaluate_population_naive",
]
