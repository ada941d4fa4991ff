"""repro — User-Perceived Service Infrastructure Models (UPSIM).

A from-scratch Python reproduction of *A Model for Evaluation of
User-Perceived Service Properties* (Dittrich, Kaitovic, Murillo, Rezende;
IPDPS Workshops 2013): UML-based modeling of ICT infrastructures and
services, automatic generation of user-perceived service infrastructure
models for a given requester/provider pair, and the downstream
dependability analysis (availability, responsiveness, performability).

Quick start::

    from repro.casestudy import usi_topology, printing_service, table1_mapping
    from repro.core import generate_upsim
    from repro.analysis import analyze_upsim

    upsim = generate_upsim(usi_topology(), printing_service(), table1_mapping())
    print(analyze_upsim(upsim).to_text())

Subpackages
-----------
``repro.uml``
    UML subset: class/object/activity diagrams, profiles, constraints, XML.
``repro.vpm``
    VIATRA2-style model space, graph patterns, transformations, importers.
``repro.network``
    ICT components, standard profiles, topologies, synthetic generators.
``repro.services``
    Atomic/composite services and the service catalog.
``repro.core``
    Service mapping, path discovery, UPSIM generation, the 8-step pipeline.
``repro.dependability``
    Availability, RBDs, fault trees, cut sets, Monte Carlo, importance,
    responsiveness, performability.
``repro.analysis``
    UPSIM → dependability-model transformations and reports.
``repro.resilience``
    Fault injection (copy-on-write topology overlays), the
    degradation-tolerant pipeline runner, and fault campaigns.
``repro.casestudy``
    The USI campus network and printing service of Section VI.
``repro.viz``
    DOT / text / Mermaid renderers for all diagram kinds.
"""

from time import perf_counter as _perf_counter

# where ``upsim --trace``'s ``startup`` span begins (see repro.cli.main)
_IMPORT_STARTED = _perf_counter()

from repro.errors import (
    AnalysisError,
    ConstraintViolationError,
    FaultPlanError,
    MappingError,
    ModelError,
    ModelSpaceError,
    PathDiscoveryError,
    PathDiscoveryTimeout,
    ReproError,
    SerializationError,
    ServiceError,
    StereotypeError,
    TopologyError,
    UnreachablePairError,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "ModelError",
    "ConstraintViolationError",
    "StereotypeError",
    "SerializationError",
    "ModelSpaceError",
    "MappingError",
    "ServiceError",
    "TopologyError",
    "PathDiscoveryError",
    "PathDiscoveryTimeout",
    "UnreachablePairError",
    "AnalysisError",
    "FaultPlanError",
]
