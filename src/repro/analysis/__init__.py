"""UPSIM → dependability-model bridge and reporting (Section VII, ref [20]).

Transforms a generated UPSIM into reliability block diagrams and fault
trees, computes exact user-perceived availability (compiled BDD kernel; state
enumeration kept as the reference), and renders per-pair reports.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    "SLACheck": "sla",
    "UpgradeOption": "sla",
    "check_sla": "sla",
    "improvement_plan": "sla",
    "FailureImpact": "whatif",
    "failure_impact": "whatif",
    "combined_failure_impact": "whatif",
    "impact_table": "whatif",
    "PlacementScore": "placement",
    "rank_providers": "placement",
    "system_availability": "exact",
    "system_availability_reference": "exact",
    "pair_availability": "exact",
    "pair_availability_reference": "exact",
    "system_path_sets": "exact",
    "MAX_COMPONENTS": "exact",
    "component_availabilities": "transformations",
    "service_availability_kernel": "transformations",
    "pair_rbd": "transformations",
    "pair_fault_tree": "transformations",
    "pair_path_sets": "transformations",
    "service_rbd": "transformations",
    "service_path_set_groups": "transformations",
    "AvailabilityReport": "report",
    "PairReport": "report",
    "analyze_upsim": "report",
})
