"""Cross-dimension differential battery.

Every registered dimension is evaluated through the registry's one-pass
engine and compared against its independent legacy evaluator (and, where
the component count permits, against brute-force enumeration) on all six
synthetic topology families plus the paper's case study.  Tolerance is
1e-12 throughout — the registry path must be numerically *identical* to
the module-level evaluators, not just close.
"""

import pytest

from repro.analysis.exact import (
    MAX_COMPONENTS,
    system_availability,
    system_availability_reference,
)
from repro.analysis.transformations import (
    component_availabilities,
    service_path_set_groups,
)
from repro.dependability.performability import (
    MAX_EXACT_COMPONENTS,
    expected_reward_reference,
    reward_connectivity,
)
from repro.dependability.responsiveness import pair_responsiveness_reference
from repro.dimensions import evaluate_dimensions
from repro.network.generators import (
    balanced_tree,
    campus,
    complete,
    erdos_renyi,
    ladder,
    ring,
)

from tests.dimensions.conftest import structure_for

pytestmark = pytest.mark.dimensions

DEADLINE = 10.0

FAMILIES = {
    "campus": lambda: campus(
        dist_switches=1, edges_per_dist=1, clients_per_edge=1, dual_homed=True
    ),
    "balanced_tree": lambda: balanced_tree(2, 2),
    "ring": lambda: ring(4),
    "ladder": lambda: ladder(2),
    "complete": lambda: complete(3),
    "erdos_renyi": lambda: erdos_renyi(6, 0.5, seed=1),
}


def _legacy_values(groups, table):
    """Independent legacy evaluations of every built-in dimension."""
    components = sorted({c for g in groups for p in g for c in p})
    sub_table = {c: table[c] for c in components}

    availability = system_availability(groups, table, kernel="bdd")
    performability = None
    if len(components) <= MAX_EXACT_COMPONENTS:
        performability = expected_reward_reference(
            sub_table, reward_connectivity(groups)
        )
    responsiveness = 1.0
    latency = 0.0
    for group in groups:
        paths = [sorted(path) for path in sorted(group, key=lambda p: tuple(sorted(p)))]
        responsiveness *= pair_responsiveness_reference(
            paths,
            {c: 1.0 for c in components},
            DEADLINE,
            availabilities=table,
        ).probability
        latency += min(len(path) for path in group)
    cost = float(len(components))
    return {
        "availability": availability,
        "responsiveness": responsiveness,
        "performability": performability,
        "latency": float(latency),
        "cost": cost,
    }


@pytest.mark.parametrize("family", sorted(FAMILIES), ids=sorted(FAMILIES))
def test_registry_matches_legacy_on_family(family):
    groups, table, _ = structure_for(FAMILIES[family]())
    report = evaluate_dimensions(
        groups, annotations={"availability": table}
    )
    legacy = _legacy_values(groups, table)

    assert report["availability"].value == pytest.approx(
        legacy["availability"], abs=1e-12
    )
    assert report["responsiveness"].value == pytest.approx(
        legacy["responsiveness"], abs=1e-12
    )
    if legacy["performability"] is not None:
        assert report["performability"].value == pytest.approx(
            legacy["performability"], abs=1e-12
        )
    assert report["latency"].value == pytest.approx(legacy["latency"], abs=1e-12)
    assert report["cost"].value == pytest.approx(legacy["cost"], abs=1e-12)

    components = {c for g in groups for p in g for c in p}
    if len(components) <= MAX_COMPONENTS:
        assert report["availability"].value == pytest.approx(
            system_availability_reference(groups, table), abs=1e-12
        )


@pytest.mark.parametrize("family", sorted(FAMILIES), ids=sorted(FAMILIES))
def test_one_pass_equals_per_dimension_passes(family):
    """Evaluating k dimensions together must be bit-equal to evaluating
    each alone — the shared kernel pass changes cost, never values."""
    groups, table, _ = structure_for(FAMILIES[family]())
    together = evaluate_dimensions(
        groups, annotations={"availability": table}
    )
    for name in together.names():
        alone = evaluate_dimensions(
            groups, [name], annotations={"availability": table}
        )
        assert alone[name].value == together[name].value
        assert alone[name].per_pair == together[name].per_pair


class TestCaseStudy:
    def test_upsim_t1_p2(self, upsim_t1_p2):
        report = evaluate_dimensions(upsim_t1_p2)
        groups = service_path_set_groups(upsim_t1_p2, include_links=True)
        table = component_availabilities(upsim_t1_p2.model, include_links=True)
        assert report["availability"].value == pytest.approx(
            system_availability_reference(groups, table), abs=1e-12
        )
        per_group = report["availability"].per_pair
        assert report["performability"].value == pytest.approx(
            sum(per_group) / len(per_group), abs=1e-12
        )

    def test_upsim_t15_p3(self, upsim_t15_p3):
        report = evaluate_dimensions(upsim_t15_p3)
        groups = service_path_set_groups(upsim_t15_p3, include_links=True)
        table = component_availabilities(upsim_t15_p3.model, include_links=True)
        assert report["availability"].value == pytest.approx(
            system_availability(groups, table, kernel="bdd"), abs=1e-12
        )

    def test_delegates_agree_with_registry(self, upsim_t1_p2):
        from repro.dependability import (
            service_availability,
            service_performability,
        )

        report = evaluate_dimensions(
            upsim_t1_p2, ["availability", "performability"]
        )
        assert service_availability(upsim_t1_p2) == pytest.approx(
            report["availability"].value, abs=1e-12
        )
        assert service_performability(upsim_t1_p2) == pytest.approx(
            report["performability"].value, abs=1e-12
        )

    def test_param_override_changes_deadline(self, upsim_t1_p2):
        tight = evaluate_dimensions(
            upsim_t1_p2,
            ["responsiveness"],
            params={"responsiveness": {"deadline": 1.0}},
        )["responsiveness"].value
        loose = evaluate_dimensions(
            upsim_t1_p2,
            ["responsiveness"],
            params={"responsiveness": {"deadline": 1e6}},
        )["responsiveness"].value
        # with an effectively infinite deadline responsiveness reduces to
        # the pure availability race; a 1 ms deadline over ~11 traversed
        # components is nearly always missed
        assert tight < 1e-3
        assert loose > 0.9
        assert tight < loose

    def test_annotation_override_drives_latency(self, upsim_t1_p2):
        from repro.analysis.transformations import service_path_set_groups

        groups = service_path_set_groups(upsim_t1_p2, include_links=True)
        components = {c for g in groups for p in g for c in p}
        report = evaluate_dimensions(
            upsim_t1_p2,
            ["latency"],
            annotations={"mean_latency_ms": {c: 2.5 for c in components}},
        )
        default = evaluate_dimensions(
            upsim_t1_p2, ["latency"]
        )
        assert report["latency"].value == pytest.approx(
            2.5 * default["latency"].value, abs=1e-9
        )
