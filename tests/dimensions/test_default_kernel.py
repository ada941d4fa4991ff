"""One availability route: every entry point evaluates through the
compiled BDD.  Only :func:`run_campaign` still takes ``kernel=``, as the
end-to-end benchmark's oracle hook, and it defaults to ``"bdd"``."""

import inspect

import pytest

from repro.analysis.exact import (
    pair_availability,
    system_availability,
    system_availability_reference,
)
from repro.analysis.report import analyze_upsim
from repro.analysis.transformations import (
    component_availabilities,
    service_path_set_groups,
)
from repro.analysis.whatif import (
    combined_failure_impact,
    failure_impact,
    impact_table,
)
from repro.dependability.bdd import system_availability_bdd
from repro.resilience.campaign import run_campaign

fs = frozenset

pytestmark = pytest.mark.dimensions


class TestSingleConstant:
    @pytest.mark.parametrize(
        "func",
        [
            system_availability,
            pair_availability,
            analyze_upsim,
            combined_failure_impact,
            failure_impact,
            impact_table,
            run_campaign,
        ],
        ids=lambda f: f.__name__,
    )
    def test_every_entry_point_defaults_to_it(self, func):
        parameters = inspect.signature(func).parameters
        if func is run_campaign:
            assert parameters["kernel"].default == "bdd"
        else:
            assert "kernel" not in parameters


class TestDefaultBehaviour:
    def test_exact_default_matches_explicit_bdd(self):
        table = {"x": 0.9, "a": 0.8, "b": 0.7}
        groups = [[fs({"x", "a"}), fs({"x", "b"})], [fs({"x"})]]
        assert system_availability(groups, table) == system_availability_bdd(
            groups, table
        )

    def test_enum_reference_still_selectable(self):
        table = {"a": 0.25}
        groups = [[fs("a")]]
        assert system_availability_reference(groups, table) == pytest.approx(
            system_availability(groups, table), abs=1e-15
        )

    def test_report_default_matches_exact_default(self, upsim_t1_p2):
        # the report compiles in topology order, system_availability in
        # frequency order: the same function, up to rounding
        report = analyze_upsim(upsim_t1_p2)
        assert report.service_availability == pytest.approx(
            system_availability(
                service_path_set_groups(upsim_t1_p2),
                component_availabilities(upsim_t1_p2.model),
            ),
            abs=1e-12,
        )
