"""Tests for the what-if failure analysis."""

import pytest

from repro.analysis.exact import system_availability_reference
from repro.analysis.transformations import (
    component_availabilities,
    service_path_set_groups,
)
from repro.analysis.whatif import failure_impact, impact_table
from repro.core import ServiceMapping, ServiceMappingPair, generate_upsim
from repro.errors import AnalysisError
from repro.network import Topology
from repro.network.generators import ring
from repro.services import AtomicService, CompositeService

# what-if is the third caller of the conditioning primitive campaigns use
pytestmark = pytest.mark.campaign


class TestFailureImpact:
    def test_spof_disconnects_everything(self, upsim_t1_p2):
        impact = failure_impact(upsim_t1_p2, "printS", include_links=False)
        # printS is endpoint of every pair: all 5 atomic services die
        assert len(impact.disconnected_services) == 5
        assert impact.is_single_point_of_failure
        assert impact.conditional_availability == 0.0

    def test_client_failure_kills_only_its_service(self, upsim_t1_p2):
        impact = failure_impact(upsim_t1_p2, "t1", include_links=False)
        assert impact.disconnected_services == ("request_printing",)
        assert impact.degraded_services == ()
        assert impact.conditional_availability == 0.0  # service needs all pairs

    def test_c2_kills_p2_side_degrades_t1_side(self, upsim_t1_p2):
        """c2 is the only core uplink of d2 (p2's distribution switch), so
        it hard-disconnects the four p2↔printS services while only
        removing t1's redundant long path."""
        impact = failure_impact(upsim_t1_p2, "c2", include_links=False)
        assert set(impact.disconnected_services) == {
            "login_to_printer",
            "send_document_list",
            "select_documents",
            "send_documents",
        }
        assert impact.degraded_services == ("request_printing",)
        assert impact.conditional_availability == 0.0

    def test_core_link_only_degrades(self, upsim_t1_p2):
        """The c1—c2 cross-link is the only truly redundant component in
        this UPSIM: losing it removes each pair's long path but
        disconnects nothing."""
        impact = failure_impact(upsim_t1_p2, "c1|c2", include_links=True)
        assert impact.disconnected_services == ()
        assert set(impact.degraded_services) == set(upsim_t1_p2.path_sets)
        assert impact.conditional_availability > 0.99
        assert impact.availability_loss >= 0.0

    def test_baseline_matches_exact(self, upsim_t1_p2):
        from repro.analysis import (
            component_availabilities,
            service_path_set_groups,
            system_availability,
        )

        impact = failure_impact(upsim_t1_p2, "c2", include_links=False)
        table = component_availabilities(upsim_t1_p2.model, include_links=False)
        groups = service_path_set_groups(upsim_t1_p2, include_links=False)
        assert impact.baseline_availability == pytest.approx(
            system_availability(groups, table)
        )

    def test_link_component(self, upsim_t1_p2):
        impact = failure_impact(upsim_t1_p2, "c1|c2", include_links=True)
        assert impact.disconnected_services == ()
        assert impact.degraded_services  # the long paths use the core link

    def test_unknown_component(self, upsim_t1_p2):
        with pytest.raises(AnalysisError):
            failure_impact(upsim_t1_p2, "ghost")

    def test_truncated_path_set_is_rejected(self):
        """Conditioning a path set cut at ``max_paths`` would drop the
        paths that survive the fault: on ring(6) one path per pair made
        ``sw2`` look like a hard outage, where the full UPSIM only loses
        redundancy."""
        service = CompositeService.sequential(
            "access", (AtomicService("a"), AtomicService("b"))
        )
        mapping = ServiceMapping(
            [
                ServiceMappingPair("a", "client", "server"),
                ServiceMappingPair("b", "server", "client"),
            ]
        )
        topology = Topology(ring(6).build())
        full = failure_impact(generate_upsim(topology, service, mapping), "sw2")
        assert full.disconnected_services == ()
        assert full.conditional_availability > 0.99
        truncated = generate_upsim(topology, service, mapping, max_paths=1)
        with pytest.raises(AnalysisError, match=r"\('client', 'server'\)"):
            failure_impact(truncated, "sw2")


class TestImpactTable:
    def test_ranked_most_severe_first(self, upsim_t1_p2):
        impacts = impact_table(upsim_t1_p2)
        outage_counts = [len(i.disconnected_services) for i in impacts]
        assert outage_counts == sorted(outage_counts, reverse=True)
        # the shared endpoints top the list
        assert impacts[0].component in ("printS", "d4", "c1")

    def test_all_components_covered(self, upsim_t1_p2):
        impacts = impact_table(upsim_t1_p2)
        assert {i.component for i in impacts} == set(upsim_t1_p2.component_names)

    def test_subset(self, upsim_t1_p2):
        impacts = impact_table(upsim_t1_p2, components=["c2", "t1"])
        assert {i.component for i in impacts} == {"c2", "t1"}
        # c2 kills four services, t1 kills one -> c2 ranks first
        assert impacts[0].component == "c2"

    def test_every_node_is_service_spof_here(self, upsim_t1_p2):
        """In UPSIM t1→p2 the only redundancy is the core cross-link, so
        at node granularity every component is a single point of failure
        for the composite service."""
        impacts = impact_table(upsim_t1_p2)
        assert all(i.is_single_point_of_failure for i in impacts)

    def test_link_granularity_finds_redundant_cables(self, upsim_t1_p2):
        """The redundant components are exactly the three core-triangle
        cables: the c1—c2 cross-link and d4's two uplinks."""
        impacts = impact_table(upsim_t1_p2, include_links=True)
        non_spof = {
            i.component for i in impacts if not i.is_single_point_of_failure
        }
        assert non_spof == {"c1|c2", "c1|d4", "c2|d4"}
        # and they rank at the bottom of the triage list
        assert {i.component for i in impacts[-3:]} == non_spof


class TestKernelEquivalence:
    """The conditioned BDD rows against state enumeration of the same
    groups with the down component forced to 0."""

    def test_impact_table_bdd_matches_enum(self, upsim_t1_p2):
        impacts = impact_table(upsim_t1_p2)
        groups = service_path_set_groups(upsim_t1_p2, include_links=False)
        table = component_availabilities(upsim_t1_p2.model, include_links=False)
        baseline = system_availability_reference(groups, table)
        conditional = {
            impact.component: system_availability_reference(
                groups, {**table, impact.component: 0.0}
            )
            for impact in impacts
        }
        disconnected = {i.component: i.disconnected_services for i in impacts}
        assert [i.component for i in impacts] == sorted(
            conditional,
            key=lambda name: (
                -len(disconnected[name]),
                conditional[name] - baseline,
                name,
            ),
        )
        for impact in impacts:
            assert impact.baseline_availability == pytest.approx(
                baseline, abs=1e-12
            )
            assert impact.conditional_availability == pytest.approx(
                conditional[impact.component], abs=1e-12
            )

    def test_failure_impact_bdd_matches_enum(self, upsim_t1_p2):
        impact = failure_impact(upsim_t1_p2, "c1")
        groups = service_path_set_groups(upsim_t1_p2)
        table = component_availabilities(upsim_t1_p2.model)
        assert impact.conditional_availability == pytest.approx(
            system_availability_reference(groups, {**table, "c1": 0.0}),
            abs=1e-12,
        )

    def test_unknown_kernel_rejected(self, upsim_t1_p2):
        # the compiled BDD is the one route: no evaluator keyword
        with pytest.raises(TypeError, match="kernel"):
            impact_table(upsim_t1_p2, kernel="enum")
