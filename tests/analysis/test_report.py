"""Tests for the end-to-end availability report."""

import pytest

from repro.analysis.report import analyze_upsim
from repro.errors import AnalysisError


@pytest.fixture(scope="module")
def report(upsim_t1_p2):
    return analyze_upsim(upsim_t1_p2, montecarlo_samples=100_000, seed=3)


class TestPairs:
    def test_all_atomic_services_reported(self, report):
        names = {p.atomic_service for p in report.pairs}
        assert names == {
            "request_printing",
            "login_to_printer",
            "send_document_list",
            "select_documents",
            "send_documents",
        }

    def test_pair_lookup(self, report):
        pair = report.pair("request_printing")
        assert pair.requester == "t1"
        assert pair.provider == "printS"
        assert pair.path_count == 2
        with pytest.raises(AnalysisError):
            report.pair("ghost")

    def test_pair_availability_dominated_by_client(self, report):
        """t1's A=0.992 dominates the t1->printS pair availability."""
        pair = report.pair("request_printing")
        assert 0.9919 < pair.availability < 0.9921

    def test_printer_pairs_better_than_client_pair(self, report):
        client_pair = report.pair("request_printing")
        printer_pair = report.pair("login_to_printer")
        assert printer_pair.availability > client_pair.availability

    def test_symmetric_pairs_equal(self, report):
        """(p2, printS) and (printS, p2) describe the same connectivity."""
        forward = report.pair("login_to_printer")
        backward = report.pair("send_document_list")
        assert forward.availability == pytest.approx(backward.availability)

    def test_bounds_bracket_availability(self, report):
        for pair in report.pairs:
            assert pair.lower_bound <= pair.availability + 1e-12
            assert pair.availability <= pair.upper_bound + 1e-12

    def test_cut_sets_identify_spofs(self, report):
        pair = report.pair("request_printing")
        spofs = {next(iter(c)) for c in pair.smallest_cuts()}
        assert "t1" in spofs
        assert "c1" in spofs

    def test_downtime_consistent(self, report):
        pair = report.pair("request_printing")
        assert pair.downtime_minutes_per_year == pytest.approx(
            (1 - pair.availability) * 8760 * 60
        )


class TestServiceLevel:
    def test_service_below_every_pair(self, report):
        for pair in report.pairs:
            assert report.service_availability <= pair.availability + 1e-12

    def test_montecarlo_agrees(self, report):
        assert report.montecarlo is not None
        assert report.montecarlo.contains(report.service_availability, z=4.0)

    def test_importance_ranked(self, report):
        assert report.importance
        birnbaums = [r.birnbaum for r in report.importance]
        assert birnbaums == sorted(birnbaums, reverse=True)
        assert report.importance[0].component == "t1"

    def test_to_text_renders(self, report):
        text = report.to_text()
        assert "request_printing" in text
        assert "service (all pairs)" in text
        assert "Monte-Carlo" in text
        assert "Birnbaum" in text

    def test_exact_formula_close_to_paper(self, upsim_t1_p2):
        paper = analyze_upsim(upsim_t1_p2, importance_components=0)
        exact = analyze_upsim(upsim_t1_p2, formula="exact", importance_components=0)
        assert exact.service_availability == pytest.approx(
            paper.service_availability, abs=1e-4
        )
        assert exact.service_availability >= paper.service_availability

    def test_links_lower_availability_only_slightly(self, upsim_t1_p2):
        with_links = analyze_upsim(upsim_t1_p2, importance_components=0)
        without = analyze_upsim(
            upsim_t1_p2, include_links=False, importance_components=0
        )
        assert without.service_availability >= with_links.service_availability
        assert without.service_availability == pytest.approx(
            with_links.service_availability, abs=1e-4
        )

    def test_perspective_affects_availability(self, upsim_t1_p2, upsim_t15_p3):
        a = analyze_upsim(upsim_t1_p2, importance_components=0)
        b = analyze_upsim(upsim_t15_p3, importance_components=0)
        # different infrastructures, same magnitude, not identical
        assert a.service_availability != b.service_availability
        assert abs(a.service_availability - b.service_availability) < 0.01


class TestKernelEquivalence:
    """The BDD, inclusion–exclusion and enumeration kernels produce the
    same report (the new default is ``kernel="bdd"``)."""

    def test_bdd_matches_enum(self, upsim_t1_p2):
        via_bdd = analyze_upsim(
            upsim_t1_p2, montecarlo_samples=0, kernel="bdd"
        )
        via_enum = analyze_upsim(
            upsim_t1_p2, montecarlo_samples=0, kernel="enum"
        )
        assert via_bdd.service_availability == pytest.approx(
            via_enum.service_availability, abs=1e-12
        )
        assert len(via_bdd.pairs) == len(via_enum.pairs)
        for a, b in zip(via_bdd.pairs, via_enum.pairs):
            assert (a.requester, a.provider) == (b.requester, b.provider)
            assert a.availability == pytest.approx(b.availability, abs=1e-12)
            assert a.lower_bound == pytest.approx(b.lower_bound, abs=1e-12)
            assert a.upper_bound == pytest.approx(b.upper_bound, abs=1e-12)
            assert sorted(a.min_cut_sets, key=sorted) == sorted(
                b.min_cut_sets, key=sorted
            )

    def test_importance_values_match(self, upsim_t1_p2):
        via_bdd = analyze_upsim(
            upsim_t1_p2, montecarlo_samples=0, kernel="bdd"
        )
        via_enum = analyze_upsim(
            upsim_t1_p2, montecarlo_samples=0, kernel="enum"
        )
        # symmetric components can swap rank on 1e-16 noise, so compare
        # per-component values rather than row order
        bdd_rows = {row.component: row for row in via_bdd.importance}
        enum_rows = {row.component: row for row in via_enum.importance}
        assert bdd_rows.keys() == enum_rows.keys()
        for name, row in bdd_rows.items():
            other = enum_rows[name]
            assert row.birnbaum == pytest.approx(other.birnbaum, abs=1e-10)
            assert row.improvement_potential == pytest.approx(
                other.improvement_potential, abs=1e-10
            )
            assert row.risk_achievement_worth == pytest.approx(
                other.risk_achievement_worth, abs=1e-8
            )
            assert row.fussell_vesely == pytest.approx(
                other.fussell_vesely, abs=1e-8
            )

    def test_unknown_kernel_rejected(self, upsim_t1_p2):
        with pytest.raises(AnalysisError, match="unknown availability kernel"):
            analyze_upsim(upsim_t1_p2, kernel="magic")



class TestEnumBound:
    def test_enum_beyond_bound_raises(self):
        """``kernel="enum"`` raises the typed bound error instead of
        reporting a Monte-Carlo estimate.  A 14-switch chain serves two
        13-component pairs: each pair is within the bound, their
        26-component union is not."""
        from repro.core import ServiceMapping, ServiceMappingPair, generate_upsim
        from repro.network import DeviceSpec, TopologyBuilder
        from repro.services import AtomicService, CompositeService

        builder = TopologyBuilder("chain")
        builder.device_type(DeviceSpec("Sw", "Switch", mtbf=10_000.0, mttr=5.0))
        names = [f"n{i}" for i in range(14)]
        for name in names:
            builder.add(name, "Sw")
        for a, b in zip(names, names[1:]):
            builder.connect(a, b)
        service = CompositeService.sequential(
            "svc", [AtomicService("left"), AtomicService("right")]
        )
        mapping = ServiceMapping(
            [
                ServiceMappingPair("left", "n0", "n6"),
                ServiceMappingPair("right", "n7", "n13"),
            ]
        )
        upsim = generate_upsim(builder.build(validate=False), service, mapping)
        with pytest.raises(AnalysisError, match="22-component bound"):
            analyze_upsim(upsim, kernel="enum")
