"""Pipeline fault injection: strict vs degradation-tolerant semantics."""

from __future__ import annotations

import pytest

from repro.core.pipeline import MethodologyPipeline
from repro.core.upsim import generate_upsim
from repro.errors import (
    FaultPlanError,
    PathDiscoveryError,
    UnreachablePairError,
)
from repro.resilience import FaultPlan, ResiliencePolicy


@pytest.fixture()
def pipeline(usi, printing, table1):
    return (
        MethodologyPipeline()
        .set_infrastructure(usi)
        .set_service(printing)
        .set_mapping(table1)
    )


class TestStrictMode:
    def test_default_raises_on_unreachable_pair(self, pipeline):
        pipeline.set_fault_plan("crash:e3")
        with pytest.raises(PathDiscoveryError, match="login_to_printer"):
            pipeline.run()

    def test_generate_upsim_strict_raises(self, usi_topo, printing, table1):
        overlay = FaultPlan.parse("crash:e3").apply(usi_topo)
        with pytest.raises(PathDiscoveryError, match="no path between"):
            generate_upsim(overlay, printing, table1)

    def test_nominal_run_unaffected(self, pipeline):
        report = pipeline.run()
        assert report.upsim is not None
        assert not report.partial
        assert report.diagnostics == []


class TestResilientMode:
    def test_partial_upsim_with_diagnostics(self, pipeline):
        pipeline.set_fault_plan("crash:e3")
        report = pipeline.run(resilience=ResiliencePolicy())
        assert report.partial
        assert report.upsim is not None
        # the surviving pair is still modeled ...
        assert "request_printing" in report.upsim.path_sets
        assert "t1" in report.upsim.component_names
        # ... the severed ones are reported, not raised
        assert {
            (d.requester, d.provider) for d in report.unreachable_pairs()
        } == {("p2", "printS"), ("printS", "p2")}
        for diagnostic in report.unreachable_pairs():
            assert diagnostic.fault_context == ("crash:e3",)
            assert diagnostic.nearest_cut == ("e3",)
        assert "e3" not in report.upsim.component_names

    def test_no_reachable_pair_degrades_to_none(self, pipeline):
        pipeline.set_fault_plan("crash:printS")
        report = pipeline.run(resilience=ResiliencePolicy())
        assert report.partial
        assert report.upsim is None
        assert report.failed_stages() == ["generate_upsim"]
        errored = next(s for s in report.stages if s.stage == "generate_upsim")
        assert "surviving path" in errored.error
        assert len(report.unreachable_pairs()) == len(report.diagnostics)

    def test_failed_stage_carries_typed_exception(self, pipeline):
        pipeline.set_fault_plan("crash:nope")
        report = pipeline.run(resilience=ResiliencePolicy())
        failed = next(s for s in report.stages if s.stage == "discover_paths")
        assert isinstance(failed.exception, FaultPlanError)
        assert failed.error == str(failed.exception)
        skipped = next(s for s in report.stages if s.stage == "generate_upsim")
        assert skipped.error is not None and skipped.exception is None

        pipeline.set_fault_plan("crash:printS")
        report = pipeline.run(resilience=ResiliencePolicy())
        failed = next(s for s in report.stages if s.stage == "generate_upsim")
        assert isinstance(failed.exception, UnreachablePairError)

    def test_path_sets_keep_unreachable_pairs_empty(self, pipeline):
        pipeline.set_fault_plan("crash:e3")
        pipeline.run(resilience=ResiliencePolicy())
        path_sets = pipeline.path_sets
        assert len(path_sets["request_printing"]) == 2
        assert len(path_sets["login_to_printer"]) == 0
        with pytest.raises(TypeError):
            path_sets["request_printing"] = path_sets["login_to_printer"]

    def test_mode_switch_invalidates_discovery(self, pipeline):
        pipeline.set_fault_plan("crash:e3")
        with pytest.raises(PathDiscoveryError):
            pipeline.run()
        report = pipeline.run(resilience=ResiliencePolicy())
        # the strict run's cached Step-7 output must not mask diagnostics
        assert report.partial
        assert report.unreachable_pairs()

    def test_resilient_rerun_reuses_stages(self, pipeline):
        pipeline.set_fault_plan("crash:e3")
        first = pipeline.run(resilience=ResiliencePolicy())
        second = pipeline.run(resilience=ResiliencePolicy())
        assert first.partial and second.partial
        assert second.executed_stages() == []
        # diagnostics survive stage reuse
        assert [d.to_dict() for d in second.diagnostics] == [
            d.to_dict() for d in first.diagnostics
        ]

    def test_clearing_the_plan_restores_nominal(self, pipeline):
        pipeline.set_fault_plan("crash:e3")
        pipeline.run(resilience=ResiliencePolicy())
        pipeline.set_fault_plan(None)
        report = pipeline.run()
        assert not report.partial
        assert report.diagnostics == []
        assert report.upsim is not None
        assert "e3" in report.upsim.component_names

    def test_degrade_fault_keeps_all_pairs(self, pipeline):
        pipeline.set_fault_plan("degrade:c1:mtbf=100")
        report = pipeline.run(resilience=ResiliencePolicy())
        assert not report.partial
        assert report.upsim is not None
        assert all(d.ok for d in report.diagnostics)


class TestPartialUpsimGeneration:
    def test_empty_pathset_sentinel_skips_rediscovery(
        self, usi_topo, printing, table1
    ):
        from repro.core.pathdiscovery import PathSet

        overlay = FaultPlan.parse("crash:e3").apply(usi_topo)
        sentinel = {
            "login_to_printer": PathSet("p2", "printS"),
            "send_document_list": PathSet("printS", "p2"),
            "select_documents": PathSet("p2", "printS"),
            "send_documents": PathSet("printS", "p2"),
        }
        upsim = generate_upsim(
            overlay, printing, table1, path_sets=sentinel, partial=True
        )
        assert set(upsim.path_sets) == {"request_printing"}

    def test_all_unreachable_raises_unreachable_pair_error(
        self, usi_topo, printing, table1
    ):
        overlay = FaultPlan.parse("crash:printS").apply(usi_topo)
        with pytest.raises(UnreachablePairError):
            generate_upsim(overlay, printing, table1, partial=True)
