"""Pipeline instrumentation: stage spans, stage counters, and the
failed-stage timer regression (seconds must survive a raising stage)."""

import pytest

from repro.core.pipeline import STAGES, MethodologyPipeline
from repro.core.mapping import ServiceMapping, ServiceMappingPair
from repro.obs import metrics as _metrics
from repro.obs.trace import Tracer, activate
from repro.resilience.runner import ResiliencePolicy
from repro.services.atomic import AtomicService
from repro.services.composite import CompositeService


@pytest.fixture()
def service():
    return CompositeService.sequential(
        "fetch", [AtomicService("auth"), AtomicService("get")]
    )


@pytest.fixture()
def mapping():
    return ServiceMapping(
        [
            ServiceMappingPair("auth", "pc", "s"),
            ServiceMappingPair("get", "s", "pc"),
        ]
    )


@pytest.fixture()
def pipeline(diamond, service, mapping):
    return (
        MethodologyPipeline()
        .set_infrastructure(diamond)
        .set_service(service)
        .set_mapping(mapping)
    )


def _stage_counter(name, stage):
    return _metrics.registry().get(name).labels(stage=stage).value


class TestStageSpans:
    def test_all_stages_nest_under_run_span(self, pipeline):
        tracer = Tracer()
        with activate(tracer):
            report = pipeline.run()
        runs = tracer.find("pipeline.run")
        assert len(runs) == 1
        run_span = runs[0]
        assert run_span.attrs["mode"] == "strict"
        assert run_span.attrs["executed"] == 4
        stage_names = [c.name for c in run_span.children]
        assert stage_names == [f"pipeline.{stage}" for stage in STAGES]
        discover_span = run_span.children[2]
        assert discover_span.attrs["pairs"] == 2
        # the report keeps a handle on each executed stage's span
        for entry, child in zip(report.stages, run_span.children):
            assert entry.span is child

    def test_engine_spans_nest_under_discover_stage(self, pipeline):
        tracer = Tracer()
        with activate(tracer):
            pipeline.run()
        stage = tracer.find("pipeline.discover_paths")[0]
        batches = [
            c for c in stage.children if c.name == "engine.discover_many"
        ]
        assert len(batches) == 1
        per_pair = [
            c for c in batches[0].children if c.name == "engine.discover"
        ]
        assert len(per_pair) == 2

    def test_reused_stages_emit_no_spans(self, pipeline):
        pipeline.run()
        tracer = Tracer()
        with activate(tracer):
            report = pipeline.run()
        assert report.executed_stages() == []
        run_span = tracer.find("pipeline.run")[0]
        assert run_span.children == []
        assert run_span.attrs["executed"] == 0
        for entry in report.stages:
            assert entry.span is None

    def test_untraced_run_records_no_span_handles(self, pipeline):
        report = pipeline.run()
        assert report.executed_stages() == list(STAGES)
        for entry in report.stages:
            assert entry.span is None


class TestStageCounters:
    def test_runs_then_reuses_move_the_right_counters(self, pipeline):
        runs0 = {
            s: _stage_counter("repro_pipeline_stage_runs_total", s)
            for s in STAGES
        }
        reuses0 = {
            s: _stage_counter("repro_pipeline_stage_reuses_total", s)
            for s in STAGES
        }
        total0 = _metrics.registry().get("repro_pipeline_runs_total").value

        pipeline.run()
        for stage in STAGES:
            assert (
                _stage_counter("repro_pipeline_stage_runs_total", stage)
                == runs0[stage] + 1
            )
            assert (
                _stage_counter("repro_pipeline_stage_reuses_total", stage)
                == reuses0[stage]
            )

        pipeline.run()  # warm re-run: reuses increase, runs do not
        for stage in STAGES:
            assert (
                _stage_counter("repro_pipeline_stage_runs_total", stage)
                == runs0[stage] + 1
            )
            assert (
                _stage_counter("repro_pipeline_stage_reuses_total", stage)
                == reuses0[stage] + 1
            )
        assert (
            _metrics.registry().get("repro_pipeline_runs_total").value
            == total0 + 2
        )

    def test_stage_seconds_histogram_observes_executions(self, pipeline):
        family = _metrics.registry().get("repro_pipeline_stage_seconds")
        before = family.labels(stage="discover_paths").count
        pipeline.run()
        assert family.labels(stage="discover_paths").count == before + 1


class TestFailedStageTimer:
    """Regression: a raising stage used to report 0.0 seconds because the
    timer was only stamped on the success path."""

    @pytest.fixture()
    def failing_pipeline(self, diamond, service):
        bad = ServiceMapping(
            [
                ServiceMappingPair("auth", "pc", "ghost"),
                ServiceMappingPair("get", "ghost", "pc"),
            ]
        )
        return (
            MethodologyPipeline()
            .set_infrastructure(diamond)
            .set_service(service)
            .set_mapping(bad)
        )

    def test_failed_stage_keeps_elapsed_seconds(self, failing_pipeline):
        report = failing_pipeline.run(resilience=ResiliencePolicy())
        assert report.partial
        assert report.failed_stages()[0] == "import_mapping"
        failed = next(
            s for s in report.stages if s.stage == "import_mapping"
        )
        assert failed.executed
        assert failed.error is not None
        assert failed.seconds > 0.0, "timer leaked on the exception path"
        # downstream stages are skipped with no phantom time
        skipped = [s for s in report.stages if s.error and s is not failed]
        assert {s.stage for s in skipped} == {
            "discover_paths",
            "generate_upsim",
        }
        assert all(s.seconds == 0.0 for s in skipped)

    def test_failed_stage_histogram_still_observes(self, failing_pipeline):
        family = _metrics.registry().get("repro_pipeline_stage_seconds")
        before = family.labels(stage="import_mapping").count
        failing_pipeline.run(resilience=ResiliencePolicy())
        assert family.labels(stage="import_mapping").count == before + 1

    def test_failed_stage_span_records_error(self, failing_pipeline):
        tracer = Tracer()
        with activate(tracer):
            report = failing_pipeline.run(resilience=ResiliencePolicy())
        failed = next(
            s for s in report.stages if s.stage == "import_mapping"
        )
        spans = tracer.find("pipeline.import_mapping")
        assert len(spans) == 1
        assert failed.span is spans[0]
        assert "error" in spans[0].attrs
        assert "mapping inconsistent" in spans[0].attrs["error"]
        assert spans[0].end is not None, "span must close on failure"

    def test_strict_mode_still_raises(self, failing_pipeline):
        from repro.errors import MappingError

        with pytest.raises(MappingError):
            failing_pipeline.run()
