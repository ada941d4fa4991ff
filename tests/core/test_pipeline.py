"""Tests for the 8-step methodology pipeline and its incremental updates."""

import pytest

from repro.casestudy import printing_mapping
from repro.core.mapping import ServiceMapping, ServiceMappingPair
from repro.core.pipeline import MethodologyPipeline
from repro.errors import MappingError, ReproError
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


class TestRun:
    def test_first_run_executes_all_stages(self, pipeline):
        report = pipeline.run()
        assert report.executed_stages() == [
            "import_uml",
            "import_mapping",
            "discover_paths",
            "generate_upsim",
        ]
        assert report.upsim is not None
        assert report.total_seconds() >= 0.0

    def test_missing_inputs_detected(self, diamond):
        pipeline = MethodologyPipeline().set_infrastructure(diamond)
        with pytest.raises(ReproError) as excinfo:
            pipeline.run()
        assert "service" in str(excinfo.value)
        assert "mapping" in str(excinfo.value)

    def test_rerun_without_changes_reuses_everything(self, pipeline):
        pipeline.run()
        report = pipeline.run()
        assert report.executed_stages() == []
        assert report.reused_stages() == [
            "import_uml",
            "import_mapping",
            "discover_paths",
            "generate_upsim",
        ]
        assert report.upsim is not None

    def test_repeated_atomic_service_imports_one_pair(self, diamond, mapping):
        from repro.uml.activity import Activity

        repeated = CompositeService(
            Activity.sequence("fetch", ["auth", "get", "auth"]),
            [AtomicService("auth"), AtomicService("get")],
        )
        pipeline = (
            MethodologyPipeline()
            .set_infrastructure(diamond)
            .set_service(repeated)
            .set_mapping(mapping)
        )
        report = pipeline.run()
        assert report.upsim is not None
        assert {"pc", "s"} <= set(report.upsim.component_names)
        assert len(pipeline.space.relations("requester")) == 2

    def test_inconsistent_mapping_rejected(self, diamond, service):
        bad = ServiceMapping(
            [
                ServiceMappingPair("auth", "pc", "ghost"),
                ServiceMappingPair("get", "ghost", "pc"),
            ]
        )
        pipeline = (
            MethodologyPipeline()
            .set_infrastructure(diamond)
            .set_service(service)
            .set_mapping(bad)
        )
        with pytest.raises(MappingError):
            pipeline.run()


class TestDynamicity:
    def test_mapping_change_skips_uml_import(self, pipeline, diamond):
        pipeline.run()
        new_mapping = ServiceMapping(
            [
                ServiceMappingPair("auth", "pc", "a"),
                ServiceMappingPair("get", "a", "pc"),
            ]
        )
        report = pipeline.set_mapping(new_mapping).run()
        assert "import_uml" not in report.executed_stages()
        assert report.executed_stages() == [
            "import_mapping",
            "discover_paths",
            "generate_upsim",
        ]

    def test_infrastructure_change_reruns_everything(self, pipeline, small_builder):
        pipeline.run()
        small_builder.add("extra", "Sw")
        small_builder.connect("extra", "e")
        report = pipeline.set_infrastructure(small_builder.object_model).run()
        assert report.executed_stages() == [
            "import_uml",
            "import_mapping",
            "discover_paths",
            "generate_upsim",
        ]

    def test_service_substitution_reruns_imports(self, pipeline):
        pipeline.run()
        replacement = CompositeService.sequential(
            "fetch2", [AtomicService("auth"), AtomicService("get")]
        )
        report = pipeline.set_service(replacement).run()
        assert "import_uml" in report.executed_stages()

    def test_mapping_change_updates_upsim(self, pipeline):
        first = pipeline.run().upsim
        assert first is not None
        # provider moved to the edge switch: the only pc->e path is direct,
        # so the rest of the diamond disappears from the UPSIM
        new_mapping = ServiceMapping(
            [
                ServiceMappingPair("auth", "pc", "e"),
                ServiceMappingPair("get", "e", "pc"),
            ]
        )
        second = pipeline.set_mapping(new_mapping).run().upsim
        assert second is not None
        assert "s" in first.component_names
        assert set(second.component_names) == {"pc", "e"}


class TestModelSpaceSide:
    def test_paths_stored_in_model_space(self, pipeline):
        pipeline.run()
        stored = pipeline.stored_paths("auth")
        assert sorted(stored) == [["pc", "e", "a", "s"], ["pc", "e", "b", "s"]]

    def test_upsim_entities_mirrored(self, pipeline):
        pipeline.run()
        assert pipeline.upsim_entity_names() == ["a", "b", "e", "pc", "s"]

    def test_mirror_relations_point_to_originals(self, pipeline):
        pipeline.run()
        space = pipeline.space
        assert space is not None
        same_as = space.relations("sameAs")
        assert len(same_as) == 5
        for relation in same_as:
            assert relation.target.fqn.startswith("uml.instances.")
            assert relation.source.name == relation.target.name

    def test_accessors_before_run_raise(self, diamond, service, mapping):
        pipeline = MethodologyPipeline()
        with pytest.raises(ReproError):
            pipeline.stored_paths("auth")
        with pytest.raises(ReproError):
            pipeline.upsim_entity_names()

    def test_mapping_rerun_replaces_space_content(self, pipeline):
        pipeline.run()
        new_mapping = ServiceMapping(
            [
                ServiceMappingPair("auth", "pc", "e"),
                ServiceMappingPair("get", "e", "pc"),
            ]
        )
        pipeline.set_mapping(new_mapping).run()
        stored = pipeline.stored_paths("auth")
        assert stored == [["pc", "e"]]
        # the old upsim namespace was replaced, no stale mirror of "s"
        assert pipeline.upsim_entity_names() == ["e", "pc"]


class TestUSIIntegration:
    def test_usi_perspective_switch(self, usi, printing):
        pipeline = (
            MethodologyPipeline()
            .set_infrastructure(usi)
            .set_service(printing)
            .set_mapping(printing_mapping("t1", "p2"))
        )
        first = pipeline.run()
        assert first.upsim is not None
        assert "p2" in first.upsim.component_names
        second = pipeline.set_mapping(printing_mapping("t15", "p3")).run()
        assert second.executed_stages() == [
            "import_mapping",
            "discover_paths",
            "generate_upsim",
        ]
        assert second.upsim is not None
        assert "p3" in second.upsim.component_names
        assert "p2" not in second.upsim.component_names

    def test_irrelevant_pair_with_unknown_components_is_ignored(
        self, usi, printing, table1
    ):
        """Step 6 validates only the pairs the service runs (Section
        VI-D): an extra pair naming absent components changes nothing."""
        extended = ServiceMapping(
            [*table1.pairs, ServiceMappingPair("scan_documents", "t99", "x7")]
        )
        results = []
        for mapping in (table1, extended):
            pipeline = (
                MethodologyPipeline()
                .set_infrastructure(usi)
                .set_service(printing)
                .set_mapping(mapping)
            )
            report = pipeline.run()
            assert report.upsim is not None
            results.append(
                (
                    report.upsim.signatures(),
                    pipeline.analyze().service_availability,
                )
            )
        assert results[0] == results[1]


class TestAvailabilityKernel:
    def test_unknown_kernel_rejected(self, pipeline):
        # the compiled BDD is the one route: no evaluator keyword
        with pytest.raises(TypeError, match="kernel"):
            pipeline.run(kernel="enum")

    def test_analyze_requires_a_run(self, diamond, service, mapping):
        fresh = (
            MethodologyPipeline()
            .set_infrastructure(diamond)
            .set_service(service)
            .set_mapping(mapping)
        )
        with pytest.raises(ReproError, match="call run"):
            fresh.analyze()
