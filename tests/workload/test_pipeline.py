"""Optional pipeline Step 9: population evaluation, incremental."""

from __future__ import annotations

import numpy as np
import pytest

from repro.casestudy import (
    CLIENTS,
    printing_mapping,
    printing_service,
    usi_network,
    usi_topology,
)
from repro.core import MethodologyPipeline
from repro.core.pipeline import POPULATION_STAGE, STAGES
from repro.workload import (
    Population,
    UserClass,
    evaluate_population,
)


@pytest.fixture()
def population():
    return Population.generate(
        800,
        (
            UserClass("std", weight=4, jitter=0.05),
            UserClass("gold", weight=1, device_availability=0.9999),
        ),
        CLIENTS,
        seed=2,
    )


@pytest.fixture()
def pipeline(usi, printing):
    return (
        MethodologyPipeline()
        .set_infrastructure(usi)
        .set_service(printing)
        .set_mapping(printing_mapping("t1", "p2"))
    )


class TestStageNine:
    def test_stages_tuple_unchanged(self):
        # Step 9 is optional: the core 5-8 contract must not grow
        assert STAGES == (
            "import_uml",
            "import_mapping",
            "discover_paths",
            "generate_upsim",
        )
        assert POPULATION_STAGE not in STAGES

    def test_no_population_no_stage(self, pipeline):
        report = pipeline.run()
        assert POPULATION_STAGE not in report.executed_stages()
        assert report.population is None

    def test_executed_then_reused(self, pipeline, population):
        pipeline.set_population(population)
        first = pipeline.run()
        assert POPULATION_STAGE in first.executed_stages()
        assert first.population is not None
        assert first.population.n_users == 800

        second = pipeline.run()
        assert POPULATION_STAGE in second.reused_stages()
        assert second.population is first.population

    def test_matches_direct_plane_call(self, pipeline, population, printing):
        report = pipeline.set_population(population).run()
        direct = evaluate_population(
            usi_topology(),
            printing,
            lambda client: printing_mapping(client, "p2"),
            population,
        )
        assert np.array_equal(
            report.population.availability, direct.availability
        )

    def test_mapping_change_reruns_stage_nine(self, pipeline, population):
        pipeline.set_population(population)
        first = pipeline.run()
        pipeline.set_mapping(printing_mapping("t1", "p3"))
        second = pipeline.run()
        assert POPULATION_STAGE in second.executed_stages()
        assert not np.array_equal(
            first.population.availability, second.population.availability
        )

    def test_infrastructure_change_reruns_stage_nine(
        self, pipeline, population
    ):
        pipeline.set_population(population)
        pipeline.run()
        pipeline.set_infrastructure(usi_network())
        report = pipeline.run()
        assert POPULATION_STAGE in report.executed_stages()

    def test_clearing_population_drops_stage(self, pipeline, population):
        pipeline.set_population(population)
        pipeline.run()
        pipeline.set_population(None)
        report = pipeline.run()
        assert POPULATION_STAGE not in report.executed_stages()
        assert POPULATION_STAGE not in report.reused_stages()
        assert report.population is None

    def test_explicit_user_component(self, pipeline, population):
        report = pipeline.set_population(
            population, user_component="t1"
        ).run()
        assert report.population is not None
