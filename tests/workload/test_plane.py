"""The vectorized evaluation plane against the scalar oracle."""

from __future__ import annotations

import numpy as np
import pytest

from repro.casestudy import CLIENTS, printing_mapping
from repro.core import ServiceMapping, ServiceMappingPair
from repro.errors import AnalysisError
from repro.network import Topology
from repro.network.generators import campus, ring
from repro.services import AtomicService, CompositeService
from repro.workload import (
    Population,
    UserClass,
    evaluate_population,
    evaluate_population_naive,
)

CLASSES = (
    UserClass("std", weight=4, device_availability=0.98, jitter=0.05),
    UserClass("gold", weight=1, device_availability=0.9999),
)
JITTER_FREE = (
    UserClass("std", weight=4, device_availability=0.98),
    UserClass("gold", weight=1, device_availability=0.9999),
)


def usi_mapping(client: str) -> ServiceMapping:
    return printing_mapping(client, "p2")


def access_service() -> CompositeService:
    return CompositeService.sequential(
        "access", (AtomicService("connect"), AtomicService("transfer"))
    )


def access_mapping(client: str) -> ServiceMapping:
    return ServiceMapping(
        [
            ServiceMappingPair("connect", client, "server"),
            ServiceMappingPair("transfer", "server", client),
        ]
    )


def generated_plane(family):
    if family == "campus":
        builder = campus(dist_switches=2, edges_per_dist=2, clients_per_edge=3)
        prefix = "client"
    else:
        # users attach directly at the ring switches: every position has
        # exactly two disjoint routes to the server
        builder = ring(8)
        prefix = "sw"
    topology = Topology(builder.build())
    clients = tuple(n for n in topology.nodes() if n.startswith(prefix))
    assert clients
    return topology, access_service(), access_mapping, clients


class TestReport:
    def test_usi_report_shape(self, usi_topo, printing):
        population = Population.generate(2000, CLASSES, CLIENTS, seed=3)
        report = evaluate_population(
            usi_topo, printing, usi_mapping, population, top=3
        )
        assert report.n_users == 2000
        assert report.keys == len(set(population.attachment_counts()))
        assert report.rows >= report.keys
        assert report.shards == 0 and report.shard_seconds == []
        assert report.dedup_ratio >= 1.0
        assert np.all(
            (report.availability > 0.0) & (report.availability < 1.0)
        )
        assert {s.name for s in report.class_summaries} == {"std", "gold"}
        for summary in report.class_summaries:
            assert (
                summary.minimum
                <= summary.p99
                <= summary.p90
                <= summary.p50
                <= 1.0
            )
        assert len(report.worst) == 3
        worst = report.worst
        assert worst[0].availability == pytest.approx(
            float(report.availability.min())
        )
        assert all(
            worst[i].availability <= worst[i + 1].availability
            for i in range(len(worst) - 1)
        )
        text = report.to_text()
        assert "2000 users" in text
        assert "worst-served users:" in text

    def test_jitter_free_classes_dedup_to_one_row_per_key(
        self, usi_topo, printing
    ):
        population = Population.generate(
            5000, JITTER_FREE, CLIENTS, seed=3
        )
        report = evaluate_population(usi_topo, printing, usi_mapping, population)
        # 2 distinct device values per attachment key, nothing more
        assert report.rows <= 2 * report.keys
        assert report.dedup_ratio > 100.0

    def test_validation(self, usi_topo, printing):
        population = Population.generate(10, CLASSES, CLIENTS, seed=0)
        with pytest.raises(AnalysisError, match="shards must be >= 1"):
            evaluate_population(
                usi_topo, printing, usi_mapping, population, shards=0
            )
        with pytest.raises(AnalysisError, match="batch_rows must be >= 1"):
            evaluate_population(
                usi_topo, printing, usi_mapping, population, batch_rows=0
            )


class TestEquivalence:
    """The acceptance property: vectorized == scalar loop to 1e-12 for
    every user — case-study topology plus two generated families, with
    and without per-user jitter."""

    @pytest.mark.parametrize("classes", [CLASSES, JITTER_FREE])
    def test_usi_10k_users(self, usi_topo, printing, classes):
        population = Population.generate(10_000, classes, CLIENTS, seed=11)
        report = evaluate_population(usi_topo, printing, usi_mapping, population)
        naive = evaluate_population_naive(
            usi_topo, printing, usi_mapping, population
        )
        assert float(np.max(np.abs(report.availability - naive))) <= 1e-12

    @pytest.mark.parametrize("family", ["campus", "ring"])
    @pytest.mark.parametrize("classes", [CLASSES, JITTER_FREE])
    def test_generated_families(self, family, classes):
        topology, service, mapping_for, clients = generated_plane(family)
        population = Population.generate(1500, classes, clients, seed=11)
        report = evaluate_population(topology, service, mapping_for, population)
        naive = evaluate_population_naive(
            topology, service, mapping_for, population
        )
        assert float(np.max(np.abs(report.availability - naive))) <= 1e-12

    def test_batch_rows_chunking_is_invariant(self, usi_topo, printing):
        population = Population.generate(3000, CLASSES, CLIENTS, seed=5)
        whole = evaluate_population(
            usi_topo, printing, usi_mapping, population
        )
        chunked = evaluate_population(
            usi_topo, printing, usi_mapping, population, batch_rows=7
        )
        assert np.array_equal(whole.availability, chunked.availability)
