"""The vectorized evaluation plane against the scalar oracle."""

from __future__ import annotations

import contextlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.casestudy import CLIENTS, printing_mapping
from repro.core import ServiceMapping, ServiceMappingPair
from repro.errors import AnalysisError
from repro.network import Topology
from repro.network.generators import campus, erdos_renyi, ladder, ring
from repro.services import AtomicService, CompositeService
from repro.workload import (
    Population,
    UserClass,
    evaluate_population,
    evaluate_population_naive,
)
from repro.workload.plane import _SORT_CUTOFF, _order_statistics
from tests.conftest import always_sift

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

    def test_tied_worst_users_are_the_lowest_indices(self):
        """Users tied at the drilldown's threshold are listed by lowest
        user index, whatever order a selection would leave them in."""
        topology, service, mapping_for, clients = generated_plane("campus")
        population = Population(
            (UserClass("flat", device_availability=0.9),),
            clients,
            np.zeros(5000, dtype=np.int32),
            np.zeros(5000, dtype=np.int32),
            np.random.default_rng(0).random(5000),
        )
        report = evaluate_population(topology, service, mapping_for, population)
        assert [entry.user for entry in report.worst] == [0, 1, 2, 3, 4]
        assert len(set(report.availability.tolist())) == 1

    def test_worst_users_break_ties_below_the_threshold(self):
        topology, service, mapping_for, clients = generated_plane("campus")
        # class "low" ties at one value below every "flat" user; "flat"
        # users tie at the threshold and follow in index order
        classes = (
            UserClass("flat", device_availability=0.9),
            UserClass("low", device_availability=0.5),
        )
        class_index = np.zeros(9000, dtype=np.int32)
        class_index[[8000, 2, 6000]] = 1
        population = Population(
            classes,
            clients,
            class_index,
            np.zeros(9000, dtype=np.int32),
            np.zeros(9000),
        )
        report = evaluate_population(
            topology, service, mapping_for, population, top=6
        )
        assert [entry.user for entry in report.worst] == [
            2, 6000, 8000, 0, 1, 3,
        ]
        assert [entry.user_class for entry in report.worst] == (
            ["low"] * 3 + ["flat"] * 3
        )

    def test_jitter_free_classes_dedup_to_one_row_per_key(
        self, usi_topo, printing
    ):
        population = Population.generate(
            5000, JITTER_FREE, CLIENTS, seed=3
        )
        report = evaluate_population(usi_topo, printing, usi_mapping, population)
        # two kernel rows per key (device at 0 and at 1), however many
        # distinct device values its users carry
        assert report.rows == 2 * report.keys
        assert report.dedup_ratio > 100.0

    def test_validation(self, usi_topo, printing):
        population = Population.generate(10, CLASSES, CLIENTS, seed=0)
        with pytest.raises(AnalysisError, match="top must be >= 0"):
            evaluate_population(
                usi_topo, printing, usi_mapping, population, top=-2
            )


@pytest.mark.population
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


# -- the Shannon expansion on generated inputs ---------------------------------

#: "client" is a leaf on every generated family: mapped away from the
#: service below, its device lies outside every kernel built for it
OUTSIDE = "client"


def shannon_plane(family, size, seed):
    """A generated topology, a three-leg service and a mapping factory.

    Users attach at every node but the server.  Besides its own
    connect/transfer legs each user's service syncs one fixed switch
    pair, so users at other switches are transit nodes of a pair they
    are no endpoint of; users at ``OUTSIDE`` run the service from the
    pair's first switch instead, which leaves their device out of it.
    """
    if family == "ring":
        n = size + 3
        builder, sync = ring(n), ("sw1", f"sw{n - 1}")
    elif family == "ladder":
        rungs = size + 1
        builder, sync = ladder(rungs), ("top0", f"bot{rungs - 1}")
    elif family == "campus":
        edges = 1 + size % 2
        builder = campus(dist_switches=2, edges_per_dist=edges, clients_per_edge=2)
        sync = ("edge0_0", f"edge1_{edges - 1}")
    else:
        n = size + 4
        builder = erdos_renyi(n, 0.4, seed=seed)
        sync = ("sw0", f"sw{n - 1}")
    topology = Topology(builder.build())
    attachments = tuple(node for node in topology.nodes() if node != "server")
    service = CompositeService.sequential(
        "synced",
        (AtomicService("connect"), AtomicService("transfer"), AtomicService("sync")),
    )

    def mapping_for(attachment: str) -> ServiceMapping:
        user = sync[0] if attachment == OUTSIDE else attachment
        return ServiceMapping(
            [
                ServiceMappingPair("connect", user, "server"),
                ServiceMappingPair("transfer", "server", user),
                ServiceMappingPair("sync", *sync),
            ]
        )

    return topology, service, mapping_for, attachments


planes = st.tuples(
    st.sampled_from(["ring", "ladder", "campus", "er"]),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**16),
)

#: classes with or without a device override, jitter-free or jittered,
#: under any weights
user_classes = st.lists(
    st.tuples(
        st.one_of(st.none(), st.floats(min_value=0.0, max_value=1.0)),
        st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=0.99, exclude_min=True),
        ),
        st.floats(min_value=1e-3, max_value=1e3),
    ),
    min_size=1,
    max_size=4,
).map(
    lambda specs: tuple(
        UserClass(f"c{i}", weight=weight, device_availability=device, jitter=jitter)
        for i, (device, jitter, weight) in enumerate(specs)
    )
)


class TestShannonExpansion:
    """``A0 + d·(A1 − A0)`` per key, folded into one affine rule per
    (class, attachment) group, against the per-user scalar oracle."""

    @pytest.mark.population
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        plane=planes,
        classes=user_classes,
        include_links=st.booleans(),
        sift=st.booleans(),
    )
    def test_matches_naive_oracle(self, plane, classes, include_links, sift):
        topology, service, mapping_for, attachments = shannon_plane(*plane)
        population = Population.generate(
            300, classes, attachments, seed=plane[2]
        )
        with always_sift() if sift else contextlib.nullcontext():
            report = evaluate_population(
                topology, service, mapping_for, population,
                include_links=include_links,
            )
            naive = evaluate_population_naive(
                topology, service, mapping_for, population,
                include_links=include_links,
            )
        assert float(np.max(np.abs(report.availability - naive))) <= 1e-12
        present = {population.attachments[i] for i in population.attachment_index}
        assert report.keys == len(present)
        # every device but OUTSIDE's is in its kernel: two rows per such key
        assert report.rows == 2 * len(present - {OUTSIDE})

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        plane=planes,
        low=st.floats(min_value=0.0, max_value=1.0),
        raise_by=st.floats(min_value=0.0, max_value=1.0),
        jitter=st.sampled_from([0.0, 0.05]),
    )
    def test_better_devices_never_lower_a_user(self, plane, low, raise_by, jitter):
        """Metamorphic relation: raising a class's device availability
        never lowers any user's availability."""
        topology, service, mapping_for, attachments = shannon_plane(*plane)
        high = min(1.0, low + raise_by)
        drawn = Population.generate(
            200, (UserClass("c"), UserClass("other")), attachments, seed=plane[2]
        )

        def evaluate(device):
            classes = (
                UserClass("c", device_availability=device, jitter=jitter),
                UserClass("other", device_availability=0.99),
            )
            population = Population(
                classes,
                drawn.attachments,
                drawn.class_index,
                drawn.attachment_index,
                drawn.jitter_unit,
            )
            return evaluate_population(
                topology, service, mapping_for, population
            ).availability

        assert np.all(evaluate(high) >= evaluate(low))

    def test_campus_sweeps_two_rows_per_key(self):
        topology, service, mapping_for, clients = generated_plane("campus")
        population = Population.generate(2000, CLASSES, clients, seed=4)
        report = evaluate_population(topology, service, mapping_for, population)
        assert report.keys == len(clients)
        assert report.rows == 2 * report.keys


# -- exact class summaries and device annotations ------------------------------


@pytest.mark.population
class TestClassSummaries:
    """Each class summary equals, with ``==``, the numpy statistics of
    that class's per-user values: the plane selects its order statistics
    (or sorts a small class) instead of calling ``np.percentile``."""

    @pytest.mark.parametrize(
        "sizes",
        [
            (1,),
            (2,),
            (1, 2),
            (3, 4),
            (7, 10, 0, 1),
            (101, 64, 2),
            (6000, 4097, 0, 3),
            (9000, 1, 4500, 5000),
            # "flat" users all perceive one value on this campus
            (0, 0, 7000),
        ],
        ids=lambda sizes: "-".join(map(str, sizes)),
    )
    def test_summaries_equal_numpy_statistics(self, sizes):
        topology, service, mapping_for, clients = generated_plane("campus")
        classes = (
            UserClass("jittered", device_availability=0.98, jitter=0.3),
            UserClass("table", jitter=0.05),
            UserClass("flat", device_availability=0.9),
            UserClass("plain"),
        )[: len(sizes)]
        rng = np.random.default_rng(sum(sizes))
        class_index = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
        population = Population(
            classes,
            clients,
            class_index,
            rng.integers(0, len(clients), len(class_index)),
            rng.random(len(class_index)),
        )
        report = evaluate_population(topology, service, mapping_for, population)
        summaries = {s.name: s for s in report.class_summaries}
        assert set(summaries) == {
            c.name for c, size in zip(classes, sizes) if size
        }
        for ci, user_class in enumerate(classes):
            values = report.availability[population.class_index == ci]
            if not len(values):
                continue
            summary = summaries[user_class.name]
            assert summary.users == len(values)
            assert summary.mean == float(values.mean())
            assert summary.minimum == float(values.min())
            p50, p90, p99 = np.percentile(values, (50, 10, 1))
            assert (summary.p50, summary.p90, summary.p99) == (p50, p90, p99)

    @settings(max_examples=300, deadline=None)
    @given(
        palette=st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=1.0),
                st.sampled_from([0.25, 0.5, 0.999]),
            ),
            min_size=1,
            max_size=40,
        ),
        share=st.sampled_from([0.0, 0.001, 0.5, 1.0]),
        size=st.one_of(
            st.integers(min_value=1, max_value=120),
            st.integers(min_value=_SORT_CUTOFF - 2, max_value=3 * _SORT_CUTOFF),
        ),
        top=st.one_of(st.integers(min_value=0, max_value=8), st.none()),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_order_statistics_are_numpys_linear_rule(
        self, palette, share, size, top, seed
    ):
        """Unsorted values, a *share* of them drawn from a few repeated
        ones, on both sides of the sort cutoff; ``top=None`` asks for
        more values than the class has."""
        rng = np.random.default_rng(seed)
        repeated = np.array(palette)[rng.integers(len(palette), size=size)]
        values = np.where(rng.random(size) < share, repeated, rng.random(size))
        top = size + 3 if top is None else top
        minimum, percentiles, smallest = _order_statistics(values.copy(), top)
        assert minimum == values.min()
        assert percentiles == tuple(np.percentile(values, (50, 10, 1)))
        assert np.array_equal(smallest, np.sort(values)[:top])

    def test_selection_over_consecutive_sizes(self):
        """Every size in a run past the cutoff: a partition leaves the
        next order statistic beside its pivot most of the time, so only
        many sizes show a neighbour read off the wrong slot."""
        rng = np.random.default_rng(7)
        for size in range(_SORT_CUTOFF + 1, _SORT_CUTOFF + 400):
            values = rng.random(size)
            minimum, percentiles, smallest = _order_statistics(values.copy(), 5)
            assert minimum == values.min()
            assert percentiles == tuple(np.percentile(values, (50, 10, 1)))
            assert np.array_equal(smallest, np.sort(values)[:5])


@pytest.mark.population
def test_device_availability_is_the_per_user_formula():
    """Pinned exactly: override (or the attachment's table value) times
    ``1 − jitter · r_u``, clipped to [0, 1]."""
    classes = (
        UserClass("over", device_availability=0.97, jitter=0.1),
        UserClass("table", jitter=0.2),
        UserClass("plain"),
        UserClass("fixed", device_availability=0.5),
    )
    population = Population.generate(500, classes, CLIENTS, seed=2)
    table = {name: 0.9 + i / 1000 for i, name in enumerate(CLIENTS)}
    expected = []
    for ci, ai, r in zip(
        population.class_index.tolist(),
        population.attachment_index.tolist(),
        population.jitter_unit.tolist(),
    ):
        user_class = classes[ci]
        device = user_class.device_availability
        if device is None:
            device = table[CLIENTS[ai]]
        expected.append(min(1.0, max(0.0, device * (1.0 - user_class.jitter * r))))
    assert population.device_availability(table).tolist() == expected
