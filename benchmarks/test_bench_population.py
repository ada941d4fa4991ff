"""Benches for the population-scale evaluation plane (experiment
``population``).

The plane (`repro.workload`) must make per-user availability for whole
populations cheap: users sharing an (attachment, service) key collapse
to one compiled structure, each structure is expanded once on the
user's device (root with the device at 0 and at 1), and one numpy
multiply-add replaces the per-user Python loop.  Floors:

* vectorized plane ≥50× the scalar per-user oracle at 100k users;
* the 1M-user campus sweep completes in seconds (hard ceiling below).

CI runs only the ≤10k-user smoke; export ``REPRO_BENCH_FULL=1`` for the
100k/1M sweeps.  Record a baseline with::

    pytest benchmarks/test_bench_population.py -q --benchmark-json=BENCH_population.json

and compare future runs with ``python benchmarks/compare.py``.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.casestudy import CLIENTS, printing_mapping
from repro.network import Topology
from repro.network.generators import campus
from repro.services import AtomicService, CompositeService
from repro.core import ServiceMapping, ServiceMappingPair
from repro.workload import (
    Population,
    UserClass,
    evaluate_population,
    evaluate_population_naive,
)

SPEEDUP_FLOOR = 50.0
SWEEP_1M_CEILING_SECONDS = 60.0
FULL = os.environ.get("REPRO_BENCH_FULL") == "1"
needs_full = pytest.mark.skipif(
    not FULL, reason="large sweep; export REPRO_BENCH_FULL=1"
)

CLASSES = (
    UserClass("std", weight=4, device_availability=0.98, jitter=0.05),
    UserClass("gold", weight=1, device_availability=0.9999),
)


def _usi_mapping(client: str) -> ServiceMapping:
    return printing_mapping(client, "p2")


@pytest.fixture(scope="module")
def campus_plane():
    """A 64-client campus topology with a two-leg access service."""
    topology = Topology(
        campus(dist_switches=4, edges_per_dist=4, clients_per_edge=4).build()
    )
    clients = tuple(n for n in topology.nodes() if n.startswith("client"))
    service = CompositeService.sequential(
        "access", (AtomicService("connect"), AtomicService("transfer"))
    )

    def mapping_for(client: str) -> ServiceMapping:
        return ServiceMapping(
            [
                ServiceMappingPair("connect", client, "server"),
                ServiceMappingPair("transfer", "server", client),
            ]
        )

    return topology, service, mapping_for, clients


def _best(fn, reps: int = 3) -> float:
    """Best-of-N wall time — the fairest single number for a baseline."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


# -- smoke: the CI-sized sweep (≤10k users) ----------------------------------


def test_population_smoke_10k(benchmark, usi_topo, printing):
    """10k USI users through the vectorized plane, equivalence-checked
    against the scalar oracle on a 1k subsample."""
    population = Population.generate(10_000, CLASSES, CLIENTS, seed=7)

    report = benchmark(
        lambda: evaluate_population(
            usi_topo, printing, _usi_mapping, population
        )
    )
    assert report.n_users == 10_000
    assert np.all((report.availability >= 0.0) & (report.availability <= 1.0))
    assert {s.name for s in report.class_summaries} == {"std", "gold"}

    sample = Population(
        classes=population.classes,
        attachments=population.attachments,
        class_index=population.class_index[:1000],
        attachment_index=population.attachment_index[:1000],
        jitter_unit=(
            None
            if population.jitter_unit is None
            else population.jitter_unit[:1000]
        ),
    )
    naive = evaluate_population_naive(usi_topo, printing, _usi_mapping, sample)
    vectorized = evaluate_population(usi_topo, printing, _usi_mapping, sample)
    assert float(np.max(np.abs(vectorized.availability - naive))) <= 1e-12


# -- full: the acceptance floors ---------------------------------------------


@needs_full
def test_population_100k_vs_naive(benchmark, usi_topo, printing):
    """≥50× over the scalar per-user loop at 100k users.  The oracle is
    timed on a 2k subsample and scaled linearly (it is a per-user loop;
    running all 100k serially would only inflate CI time)."""
    population = Population.generate(100_000, CLASSES, CLIENTS, seed=7)
    sample = Population(
        classes=population.classes,
        attachments=population.attachments,
        class_index=population.class_index[:2000],
        attachment_index=population.attachment_index[:2000],
        jitter_unit=(
            None
            if population.jitter_unit is None
            else population.jitter_unit[:2000]
        ),
    )

    def vectorized():
        return evaluate_population(usi_topo, printing, _usi_mapping, population)

    report = benchmark(vectorized)
    assert report.n_users == 100_000

    naive_sample_time = _best(
        lambda: evaluate_population_naive(
            usi_topo, printing, _usi_mapping, sample
        ),
        reps=2,
    )
    naive_estimate = naive_sample_time * (100_000 / 2000)
    vectorized_time = _best(vectorized)
    assert naive_estimate / vectorized_time >= SPEEDUP_FLOOR


@needs_full
def test_population_1m_campus(benchmark, campus_plane):
    """1M users on the 64-client campus complete 'in seconds'."""
    topology, service, mapping_for, clients = campus_plane
    population = Population.generate(1_000_000, CLASSES, clients, seed=7)

    def sweep():
        return evaluate_population(topology, service, mapping_for, population)

    report = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert report.n_users == 1_000_000
    assert report.keys == len(clients)
    assert report.seconds < SWEEP_1M_CEILING_SECONDS

