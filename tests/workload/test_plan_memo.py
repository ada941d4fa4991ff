"""The population plane's per-attachment plan memo.

A warm ``evaluate_population`` fetches every kernel by the cache key its
plan remembered, so it discovers, groups, orders and fingerprints
nothing.  Each input a kernel depends on — the topology revision, the
mapping's pairs, ``include_links`` — keys the plan, and
a kernel the LRU lost re-plans; every case must still equal the naive
oracle to 1e-12 and an unmemoized run bit for bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ServiceMapping, ServiceMappingPair
from repro.dependability import bdd
from repro.dependability.bdd import kernel_cache_clear
from repro.network import Topology
from repro.network.generators import campus
from repro.obs.trace import Tracer, activate
from repro.services import AtomicService, CompositeService
from repro.workload import (
    Population,
    UserClass,
    evaluate_population,
    evaluate_population_naive,
)
from repro.workload import plane

pytestmark = pytest.mark.population

CLASSES = (
    UserClass("std", weight=4, device_availability=0.98, jitter=0.05),
    UserClass("gold", weight=1, device_availability=0.9999),
)
SERVICE = CompositeService.sequential(
    "access", (AtomicService("connect"), AtomicService("transfer"))
)


def access_mapping(client: str) -> ServiceMapping:
    return ServiceMapping(
        [
            ServiceMappingPair("connect", client, "server"),
            ServiceMappingPair("transfer", "server", client),
        ]
    )


def core_mapping(client: str) -> ServiceMapping:
    """Same service, transfer served from a core switch: other pairs."""
    return ServiceMapping(
        [
            ServiceMappingPair("connect", client, "server"),
            ServiceMappingPair("transfer", "core1", client),
        ]
    )


@pytest.fixture()
def setting():
    """A fresh campus, its population, and an empty plan memo (plans
    from earlier tests would turn an expected miss into a hit)."""
    plane._PLANS.clear()
    topology = Topology(
        campus(dist_switches=2, edges_per_dist=2, clients_per_edge=3).build()
    )
    clients = tuple(n for n in topology.nodes() if n.startswith("client"))
    population = Population.generate(1500, CLASSES, clients, seed=5)
    return topology, population


@pytest.fixture()
def planning_calls(monkeypatch):
    """Counts the planning work: discovery batches, structure compiles
    (cache hits included) and structure fingerprints."""
    calls = dict.fromkeys(
        ("discover_many", "compile_structure", "structure_fingerprint"), 0
    )

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(plane, "discover_many")
    counting(bdd, "compile_structure")
    counting(bdd, "structure_fingerprint")
    return calls


def plan_of(run):
    """*run*'s result and the ``plan`` attribute of its compile span; a
    ``"hit"`` traces no discovery and no compile."""
    tracer = Tracer()
    with activate(tracer):
        result = run()
    (span,) = tracer.find("workload.compile_keys")
    plan = span.attrs["plan"]
    if plan == "hit":
        assert not tracer.find("engine.discover_many")
        assert not tracer.find("bdd.compile")
    return result, plan


def unmemoized(topology, mapping_for, population, **kwargs):
    """The same evaluation from empty plan and kernel caches."""
    plane._PLANS.clear()
    kernel_cache_clear()
    return evaluate_population(
        topology, SERVICE, mapping_for, population, **kwargs
    ).availability


def test_warm_op_plans_nothing(setting, planning_calls):
    topology, population = setting
    first = evaluate_population(topology, SERVICE, access_mapping, population)
    for name in planning_calls:
        planning_calls[name] = 0
    second, plan = plan_of(
        lambda: evaluate_population(
            topology, SERVICE, access_mapping, population
        )
    )
    assert plan == "hit"
    assert planning_calls == {
        "discover_many": 0,
        "compile_structure": 0,
        "structure_fingerprint": 0,
    }
    assert np.array_equal(first.availability, second.availability)


def test_new_attachments_plan_partially(setting):
    topology, population = setting
    some = Population.generate(
        200, CLASSES, population.attachments[:3], seed=1
    )
    evaluate_population(topology, SERVICE, access_mapping, some)
    report, plan = plan_of(
        lambda: evaluate_population(
            topology, SERVICE, access_mapping, population
        )
    )
    assert plan == "partial"
    naive = evaluate_population_naive(
        topology, SERVICE, access_mapping, population
    )
    assert float(np.max(np.abs(report.availability - naive))) <= 1e-12


def _edit_topology(topology, kwargs):
    # a new dist-dist link: a new model revision and new paths
    topology.model.add_link("dist0", "dist1", "Cable")
    return access_mapping, kwargs


def _change_pairs(topology, kwargs):
    return core_mapping, kwargs


def _flip_links(topology, kwargs):
    return access_mapping, {**kwargs, "include_links": False}


def _clear_kernels(topology, kwargs):
    kernel_cache_clear()
    return access_mapping, kwargs


REPLANS = [_edit_topology, _change_pairs, _flip_links, _clear_kernels]


@pytest.mark.parametrize(
    "change", REPLANS, ids=[c.__name__.lstrip("_") for c in REPLANS]
)
def test_change_forces_a_replan(setting, planning_calls, change):
    topology, population = setting
    evaluate_population(topology, SERVICE, access_mapping, population)
    mapping_for, kwargs = change(topology, {})
    for name in planning_calls:
        planning_calls[name] = 0
    report, plan = plan_of(
        lambda: evaluate_population(
            topology, SERVICE, mapping_for, population, **kwargs
        )
    )
    assert plan == "miss"
    assert planning_calls["discover_many"] == 1
    assert planning_calls["compile_structure"] >= 1
    assert planning_calls["structure_fingerprint"] >= 1

    naive = evaluate_population_naive(
        topology, SERVICE, mapping_for, population, **kwargs
    )
    assert float(np.max(np.abs(report.availability - naive))) <= 1e-12
    cold = unmemoized(topology, mapping_for, population, **kwargs)
    assert np.array_equal(report.availability, cold)
    # and the re-planned inputs are warm from here on
    _, plan = plan_of(
        lambda: evaluate_population(
            topology, SERVICE, mapping_for, population, **kwargs
        )
    )
    assert plan == "hit"


def test_topology_edit_changes_the_answer(setting):
    """The re-plan after an edit is not a stale kernel: the extra
    dist-dist link adds redundancy, so no user's availability drops and
    some rise."""
    topology, population = setting
    before = evaluate_population(
        topology, SERVICE, access_mapping, population
    ).availability
    topology.model.add_link("dist0", "dist1", "Cable")
    after = evaluate_population(
        topology, SERVICE, access_mapping, population
    ).availability
    assert np.all(after >= before)
    assert np.any(after > before)


def test_set_value_shows_in_the_next_op(setting):
    """Formula 1 is re-resolved on every op: a stereotype value edit
    reaches the second op through the memoized plans, which key only
    structure."""
    topology, population = setting
    before = evaluate_population(
        topology, SERVICE, access_mapping, population
    ).availability
    edge = topology.model.get_instance("edge0_0").classifier
    (app,) = [a for a in edge.applied_stereotypes if "MTBF" in a.values()]
    app.set_value("MTBF", 10.0)
    report, plan = plan_of(
        lambda: evaluate_population(
            topology, SERVICE, access_mapping, population
        )
    )
    assert plan == "hit"
    assert np.all(report.availability <= before)
    assert np.any(report.availability < before)
    naive = evaluate_population_naive(
        topology, SERVICE, access_mapping, population
    )
    assert float(np.max(np.abs(report.availability - naive))) <= 1e-12
