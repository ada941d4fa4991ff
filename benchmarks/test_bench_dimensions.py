"""Benches for the one-pass multi-dimension plane (experiment
``dimensions``).

:func:`repro.dimensions.evaluate_dimensions` must make "evaluate k
dimensions" cost one structure pass, not k: every ``bdd-prob`` dimension
in the selected set contributes one row to a single vectorized
:meth:`~repro.dependability.bdd.AvailabilityKernel.evaluate_many_all`
traversal, and annotation resolution / canonicalization / fingerprinting
happen once per call instead of once per dimension.  Floor:

* a k=5 what-if availability sweep (five registered availability-shaped
  dimensions, one derated component table each) in one pass is ≥3×
  faster than five separate single-dimension calls on the campus
  all-pairs structure — the separate calls already share the memoized
  kernel compile, so the floor measures the plane's own pass sharing,
  not compilation caching.

The five heterogeneous built-ins are benchmarked too (correctness
pinned against separate passes); their intrinsic sharing is lower
because responsiveness/latency/cost folds are genuinely per-dimension
work.

Record a baseline with::

    pytest benchmarks/test_bench_dimensions.py -q --benchmark-json=BENCH_dimensions.json

and compare future runs with ``python benchmarks/compare.py``.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.transformations import (
    component_availabilities,
    pair_path_sets,
)
from repro.core.pathdiscovery import discover_paths
from repro.dimensions import (
    default_registry,
    dimension_names,
    evaluate_dimensions,
)
from repro.dimensions.registry import AnnotationSpec, Dimension
from repro.dimensions.semiring import PROBABILITY
from repro.network import Topology
from repro.network.generators import campus

ONE_PASS_SPEEDUP_FLOOR = 3.0
SCENARIOS = 5


def _best(fn, reps: int = 5) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


@pytest.fixture(scope="module")
def campus_all_pairs():
    """Every client→server pair of a dual-homed campus, plus the
    availability table the probability dimensions consume."""
    builder = campus(
        dist_switches=2, edges_per_dist=2, clients_per_edge=3, dual_homed=True
    )
    topology = Topology(builder.object_model)
    clients = sorted(n for n in topology.nodes() if n.startswith("client"))
    groups = [
        pair_path_sets(
            discover_paths(topology, client, "server"), include_links=True
        )
        for client in clients
    ]
    table = component_availabilities(topology, include_links=True)
    return groups, table


@pytest.fixture()
def scenario_sweep(campus_all_pairs):
    """SCENARIOS availability-shaped dimensions registered through the
    plugin registry, each reading its own derated component table — the
    classic what-if reliability sweep, expressed as a dimension set."""
    _, table = campus_all_pairs
    registry = default_registry()
    names, annotations = [], {}
    for index in range(SCENARIOS):
        name = f"availability_s{index}"
        registry.register(
            Dimension(
                name=name,
                description=f"availability under derating scenario {index}",
                semiring=PROBABILITY,
                annotations=(
                    AnnotationSpec(
                        key=name,
                        description="scenario component availability",
                        lower=0.0,
                        upper=1.0,
                    ),
                ),
                mode="bdd-prob",
                fmt="{:.9f}",
            )
        )
        names.append(name)
        annotations[name] = {
            component: availability ** (1.0 + 0.25 * index)
            for component, availability in table.items()
        }
    try:
        yield names, annotations
    finally:
        for name in names:
            registry.unregister(name)


def test_scenario_sweep_one_pass_floor(
    benchmark, campus_all_pairs, scenario_sweep
):
    """k registered dimensions in one pass ≥3× k separate passes: the
    sweep's five tables ride one vectorized kernel traversal."""
    groups, _ = campus_all_pairs
    names, annotations = scenario_sweep

    def one_pass():
        return evaluate_dimensions(
            groups, names, annotations=annotations
        )

    def separate_passes():
        return [
            evaluate_dimensions(
                groups,
                [name],
                annotations={name: annotations[name]},
            )
            for name in names
        ]

    report = benchmark(one_pass)
    assert report.names() == tuple(names)

    # correctness first: sharing the pass must not change a single bit
    for single, name in zip(separate_passes(), names):
        assert single[name].value == report[name].value
        assert single[name].per_pair == report[name].per_pair
    # the sweep is monotone: harsher derating, lower availability
    values = [report[name].value for name in names]
    assert values == sorted(values, reverse=True)

    one = _best(one_pass)
    k = _best(separate_passes)
    assert k / one >= ONE_PASS_SPEEDUP_FLOOR, (
        f"one-pass {one * 1e3:.2f} ms vs separate {k * 1e3:.2f} ms — "
        f"{k / one:.2f}x, floor {ONE_PASS_SPEEDUP_FLOOR}x"
    )


def test_builtin_dimensions_one_pass(benchmark, campus_all_pairs):
    """All five heterogeneous built-ins in one pass over the campus
    all-pairs structure, bit-identical to five separate passes."""
    groups, table = campus_all_pairs
    names = list(dimension_names())
    annotations = {"availability": table}

    def one_pass():
        return evaluate_dimensions(
            groups, names, annotations=annotations
        )

    report = benchmark(one_pass)
    assert report.names() == tuple(names)
    for name in names:
        single = evaluate_dimensions(
            groups, [name], annotations=annotations
        )
        assert single[name].value == report[name].value
        assert single[name].per_pair == report[name].per_pair
