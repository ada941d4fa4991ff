"""The one conditioning primitive: :class:`repro.analysis.whatif.Nominal`.

Campaigns, churn epochs and what-if all read a faulted state off the
nominal structure with a down set at 0.  On generated topologies with
random down sets of nodes and links this checks the three things those
callers rely on: surviving path counts equal a rediscovery on the fault
overlay; a row reads the same bits whether it is evaluated alone (the
scalar route churn takes) or inside a batch (the route campaigns take);
and every row agrees with state enumeration on the forced table.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.exact import system_availability_reference
from repro.analysis.whatif import Nominal
from repro.core import discover_paths
from repro.core.engine import compile_topology
from repro.dependability.cutsets import link_component_name, path_components
from repro.network import Topology
from repro.network.generators import campus, complete, erdos_renyi, ladder, ring
from repro.resilience import Fault, FaultPlan

pytestmark = [pytest.mark.campaign, pytest.mark.churn]

# every drawn topology has at most 22 nodes plus links, the enumeration
# oracle's bound
topologies = st.one_of(
    st.integers(3, 6).map(ring),
    st.integers(1, 3).map(ladder),
    st.integers(2, 4).map(complete),
    st.builds(
        lambda dual: campus(
            dist_switches=1, edges_per_dist=2, clients_per_edge=1, dual_homed=dual
        ),
        st.booleans(),
    ),
    st.builds(
        lambda n, p, seed: erdos_renyi(n, p, seed=seed),
        st.integers(3, 6),
        st.sampled_from((0.3, 0.5)),
        st.integers(0, 50),
    ),
).map(lambda builder: Topology(builder.build()))


@st.composite
def cases(draw):
    """A topology, 1-3 distinct pairs with their path sets, a random
    availability table and down sets of nodes and links."""
    topology = draw(topologies)
    nodes = sorted(topology.nodes())
    links = sorted({link_component_name(a, b) for a, b in topology.edges()})
    pairs = [("client", "server")]
    for _ in range(draw(st.integers(0, 2))):
        a, b = draw(
            st.lists(st.sampled_from(nodes), min_size=2, max_size=2, unique=True)
        )
        if tuple(sorted((a, b))) not in {tuple(sorted(p)) for p in pairs}:
            pairs.append((a, b))
    # keys sharing unordered endpoints share one group
    keys = pairs + [("server", "client")] * draw(st.booleans())
    path_sets = {key: discover_paths(topology, *key) for key in keys}
    rng = random.Random(draw(st.integers(0, 2**16)))
    table = {name: rng.uniform(0.5, 0.999) for name in nodes + links}
    downs = [
        frozenset(
            draw(st.lists(st.sampled_from(nodes), max_size=2))
            + draw(st.lists(st.sampled_from(links), max_size=2))
        )
        for _ in range(draw(st.integers(1, 4)))
    ]
    return topology, pairs, path_sets, table, downs


@settings(
    max_examples=100,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=cases())
def test_nominal_conditions_like_rediscovery_and_enumeration(case):
    topology, pairs, path_sets, table, downs = case
    nominal = Nominal(path_sets, table, compile_topology(topology))
    assert [nominal.group[key] for key in path_sets] == [
        pairs.index(key) if key in pairs else 0 for key in path_sets
    ]

    for down in downs:
        plan = FaultPlan(
            [Fault.crash(name) for name in down if "|" not in name]
            + [Fault.cut(*name.split("|")) for name in down if "|" in name]
        )
        overlay = plan.apply(topology)
        expected = [
            0
            if not (overlay.has_node(a) and overlay.has_node(b))
            else len(discover_paths(overlay, a, b).paths)
            for a, b in pairs
        ]
        assert nominal.survivors(down) == expected

    # a second table object takes its own probability vector in the batch
    degraded = {name: value * 0.9 for name, value in table.items()}
    scenarios = [(down, table) for down in downs] + [(downs[0], degraded)]
    systems, groups = nominal.rows(scenarios)
    for (down, row_table), system, row_groups in zip(scenarios, systems, groups):
        (alone,), (alone_groups,) = nominal.rows([(down, row_table)])
        assert alone == system
        assert alone_groups == row_groups

        forced = {**row_table, **dict.fromkeys(down, 0.0)}
        enum_groups = [
            [path_components(path) for path in path_sets[pair].paths]
            for pair in pairs
        ]
        assert system == pytest.approx(
            system_availability_reference(enum_groups, forced), abs=1e-12
        )
        for group, value in zip(enum_groups, row_groups):
            assert value == pytest.approx(
                system_availability_reference([group], forced), abs=1e-12
            )
