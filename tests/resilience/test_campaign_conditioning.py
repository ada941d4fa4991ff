"""Campaign by conditioning == campaign by overlay rediscovery.

``run_campaign`` conditions the one nominal compile on every resolved
fault plan; the oracle in :mod:`tests.oracles.campaign_overlay` applies
each plan as an overlay, rediscovers every pair and re-evaluates.
Removing nodes or links never creates a simple path, so the two must give
byte-identical reports — on every USI mapping and on generated
topologies with every fault kind.  The shared ``_nearest_cut`` is pinned
against a brute-force walk of the overlay.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.casestudy import CLIENTS, PRINTERS, printing_mapping
from repro.core import ServiceMapping, ServiceMappingPair, generate_upsim
from repro.dependability.cutsets import link_component_name
from repro.network import Topology
from repro.network.generators import campus, complete, erdos_renyi, ladder, ring
from repro.resilience import FaultPlan, Fault
from repro.resilience.runner import _adjacency, _nearest_cut
from repro.services import AtomicService, CompositeService
from tests.oracles.campaign_overlay import assert_conditioning_matches_overlay

pytestmark = pytest.mark.campaign


@pytest.mark.parametrize("printer", PRINTERS)
@pytest.mark.parametrize("client", CLIENTS)
def test_usi_mappings_match_overlay_route(usi_topo, printing, client, printer):
    assert_conditioning_matches_overlay(
        usi_topo,
        printing,
        printing_mapping(client, printer),
        k=2,
        include_links=True,
    )


# -- generated topologies ------------------------------------------------------

ACCESS = CompositeService.sequential(
    "access", (AtomicService("connect"), AtomicService("transfer"))
)
ACCESS_MAPPING = ServiceMapping(
    [
        ServiceMappingPair("connect", "client", "server"),
        ServiceMappingPair("transfer", "server", "client"),
    ]
)

topologies = st.one_of(
    st.integers(3, 7).map(ring),
    st.integers(1, 4).map(ladder),
    st.integers(2, 5).map(complete),
    st.builds(
        lambda dist, edges, clients, dual: campus(
            dist_switches=dist,
            edges_per_dist=edges,
            clients_per_edge=clients,
            dual_homed=dual,
        ),
        st.integers(1, 2),
        st.integers(1, 2),
        st.integers(1, 2),
        st.booleans(),
    ),
    st.builds(
        lambda n, p, seed: erdos_renyi(n, p, seed=seed),
        st.integers(3, 7),
        st.sampled_from((0.3, 0.5)),
        st.integers(0, 50),
    ),
).map(lambda builder: Topology(builder.build()))


@st.composite
def campaigns(draw):
    """A generated topology with a candidate pool mixing every fault kind."""
    topology = draw(topologies)
    upsim = generate_upsim(topology, ACCESS, ACCESS_MAPPING)
    inside = sorted(upsim.component_names)
    outside = sorted(set(topology.nodes()) - set(inside))
    links = sorted(upsim.used_links())
    kinds = ["crash", "flap", "degrade"] + (["cut", "degrade-link"] if links else [])
    kinds += ["crash-outside"] if outside else []
    pool = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=5)):
        if kind == "crash":
            pool.append(f"crash:{draw(st.sampled_from(inside))}")
        elif kind == "crash-outside":
            pool.append(f"crash:{draw(st.sampled_from(outside))}")
        elif kind == "flap":
            node = draw(st.sampled_from(inside))
            pool.append(f"flap:{node}@{draw(st.integers(0, 99))}:0.5")
        elif kind == "cut":
            a, b = draw(st.sampled_from(links))
            pool.append(f"cut:{b}|{a}" if draw(st.booleans()) else f"cut:{a}|{b}")
        else:
            if kind == "degrade":
                target = draw(st.sampled_from(inside))
            else:
                a, b = draw(st.sampled_from(links))
                target = f"{b}|{a}" if draw(st.booleans()) else f"{a}|{b}"
            mtbf = draw(st.sampled_from((50.0, 400.0, 5000.0)))
            mttr = draw(st.sampled_from((0.5, 2.0, 10.0)))
            pool.append(f"degrade:{target}:mtbf={mtbf:g},mttr={mttr:g}")
    return topology, pool


@settings(
    max_examples=40,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    case=campaigns(),
    k=st.integers(1, 2),
    ticks=st.integers(1, 4),
    kernel=st.sampled_from(("bdd", "ie")),
)
def test_generated_campaigns_match_overlay_route(case, k, ticks, kernel):
    topology, pool = case
    assert_conditioning_matches_overlay(
        topology,
        ACCESS,
        ACCESS_MAPPING,
        candidates=pool,
        k=k,
        ticks=ticks,
        kernel=kernel,
    )


# -- the shared nearest-cut walk -----------------------------------------------


def _brute_force_cut(topology, down, cut, requester):
    """Frontier of the requester's region, read off an overlay walk."""
    if requester in down:
        return (requester,)
    plan = FaultPlan(
        [Fault.crash(node) for node in down]
        + [Fault.cut(*link.split("|")) for link in cut]
    )
    region = plan.apply(topology).reachable_from(requester)
    found = set()
    for node in region:
        for neighbor in topology.neighbors(node):
            if neighbor in down:
                found.add(neighbor)
            elif link_component_name(node, neighbor) in cut:
                found.add(link_component_name(node, neighbor))
    return tuple(sorted(found))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(topology=topologies, data=st.data())
def test_nearest_cut_matches_overlay_walk(topology, data):
    nodes = sorted(topology.nodes())
    links = sorted({link_component_name(a, b) for a, b in topology.edges()})
    down = set(data.draw(st.lists(st.sampled_from(nodes), max_size=3)))
    cut = set(data.draw(st.lists(st.sampled_from(links), max_size=3)))
    requester = data.draw(st.sampled_from(nodes))
    assert _nearest_cut(
        _adjacency(topology), down, cut, requester
    ) == _brute_force_cut(topology, down, cut, requester)
