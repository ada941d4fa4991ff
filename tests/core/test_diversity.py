"""Tests for path-diversity metrics."""

import pytest

from repro.core.diversity import (
    diversity_report,
    edge_connectivity,
    node_connectivity,
    shared_components,
)
from repro.core.pathdiscovery import PathSet, discover_paths
from repro.errors import PathDiscoveryError
from repro.network.generators import (
    balanced_tree,
    campus,
    complete,
    erdos_renyi,
    ladder,
    ring,
)
from repro.network.topology import Topology


class TestConnectivity:
    def test_diamond(self, diamond_topo):
        # pc -> s: both paths share e, so node connectivity is 1
        assert node_connectivity(diamond_topo, "pc", "s") == 1
        assert edge_connectivity(diamond_topo, "pc", "s") == 1
        # e -> s: two fully disjoint routes via a and b
        assert node_connectivity(diamond_topo, "e", "s") == 2
        assert edge_connectivity(diamond_topo, "e", "s") == 2

    def test_tree_is_one(self):
        topology = balanced_tree(2, 3).topology()
        assert node_connectivity(topology, "client", "server") == 1

    def test_ring_is_two_between_switches(self):
        topology = ring(8).topology()
        assert node_connectivity(topology, "sw0", "sw4") == 2
        # but the attached client is a spur: only 1
        assert node_connectivity(topology, "client", "server") == 1

    def test_complete_graph(self):
        topology = complete(6).topology()
        # between two switches: direct edge + 4 two-hop routes
        assert node_connectivity(topology, "sw0", "sw1") == 5
        assert edge_connectivity(topology, "sw0", "sw1") == 5

    def test_direct_link_counts(self, diamond_topo):
        assert node_connectivity(diamond_topo, "pc", "e") == 1

    def test_usi_core(self, usi_topo):
        # the two core switches: direct link + two relays (d3 is single-homed)
        assert node_connectivity(usi_topo, "c1", "c2") == 2
        assert edge_connectivity(usi_topo, "c1", "c2") == 2

    def test_validation(self, diamond_topo):
        with pytest.raises(PathDiscoveryError):
            node_connectivity(diamond_topo, "pc", "pc")
        with pytest.raises(PathDiscoveryError):
            node_connectivity(diamond_topo, "pc", "ghost")

    def test_disconnected_zero(self, small_builder):
        small_builder.add("island", "Pc")
        from repro.network.topology import Topology

        topology = Topology(small_builder.object_model)
        assert node_connectivity(topology, "pc", "island") == 0
        assert edge_connectivity(topology, "pc", "island") == 0


class TestSharedComponents:
    def test_usi_t1_prints(self, usi_topo):
        path_set = discover_paths(usi_topo, "t1", "printS")
        assert shared_components(path_set) == {"e1", "d1", "c1", "d4"}

    def test_endpoints_included_on_request(self, usi_topo):
        path_set = discover_paths(usi_topo, "t1", "printS")
        with_endpoints = shared_components(path_set, include_endpoints=True)
        assert {"t1", "printS"} <= with_endpoints

    def test_disjoint_paths_share_nothing(self, diamond_topo):
        path_set = discover_paths(diamond_topo, "e", "s")
        assert shared_components(path_set) == set()

    def test_empty_pathset_rejected(self):
        with pytest.raises(PathDiscoveryError):
            shared_components(PathSet("a", "b"))


class TestDiversityReport:
    def test_usi_pair(self, usi_topo):
        report = diversity_report(usi_topo, "t1", "printS")
        assert report.path_count == 2
        assert report.node_disjoint_paths == 1
        assert not report.survives_any_single_node_failure
        assert report.single_points_of_failure == ("c1", "d1", "d4", "e1")
        assert report.shortest_hops == 5
        assert report.longest_hops == 6
        assert 0.0 < report.redundancy_ratio <= 1.0

    def test_fully_diverse_pair(self, diamond_topo):
        report = diversity_report(diamond_topo, "e", "s")
        assert report.node_disjoint_paths == 2
        assert report.survives_any_single_node_failure
        assert report.redundancy_ratio == 1.0

    def test_direct_link_survives_single_node_failure(self):
        # the only path is the link itself: no intermediate node to fail
        report = diversity_report(complete(3).topology(), "client", "sw0")
        assert report.path_count == 1
        assert report.node_disjoint_paths == 1
        assert report.single_points_of_failure == ()
        assert report.survives_any_single_node_failure

    @pytest.mark.parametrize(
        "topology",
        [
            ring(6).topology(),
            ladder(4).topology(),
            complete(4).topology(),
            Topology(
                campus(edges_per_dist=1, clients_per_edge=2, dual_homed=True)
                .build()
            ),
            erdos_renyi(8, 0.3, seed=3).topology(),
        ],
        ids=["ring", "ladder", "complete", "campus", "erdos_renyi"],
    )
    def test_verdict_matches_brute_force_node_removal(self, topology):
        nodes = topology.nodes()
        for i, requester in enumerate(nodes):
            for provider in nodes[i + 1 :: 2]:
                report = diversity_report(topology, requester, provider)
                survives = all(
                    discover_paths(
                        topology.with_faults(f"crash:{node}"),
                        requester,
                        provider,
                    )
                    for node in nodes
                    if node not in (requester, provider)
                )
                assert report.survives_any_single_node_failure == survives, (
                    requester,
                    provider,
                )
                assert survives == (not report.single_points_of_failure)

    def test_ladder_many_paths_few_disjoint(self):
        topology = ladder(5).topology()
        report = diversity_report(topology, "top0", "bot4")
        assert report.path_count > report.node_disjoint_paths
        assert report.node_disjoint_paths == 2

    def test_no_path_raises(self, small_builder):
        small_builder.add("island", "Pc")
        from repro.network.topology import Topology

        topology = Topology(small_builder.object_model)
        with pytest.raises(PathDiscoveryError):
            diversity_report(topology, "pc", "island")

    def test_spofs_match_cut_set_singletons(self, usi_topo):
        """Cross-check: diversity SPOFs == order-1 minimal cut sets."""
        from repro.dependability.cutsets import minimal_cut_sets, path_components

        path_set = discover_paths(usi_topo, "t1", "printS")
        sets = [path_components(p, include_links=False) for p in path_set.paths]
        cuts = minimal_cut_sets(sets)
        singletons = {
            next(iter(c))
            for c in cuts
            if len(c) == 1 and next(iter(c)) not in ("t1", "printS")
        }
        assert singletons == shared_components(path_set)
