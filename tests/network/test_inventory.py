"""Tests for the infrastructure inventory reporting."""

import networkx as nx
import pytest

from repro.network import (
    Topology,
    balanced_tree,
    campus,
    complete,
    erdos_renyi,
    ladder,
    ring,
)
from repro.network.inventory import articulation_points, availability_budget, inventory


class TestInventory:
    def test_usi_counts(self, usi_topo):
        summaries = {s.class_name: s for s in inventory(usi_topo)}
        assert summaries["Comp"].count == 15
        assert summaries["Printer"].count == 3
        assert summaries["Server"].count == 6
        assert summaries["C6500"].count == 2
        assert summaries["HP2650"].count == 4

    def test_kinds_resolved(self, usi_topo):
        summaries = {s.class_name: s for s in inventory(usi_topo)}
        assert summaries["Comp"].kind == "Client"
        assert summaries["C6500"].kind == "Switch"
        assert summaries["Printer"].kind == "Printer"

    def test_sorted_by_downtime_contribution(self, usi_topo):
        summaries = inventory(usi_topo)
        contributions = [
            s.count * s.expected_downtime_minutes_per_year for s in summaries
        ]
        assert contributions == sorted(contributions, reverse=True)
        # clients dominate: 15 units x 0.8% downtime each
        assert summaries[0].class_name == "Comp"

    def test_per_unit_values(self, usi_topo):
        comp = next(s for s in inventory(usi_topo) if s.class_name == "Comp")
        assert comp.mtbf == 3000.0
        assert comp.mttr == 24.0
        assert comp.availability == pytest.approx(0.992)


class TestBudget:
    def test_fractions_sum_to_one(self, usi_topo):
        budget = availability_budget(usi_topo)
        assert sum(budget.values()) == pytest.approx(1.0)

    def test_clients_dominate(self, usi_topo):
        budget = availability_budget(usi_topo)
        assert budget["Comp"] > 0.95

    def test_diamond_budget(self, diamond_topo):
        budget = availability_budget(diamond_topo)
        assert set(budget) == {"Sw", "Pc", "Srv"}
        assert budget["Pc"] > budget["Srv"]


class TestArticulationPoints:
    def test_usi_articulation_points(self, usi_topo):
        points = articulation_points(usi_topo)
        # every edge/distribution switch cuts off its subtree
        assert {"e1", "e2", "e3", "e4", "d1", "d2", "d3"} <= points
        # d4 is dual-homed; removing it only cuts its own servers...
        assert "d4" in points  # (servers hang off it exclusively)
        # clients and printers are leaves, never articulation points
        assert "t1" not in points
        assert "p2" not in points

    def test_diamond_articulation_points(self, diamond_topo):
        # e is the only cut vertex (a/b are mutually redundant)
        assert articulation_points(diamond_topo) == {"e"}

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: campus(),
            lambda: campus(dist_switches=3, edges_per_dist=3),
            lambda: balanced_tree(3, 3),
            lambda: ring(6),
            lambda: ladder(4),
            lambda: complete(5),
            lambda: erdos_renyi(12, 0.2, seed=3),
            lambda: erdos_renyi(16, 0.1, seed=5),
        ],
        ids=[
            "campus",
            "campus-3x3",
            "tree",
            "ring",
            "ladder",
            "complete",
            "erdos-renyi",
            "erdos-renyi-sparse",
        ],
    )
    def test_matches_networkx(self, builder):
        topology = Topology(builder().build())
        expected = set(nx.articulation_points(topology.to_networkx()))
        assert articulation_points(topology) == expected
