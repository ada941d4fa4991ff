"""Tests for the UPSIM → RBD/FT transformations."""

import pytest

from repro.analysis.transformations import (
    component_availabilities,
    pair_fault_tree,
    pair_path_sets,
    pair_rbd,
    service_path_set_groups,
    service_rbd,
)
from repro.core.pathdiscovery import PathSet
from repro.dependability.availability import (
    instance_availability,
    link_availability,
)
from repro.dependability.cutsets import link_component_name
from repro.dependability.rbd import Parallel, Series
from repro.errors import AnalysisError
from repro.network import Topology
from repro.network.generators import (
    balanced_tree,
    campus,
    complete,
    erdos_renyi,
    ladder,
    ring,
)
from repro.uml.objects import Slot


class TestComponentAvailabilities:
    def test_all_instances_covered(self, upsim_t1_p2):
        table = component_availabilities(upsim_t1_p2.model, include_links=False)
        assert set(table) == set(upsim_t1_p2.component_names)

    def test_links_included_by_default(self, upsim_t1_p2):
        table = component_availabilities(upsim_t1_p2.model)
        assert "c1|c2" in table
        assert table["c1|c2"] == pytest.approx(1 - 0.5 / 1e6)

    def test_paper_vs_exact_formula(self, upsim_t1_p2):
        paper = component_availabilities(upsim_t1_p2.model, include_links=False)
        exact = component_availabilities(
            upsim_t1_p2.model, formula="exact", include_links=False
        )
        for name in paper:
            assert exact[name] >= paper[name]
            assert exact[name] == pytest.approx(paper[name], abs=1e-4)

    def test_t1_value(self, upsim_t1_p2):
        table = component_availabilities(upsim_t1_p2.model, include_links=False)
        assert table["t1"] == pytest.approx(0.992)


def per_component_loop(model, formula):
    """Formula 1 resolved for every instance and link on its own."""
    table = {
        instance.name: instance_availability(instance, formula=formula).availability
        for instance in model.instances
    }
    for link in model.links:
        table[link_component_name(link.end1.name, link.end2.name)] = (
            link_availability(link, formula=formula).availability
        )
    return table


def device_application(cls):
    """The class's stereotype application that carries MTBF/MTTR."""
    (app,) = [a for a in cls.applied_stereotypes if "MTBF" in a.values()]
    return app


GENERATED = {
    "campus": lambda: campus(dist_switches=2, edges_per_dist=2, clients_per_edge=3),
    "ring": lambda: ring(7),
    "ladder": lambda: ladder(4),
    "complete": lambda: complete(5),
    "tree": lambda: balanced_tree(2, 3),
    "er": lambda: erdos_renyi(9, 0.4, seed=3),
}


class TestFormulaOnePerSignature:
    """One Formula-1 resolution per classifier (per association for
    links) gives the per-component loop's table bit for bit."""

    @pytest.mark.parametrize("formula", ["paper", "exact"])
    def test_usi_matches_per_component_loop(self, usi, formula):
        table = component_availabilities(usi, formula=formula)
        expected = per_component_loop(usi, formula)
        assert list(table) == list(expected)
        assert table == expected

    @pytest.mark.parametrize("formula", ["paper", "exact"])
    @pytest.mark.parametrize("family", sorted(GENERATED))
    def test_generated_families_match_per_component_loop(self, family, formula):
        model = GENERATED[family]().build()
        table = component_availabilities(Topology(model), formula=formula)
        expected = per_component_loop(model, formula)
        assert list(table) == list(expected)
        assert table == expected

    @pytest.mark.parametrize("formula", ["paper", "exact"])
    def test_slot_override_keeps_its_own_value(self, small_builder, formula):
        model = small_builder.build()
        model.get_instance("e").slots.append(Slot("MTBF", "Real", 10.0))
        table = component_availabilities(model, formula=formula)
        assert table == per_component_loop(model, formula)
        # e, a and b share the Sw class; only e carries the slot
        assert table["a"] == table["b"]
        assert table["e"] < table["a"]

    def test_set_value_shows_in_the_next_call(self):
        model = campus(
            dist_switches=2, edges_per_dist=2, clients_per_edge=3
        ).build()
        before = component_availabilities(model)
        edge = model.get_instance("edge0_0").classifier
        device_application(edge).set_value("MTBF", 10.0)
        after = component_availabilities(model)
        assert after == per_component_loop(model, "paper")
        for instance in model.instances:
            if instance.classifier is edge:
                assert after[instance.name] < before[instance.name]
            else:
                assert after[instance.name] == before[instance.name]


class TestPairRBD:
    def test_two_paths_parallel_of_series(self, upsim_t1_p2):
        structure = pair_rbd(
            upsim_t1_p2.path_sets["request_printing"], include_links=False
        )
        assert isinstance(structure, Parallel)
        assert len(structure.children) == 2
        assert all(isinstance(c, Series) for c in structure.children)

    def test_includes_link_blocks(self, upsim_t1_p2):
        structure = pair_rbd(upsim_t1_p2.path_sets["request_printing"])
        names = set(structure.component_names())
        assert "t1|e1" in names or "e1|t1" in names

    def test_empty_pathset_rejected(self):
        with pytest.raises(AnalysisError):
            pair_rbd(PathSet("a", "b"))
        with pytest.raises(AnalysisError):
            pair_path_sets(PathSet("a", "b"))

    def test_single_path_is_series(self, diamond_topo):
        from repro.core.pathdiscovery import discover_paths

        single = discover_paths(diamond_topo, "pc", "e")
        structure = pair_rbd(single, include_links=False)
        assert isinstance(structure, Series)

    def test_evaluation_exact_under_sharing(self, upsim_t1_p2):
        """Both t1 paths share t1/e1/d1/c1/d4/printS; factoring vs the
        brute-force bitmask evaluator must agree."""
        from repro.analysis.exact import pair_availability

        path_set = upsim_t1_p2.path_sets["request_printing"]
        table = component_availabilities(upsim_t1_p2.model)
        structure = pair_rbd(path_set)
        sets = pair_path_sets(path_set)
        assert structure.availability(table) == pytest.approx(
            pair_availability(sets, table), abs=1e-12
        )


class TestPairFaultTree:
    def test_dual_of_rbd(self, upsim_t1_p2):
        path_set = upsim_t1_p2.path_sets["request_printing"]
        table = component_availabilities(upsim_t1_p2.model)
        tree = pair_fault_tree(path_set)
        structure = pair_rbd(path_set)
        assert tree.availability(table) == pytest.approx(
            structure.availability(table), abs=1e-12
        )

    def test_cut_sets_contain_spofs(self, upsim_t1_p2):
        tree = pair_fault_tree(
            upsim_t1_p2.path_sets["request_printing"], include_links=False
        )
        cuts = tree.minimal_cut_sets()
        singletons = {next(iter(c)) for c in cuts if len(c) == 1}
        # every component on ALL paths is a single point of failure
        assert {"t1", "e1", "d1", "c1", "d4", "printS"} <= singletons
        assert "c2" not in singletons  # redundant core member


class TestServiceRBD:
    def test_distinct_pairs_deduplicated(self, upsim_t1_p2):
        structure = service_rbd(upsim_t1_p2, include_links=False)
        # Table I has 5 atomic services but only 2 distinct pairs
        assert isinstance(structure, Series)
        assert len(structure.children) == 2

    def test_groups_match_rbd(self, upsim_t1_p2):
        groups = service_path_set_groups(upsim_t1_p2, include_links=False)
        assert len(groups) == 2
        sizes = sorted(len(group) for group in groups)
        assert sizes == [2, 2]  # two redundant paths per pair

    def test_empty_upsim_rejected(self, upsim_t1_p2):
        from repro.core.upsim import UPSIM

        empty = UPSIM(model=upsim_t1_p2.model, service_name="x")
        with pytest.raises(AnalysisError):
            service_rbd(empty)
