"""Tests for the compiled BDD availability kernel.

Three layers of guarantees, mirroring the path-discovery engine tests:

* **equivalence** — on the case-study service and on every generator
  family the kernel returns the seed state-enumeration oracle's values
  (availability, per-group availabilities, Birnbaum importance, minimal
  path/cut sets) to 1e-12;
* **caching** — kernels are keyed on the structure fingerprint, so
  re-compiling the same path-set groups (in any order) is a cache hit and
  different structures never collide;
* **bounds** — the Esary–Proschan bounds bracket the BDD-exact value on
  every case-study pair.
"""

import contextlib

import numpy as np
import pytest

from repro.analysis.exact import (
    pair_availability,
    pair_availability_reference,
    system_availability,
    system_availability_reference,
    system_path_sets,
)
from repro.analysis.transformations import (
    component_availabilities,
    pair_path_sets,
    service_availability_kernel,
    service_path_set_groups,
)
from repro.core import engine
from repro.dependability.bdd import (
    AvailabilityKernel,
    compile_pair,
    compile_structure,
    frequency_order,
    kernel_cache_clear,
    kernel_cache_info,
    kernel_stats,
    order_from_topology,
    pair_availability_bdd,
    reset_kernel_stats,
    structure_fingerprint,
    system_availability_bdd,
)
from repro.dependability.cutsets import (
    esary_proschan_bounds,
    inclusion_exclusion,
    minimal_cut_sets,
    minimize_sets,
    path_components,
)
from repro.errors import AnalysisError
from repro.network.generators import (
    balanced_tree,
    campus,
    complete,
    erdos_renyi,
    ladder,
    ring,
)
from repro.network.topology import Topology
from tests.conftest import always_sift

fs = frozenset


def _families():
    yield "tree", balanced_tree(2, 3)
    yield "ring", ring(8)
    yield "ladder", ladder(4)
    yield "complete", complete(5)
    yield "campus", campus(dist_switches=2, edges_per_dist=1, clients_per_edge=1)
    yield "er-7", erdos_renyi(10, 0.25, seed=7)


FAMILIES = list(_families())
FAMILY_IDS = [name for name, _ in FAMILIES]


def _family_case(builder):
    """(path sets, availabilities) for client→server, sized so the seed
    enumeration oracle stays inside its component bound."""
    topo = Topology(builder.object_model)
    result = engine.discover(topo, "client", "server", max_depth=6)
    include_links = topo.node_count() <= 8
    paths = [
        path_components(path, include_links=include_links)
        for path in result.paths
    ]
    table = component_availabilities(topo, include_links=include_links)
    return minimize_sets(paths), table


FAMILY_CASES = [_family_case(builder) for _, builder in FAMILIES]


@pytest.fixture(autouse=True)
def _fresh_cache():
    kernel_cache_clear()
    reset_kernel_stats()
    yield
    kernel_cache_clear()


@pytest.fixture(scope="module")
def casestudy(upsim_t1_p2):
    groups = service_path_set_groups(upsim_t1_p2)
    table = component_availabilities(upsim_t1_p2.model)
    return groups, table


# -- equivalence ---------------------------------------------------------------


@pytest.mark.parametrize(
    ("paths", "table"), FAMILY_CASES, ids=FAMILY_IDS
)
class TestFamilyEquivalence:
    def test_matches_reference(self, paths, table):
        oracle = pair_availability_reference(paths, table)
        assert pair_availability_bdd(paths, table) == pytest.approx(
            oracle, abs=1e-12
        )

    def test_all_kernels_agree(self, paths, table):
        oracle = pair_availability_reference(paths, table)
        assert pair_availability(paths, table) == pytest.approx(
            oracle, abs=1e-12
        )
        try:
            via_ie = inclusion_exclusion(system_path_sets([paths]), table)
        except AnalysisError:
            return  # too many system path sets for inclusion–exclusion
        # the alternating sum cancels catastrophically with many sets, so
        # inclusion–exclusion gets a looser tolerance than the BDD route
        assert via_ie == pytest.approx(oracle, abs=1e-9)

    def test_path_and_cut_sets_match_oracles(self, paths, table):
        kernel = compile_pair(paths)
        assert sorted(kernel.minimal_path_sets(), key=sorted) == sorted(
            minimize_sets(paths), key=sorted
        )
        assert sorted(kernel.minimal_cut_sets(), key=sorted) == sorted(
            minimal_cut_sets(paths), key=sorted
        )

    def test_birnbaum_matches_finite_difference(self, paths, table):
        kernel = compile_pair(paths)
        gradient = kernel.birnbaum(table)
        for name in kernel.variables:
            up = dict(table, **{name: 1.0})
            down = dict(table, **{name: 0.0})
            expected = pair_availability_reference(
                paths, up
            ) - pair_availability_reference(paths, down)
            assert gradient[name] == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize(
        "reorder", ["none", pytest.param("sift", marks=pytest.mark.reorder)]
    )
    def test_routes_agree_bit_for_bit(self, paths, table, reorder):
        """Every evaluation route runs the same per-node arithmetic in the
        same operand order, so they agree exactly — not just to 1e-12."""
        # a second, smaller group keeps group roots distinct from the root
        with always_sift() if reorder == "sift" else contextlib.nullcontext():
            kernel = compile_structure([paths, paths[::2]])
        base = kernel.probability_vector(table)
        matrix = np.random.default_rng(5).uniform(0.5, 1.0, (6, len(base)))
        matrix[0] = base
        vectors = [kernel.evaluate_vector(row) for row in matrix]
        assert vectors[0] == kernel.evaluate_all(table)
        assert kernel.evaluate_many(matrix).tolist() == [r for r, _ in vectors]
        roots, groups = kernel.evaluate_many_all(matrix)
        assert roots.tolist() == [r for r, _ in vectors]
        assert [tuple(row) for row in groups.tolist()] == [
            g for _, g in vectors
        ]

        var, low, high, root_pos = kernel.flat_arrays()
        flat = AvailabilityKernel.from_flat(
            var.copy(), low.copy(), high.copy(), root_pos,
            kernel._group_pos, kernel.variables,
        )
        flat_arrays = flat.flat_arrays()
        assert not any(a.flags.writeable for a in flat_arrays[:3])
        for v in range(len(base)):
            values = np.array([0.0, 0.25, base[v], 1.0, *matrix[1:, v]])
            expected = []
            for x in values:
                p = base.copy()
                p[v] = x
                expected.append(kernel.evaluate_vector(p)[0])
            assert kernel.evaluate_perturbed(base, v, values).tolist() == expected
            assert flat.evaluate_perturbed(base, v, values).tolist() == expected


class TestCaseStudyEquivalence:
    def test_system_matches_reference(self, casestudy):
        groups, table = casestudy
        oracle = system_availability_reference(groups, table)
        assert system_availability_bdd(groups, table) == pytest.approx(
            oracle, abs=1e-12
        )
        assert system_availability(groups, table) == pytest.approx(
            oracle, abs=1e-12
        )

    def test_every_pair_matches_reference(self, casestudy, upsim_t1_p2):
        groups, table = casestudy
        kernel = service_availability_kernel(upsim_t1_p2)
        _, group_values = kernel.evaluate_all(table)
        assert len(group_values) == len(groups)
        for group, value in zip(groups, group_values):
            assert value == pytest.approx(
                pair_availability_reference(group, table), abs=1e-12
            )

    def test_shared_structure_one_manager(self, casestudy):
        groups, table = casestudy
        kernel = compile_structure(groups)
        # every group root lives in the same diagram as the system root
        assert len(kernel.group_roots) == len(groups)
        for group_index in range(len(groups)):
            assert kernel.pair_availability(group_index, table) == pytest.approx(
                pair_availability_reference(groups[group_index], table),
                abs=1e-12,
            )

    def test_bounds_bracket_exact_value(self, casestudy):
        groups, table = casestudy
        kernel = compile_structure(groups)
        for index, group in enumerate(groups):
            exact = kernel.pair_availability(index, table)
            lower, upper = esary_proschan_bounds(
                kernel.minimal_path_sets(group=index),
                kernel.minimal_cut_sets(group=index),
                table,
            )
            assert lower - 1e-12 <= exact <= upper + 1e-12


# -- batched evaluation --------------------------------------------------------


class TestEvaluateMany:
    def test_matches_individual_evaluations(self, casestudy):
        groups, table = casestudy
        kernel = compile_structure(groups)
        rng = np.random.default_rng(3)
        tables = []
        for _ in range(7):
            perturbed = {
                name: float(np.clip(value - rng.uniform(0.0, 0.05), 0.0, 1.0))
                for name, value in table.items()
            }
            tables.append(perturbed)
        batch = kernel.evaluate_many(tables)
        assert batch.shape == (7,)
        for row, perturbed in zip(batch, tables):
            assert row == pytest.approx(
                kernel.availability(perturbed), abs=1e-12
            )

    def test_accepts_probability_matrix(self, casestudy):
        groups, table = casestudy
        kernel = compile_structure(groups)
        base = kernel.probability_vector(table)
        matrix = np.repeat(base[np.newaxis, :], 3, axis=0)
        matrix[1] *= 0.9
        matrix[2, 0] = 0.0
        batch = kernel.evaluate_many(matrix)
        assert batch[0] == pytest.approx(kernel.availability(table), abs=1e-12)
        assert batch.shape == (3,)

    def test_rejects_wrong_width(self, casestudy):
        groups, _ = casestudy
        kernel = compile_structure(groups)
        with pytest.raises(AnalysisError, match="probability matrix"):
            kernel.evaluate_many(np.zeros((2, len(kernel.variables) + 1)))

    def test_empty_batch(self, casestudy):
        groups, _ = casestudy
        kernel = compile_structure(groups)
        assert kernel.evaluate_many([]).shape == (0,)

    def test_single_row(self, casestudy):
        groups, table = casestudy
        kernel = compile_structure(groups)
        base = kernel.probability_vector(table)
        batch = kernel.evaluate_many(base[np.newaxis, :])
        assert batch.shape == (1,)
        assert batch[0] == pytest.approx(kernel.availability(table), abs=1e-12)

    def test_float32_matrix_upcasts(self, casestudy):
        groups, table = casestudy
        kernel = compile_structure(groups)
        base = kernel.probability_vector(table)
        matrix = np.repeat(base[np.newaxis, :], 2, axis=0).astype(np.float32)
        batch = kernel.evaluate_many(matrix)
        assert batch.dtype == np.float64
        # float32 rounds the inputs, not the sweep: agreement at the
        # float32 resolution of the annotations
        assert batch[0] == pytest.approx(kernel.availability(table), abs=1e-6)

    def test_mismatched_row_length_raises(self, casestudy):
        groups, table = casestudy
        kernel = compile_structure(groups)
        short = dict(table)
        short.pop(next(iter(short)))
        with pytest.raises(AnalysisError):
            kernel.evaluate_many([short])

    def test_flat_arrays_read_only(self, casestudy):
        """The linearized node tables are shared (LRU, compile workers,
        artifact store) — callers must not be able to mutate them."""
        groups, _ = casestudy
        kernel = compile_structure(groups)
        var_ix, low, high, root_pos = kernel.flat_arrays()
        for array in (var_ix, low, high):
            assert not array.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                array[0] = 0
        assert 0 <= root_pos < kernel.size + 2


class TestEvaluatePerturbed:
    """The population plane's one-variable sweep against evaluate_many."""

    def test_matches_full_matrix_sweep(self, casestudy):
        groups, table = casestudy
        kernel = compile_structure(groups)
        base = kernel.probability_vector(table)
        var = len(kernel.variables) // 2
        values = np.linspace(0.0, 1.0, 9)
        matrix = np.repeat(base[np.newaxis, :], len(values), axis=0)
        matrix[:, var] = values
        perturbed = kernel.evaluate_perturbed(base, var, values)
        assert np.array_equal(perturbed, kernel.evaluate_many(matrix))

    def test_empty_and_single_values(self, casestudy):
        groups, table = casestudy
        kernel = compile_structure(groups)
        base = kernel.probability_vector(table)
        assert kernel.evaluate_perturbed(base, 0, []).shape == (0,)
        single = kernel.evaluate_perturbed(base, 0, [base[0]])
        assert single[0] == pytest.approx(kernel.availability(table), abs=1e-12)

    def test_validation(self, casestudy):
        groups, table = casestudy
        kernel = compile_structure(groups)
        base = kernel.probability_vector(table)
        with pytest.raises(AnalysisError, match="base probability vector"):
            kernel.evaluate_perturbed(base[:-1], 0, [0.5])
        with pytest.raises(AnalysisError, match="out of range"):
            kernel.evaluate_perturbed(base, len(kernel.variables), [0.5])
        with pytest.raises(AnalysisError, match="out of range"):
            kernel.evaluate_perturbed(base, -1, [0.5])
        with pytest.raises(AnalysisError, match="1-D"):
            kernel.evaluate_perturbed(base, 0, [[0.5, 0.6]])


class TestFromFlat:
    """Flat arrays must be bottom-up ordered: every child sits at a lower
    position than its parent, or the single forward sweep reads a node
    before it is computed."""

    GROUPS = [[fs({"a", "b"}), fs({"c"})]]
    TABLE = {"a": 0.9, "b": 0.8, "c": 0.7}

    def _flat(self, **overrides):
        kernel = compile_structure(self.GROUPS, order=("a", "b", "c"))
        var, low, high, root_pos = kernel.flat_arrays()
        arrays = {"var": var.copy(), "low": low.copy(), "high": high.copy()}
        for name, (index, value) in overrides.items():
            arrays[name][index] = value
        return AvailabilityKernel.from_flat(
            arrays["var"], arrays["low"], arrays["high"], root_pos,
            kernel._group_pos, kernel.variables,
        )

    def test_roundtrip_evaluates(self):
        assert self._flat().availability(self.TABLE) == pytest.approx(
            0.916, abs=1e-12
        )

    @pytest.mark.parametrize("child", ["low", "high"])
    @pytest.mark.parametrize("offset", [0, 1])
    def test_child_at_or_above_parent_refused(self, child, offset):
        # interior node 0 lives at position 2: pointing at itself (offset
        # 0) or at the next node (offset 1) breaks the bottom-up order
        with pytest.raises(AnalysisError, match="bottom-up"):
            self._flat(**{child: (0, 2 + offset)})


# -- caching -------------------------------------------------------------------


class TestKernelCache:
    def test_same_structure_hits(self, casestudy):
        groups, _ = casestudy
        first = compile_structure(groups)
        before = kernel_cache_info()
        second = compile_structure(groups)
        after = kernel_cache_info()
        assert second is first
        assert after["hits"] == before["hits"] + 1

    def test_path_order_is_canonicalized(self, casestudy):
        groups, _ = casestudy
        first = compile_structure(groups)
        shuffled = [list(reversed(group)) for group in groups]
        assert compile_structure(shuffled) is first

    def test_different_structure_misses(self):
        a = compile_pair([fs("ab"), fs("ac")])
        b = compile_pair([fs("ab"), fs("bc")])
        assert a is not b
        assert a.fingerprint != b.fingerprint

    def test_use_cache_false_bypasses(self, casestudy):
        groups, _ = casestudy
        first = compile_structure(groups)
        second = compile_structure(groups, use_cache=False)
        assert second is not first
        assert second.fingerprint == first.fingerprint

    def test_clear_drops_kernels(self, casestudy):
        groups, _ = casestudy
        compile_structure(groups)
        kernel_cache_clear()
        assert kernel_cache_info()["currsize"] == 0
        assert kernel_cache_info()["weight"] == 0

    def test_stats_count_compilations_and_evaluations(self, casestudy):
        groups, table = casestudy
        kernel = compile_structure(groups)
        kernel.availability(table)
        kernel.evaluate_many([table, table])
        stats = kernel_stats()
        assert stats["compilations"] == 1
        assert stats["evaluations"] == 3

    def test_fingerprint_depends_on_order(self, casestudy):
        groups, _ = casestudy
        default = structure_fingerprint(groups, frequency_order(groups))
        components = sorted({c for g in groups for p in g for c in p})
        assert default != structure_fingerprint(groups, components)


# -- variable orders -----------------------------------------------------------


class TestVariableOrder:
    def test_topology_order_keeps_links_adjacent(self, usi_topo, upsim_t1_p2):
        groups = service_path_set_groups(upsim_t1_p2)
        components = {c for group in groups for path in group for c in path}
        order = order_from_topology(usi_topo, components)
        assert set(order) == components
        position = {name: i for i, name in enumerate(order)}
        for name in order:
            if "|" not in name:
                continue
            a, b = name.split("|", 1)
            anchor = min(
                (position[end] for end in (a, b) if end in position),
                default=None,
            )
            if anchor is not None:
                assert position[name] > anchor

    def test_explicit_order_must_cover_components(self):
        with pytest.raises(AnalysisError, match="does not cover"):
            compile_pair([fs("ab")], order=("a",), use_cache=False)

    def test_order_equivalence(self, casestudy):
        """Any admissible variable order gives the same value."""
        groups, table = casestudy
        components = sorted({c for g in groups for p in g for c in p})
        forward = compile_structure(groups, order=components, use_cache=False)
        backward = compile_structure(
            groups, order=tuple(reversed(components)), use_cache=False
        )
        assert forward.availability(table) == pytest.approx(
            backward.availability(table), abs=1e-12
        )


# -- validation ----------------------------------------------------------------


class TestValidation:
    def test_no_groups(self):
        with pytest.raises(AnalysisError, match="at least one group"):
            compile_structure([])

    def test_empty_group(self):
        with pytest.raises(AnalysisError, match="never connected"):
            compile_structure([[fs("a")], []])

    def test_no_components(self):
        with pytest.raises(AnalysisError, match="at least one component"):
            compile_structure([[fs()]])

    def test_missing_availability(self):
        kernel = compile_pair([fs("ab")])
        with pytest.raises(AnalysisError, match="no availability"):
            kernel.availability({"a": 0.9})

    def test_out_of_range_availability(self):
        kernel = compile_pair([fs("ab")])
        with pytest.raises(AnalysisError, match=r"\[0, 1\]"):
            kernel.availability({"a": 0.9, "b": 1.5})


# -- degenerate structures -----------------------------------------------------


class TestDegenerateStructures:
    def test_single_component(self):
        kernel = compile_pair([fs("a")])
        assert kernel.availability({"a": 0.25}) == pytest.approx(0.25)
        assert kernel.minimal_path_sets() == [fs("a")]
        assert kernel.minimal_cut_sets() == [fs("a")]

    def test_forced_down_is_exactly_zero(self, casestudy):
        groups, table = casestudy
        kernel = compile_structure(groups)
        cut = kernel.minimal_cut_sets()[0]
        forced = dict(table, **{name: 0.0 for name in cut})
        assert kernel.availability(forced) == 0.0

    def test_perfect_components_give_one(self):
        kernel = compile_pair([fs("ab"), fs("ac")])
        assert kernel.availability({c: 1.0 for c in "abc"}) == 1.0

    def test_series_parallel_closed_form(self):
        # (a and b) or (a and c): a * (1 - (1-b)(1-c))
        kernel = compile_pair([fs("ab"), fs("ac")])
        table = {"a": 0.9, "b": 0.8, "c": 0.7}
        expected = 0.9 * (1.0 - 0.2 * 0.3)
        assert kernel.availability(table) == pytest.approx(expected, abs=1e-15)
        assert kernel.unavailability(table) == pytest.approx(
            1.0 - expected, abs=1e-15
        )
        assert isinstance(kernel, AvailabilityKernel)


# -- incremental recompilation -------------------------------------------------


class TestIncrementalKernel:
    """IncrementalAvailabilityKernel: a persistent manager that reuses
    per-group BDD roots across churn epochs."""

    def _manager(self):
        from repro.dependability.bdd import IncrementalAvailabilityKernel

        return IncrementalAvailabilityKernel()

    @pytest.mark.parametrize(
        ("paths", "table"), FAMILY_CASES, ids=FAMILY_IDS
    )
    def test_matches_batch_compiler(self, paths, table):
        manager = self._manager()
        batch = compile_structure([paths], use_cache=False)
        incremental = manager.recompile([paths])
        assert incremental.availability(table) == pytest.approx(
            batch.availability(table), abs=1e-12
        )

    def test_unchanged_groups_reuse_roots(self, casestudy):
        groups, table = casestudy
        manager = self._manager()
        first = manager.recompile(groups)
        misses = manager.stats["group_misses"]
        second = manager.recompile(groups)
        assert manager.stats["group_hits"] == len(groups)
        assert manager.stats["group_misses"] == misses  # nothing rebuilt
        assert second.availability(table) == pytest.approx(
            first.availability(table), abs=1e-12
        )

    def test_partial_overlap_rebuilds_only_changed(self, casestudy):
        groups, table = casestudy
        manager = self._manager()
        manager.recompile(groups)
        mutated = [list(groups[0]) + [fs({"extra-component"})]] + [
            list(g) for g in groups[1:]
        ]
        before_hits = manager.stats["group_hits"]
        kernel = manager.recompile(mutated)
        assert manager.stats["group_hits"] == before_hits + len(groups) - 1
        oracle = compile_structure(mutated, use_cache=False)
        enriched = dict(table, **{"extra-component": 0.5})
        assert kernel.availability(enriched) == pytest.approx(
            oracle.availability(enriched), abs=1e-12
        )

    def test_variable_growth_keeps_old_roots_valid(self):
        manager = self._manager()
        small = [[fs("ab"), fs("ac")]]
        grown = [[fs("ab"), fs("ac")], [fs("cd"), fs("ce")]]
        table = {c: 0.9 for c in "abcde"}
        manager.recompile(small)
        kernel = manager.recompile(grown)
        assert manager.stats["group_hits"] == 1  # the small group survived
        oracle = compile_structure(grown, use_cache=False)
        assert kernel.availability(table) == pytest.approx(
            oracle.availability(table), abs=1e-12
        )

    def test_order_stays_stable_across_epochs(self):
        manager = self._manager()
        groups = [[fs("ab"), fs("ac")]]
        first = manager.recompile(groups, order_hint=["c", "a", "b"])
        second = manager.recompile(
            groups, order_hint=["b", "c", "a"]  # ignored: order is pinned
        )
        assert first.variables == second.variables

    def test_gc_triggers_rebuild(self):
        manager = self._manager()
        manager._GC_SLACK = 0  # make the dead-node bound immediate
        manager._GC_FRACTION = 1.0
        table = {f"c{i}": 0.9 for i in range(40)}
        for round_ in range(6):
            # disjoint structures each round: every prior root dies
            groups = [
                [fs({f"c{round_ * 6 + i}", f"c{round_ * 6 + i + 1}"})]
                for i in range(4)
            ]
            kernel = manager.recompile(groups)
            oracle = compile_structure(groups, use_cache=False)
            assert kernel.availability(table) == pytest.approx(
                oracle.availability(table), abs=1e-12
            )
        assert manager.stats["rebuilds"] > 0

    def test_evaluate_vector_matches_availability(self, casestudy):
        groups, table = casestudy
        kernel = compile_structure(groups)
        vector = np.array([table[v] for v in kernel.variables])
        system, per_group = kernel.evaluate_vector(vector)
        assert system == pytest.approx(kernel.availability(table), abs=1e-15)
        assert len(per_group) == len(groups)

    def test_evaluate_vector_rejects_bad_shape(self, casestudy):
        groups, _ = casestudy
        kernel = compile_structure(groups)
        with pytest.raises(AnalysisError):
            kernel.evaluate_vector(np.zeros(len(kernel.variables) + 1))

    def test_grow_rejects_shrink(self):
        from repro.dependability.bdd import BDD

        bdd = BDD(3)
        with pytest.raises(AnalysisError):
            bdd.grow(2)
