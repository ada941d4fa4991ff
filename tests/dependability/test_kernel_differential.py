"""Cross-kernel differential fuzzing: bdd vs ie vs enum.

The product's availability route and its two oracles (:data:`ROUTES`)
implement the same semantics by radically different algorithms — compiled
BDD evaluation, inclusion–exclusion over minimized system path sets, and
vectorized state enumeration.  Any divergence between them is a bug in at
least one, so hypothesis hammers random structures at all three and
demands bit-tight agreement:

* system availability agrees to 1e-12 across all kernel pairs;
* Birnbaum importances from the BDD gradient pass match the exact finite
  difference ``A(c=1) - A(c=0)`` computed by enumeration (the structure
  function is multilinear, so the finite difference *is* the partial
  derivative);
* the BDD's bottom-up minimal cut sets equal the MOCUS-style cut sets
  derived from the minimized system path sets;
* on randomly generated topologies, the path sets discovered by the
  compiled engine evaluate identically under every kernel.

Generation is bounded so the ``ie`` kernel stays inside its
``MAX_INCLUSION_EXCLUSION_SETS`` budget: at most 2 groups of at most 3
paths each keeps the minimized cross product at <= 9 system sets.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.exact import (
    system_availability,
    system_availability_reference,
    system_path_sets,
)
from repro.core.engine import discover
from repro.dependability.bdd import compile_structure
from tests.conftest import always_sift
from repro.dependability.cutsets import (
    inclusion_exclusion,
    minimal_cut_sets,
    path_components,
)
from repro.network.builder import TopologyBuilder
from repro.network.components import DeviceSpec
from repro.network.topology import Topology
from repro.resilience.campaign import _KERNELS

TOLERANCE = 1e-12

#: The compiled BDD, inclusion–exclusion over the minimized system path
#: sets, and vectorized state enumeration.
ROUTES = {
    "bdd": system_availability,
    "ie": lambda structure, table: inclusion_exclusion(
        system_path_sets(structure), table
    ),
    "enum": system_availability_reference,
}

#: Small shared pool: every structure draws from these names, so shared
#: components across groups (the hard case for naive multiplication) are
#: the norm, not the exception.
POOL = tuple(f"c{i}" for i in range(8))

paths = st.frozensets(st.sampled_from(POOL), min_size=1, max_size=4)
groups = st.lists(paths, min_size=1, max_size=3, unique=True)
structures = st.lists(groups, min_size=1, max_size=2)

#: Probabilities clear of 0/1 so Birnbaum gradients are informative, with
#: a few exactly-representable anchors mixed in.
availability_values = st.one_of(
    st.sampled_from([0.5, 0.25, 0.75, 0.9, 0.99]),
    st.floats(min_value=0.01, max_value=0.999, allow_nan=False),
)
tables = st.fixed_dictionaries({name: availability_values for name in POOL})


@settings(max_examples=200, deadline=None)
@given(structure=structures, table=tables)
def test_availability_kernels_agree(structure, table):
    """All three kernels produce the same system availability."""
    results = {
        kernel: route(structure, table) for kernel, route in ROUTES.items()
    }
    reference = system_availability_reference(structure, table)
    for kernel, value in results.items():
        assert value == pytest.approx(reference, abs=TOLERANCE), (
            f"kernel {kernel!r} diverged: {value!r} vs enum {reference!r} "
            f"on {structure!r}"
        )


@settings(max_examples=200, deadline=None)
@given(structure=structures, table=tables)
def test_birnbaum_matches_finite_difference(structure, table):
    """BDD gradient pass == exact finite difference (multilinearity)."""
    kernel = compile_structure(structure)
    gradient = kernel.birnbaum(table)
    for component in kernel.variables:
        up = dict(table, **{component: 1.0})
        down = dict(table, **{component: 0.0})
        expected = system_availability_reference(
            structure, up
        ) - system_availability_reference(structure, down)
        assert gradient[component] == pytest.approx(expected, abs=TOLERANCE), (
            f"Birnbaum({component}) diverged on {structure!r}"
        )


@settings(max_examples=200, deadline=None)
@given(structure=structures)
def test_minimal_cut_sets_agree(structure):
    """BDD bottom-up cut sets == MOCUS over minimized system path sets."""
    kernel = compile_structure(structure)
    from_bdd = {frozenset(s) for s in kernel.minimal_cut_sets()}
    from_mocus = {
        frozenset(s) for s in minimal_cut_sets(system_path_sets(structure))
    }
    assert from_bdd == from_mocus


@settings(max_examples=200, deadline=None)
@given(structure=structures)
def test_minimal_path_sets_are_system_path_sets(structure):
    """BDD bottom-up path sets == the minimized cross product of groups."""
    kernel = compile_structure(structure)
    from_bdd = {frozenset(s) for s in kernel.minimal_path_sets()}
    expected = {frozenset(s) for s in system_path_sets(structure)}
    assert from_bdd == expected


# -- random topologies --------------------------------------------------------

NODES = tuple(f"n{i}" for i in range(6))

extra_edges = st.sets(
    st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)).filter(
        lambda edge: edge[0] < edge[1]
    ),
    max_size=6,
)


def _build_topology(extra):
    """A connected random topology: a chain spanning all nodes (so the
    endpoint pair always has at least one path) plus random chords."""
    builder = TopologyBuilder("fuzz")
    builder.device_type(DeviceSpec("Box", "Switch", mtbf=10000.0, mttr=1.0))
    for name in NODES:
        builder.add(name, "Box")
    builder.connect_chain(NODES)
    chain = set(zip(NODES, NODES[1:]))
    for a, b in sorted(extra):
        if (a, b) not in chain:
            builder.connect(a, b)
    return Topology(builder.build())


@settings(max_examples=200, deadline=None)
@given(extra=extra_edges, table=tables, data=st.data())
def test_discovered_paths_agree_across_kernels(extra, table, data):
    """Engine-discovered path sets evaluate identically under all kernels."""
    topology = _build_topology(extra)
    requester = data.draw(st.sampled_from(NODES), label="requester")
    provider = data.draw(
        st.sampled_from([n for n in NODES if n != requester]),
        label="provider",
    )
    path_set = discover(topology, requester, provider)
    assert path_set.paths, "spanning chain guarantees at least one path"
    node_sets = [
        path_components(path, include_links=False) for path in path_set.paths
    ]
    node_table = {name: table[f"c{i}"] for i, name in enumerate(NODES)}
    reference = system_availability_reference([node_sets], node_table)
    for kernel, route in ROUTES.items():
        value = route([node_sets], node_table)
        assert value == pytest.approx(reference, abs=TOLERANCE), (
            f"kernel {kernel!r} diverged on discovered paths "
            f"{requester}->{provider} with chords {sorted(extra)!r}"
        )


def test_kernel_names_are_exhaustive():
    """The differential harness covers every evaluator run_campaign
    accepts."""
    assert set(ROUTES) == set(_KERNELS)


def test_exhaustive_small_structures_agree():
    """Deterministic sweep of every 1-group structure over 3 components —
    a fuzz-independent floor so CI catches divergence even if hypothesis
    shrinks away from a pocket."""
    pool = ("x", "y", "z")
    table = {"x": 0.9, "y": 0.5, "z": 0.75}
    all_paths = [
        frozenset(c)
        for r in (1, 2, 3)
        for c in itertools.combinations(pool, r)
    ]
    for r in (1, 2, 3):
        for combo in itertools.combinations(all_paths, r):
            structure = [list(combo)]
            reference = system_availability_reference(structure, table)
            for route in ROUTES.values():
                value = route(structure, table)
                assert value == pytest.approx(reference, abs=TOLERANCE)


# -- reordered managers --------------------------------------------------------


@pytest.mark.reorder
@settings(max_examples=150, deadline=None)
@given(structure=structures, table=tables)
def test_sifted_kernels_agree_with_all_kernels(structure, table):
    """A sifting pass must preserve the evaluated function exactly: the
    reordered BDD agrees with ie/enum to the same tolerance as the
    seed-order BDD."""
    with always_sift():
        kernel = compile_structure(structure, use_cache=False)
    reference = system_availability_reference(structure, table)
    assert kernel.availability(table) == pytest.approx(
        reference, abs=TOLERANCE
    ), f"sifted kernel diverged on {structure!r}"


@pytest.mark.reorder
@settings(max_examples=150, deadline=None)
@given(structure=structures)
def test_sifted_minimal_sets_are_order_independent(structure):
    """Path/cut sets are properties of the function, not the order."""
    plain = compile_structure(structure, use_cache=False)
    with always_sift():
        sifted = compile_structure(structure, use_cache=False)
    assert {frozenset(s) for s in sifted.minimal_path_sets()} == {
        frozenset(s) for s in plain.minimal_path_sets()
    }
    assert {frozenset(s) for s in sifted.minimal_cut_sets()} == {
        frozenset(s) for s in plain.minimal_cut_sets()
    }


@pytest.mark.reorder
@settings(max_examples=100, deadline=None)
@given(structure=structures, table=tables)
def test_sifted_birnbaum_matches_finite_difference(structure, table):
    """The gradient pass stays exact after variable relabeling."""
    with always_sift():
        kernel = compile_structure(structure, use_cache=False)
    gradient = kernel.birnbaum(table)
    for component in kernel.variables:
        up = dict(table, **{component: 1.0})
        down = dict(table, **{component: 0.0})
        expected = system_availability_reference(
            structure, up
        ) - system_availability_reference(structure, down)
        assert gradient[component] == pytest.approx(expected, abs=TOLERANCE), (
            f"sifted Birnbaum({component}) diverged on {structure!r}"
        )
