"""Tests for the exact bitmask state-enumeration evaluator."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.exact import (
    MAX_COMPONENTS,
    pair_availability,
    system_availability,
    system_availability_reference,
)
from repro.dependability.cutsets import inclusion_exclusion
from repro.errors import AnalysisError

fs = frozenset


def brute_force(groups, table):
    components = sorted({c for g in groups for p in g for c in p})
    total = 0.0
    for states in itertools.product((True, False), repeat=len(components)):
        state = dict(zip(components, states))
        probability = 1.0
        for name, up in state.items():
            probability *= table[name] if up else 1 - table[name]
        if all(any(all(state[c] for c in path) for path in group) for group in groups):
            total += probability
    return total


class TestPairAvailability:
    def test_series(self):
        assert pair_availability([fs("ab")], {"a": 0.9, "b": 0.8}) == pytest.approx(
            0.72
        )

    def test_parallel_with_shared(self):
        table = {"x": 0.9, "a": 0.8, "b": 0.8}
        result = pair_availability([fs({"x", "a"}), fs({"x", "b"})], table)
        assert result == pytest.approx(0.9 * (1 - 0.04))

    def test_matches_inclusion_exclusion(self):
        table = {"a": 0.9, "b": 0.85, "c": 0.7, "d": 0.95}
        sets = [fs("ab"), fs("cd"), fs("ad")]
        assert pair_availability(sets, table) == pytest.approx(
            inclusion_exclusion(sets, table), abs=1e-12
        )


class TestSystemAvailability:
    def test_conjunction_of_pairs(self):
        # pair 1 needs a; pair 2 needs b -> both must hold
        table = {"a": 0.9, "b": 0.8}
        result = system_availability([[fs("a")], [fs("b")]], table)
        assert result == pytest.approx(0.72)

    def test_shared_component_across_pairs(self):
        # both pairs need x; series-multiplying pair availabilities would
        # square P(x up), the exact value counts it once
        table = {"x": 0.9}
        result = system_availability([[fs("x")], [fs("x")]], table)
        assert result == pytest.approx(0.9)

    def test_correlated_pairs_vs_naive_product(self):
        table = {"x": 0.9, "a": 0.8, "b": 0.8}
        groups = [[fs({"x", "a"})], [fs({"x", "b"})]]
        exact = system_availability(groups, table)
        naive = pair_availability(groups[0], table) * pair_availability(
            groups[1], table
        )
        assert exact == pytest.approx(0.9 * 0.8 * 0.8)
        assert exact > naive  # positive correlation through x

    def test_validation(self):
        with pytest.raises(AnalysisError):
            system_availability([], {})
        with pytest.raises(AnalysisError):
            system_availability([[fs("a")]], {})  # missing availability
        with pytest.raises(AnalysisError):
            system_availability([[]], {"a": 0.5})  # empty group
        with pytest.raises(AnalysisError):
            system_availability([[fs("a")]], {"a": 1.5})

    def test_component_bound_enforced(self):
        # the bound belongs to the enumeration reference; the product's
        # bdd route has no component limit
        groups = [[fs({f"c{i}"}) for i in range(MAX_COMPONENTS + 1)]]
        table = {f"c{i}": 0.5 for i in range(MAX_COMPONENTS + 1)}
        with pytest.raises(AnalysisError):
            system_availability_reference(groups, table)
        assert system_availability(groups, table) == pytest.approx(
            1.0 - 0.5 ** (MAX_COMPONENTS + 1)
        )

    def test_degenerate_probabilities(self):
        assert system_availability([[fs("a")]], {"a": 1.0}) == 1.0
        assert system_availability([[fs("a")]], {"a": 0.0}) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(st.floats(0.0, 1.0), min_size=6, max_size=6),
        data=st.data(),
    )
    def test_property_matches_brute_force(self, values, data):
        components = list("abcdef")
        table = dict(zip(components, values))
        n_groups = data.draw(st.integers(1, 3))
        groups = []
        for _ in range(n_groups):
            n_paths = data.draw(st.integers(1, 3))
            group = []
            for _ in range(n_paths):
                members = data.draw(
                    st.lists(
                        st.sampled_from(components),
                        min_size=1,
                        max_size=4,
                        unique=True,
                    )
                )
                group.append(fs(members))
            groups.append(group)
        assert system_availability(groups, table) == pytest.approx(
            brute_force(groups, table), abs=1e-9
        )

    def test_usi_service_level(self, upsim_t1_p2):
        """Exact evaluator vs the RBD-with-factoring route on the real case."""
        from repro.analysis import (
            component_availabilities,
            service_path_set_groups,
            service_rbd,
        )

        table = component_availabilities(upsim_t1_p2.model, include_links=False)
        groups = service_path_set_groups(upsim_t1_p2, include_links=False)
        exact = system_availability(groups, table)
        rbd = service_rbd(upsim_t1_p2, include_links=False)
        assert rbd.availability(table, method="factoring") == pytest.approx(
            exact, abs=1e-12
        )
