"""Sifting reorder tests.

Dynamic variable reordering must never change *what* a kernel computes —
only how many nodes it takes.  A compile sifts only when its diagram is
bloated (``bdd._AUTO_MIN_NODES``/``bdd._AUTO_GROWTH``); the tests force
the pass with :func:`tests.conftest.always_sift` and pin exact functional
equivalence with the unsifted kernels, the adversarial-order families
where sifting provably shrinks the diagram, the rule itself, and the
cache/warm-start keying by structure fingerprint.
"""

from __future__ import annotations

import random

import pytest

import repro.store as store_mod
from repro.analysis.exact import system_availability_reference
from repro.dependability.bdd import (
    compile_structure,
    frequency_order,
    kernel_cache_clear,
    structure_fingerprint,
)
from repro.errors import AnalysisError
from tests.conftest import always_sift

TOLERANCE = 1e-12


@pytest.fixture(autouse=True)
def fresh_compile_plane(monkeypatch):
    """Isolate: no ambient store, empty LRU."""
    monkeypatch.delenv(store_mod.ENV_STORE, raising=False)
    store_mod.reset()
    kernel_cache_clear()
    yield
    store_mod.reset()
    kernel_cache_clear()


def interleaved_structure(pairs: int):
    """The classic adversarial family: ``x1·y1 + x2·y2 + ...`` with the
    order ``x1, x2, ..., y1, y2, ...`` — exponential under the given
    order, linear once partners are adjacent."""
    groups = [
        [frozenset({f"x{i}", f"y{i}"}) for i in range(pairs)]
    ]
    order = [f"x{i}" for i in range(pairs)] + [f"y{i}" for i in range(pairs)]
    return groups, order


def random_structure(rng, n_components=8, n_groups=3):
    pool = [f"c{i}" for i in range(n_components)]
    return [
        [
            frozenset(rng.sample(pool, rng.randrange(1, 5)))
            for _ in range(rng.randrange(1, 5))
        ]
        for _ in range(n_groups)
    ]


class TestSiftEquivalence:
    def test_random_structures_agree_with_unreordered(self):
        rng = random.Random(42)
        for _ in range(20):
            structure = random_structure(rng)
            plain = compile_structure(structure, use_cache=False)
            with always_sift():
                sifted = compile_structure(structure, use_cache=False)
            table = {v: rng.uniform(0.1, 0.99) for v in plain.variables}
            assert sifted.availability(table) == pytest.approx(
                plain.availability(table), abs=TOLERANCE
            )
            assert {frozenset(s) for s in sifted.minimal_path_sets()} == {
                frozenset(s) for s in plain.minimal_path_sets()
            }
            assert {frozenset(s) for s in sifted.minimal_cut_sets()} == {
                frozenset(s) for s in plain.minimal_cut_sets()
            }
            assert sorted(sifted.variables) == sorted(plain.variables)

    def test_sifted_birnbaum_matches_reference(self):
        rng = random.Random(7)
        structure = random_structure(rng)
        with always_sift():
            sifted = compile_structure(structure, use_cache=False)
        table = {v: rng.uniform(0.2, 0.95) for v in sifted.variables}
        gradient = sifted.birnbaum(table)
        for component in sifted.variables:
            up = dict(table, **{component: 1.0})
            down = dict(table, **{component: 0.0})
            expected = system_availability_reference(
                structure, up
            ) - system_availability_reference(structure, down)
            assert gradient[component] == pytest.approx(expected, abs=TOLERANCE)

    def test_adversarial_order_shrinks_at_least_2x(self):
        groups, order = interleaved_structure(8)
        plain = compile_structure(groups, order=order, use_cache=False)
        with always_sift():
            sifted = compile_structure(groups, order=order, use_cache=False)
        assert sifted.size * 2 <= plain.size
        table = {v: 0.9 for v in plain.variables}
        assert sifted.availability(table) == pytest.approx(
            plain.availability(table), abs=TOLERANCE
        )

    def test_auto_mode_leaves_small_structures_alone(self):
        groups, order = interleaved_structure(4)
        kernel = compile_structure(groups, order=order, use_cache=False)
        # far below the bloat rule: variables keep the given order
        assert kernel.variables == tuple(order)

    def test_rule_sifts_bloated_structures(self):
        """11 interleaved pairs blow up past both thresholds (≥ 2,048
        nodes, ≥ 8× the 22 incidences) under the adversarial order, so
        the default compile sifts them without being asked."""
        groups, order = interleaved_structure(11)
        kernel = compile_structure(groups, order=order, use_cache=False)
        assert kernel.variables != tuple(order)
        assert kernel.size <= 2 * len(order)
        table = {v: 0.9 for v in order}
        assert kernel.availability(table) == pytest.approx(
            system_availability_reference(groups, table), abs=TOLERANCE
        )


class TestOrderValidation:
    def test_duplicate_order_components_raise(self):
        with pytest.raises(
            AnalysisError, match="duplicate components \\['a'\\]"
        ):
            compile_structure(
                [[frozenset({"a", "b"})]], order=["a", "b", "a"]
            )

    def test_order_must_cover_components(self):
        with pytest.raises(AnalysisError, match="does not cover"):
            compile_structure([[frozenset({"a", "b"})]], order=["a"])

    def test_frequency_order_breaks_ties_lexically(self):
        groups = [[frozenset({"zeta", "beta"}), frozenset({"alpha", "beta"})]]
        # beta appears twice, alpha/zeta once each: ties sort by name
        assert frequency_order(groups) == ("beta", "alpha", "zeta")
        assert frequency_order(groups) == frequency_order(
            [list(reversed(groups[0]))]
        )


class TestCacheKeying:
    def test_order_changes_the_key(self):
        structure = [[frozenset({"a", "b"})]]
        one = compile_structure(structure, order=["a", "b"])
        two = compile_structure(structure, order=["b", "a"])
        assert one is not two
        assert one.fingerprint != two.fingerprint


class TestStoreInteraction:
    def test_sifted_kernel_warm_starts_under_its_own_key(self, tmp_path):
        """A sifted kernel is stored under its structure fingerprint and
        warm-starts with its reordered variables."""
        store_mod.configure(tmp_path / "store")
        structure = [[frozenset({"a", "b"}), frozenset({"a", "c"})]]
        with always_sift():
            sifted = compile_structure(structure)
            kernel_cache_clear()
            warm = compile_structure(structure)
        assert warm is not sifted  # fresh object, loaded from disk
        assert warm.fingerprint == sifted.fingerprint
        assert warm.fingerprint == structure_fingerprint(
            structure, frequency_order(structure)
        )
        assert warm.variables == sifted.variables
        table = {"a": 0.9, "b": 0.8, "c": 0.7}
        assert warm.availability(table) == pytest.approx(
            sifted.availability(table), abs=TOLERANCE
        )

    def test_mismatched_order_misses_cleanly(self, tmp_path):
        """A kernel stored under one variable order must not be served
        for a different order — the key includes the order, so the
        lookup misses and a correct kernel is compiled fresh."""
        store_mod.configure(tmp_path / "store")
        structure = [[frozenset({"a", "b"}), frozenset({"b", "c"})]]
        first = compile_structure(structure, order=["a", "b", "c"])
        kernel_cache_clear()
        second = compile_structure(structure, order=["c", "b", "a"])
        assert second.fingerprint != first.fingerprint
        assert second.variables == ("c", "b", "a")
        table = {"a": 0.6, "b": 0.7, "c": 0.8}
        assert second.availability(table) == pytest.approx(
            first.availability(table), abs=TOLERANCE
        )
