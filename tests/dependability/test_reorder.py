"""Sifting reorder and compile-plane configuration tests.

Dynamic variable reordering must never change *what* a kernel computes —
only how many nodes it takes.  Every test here pins either exact
functional equivalence between ``reorder="sift"`` and ``reorder="none"``
kernels, the adversarial-order families where sifting provably shrinks
the diagram, or the cache/warm-start key discipline that keeps reordered
kernels from colliding with seed-order ones.
"""

from __future__ import annotations

import random

import pytest

import repro.store as store_mod
from repro.analysis.exact import system_availability_reference
from repro.dependability.bdd import (
    compile_structure,
    configure_compile,
    frequency_order,
    kernel_cache_clear,
    kernel_cache_info,
)
from repro.errors import AnalysisError

TOLERANCE = 1e-12


@pytest.fixture(autouse=True)
def fresh_compile_plane(monkeypatch):
    """Isolate: no ambient store, default compile config, empty LRU."""
    monkeypatch.delenv(store_mod.ENV_STORE, raising=False)
    store_mod.reset()
    kernel_cache_clear()
    configure_compile(reorder="auto")
    yield
    store_mod.reset()
    kernel_cache_clear()
    configure_compile(reorder="auto")


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
            plain = compile_structure(structure, use_cache=False, reorder="none")
            sifted = compile_structure(structure, use_cache=False, reorder="sift")
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
        sifted = compile_structure(structure, use_cache=False, reorder="sift")
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
        plain = compile_structure(
            groups, order=order, use_cache=False, reorder="none"
        )
        sifted = compile_structure(
            groups, order=order, use_cache=False, reorder="sift"
        )
        assert sifted.size * 2 <= plain.size
        table = {v: 0.9 for v in plain.variables}
        assert sifted.availability(table) == pytest.approx(
            plain.availability(table), abs=TOLERANCE
        )

    def test_auto_mode_leaves_small_structures_alone(self):
        groups, order = interleaved_structure(4)
        auto = compile_structure(
            groups, order=order, use_cache=False, reorder="auto"
        )
        plain = compile_structure(
            groups, order=order, use_cache=False, reorder="none"
        )
        # far below the auto trigger: variables keep the given order
        assert auto.variables == plain.variables


class TestCompileConfiguration:
    def test_configure_compile_sets_defaults(self):
        active = configure_compile(reorder="sift")
        assert active["reorder"] == "sift"
        assert configure_compile() == {"reorder": "sift"}  # read-back
        configure_compile(reorder="auto")

    def test_configure_compile_rejects_unknown_mode(self):
        with pytest.raises(AnalysisError, match="unknown reorder mode"):
            configure_compile(reorder="magic")

    def test_compile_rejects_unknown_mode(self):
        with pytest.raises(AnalysisError, match="unknown reorder mode"):
            compile_structure([[frozenset({"a"})]], reorder="bogus")


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
    def test_sift_mode_does_not_collide_with_plain(self):
        structure = [[frozenset({"a", "b"}), frozenset({"a", "c"})]]
        plain = compile_structure(structure, reorder="none")
        sifted = compile_structure(structure, reorder="sift")
        assert sifted is not plain
        assert sifted.fingerprint != plain.fingerprint
        assert sifted.fingerprint.endswith("|reorder=sift")
        # each mode hits its own entry
        assert compile_structure(structure, reorder="none") is plain
        assert compile_structure(structure, reorder="sift") is sifted

    def test_none_and_auto_share_untagged_key(self):
        structure = [[frozenset({"a", "b"}), frozenset({"a", "c"})]]
        plain = compile_structure(structure, reorder="none")
        assert compile_structure(structure, reorder="auto") is plain

    def test_order_changes_the_key(self):
        structure = [[frozenset({"a", "b"})]]
        one = compile_structure(structure, order=["a", "b"])
        two = compile_structure(structure, order=["b", "a"])
        assert one is not two
        assert one.fingerprint != two.fingerprint


class TestStoreInteraction:
    def test_sifted_kernel_warm_starts_under_its_own_key(self, tmp_path):
        store_mod.configure(tmp_path / "store")
        structure = [[frozenset({"a", "b"}), frozenset({"a", "c"})]]
        sifted = compile_structure(structure, reorder="sift")
        kernel_cache_clear()
        warm = compile_structure(structure, reorder="sift")
        assert warm is not sifted  # fresh object, loaded from disk
        assert warm.fingerprint == sifted.fingerprint
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

    def test_plain_store_entry_not_served_for_sift(self, tmp_path):
        store_mod.configure(tmp_path / "store")
        structure = [[frozenset({"a", "b"}), frozenset({"a", "c"})]]
        compile_structure(structure, reorder="none")
        kernel_cache_clear()
        sifted = compile_structure(structure, reorder="sift")
        assert sifted.fingerprint.endswith("|reorder=sift")
