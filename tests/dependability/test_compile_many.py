"""Functional tests for :func:`compile_many`.

It must be observationally identical to a loop of
:func:`compile_structure` calls — same availabilities, same minimal
sets, same variable orders, same cache keys.
"""

from __future__ import annotations

import random

import pytest

import repro.store as store_mod
from repro.dependability.bdd import (
    compile_many,
    compile_structure,
    kernel_cache_clear,
)
from repro.errors import AnalysisError

TOLERANCE = 1e-12


@pytest.fixture(autouse=True)
def fresh_compile_plane(monkeypatch):
    monkeypatch.delenv(store_mod.ENV_STORE, raising=False)
    store_mod.reset()
    kernel_cache_clear()
    yield
    store_mod.reset()
    kernel_cache_clear()


def make_structures(count=6, seed=3):
    rng = random.Random(seed)
    structures = []
    for s in range(count):
        pool = [f"s{s}c{i}" for i in range(6)]
        structures.append(
            [
                [
                    frozenset(rng.sample(pool, rng.randrange(1, 4)))
                    for _ in range(rng.randrange(1, 4))
                ]
                for _ in range(rng.randrange(1, 3))
            ]
        )
    return structures


def reference_kernels(structures):
    return [compile_structure(s, use_cache=False) for s in structures]


def assert_kernels_equivalent(got, expected):
    assert len(got) == len(expected)
    for kernel, ref in zip(got, expected):
        assert kernel.variables == ref.variables
        assert kernel.fingerprint == ref.fingerprint
        table = {v: 0.6 + 0.03 * i for i, v in enumerate(ref.variables)}
        assert kernel.availability(table) == pytest.approx(
            ref.availability(table), abs=TOLERANCE
        )
        assert {frozenset(s) for s in kernel.minimal_path_sets()} == {
            frozenset(s) for s in ref.minimal_path_sets()
        }


class TestSerialPath:
    def test_empty_input(self):
        assert compile_many([]) == []

    def test_single_structure_stays_in_process(self):
        structure = [[frozenset({"a", "b"})]]
        (kernel,) = compile_many([structure])
        assert kernel is compile_structure(structure)

    def test_matches_loop(self):
        structures = make_structures()
        got = compile_many(structures, use_cache=False)
        assert_kernels_equivalent(got, reference_kernels(structures))

    def test_orders_length_mismatch_raises(self):
        with pytest.raises(AnalysisError, match="orders must match"):
            compile_many(
                [[[frozenset({"a"})]]] * 2, orders=[["a"]]
            )

    def test_orders_are_respected(self):
        structures = []
        orders = []
        for s in range(4):
            names = [f"s{s}a", f"s{s}b", f"s{s}c"]
            structures.append(
                [[frozenset(names[:2]), frozenset(names[1:])]]
            )
            orders.append(list(reversed(names)))
        got = compile_many(structures, orders=orders, use_cache=False)
        for kernel, order in zip(got, orders):
            assert list(kernel.variables) == order

    def test_duplicate_structures_collapse(self):
        structure = [[frozenset({"a", "b"}), frozenset({"a", "c"})]]
        got = compile_many([structure] * 5)
        table = {"a": 0.9, "b": 0.8, "c": 0.7}
        values = {k.availability(table) for k in got}
        assert len(values) == 1
        fingerprints = {k.fingerprint for k in got}
        assert len(fingerprints) == 1
