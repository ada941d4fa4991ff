"""Functional tests for the parallel compile fan-out (:func:`compile_many`).

The pool path must be observationally identical to a loop of
:func:`compile_structure` calls — same availabilities, same minimal
sets, same variable orders, same cache keys — whether kernels come back
over the result pipe (flat arrays) or through the artifact store
(worker write-through, parent mmap-load).
"""

from __future__ import annotations

import mmap
import random

import pytest

import repro.store as store_mod
from repro.dependability import bdd
from repro.dependability.bdd import (
    compile_many,
    compile_structure,
    configure_compile,
    kernel_cache_clear,
)
from repro.errors import AnalysisError
from repro.obs.trace import Tracer, activate

pytestmark = pytest.mark.fanout

TOLERANCE = 1e-12


@pytest.fixture(autouse=True)
def fresh_compile_plane(monkeypatch):
    monkeypatch.delenv(store_mod.ENV_STORE, raising=False)
    store_mod.reset()
    kernel_cache_clear()
    configure_compile(reorder="auto", jobs=1)
    yield
    store_mod.reset()
    kernel_cache_clear()
    configure_compile(reorder="auto", jobs=1)


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
        (kernel,) = compile_many([structure], jobs=4)
        assert kernel is compile_structure(structure)

    def test_jobs_one_matches_loop(self):
        structures = make_structures()
        got = compile_many(structures, jobs=1, use_cache=False)
        assert_kernels_equivalent(got, reference_kernels(structures))

    def test_orders_length_mismatch_raises(self):
        with pytest.raises(AnalysisError, match="orders must match"):
            compile_many(
                [[[frozenset({"a"})]]] * 2, orders=[["a"]]
            )

    def test_bad_jobs_raises(self):
        with pytest.raises(AnalysisError, match="jobs must be >= 1"):
            compile_many([[[frozenset({"a"})]]] * 2, jobs=0)


class TestPoolFanOut:
    def test_two_workers_match_serial(self):
        structures = make_structures()
        expected = reference_kernels(structures)
        kernel_cache_clear()
        got = compile_many(structures, jobs=2)
        assert_kernels_equivalent(got, expected)

    def test_pool_results_enter_the_lru(self):
        structures = make_structures()
        first = compile_many(structures, jobs=2)
        second = compile_many(structures, jobs=2)
        for a, b in zip(first, second):
            assert b is a  # second round: pure LRU hits, no pool traffic

    def test_orders_are_respected_through_the_pool(self):
        structures = []
        orders = []
        for s in range(4):
            names = [f"s{s}a", f"s{s}b", f"s{s}c"]
            structures.append(
                [[frozenset(names[:2]), frozenset(names[1:])]]
            )
            orders.append(list(reversed(names)))
        got = compile_many(structures, orders=orders, jobs=2, use_cache=False)
        for kernel, order in zip(got, orders):
            assert list(kernel.variables) == order

    def test_duplicate_structures_collapse(self):
        structure = [[frozenset({"a", "b"}), frozenset({"a", "c"})]]
        got = compile_many([structure] * 5, jobs=2)
        table = {"a": 0.9, "b": 0.8, "c": 0.7}
        values = {k.availability(table) for k in got}
        assert len(values) == 1
        fingerprints = {k.fingerprint for k in got}
        assert len(fingerprints) == 1

    def test_sift_mode_travels_to_workers(self):
        structures = make_structures(4)
        got = compile_many(structures, jobs=2, reorder="sift")
        for kernel in got:
            assert kernel.fingerprint.endswith("|reorder=sift")
        assert_kernels_equivalent(
            got,
            [
                compile_structure(s, use_cache=False, reorder="sift")
                for s in structures
            ],
        )


class TestStoreWriteThrough:
    def test_workers_write_through_and_parent_loads(self, tmp_path):
        store = store_mod.configure(tmp_path / "store")
        structures = make_structures()
        expected = reference_kernels(structures)
        kernel_cache_clear()
        got = compile_many(structures, jobs=2)
        assert_kernels_equivalent(got, expected)
        # the store now warm-starts a cold process: clear the LRU and
        # recompile — every kernel must come back without construction
        kernel_cache_clear()
        warm = compile_many(structures, jobs=1)
        assert_kernels_equivalent(warm, expected)

    def test_store_less_pool_ships_flat_arrays(self):
        assert store_mod.active_store() is None
        structures = make_structures(4, seed=11)
        got = compile_many(structures, jobs=2)
        assert_kernels_equivalent(got, reference_kernels(structures))


def traced_compile_many(structures, **kwargs):
    """``compile_many`` under a tracer; returns (kernels, span attrs)."""
    tracer = Tracer()
    with activate(tracer):
        kernels = compile_many(structures, **kwargs)
    (span,) = tracer.find("bdd.compile.many")
    return kernels, span.attrs


def mapped(array):
    """Whether *array* is a view into an mmap (walks the ``.base`` chain
    through any memoryview to the object it exports)."""
    while array is not None:
        if isinstance(array, mmap.mmap):
            return True
        if isinstance(array, memoryview):
            array = array.obj
        else:
            array = getattr(array, "base", None)
    return False


class TestFallback:
    """The fan-out is never a correctness dependency, and says when it
    was not used."""

    def test_every_kernel_ships_from_workers(self, no_fanout_leftovers):
        structures = make_structures()
        got, attrs = traced_compile_many(structures, jobs=2)
        assert_kernels_equivalent(got, reference_kernels(structures))
        assert attrs["shipped"] == len(structures)
        assert attrs["fallback"] == 0
        assert attrs["method"] in ("fork", "spawn")

    def test_crashed_workers_fall_back_to_local_compiles(
        self, monkeypatch, forked_workers, no_fanout_leftovers
    ):
        """Fork inherits the patched worker body, so every bucket dies."""

        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(bdd, "_compile_worker", crash)
        structures = make_structures()
        got, attrs = traced_compile_many(structures, jobs=2)
        assert_kernels_equivalent(got, reference_kernels(structures))
        assert attrs["shipped"] == 0
        assert attrs["fallback"] == len(structures)

    def test_unloadable_worker_output_is_not_shipped(self, monkeypatch):
        """A kernel the parent cannot load back is a fallback, not a
        shipped kernel, even though its worker succeeded."""

        def foreign(*args):
            raise KeyError("var")

        monkeypatch.setattr(bdd._KERNEL_TIER, "decode", foreign)
        structures = make_structures(4, seed=5)
        got, attrs = traced_compile_many(structures, jobs=2)
        assert_kernels_equivalent(got, reference_kernels(structures))
        assert attrs["shipped"] == 0
        assert attrs["fallback"] == len(structures)


class TestKernelBacking:
    def test_scratch_kernels_are_copied_into_memory(self, no_fanout_leftovers):
        """Without a store the scratch directory is gone on return, so no
        kernel may keep a view into its files."""
        assert store_mod.active_store() is None
        got = compile_many(make_structures(), jobs=2)
        assert not any(mapped(kernel._np_var) for kernel in got)

    def test_store_kernels_stay_zero_copy(self, tmp_path):
        store_mod.configure(tmp_path / "store")
        got = compile_many(make_structures(), jobs=2)
        assert all(mapped(kernel._np_var) for kernel in got)
