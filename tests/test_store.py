"""Content-addressed artifact store: container format, store semantics,
cache-tier integration and fresh-process warm starts.

Four layers of guarantees:

* **container** — the binary format round-trips arrays bit for bit as
  read-only mmap views, keeps every array 64-byte aligned, and rejects
  truncation, corruption, bad magic and unknown versions;
* **store** — atomic idempotent writes survive concurrent writers,
  corrupt objects read as misses (deleted, then healed by the caller's
  write-through), GC is LRU and never invalidates a held mapping;
* **tiers** — with the in-process LRUs cleared, the engine and the BDD
  kernel rebuild compiled topologies, path enumerations and kernels from
  the store with **zero** recompilations and exact (``==``, not approx)
  result equality;
* **process** — a second interpreter sharing ``REPRO_STORE`` re-runs the
  case-study analysis with a >=90% store hit rate, no compilations and a
  bit-identical availability.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import store as store_mod
from repro.analysis.transformations import (
    component_availabilities,
    service_path_set_groups,
)
from repro.casestudy import usi_topology
from repro.core import engine
from repro.dependability import bdd
from repro.errors import StoreError
from repro.store import (
    ArtifactStore,
    decode_paths,
    encode_paths,
    key_digest,
    open_artifact,
    write_artifact_file,
)

SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.fixture(autouse=True)
def no_ambient_store(monkeypatch):
    """Tests opt into a store explicitly; the environment never leaks in."""
    monkeypatch.delenv(store_mod.ENV_STORE, raising=False)
    monkeypatch.delenv(store_mod.ENV_MAX_BYTES, raising=False)
    store_mod.reset()
    yield
    store_mod.reset()


def sample_arrays():
    return {
        "indptr": np.arange(7, dtype=np.int64),
        "indices": np.array([[1, 2], [3, 4]], dtype=np.int32),
        "values": np.linspace(0.0, 1.0, 13),
    }


# -- container format ----------------------------------------------------------


class TestContainer:
    def test_roundtrip_bit_exact_and_read_only(self, tmp_path):
        path = tmp_path / "artifact"
        arrays = sample_arrays()
        nbytes = write_artifact_file(
            path, "csr", ("fp", "extra"), arrays, {"n": 7, "names": ["a"]}
        )
        assert nbytes == path.stat().st_size
        artifact = open_artifact(path)
        assert artifact.kind == "csr"
        assert artifact.key == ("fp", "extra")
        assert artifact.meta == {"n": 7, "names": ["a"]}
        assert set(artifact.arrays) == set(arrays)
        for name, original in arrays.items():
            loaded = artifact.arrays[name]
            assert loaded.dtype == original.dtype
            assert loaded.shape == original.shape
            assert np.array_equal(loaded, original)
            # mmap-backed views are inherently read-only: zero copy, and
            # no caller can corrupt the store through a loaded kernel
            assert not loaded.flags.writeable
            with pytest.raises((ValueError, RuntimeError)):
                loaded[..., 0] = 99

    def test_payload_alignment(self, tmp_path):
        path = tmp_path / "artifact"
        write_artifact_file(path, "k", (), sample_arrays())
        blob = path.read_bytes()
        # every directory offset must be 64-byte aligned (SIMD-friendly
        # views straight out of the mapping)
        meta_len = int.from_bytes(blob[8:12], "little")
        meta = json.loads(blob[36 : 36 + meta_len])
        for record in meta["arrays"]:
            assert record["offset"] % 64 == 0

    def test_no_arrays_is_valid(self, tmp_path):
        path = tmp_path / "artifact"
        write_artifact_file(path, "meta-only", ("x",), {}, {"answer": 42})
        artifact = open_artifact(path)
        assert artifact.arrays == {}
        assert artifact.meta["answer"] == 42

    def test_truncated_file_raises(self, tmp_path):
        path = tmp_path / "artifact"
        write_artifact_file(path, "k", (), sample_arrays())
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 8])
        with pytest.raises(StoreError, match="truncated"):
            open_artifact(path)

    def test_truncated_header_raises(self, tmp_path):
        path = tmp_path / "artifact"
        path.write_bytes(b"RPAS\x01")
        with pytest.raises(StoreError, match="truncated"):
            open_artifact(path)

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "artifact"
        path.write_bytes(b"")
        with pytest.raises(StoreError, match="empty"):
            open_artifact(path)

    def test_flipped_payload_byte_fails_digest(self, tmp_path):
        path = tmp_path / "artifact"
        write_artifact_file(path, "k", (), sample_arrays())
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreError, match="digest"):
            open_artifact(path)

    def test_bad_magic_raises(self, tmp_path):
        path = tmp_path / "artifact"
        write_artifact_file(path, "k", (), sample_arrays())
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreError, match="magic"):
            open_artifact(path)

    def test_future_version_raises(self, tmp_path):
        path = tmp_path / "artifact"
        write_artifact_file(path, "k", (), sample_arrays())
        blob = bytearray(path.read_bytes())
        blob[4:6] = (2).to_bytes(2, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(StoreError, match="version"):
            open_artifact(path)


class TestPathCodec:
    def test_roundtrip(self):
        paths = [("a", "b", "c"), ("a", "d"), (), ("c", "c", "a")]
        arrays, names = encode_paths(paths)
        assert decode_paths(arrays, names) == paths

    def test_empty(self):
        arrays, names = encode_paths([])
        assert decode_paths(arrays, names) == []


class TestKeyDigest:
    def test_parts_never_alias(self):
        # ("ab", "c") and ("a", "bc") must address different objects
        assert key_digest("k", ("ab", "c")) != key_digest("k", ("a", "bc"))
        assert key_digest("csr", ("x",)) != key_digest("kernel", ("x",))


# -- store semantics -----------------------------------------------------------


class TestArtifactStore:
    def test_put_get_roundtrip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = store.put("csr", ("fp",), sample_arrays(), {"n": 7})
        assert store.object_path(digest).exists()
        artifact = store.get("csr", ("fp",))
        assert artifact is not None
        assert np.array_equal(
            artifact.arrays["values"], sample_arrays()["values"]
        )
        assert store.stats()["hits"] == 1
        assert store.stats()["writes"] == 1

    def test_miss_returns_none(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.get("csr", ("absent",)) is None
        assert store.stats()["misses"] == 1

    def test_put_is_idempotent(self, tmp_path):
        store = ArtifactStore(tmp_path)
        first = store.put("csr", ("fp",), sample_arrays())
        second = store.put("csr", ("fp",), sample_arrays())
        assert first == second
        assert store.stats()["writes"] == 1  # dedup: second write is a no-op

    def test_corrupt_object_reads_as_miss_and_heals(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = store.put("csr", ("fp",), sample_arrays())
        path = store.object_path(digest)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        assert store.get("csr", ("fp",)) is None  # never raises
        assert not path.exists()  # bad object deleted
        assert store.stats()["corrupt"] == 1
        # the caller's recompile + write-through heals the store
        store.put("csr", ("fp",), sample_arrays())
        assert store.get("csr", ("fp",)) is not None

    def test_truncated_object_reads_as_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = store.put("kernel", ("fp",), sample_arrays())
        path = store.object_path(digest)
        path.write_bytes(path.read_bytes()[:40])
        assert store.get("kernel", ("fp",)) is None
        assert not path.exists()

    def test_kind_collision_reads_as_miss(self, tmp_path):
        store = ArtifactStore(tmp_path)
        digest = store.put("csr", ("fp",), sample_arrays())
        # file an object under an address claiming a different kind
        wrong = store.object_path(key_digest("kernel", ("fp",)))
        wrong.parent.mkdir(parents=True, exist_ok=True)
        wrong.write_bytes(store.object_path(digest).read_bytes())
        assert store.get("kernel", ("fp",)) is None

    def test_concurrent_writers_race_safely(self, tmp_path):
        """Many threads writing the same and different keys concurrently:
        every object must come out complete and verifiable."""
        store = ArtifactStore(tmp_path)
        errors = []

        def writer(worker: int):
            try:
                for i in range(10):
                    store.put(
                        "csr", (f"key-{i % 4}",), sample_arrays(), {"w": worker}
                    )
            except Exception as exc:  # pragma: no cover - the failure case
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(t,)) for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        ok, corrupt = store.verify_all()
        assert len(ok) == 4 and not corrupt
        for i in range(4):
            assert store.get("csr", (f"key-{i}",)) is not None

    def test_gc_keeps_readers_alive(self, tmp_path):
        """POSIX unlink: evicting an object must not invalidate arrays a
        reader already mapped."""
        store = ArtifactStore(tmp_path)
        store.put("csr", ("fp",), sample_arrays())
        artifact = store.get("csr", ("fp",))
        assert artifact is not None
        held = artifact.arrays["values"]
        removed, reclaimed = store.gc(0)  # empty the store entirely
        assert removed == 1 and reclaimed > 0
        assert store.total_bytes() == 0
        # the held view still reads the full original data
        assert np.array_equal(held, sample_arrays()["values"])
        assert float(held.sum()) == float(sample_arrays()["values"].sum())

    def test_gc_evicts_least_recently_used_first(self, tmp_path):
        store = ArtifactStore(tmp_path)
        old = store.put("csr", ("old",), sample_arrays())
        new = store.put("csr", ("new",), sample_arrays())
        past = store.object_path(new).stat().st_mtime - 1000
        os.utime(store.object_path(old), (past, past))
        size = store.object_path(new).stat().st_size
        removed, _ = store.gc(size)  # room for exactly one object
        assert removed == 1
        assert not store.object_path(old).exists()
        assert store.object_path(new).exists()

    def test_get_bumps_recency(self, tmp_path):
        store = ArtifactStore(tmp_path)
        kept = store.put("csr", ("kept",), sample_arrays())
        other = store.put("csr", ("other",), sample_arrays())
        past = store.object_path(kept).stat().st_mtime - 1000
        os.utime(store.object_path(kept), (past, past))
        os.utime(store.object_path(other), (past + 1, past + 1))
        store.get("csr", ("kept",))  # read refreshes mtime
        store.gc(store.object_path(kept).stat().st_size)
        assert store.object_path(kept).exists()
        assert not store.object_path(other).exists()

    def test_gc_without_bound_raises(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(StoreError, match="size bound"):
            store.gc()

    def test_put_triggers_bounded_gc(self, tmp_path):
        one_size = None
        probe = ArtifactStore(tmp_path / "probe")
        probe_digest = probe.put("csr", ("x",), sample_arrays())
        one_size = probe.object_path(probe_digest).stat().st_size
        store = ArtifactStore(tmp_path / "bounded", max_bytes=one_size)
        for i in range(5):
            store.put("csr", (f"k{i}",), sample_arrays())
        assert store.total_bytes() <= one_size
        assert store.stats()["gc_removed"] >= 1

    def test_verify_all_flags_corruption(self, tmp_path):
        store = ArtifactStore(tmp_path)
        good = store.put("csr", ("good",), sample_arrays())
        bad = store.put("csr", ("bad",), sample_arrays(), {"tag": 1})
        path = store.object_path(bad)
        blob = bytearray(path.read_bytes())
        blob[-3] ^= 0x10
        path.write_bytes(bytes(blob))
        ok, corrupt = store.verify_all()
        assert [o.digest for o in ok] == [good]
        assert [o.digest for o in corrupt] == [bad]

    def test_objects_lists_kind_and_key(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.put("pathset", ("fp", "a", "b"), sample_arrays())
        objects = list(store.objects())
        assert len(objects) == 1
        assert objects[0].kind == "pathset"
        assert objects[0].key == ("fp", "a", "b")
        assert objects[0].nbytes == objects[0].path.stat().st_size

    def test_unusable_root_raises(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        with pytest.raises(StoreError, match="cannot initialize"):
            ArtifactStore(blocker / "store")


# -- process-wide configuration ------------------------------------------------


class TestConfiguration:
    def test_disabled_by_default(self):
        assert store_mod.active_store() is None

    def test_env_variable_activates(self, tmp_path, monkeypatch):
        monkeypatch.setenv(store_mod.ENV_STORE, str(tmp_path / "via-env"))
        store = store_mod.active_store()
        assert store is not None
        assert store.root == tmp_path / "via-env"
        # per-call resolution: the same root yields the same instance
        assert store_mod.active_store() is store

    def test_configure_overrides_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(store_mod.ENV_STORE, str(tmp_path / "env"))
        explicit = store_mod.configure(tmp_path / "explicit")
        assert store_mod.active_store() is explicit
        store_mod.configure(None)  # explicit off beats the env var
        assert store_mod.active_store() is None
        store_mod.reset()
        assert store_mod.active_store().root == tmp_path / "env"

    def test_unusable_env_store_degrades_to_none(self, tmp_path, monkeypatch):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        monkeypatch.setenv(store_mod.ENV_STORE, str(blocker / "store"))
        assert store_mod.active_store() is None  # never crashes a run

    def test_env_max_bytes(self, tmp_path, monkeypatch):
        monkeypatch.setenv(store_mod.ENV_STORE, str(tmp_path / "bounded"))
        monkeypatch.setenv(store_mod.ENV_MAX_BYTES, "12345")
        assert store_mod.active_store().max_bytes == 12345

    @pytest.mark.parametrize("raw", ["abc", "-1", "1.5"])
    def test_malformed_env_max_bytes_is_a_store_error(
        self, tmp_path, monkeypatch, raw
    ):
        monkeypatch.setenv(store_mod.ENV_MAX_BYTES, raw)
        with pytest.raises(StoreError, match=f"REPRO_STORE_MAX_BYTES .*'{raw}'"):
            store_mod.configure(tmp_path / "explicit")
        monkeypatch.setenv(store_mod.ENV_STORE, str(tmp_path / "env"))
        assert store_mod.active_store() is None  # never crashes a run


# -- cache-tier integration ----------------------------------------------------


def fresh_caches():
    """Drop every in-process tier, as a brand-new interpreter would."""
    engine._COMPILED.clear()
    engine.path_cache_clear()
    engine.block_cache_clear()
    engine.reset_engine_stats()
    bdd.kernel_cache_clear()
    bdd.reset_kernel_stats()


class TestEngineTier:
    def test_fresh_process_discovers_without_enumerating(self, tmp_path):
        store = store_mod.configure(tmp_path / "store")
        fresh_caches()
        cold = engine.discover(usi_topology(), "t1", "printS")
        assert engine.engine_stats()["enumerations"] == 1
        assert store.stats()["writes"] >= 2  # csr + pathset

        fresh_caches()  # simulate a new interpreter sharing the store
        warm = engine.discover(usi_topology(), "t1", "printS")
        stats = engine.engine_stats()
        assert stats["enumerations"] == 0
        assert stats["compilations"] == 0
        assert warm.paths == cold.paths  # exact, not approximate
        assert warm.truncated == cold.truncated

    def test_bounded_discovery_keys_do_not_collide(self, tmp_path):
        store_mod.configure(tmp_path / "store")
        fresh_caches()
        bounded = engine.discover(usi_topology(), "t1", "printS", max_paths=1)
        fresh_caches()
        unbounded = engine.discover(usi_topology(), "t1", "printS")
        assert len(bounded.paths) == 1
        assert len(unbounded.paths) > 1

    def test_uncached_discovery_skips_the_store(self, tmp_path):
        store = store_mod.configure(tmp_path / "store")
        fresh_caches()
        engine.discover(usi_topology(), "t1", "printS", use_cache=False)
        assert store.stats()["writes"] == 1  # only the compiled topology

    def test_csr_arrays_read_only(self):
        fresh_caches()
        compiled = engine.compile_topology(usi_topology())
        indptr, indices = compiled.csr_arrays()
        assert not indptr.flags.writeable
        assert not indices.flags.writeable
        assert indptr.tolist() == list(compiled.indptr)
        assert indices.tolist() == list(compiled.indices)


class TestKernelTier:
    def test_fresh_process_loads_kernel_without_compiling(
        self, tmp_path, upsim_t1_p2
    ):
        store = store_mod.configure(tmp_path / "store")
        groups = service_path_set_groups(upsim_t1_p2)
        table = component_availabilities(upsim_t1_p2.model)
        fresh_caches()
        built = bdd.compile_structure(groups)
        value_built = built.availability(table)
        assert bdd.kernel_stats()["compilations"] == 1
        assert store.stats()["writes"] >= 1

        fresh_caches()
        loaded = bdd.compile_structure(groups)
        assert bdd.kernel_stats()["compilations"] == 0
        assert store.stats()["hits"] >= 1
        # loaded kernels are bit-identical to built ones: exact equality
        # on values, sets and structure — not a tolerance
        assert loaded.availability(table) == value_built
        assert loaded.variables == built.variables
        assert loaded.size == built.size
        assert loaded.minimal_path_sets() == built.minimal_path_sets()
        assert loaded.minimal_cut_sets() == built.minimal_cut_sets()
        for group in range(len(groups)):
            assert loaded.pair_availability(
                group, table
            ) == built.pair_availability(group, table)

    def test_loaded_kernel_evaluate_many_bit_identical(
        self, tmp_path, upsim_t1_p2
    ):
        store_mod.configure(tmp_path / "store")
        groups = service_path_set_groups(upsim_t1_p2)
        table = component_availabilities(upsim_t1_p2.model)
        fresh_caches()
        built = bdd.compile_structure(groups)
        rng = np.random.default_rng(7)
        base = built.probability_vector(table)
        matrix = np.clip(
            base[np.newaxis, :]
            - rng.uniform(0.0, 0.1, size=(16, base.shape[0])),
            0.0,
            1.0,
        )
        expected = built.evaluate_many(matrix)

        fresh_caches()
        loaded = bdd.compile_structure(groups)
        assert np.array_equal(loaded.evaluate_many(matrix), expected)

    def test_corrupt_kernel_artifact_recompiles_transparently(
        self, tmp_path, upsim_t1_p2
    ):
        store = store_mod.configure(tmp_path / "store")
        groups = service_path_set_groups(upsim_t1_p2)
        table = component_availabilities(upsim_t1_p2.model)
        fresh_caches()
        built = bdd.compile_structure(groups)
        expected = built.availability(table)
        # corrupt every stored kernel object
        corrupted = 0
        for obj in store.objects():
            if obj.kind == "kernel":
                blob = bytearray(obj.path.read_bytes())
                blob[-1] ^= 0xFF
                obj.path.write_bytes(bytes(blob))
                corrupted += 1
        assert corrupted == 1

        fresh_caches()
        healed = bdd.compile_structure(groups)  # must not raise
        assert bdd.kernel_stats()["compilations"] == 1  # recompiled
        assert healed.availability(table) == expected
        assert store.stats()["corrupt"] == 1
        # write-through healed the store: next fresh load hits again
        fresh_caches()
        bdd.compile_structure(groups)
        assert bdd.kernel_stats()["compilations"] == 0


# -- second process over a shared store ----------------------------------------

CHILD = """\
import json, sys

from repro import store
from repro.analysis.transformations import (
    component_availabilities,
    service_path_set_groups,
)
from repro.casestudy import printing_mapping, printing_service, usi_topology
from repro.core import engine
from repro.core.upsim import generate_upsim
from repro.dependability import bdd

topology = usi_topology()
upsim = generate_upsim(
    topology, printing_service(), printing_mapping("t1", "p2", "printS")
)
kernel = bdd.compile_structure(service_path_set_groups(upsim))
table = component_availabilities(upsim.model)
availability = kernel.availability(table)
active = store.active_store()
print(json.dumps({
    "engine": engine.engine_stats(),
    "kernel": bdd.kernel_stats(),
    "store": active.stats(),
    "availability": availability.hex(),
}))
"""


class TestSecondProcess:
    def test_shared_store_warm_starts_a_new_interpreter(self, tmp_path):
        """The acceptance bar: a second process pointed at the same
        REPRO_STORE re-runs the full analysis with >=90% store hits, zero
        compilations/enumerations and a bit-identical result."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC
        env[store_mod.ENV_STORE] = str(tmp_path / "shared")

        def run():
            result = subprocess.run(
                [sys.executable, "-c", CHILD],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert result.returncode == 0, result.stderr
            return json.loads(result.stdout)

        cold = run()
        assert cold["engine"]["enumerations"] > 0
        assert cold["kernel"]["compilations"] == 1
        assert cold["store"]["writes"] > 0

        warm = run()
        assert warm["engine"]["enumerations"] == 0
        assert warm["engine"]["compilations"] == 0
        assert warm["kernel"]["compilations"] == 0
        lookups = warm["store"]["hits"] + warm["store"]["misses"]
        assert lookups > 0
        assert warm["store"]["hits"] / lookups >= 0.9
        assert warm["store"]["writes"] == 0
        # bit-identical availability across processes (hex float compare)
        assert warm["availability"] == cold["availability"]
