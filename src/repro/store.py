"""Content-addressed on-disk artifact store: zero-copy warm starts.

The engine and the BDD kernel already key every compiled structure by a
blake2b content fingerprint, and every hot structure already linearizes
to flat numpy arrays (CSR ``indptr``/``indices``, the kernel's
``var``/``low``/``high`` node tables).  This module persists exactly
those arrays so a **fresh process** — a CLI run, a batch script, a
future service deploy — skips recompilation entirely:

* objects live under ``<root>/objects/<digest[:2]>/<digest>`` where the
  digest is a blake2b hash of ``(kind, key parts)`` — the same logical
  key the in-process LRUs use, so the store is a transparent second
  cache tier underneath them;
* writes are atomic (``tmp`` file + :func:`os.replace`) and serialized
  by an advisory file lock, so concurrent writers — parallel CLI runs
  sharing one store — can race on the same object without ever exposing
  a half-written file;
* every container carries a payload digest that is verified on open; a
  truncated or corrupted artifact reads as a **miss** (the file is
  deleted and the caller recompiles) — integrity problems never crash
  an evaluation;
* loaded arrays are read-only views over an ``mmap`` of the file
  (``ACCESS_READ``): zero copy, zero parse, and safe against concurrent
  GC — POSIX keeps unlinked pages valid while any reader maps them;
* :meth:`ArtifactStore.gc` bounds the store size by evicting the least
  recently *used* objects first (reads bump mtime).

Container format (version 1, little-endian)::

    [ 0:4  ]  magic  b"RPAS"
    [ 4:6  ]  format version (u16) == 1
    [ 6:8  ]  reserved (u16) == 0
    [ 8:12 ]  meta length in bytes (u32)
    [12:20 ]  payload length in bytes (u64)
    [20:36 ]  blake2b-128 digest of everything after the header
    [36:...]  meta JSON (kind, key parts, scalars, array directory)
    [ pad to 64-byte alignment ]
    [ payload: concatenated arrays, each 64-byte aligned ]

The array directory records ``(name, dtype, shape, offset)`` with
offsets relative to the payload start, so readers slice typed views
straight out of the mapping.  Meta stays JSON (names tables, scalars,
provenance) — it is tiny next to the arrays.

Warm starts go through one rule, :class:`Tier`: the in-process
:class:`LRU`, then the active store (a hit moves into the LRU), then the
caller's computation, whose result is written to the LRU and through to
the store.  A store error or a corrupt or foreign payload counts as a
miss.  Three artifact kinds use it:

* ``csr`` — a compiled topology's CSR tables, keyed by the topology
  fingerprint (:func:`repro.core.engine.compile_topology`);
* ``pathset`` — one enumeration, keyed by fingerprint, endpoints and
  bounds (:func:`repro.core.engine.discover`);
* ``kernel`` — a compiled BDD's linearized DAG, keyed by the structure
  fingerprint (:func:`repro.dependability.bdd.compile_structure`).

Nothing in this module imports the engine or the kernel: the store
moves raw arrays and metadata; ``repro.core.engine`` and
``repro.dependability.bdd`` hand each :class:`Tier` the encode and
decode functions that rebuild their objects.
"""

from __future__ import annotations

import hashlib
import json
import math
import mmap
import os
import struct
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.errors import ReproError, StoreError
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

try:  # advisory locks are POSIX-only; elsewhere writers rely on atomic rename
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None  # type: ignore[assignment]

__all__ = [
    "Artifact",
    "ArtifactStore",
    "LRU",
    "Tier",
    "StoredObject",
    "active_store",
    "configure",
    "key_digest",
    "open_artifact",
    "write_artifact_file",
    "encode_paths",
    "decode_paths",
    "ENV_STORE",
    "ENV_MAX_BYTES",
]

ENV_STORE = "REPRO_STORE"
ENV_MAX_BYTES = "REPRO_STORE_MAX_BYTES"

_MAGIC = b"RPAS"
_VERSION = 1
_HEADER = struct.Struct("<4sHHIQ16s")
_ALIGN = 64

_M_HITS = _metrics.counter(
    "repro_store_hits_total", "Artifact-store lookups served from disk"
)
_M_MISSES = _metrics.counter(
    "repro_store_misses_total", "Artifact-store lookups that found no object"
)
_M_WRITES = _metrics.counter(
    "repro_store_writes_total", "Artifacts written through to the store"
)
_M_CORRUPT = _metrics.counter(
    "repro_store_corrupt_total",
    "Truncated/corrupted artifacts detected (deleted and treated as misses)",
)
_M_BYTES_READ = _metrics.counter(
    "repro_store_bytes_read_total", "Artifact bytes mapped on store hits"
)
_M_BYTES_WRITTEN = _metrics.counter(
    "repro_store_bytes_written_total", "Artifact bytes written to the store"
)
_M_GC_REMOVED = _metrics.counter(
    "repro_store_gc_removed_total", "Artifacts evicted by size-bounded GC"
)
_M_GC_BYTES = _metrics.counter(
    "repro_store_gc_bytes_total", "Artifact bytes reclaimed by GC"
)


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def key_digest(kind: str, key_parts: Sequence[str]) -> str:
    """The store address of a logical cache key: blake2b over the kind
    and the key parts (unit-separated, so parts can never alias)."""
    digest = hashlib.blake2b(digest_size=16)
    digest.update(kind.encode("utf-8"))
    for part in key_parts:
        digest.update(b"\x1f")
        digest.update(part.encode("utf-8"))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# container encode / decode
# ---------------------------------------------------------------------------


def _encode(
    kind: str,
    key_parts: Sequence[str],
    arrays: Mapping[str, np.ndarray],
    meta: Optional[Mapping[str, object]] = None,
) -> bytearray:
    directory: List[Dict[str, object]] = []
    offset = 0
    chunks: List[np.ndarray] = []
    for name, array in arrays.items():
        array = np.ascontiguousarray(array)
        offset = _align(offset)
        directory.append(
            {
                "name": name,
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "offset": offset,
            }
        )
        chunks.append(array)
        offset += array.nbytes
    payload_len = offset
    meta_doc = {
        "kind": kind,
        "key": list(key_parts),
        "arrays": directory,
        "meta": dict(meta or {}),
    }
    meta_bytes = json.dumps(
        meta_doc, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    payload_start = _align(_HEADER.size + len(meta_bytes))
    buffer = bytearray(payload_start + payload_len)
    buffer[_HEADER.size : _HEADER.size + len(meta_bytes)] = meta_bytes
    # arrays copy straight into the buffer and the digest reads it in
    # place: one copy of the payload in all
    payload = np.frombuffer(buffer, dtype=np.uint8)
    for record, array in zip(directory, chunks):
        start = payload_start + int(record["offset"])  # type: ignore[arg-type]
        payload[start : start + array.nbytes] = array.reshape(-1).view(np.uint8)
    del payload
    recorded = hashlib.blake2b(
        memoryview(buffer)[_HEADER.size :], digest_size=16
    ).digest()
    buffer[: _HEADER.size] = _HEADER.pack(
        _MAGIC, _VERSION, 0, len(meta_bytes), payload_len, recorded
    )
    return buffer


class Artifact:
    """A decoded artifact: read-only mmap-backed array views plus meta.

    The views hold the mapping alive through their ``.base`` chain, so an
    artifact (and even its store entry — see POSIX unlink semantics) can
    be dropped while callers keep using the arrays.
    """

    __slots__ = ("path", "kind", "key", "meta", "arrays", "nbytes")

    def __init__(
        self,
        path: Path,
        kind: str,
        key: Tuple[str, ...],
        meta: Dict[str, object],
        arrays: Dict[str, np.ndarray],
        nbytes: int,
    ):
        self.path = path
        self.kind = kind
        self.key = key
        self.meta = meta
        self.arrays = arrays
        self.nbytes = nbytes


def _read_meta(buffer, path: Path) -> Tuple[Dict[str, object], int, int]:
    """Parse and sanity-check the header + meta JSON; returns
    ``(meta document, payload start, payload length)``."""
    if len(buffer) < _HEADER.size:
        raise StoreError(f"artifact {path} is truncated (no header)")
    magic, version, _, meta_len, payload_len, _ = _HEADER.unpack_from(buffer)
    if magic != _MAGIC:
        raise StoreError(f"artifact {path} has a bad magic number")
    if version != _VERSION:
        raise StoreError(
            f"artifact {path} has unsupported format version {version}"
        )
    payload_start = _align(_HEADER.size + meta_len)
    if len(buffer) != payload_start + payload_len:
        raise StoreError(
            f"artifact {path} is truncated "
            f"({len(buffer)} bytes, expected {payload_start + payload_len})"
        )
    try:
        meta_doc = json.loads(
            bytes(buffer[_HEADER.size : _HEADER.size + meta_len])
        )
    except ValueError as exc:
        raise StoreError(f"artifact {path} has unreadable meta: {exc}") from exc
    return meta_doc, payload_start, payload_len


def open_artifact(path: Union[str, Path]) -> Artifact:
    """Map an artifact file read-only and decode its typed views.

    The stored payload digest is recomputed over the mapping; any
    mismatch — truncation, bit rot, a torn write that somehow bypassed
    the atomic rename — raises :class:`StoreError`.
    """
    path = Path(path)
    try:
        with open(path, "rb") as handle:
            if os.fstat(handle.fileno()).st_size == 0:
                raise StoreError(f"artifact {path} is empty")
            mapped = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    except OSError as exc:
        raise StoreError(f"cannot map artifact {path}: {exc}") from exc
    view = memoryview(mapped)
    meta_doc, payload_start, _ = _read_meta(view, path)
    recorded = _HEADER.unpack_from(view)[5]
    actual = hashlib.blake2b(view[_HEADER.size :], digest_size=16).digest()
    if actual != recorded:
        raise StoreError(f"artifact {path} failed digest verification")
    arrays: Dict[str, np.ndarray] = {}
    for record in meta_doc.get("arrays", ()):
        dtype = np.dtype(record["dtype"])
        shape = tuple(record["shape"])
        count = math.prod(shape)
        start = payload_start + int(record["offset"])
        array = np.frombuffer(mapped, dtype=dtype, count=count, offset=start)
        arrays[record["name"]] = array.reshape(shape)
    return Artifact(
        path=path,
        kind=str(meta_doc.get("kind", "")),
        key=tuple(meta_doc.get("key", ())),
        meta=dict(meta_doc.get("meta", {})),
        arrays=arrays,
        nbytes=len(view),
    )


def write_artifact_file(
    path: Union[str, Path],
    kind: str,
    key_parts: Sequence[str],
    arrays: Mapping[str, np.ndarray],
    meta: Optional[Mapping[str, object]] = None,
) -> int:
    """Write one container to an explicit *path* (atomic within its
    directory); returns the byte size — no :class:`ArtifactStore`
    needed."""
    path = Path(path)
    blob = _encode(kind, key_parts, arrays, meta)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with open(tmp, "wb") as handle:
        handle.write(blob)
    os.replace(tmp, path)
    return len(blob)


# ---------------------------------------------------------------------------
# path-set packing (shared by the engine tier and tests)
# ---------------------------------------------------------------------------


def encode_paths(
    paths: Sequence[Tuple[str, ...]],
) -> Tuple[Dict[str, np.ndarray], List[str]]:
    """Pack name-tuple paths into ``(arrays, names table)``: ``nodes`` is
    every hop as an index into the table, ``offsets[i]:offsets[i+1]``
    delimits path *i*."""
    table: Dict[str, int] = {}
    nodes: List[int] = []
    offsets = np.empty(len(paths) + 1, dtype=np.int64)
    offsets[0] = 0
    for i, path in enumerate(paths):
        for name in path:
            ix = table.get(name)
            if ix is None:
                ix = len(table)
                table[name] = ix
            nodes.append(ix)
        offsets[i + 1] = len(nodes)
    return (
        {
            "nodes": np.array(nodes, dtype=np.int32),
            "offsets": offsets,
        },
        list(table),
    )


def decode_paths(
    arrays: Mapping[str, np.ndarray], names: Sequence[str]
) -> List[Tuple[str, ...]]:
    """Inverse of :func:`encode_paths`."""
    nodes = arrays["nodes"].tolist()
    offsets = arrays["offsets"].tolist()
    names = list(names)
    return [
        tuple(names[ix] for ix in nodes[offsets[i] : offsets[i + 1]])
        for i in range(len(offsets) - 1)
    ]


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------


class StoredObject:
    """One ``store ls`` row: address, kind, logical key, size, mtime."""

    __slots__ = ("digest", "path", "kind", "key", "nbytes", "mtime")

    def __init__(self, digest, path, kind, key, nbytes, mtime):
        self.digest = digest
        self.path = path
        self.kind = kind
        self.key = key
        self.nbytes = nbytes
        self.mtime = mtime


class ArtifactStore:
    """A content-addressed object directory with atomic, locked writes.

    ``max_bytes`` (also settable via ``REPRO_STORE_MAX_BYTES``) bounds
    the store: :meth:`put` triggers :meth:`gc` once the total object size
    exceeds it, evicting least-recently-used objects first.
    """

    def __init__(
        self, root: Union[str, Path], max_bytes: Optional[int] = None
    ):
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.counts = {
            "hits": 0,
            "misses": 0,
            "writes": 0,
            "corrupt": 0,
            "gc_removed": 0,
        }
        self._lock = threading.Lock()
        try:
            (self.root / "objects").mkdir(parents=True, exist_ok=True)
            (self.root / "tmp").mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StoreError(
                f"cannot initialize artifact store at {self.root}: {exc}"
            ) from exc

    def _count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def _flocked(self):
        """Advisory exclusive lock held for the duration of a write/GC.

        Readers never take it — they only ever see complete files thanks
        to the atomic rename.  On platforms without ``fcntl`` this
        degrades to rename-only atomicity.
        """

        class _Lock:
            def __init__(self, root: Path):
                self._root = root
                self._handle = None

            def __enter__(self):
                if fcntl is not None:
                    self._handle = open(self._root / ".lock", "a+b")
                    fcntl.flock(self._handle.fileno(), fcntl.LOCK_EX)
                return self

            def __exit__(self, *exc_info):
                if self._handle is not None:
                    fcntl.flock(self._handle.fileno(), fcntl.LOCK_UN)
                    self._handle.close()
                return False

        return _Lock(self.root)

    def object_path(self, digest: str) -> Path:
        return self.root / "objects" / digest[:2] / digest

    # -- read ----------------------------------------------------------------

    def get(self, kind: str, key_parts: Sequence[str]) -> Optional[Artifact]:
        """Look one logical key up; ``None`` means miss — including the
        corruption case, where the bad file is deleted so the caller's
        recompile + write-through heals the store."""
        digest = key_digest(kind, key_parts)
        path = self.object_path(digest)
        with _trace.span("store.get", kind=kind, digest=digest) as span:
            if not path.exists():
                span.set(hit=False)
                self._count("misses")
                _M_MISSES.inc()
                return None
            try:
                artifact = open_artifact(path)
                if artifact.kind != kind:
                    raise StoreError(
                        f"artifact {path} has kind {artifact.kind!r}, "
                        f"expected {kind!r}"
                    )
            except StoreError:
                span.set(hit=False, corrupt=True)
                self._count("corrupt")
                self._count("misses")
                _M_CORRUPT.inc()
                _M_MISSES.inc()
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - racing unlink
                    pass
                return None
            span.set(hit=True, bytes=artifact.nbytes)
            self._count("hits")
            _M_HITS.inc()
            _M_BYTES_READ.inc(artifact.nbytes)
            try:  # reads bump mtime so GC evicts least-recently-used first
                os.utime(path)
            except OSError:  # pragma: no cover - read-only store
                pass
            return artifact

    # -- write ---------------------------------------------------------------

    def put(
        self,
        kind: str,
        key_parts: Sequence[str],
        arrays: Mapping[str, np.ndarray],
        meta: Optional[Mapping[str, object]] = None,
    ) -> str:
        """Write one artifact through (idempotent — content-addressed
        writers racing on the same key all produce the same object)."""
        digest = key_digest(kind, key_parts)
        path = self.object_path(digest)
        with _trace.span("store.put", kind=kind, digest=digest) as span:
            if path.exists():
                span.set(bytes=0, deduplicated=True)
                return digest
            blob = _encode(kind, key_parts, arrays, meta)
            fd, tmp_name = tempfile.mkstemp(
                prefix=f"{digest}.", dir=self.root / "tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(blob)
                with self._flocked():
                    path.parent.mkdir(parents=True, exist_ok=True)
                    os.replace(tmp_name, path)
            except OSError as exc:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise StoreError(
                    f"cannot write artifact {path}: {exc}"
                ) from exc
            span.set(bytes=len(blob))
            self._count("writes")
            _M_WRITES.inc()
            _M_BYTES_WRITTEN.inc(len(blob))
        if self.max_bytes is not None and self.total_bytes() > self.max_bytes:
            self.gc()
        return digest

    # -- inventory / maintenance ---------------------------------------------

    def objects(self) -> Iterator[StoredObject]:
        """Every stored object, with kind/key read from its meta (cheap:
        header + meta only, no digest verification)."""
        objects_root = self.root / "objects"
        for shard in sorted(objects_root.iterdir() if objects_root.exists() else ()):
            if not shard.is_dir():
                continue
            for path in sorted(shard.iterdir()):
                try:
                    stat = path.stat()
                    with open(path, "rb") as handle:
                        head = handle.read(_HEADER.size)
                        if len(head) < _HEADER.size:
                            raise StoreError(f"artifact {path} is truncated")
                        meta_len = _HEADER.unpack(head)[3]
                        meta_doc = json.loads(handle.read(meta_len))
                    kind = str(meta_doc.get("kind", "?"))
                    key = tuple(meta_doc.get("key", ()))
                except (OSError, ValueError, StoreError, struct.error):
                    kind, key = "?", ()
                    stat = path.stat()
                yield StoredObject(
                    digest=path.name,
                    path=path,
                    kind=kind,
                    key=key,
                    nbytes=stat.st_size,
                    mtime=stat.st_mtime,
                )

    def total_bytes(self) -> int:
        return sum(obj.nbytes for obj in self.objects())

    def verify_all(self) -> Tuple[List[StoredObject], List[StoredObject]]:
        """Full-digest check of every object; returns ``(ok, corrupt)``."""
        ok: List[StoredObject] = []
        corrupt: List[StoredObject] = []
        with _trace.span("store.verify") as span:
            for obj in self.objects():
                try:
                    artifact = open_artifact(obj.path)
                    if key_digest(artifact.kind, artifact.key) != obj.digest:
                        raise StoreError(
                            f"artifact {obj.path} is filed under the wrong "
                            f"address"
                        )
                    ok.append(obj)
                except StoreError:
                    corrupt.append(obj)
            span.set(ok=len(ok), corrupt=len(corrupt))
        return ok, corrupt

    def gc(self, max_bytes: Optional[int] = None) -> Tuple[int, int]:
        """Evict least-recently-used objects until the store fits in
        *max_bytes* (default: the configured bound; 0 empties the store).
        Returns ``(objects removed, bytes reclaimed)``.  Readers holding
        mmaps of evicted objects are unaffected (POSIX unlink)."""
        bound = self.max_bytes if max_bytes is None else max_bytes
        if bound is None:
            raise StoreError(
                "gc needs a size bound: pass max_bytes or configure the "
                "store with one"
            )
        removed = 0
        reclaimed = 0
        with _trace.span("store.gc", max_bytes=bound) as span, self._flocked():
            entries = sorted(self.objects(), key=lambda o: o.mtime)
            total = sum(obj.nbytes for obj in entries)
            for obj in entries:
                if total <= bound:
                    break
                try:
                    obj.path.unlink()
                except OSError:  # pragma: no cover - racing unlink
                    continue
                total -= obj.nbytes
                removed += 1
                reclaimed += obj.nbytes
            span.set(removed=removed, reclaimed=reclaimed)
        if removed:
            self._count("gc_removed", removed)
            _M_GC_REMOVED.inc(removed)
            _M_GC_BYTES.inc(reclaimed)
        return removed, reclaimed

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return dict(self.counts)


# ---------------------------------------------------------------------------
# process-wide configuration (REPRO_STORE / --store DIR)
# ---------------------------------------------------------------------------

_UNSET = object()
_CONFIGURED: object = _UNSET
_BY_ROOT: Dict[str, ArtifactStore] = {}
_CONFIG_LOCK = threading.Lock()


def _env_max_bytes() -> Optional[int]:
    """``REPRO_STORE_MAX_BYTES`` as a byte bound, ``None`` when unset;
    anything but an integer >= 0 is a :class:`StoreError`."""
    raw = os.environ.get(ENV_MAX_BYTES)
    if not raw:
        return None
    try:
        max_bytes = int(raw)
    except ValueError:
        max_bytes = -1
    if max_bytes < 0:
        raise StoreError(
            f"{ENV_MAX_BYTES} must be an integer >= 0, got {raw!r}"
        )
    return max_bytes


def _store_for(root: str) -> ArtifactStore:
    with _CONFIG_LOCK:
        store = _BY_ROOT.get(root)
        if store is None:
            store = ArtifactStore(root, max_bytes=_env_max_bytes())
            _BY_ROOT[root] = store
        return store


def configure(
    store: Union[ArtifactStore, str, Path, None]
) -> Optional[ArtifactStore]:
    """Set the process-wide store: a directory (created on demand), an
    :class:`ArtifactStore`, or ``None`` to disable even when
    ``REPRO_STORE`` is set.  Call :func:`reset` to fall back to the
    environment variable."""
    global _CONFIGURED
    if isinstance(store, (str, Path)):
        store = _store_for(str(store))
    _CONFIGURED = store
    return store  # type: ignore[return-value]


def reset() -> None:
    """Forget any explicit :func:`configure` call (tests; CLI teardown)."""
    global _CONFIGURED
    _CONFIGURED = _UNSET


def active_store() -> Optional[ArtifactStore]:
    """The store the cache tiers should consult, or ``None``.

    An explicit :func:`configure` wins; otherwise the ``REPRO_STORE``
    environment variable names the root directory (resolved per call, so
    tests and long-running services can repoint it)."""
    if _CONFIGURED is not _UNSET:
        return _CONFIGURED  # type: ignore[return-value]
    root = os.environ.get(ENV_STORE)
    if not root:
        return None
    try:
        return _store_for(root)
    except StoreError:
        return None


# ---------------------------------------------------------------------------
# the warm-start tier: LRU, then store, then compute with write-through
# ---------------------------------------------------------------------------


class LRU:
    """A small thread-safe LRU with hit/miss counters.

    Besides the entry-count cap, an optional *max_weight* bounds the sum
    of per-entry weights (for the PathSet cache: total path elements),
    so memoizing a run of very large results cannot grow memory without
    bound — the least recently used entries are evicted first.
    """

    def __init__(self, maxsize: int, max_weight: Optional[int] = None):
        self.maxsize = maxsize
        self.max_weight = max_weight
        self.data: "OrderedDict[object, object]" = OrderedDict()
        self.weights: Dict[object, int] = {}
        self.total_weight = 0
        self.hits = 0
        self.misses = 0
        self.lock = threading.Lock()

    def get(self, key):
        with self.lock:
            try:
                value = self.data[key]
            except KeyError:
                self.misses += 1
                return None
            self.data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key, value, weight: int = 1) -> None:
        with self.lock:
            if key in self.data:
                self.total_weight -= self.weights.get(key, 0)
            self.data[key] = value
            self.weights[key] = weight
            self.total_weight += weight
            self.data.move_to_end(key)
            while len(self.data) > self.maxsize or (
                self.max_weight is not None
                and self.total_weight > self.max_weight
                and len(self.data) > 1
            ):
                evicted, _ = self.data.popitem(last=False)
                self.total_weight -= self.weights.pop(evicted, 0)

    def clear(self) -> None:
        with self.lock:
            self.data.clear()
            self.weights.clear()
            self.total_weight = 0
            self.hits = 0
            self.misses = 0


def _key_parts(key: object) -> Tuple[str, ...]:
    """The store key of an LRU key: a string or a tuple of parts, each
    non-string part by its ``repr`` (``None`` bounds read ``"None"``)."""
    parts = key if isinstance(key, tuple) else (key,)
    return tuple(p if isinstance(p, str) else repr(p) for p in parts)


class Tier:
    """One artifact kind's warm-start path over one :class:`LRU`.

    *encode* turns a value into ``(arrays, meta)`` for the store;
    *decode* rebuilds it from ``(key, arrays, meta)`` and may raise on a
    foreign payload, which then reads as a miss; *weight* is the value's
    LRU weight.
    """

    __slots__ = ("kind", "lru", "encode", "decode", "weight")

    def __init__(
        self,
        kind: str,
        lru: LRU,
        encode: Callable[[Any], Tuple[Dict[str, np.ndarray], Dict[str, Any]]],
        decode: Callable[[Any, Mapping[str, np.ndarray], Mapping[str, Any]], Any],
        weight: Callable[[Any], int] = lambda value: 1,
    ):
        self.kind = kind
        self.lru = lru
        self.encode = encode
        self.decode = decode
        self.weight = weight

    def get(self, key):
        """The LRU entry, else the active store's (moved into the LRU),
        else ``None``."""
        value = self.lru.get(key)
        if value is None:
            store = active_store()
            if store is not None:
                value = self.load(store, key)
                if value is not None:
                    self.put(key, value, write_through=False)
        return value

    def put(self, key, value, *, write_through: bool = True) -> None:
        """Remember *value* in the LRU and, unless told otherwise, write
        it through to the active store."""
        self.lru.put(key, value, weight=self.weight(value))
        if write_through:
            store = active_store()
            if store is not None:
                self.save(store, key, value)

    def fetch(self, key, compute: Callable[[], Any]):
        """:meth:`get`, else ``compute()`` written through by :meth:`put`."""
        value = self.get(key)
        if value is None:
            value = compute()
            self.put(key, value)
        return value

    def load(self, store: ArtifactStore, key):
        """Decode *key* from *store*, or ``None`` on a miss, a corrupt
        object or a foreign payload."""
        artifact = store.get(self.kind, _key_parts(key))
        if artifact is None:
            return None
        try:
            return self.decode(key, artifact.arrays, artifact.meta)
        except (KeyError, TypeError, ValueError, IndexError, ReproError):
            return None

    def save(self, store: ArtifactStore, key, value) -> None:
        """Write *value* to *store*; store trouble (disk full,
        permissions) never aborts the computation that produced it."""
        arrays, meta = self.encode(value)
        try:
            store.put(self.kind, _key_parts(key), arrays, meta)
        except StoreError:
            pass
