"""Compiled availability kernel: reduced ordered binary decision diagrams.

The exact evaluators of :mod:`repro.analysis.exact` enumerate all 2^n
component states and :func:`repro.dependability.cutsets.inclusion_exclusion`
is exponential in the number of path sets — and both redo all of that work
for every (requester, provider) pair and for every fault combination of a
campaign sweep, even though the logical *structure* never changes between
evaluations.  This module compiles the structure once:

* the success function of a pair (OR over its path sets, each the AND of
  its components) — and of the whole service (AND over all distinct
  pairs) — is built as a reduced ordered BDD with a shared unique table,
  so components repeated across paths and across pairs appear once;
* availability is a single bottom-up pass over the DAG,
  ``P(node) = p·P(high) + (1-p)·P(low)`` — O(|BDD|) per probability
  vector instead of O(2^n);
* Birnbaum importances for *every* variable come from one extra top-down
  pass (node reach probabilities), and all classic importance measures
  derive from them by multilinearity;
* minimal cut sets and minimal path sets fall out of one memoized
  bottom-up recursion over the same DAG (the structure function is
  monotone — all literals are positive — so no complement handling is
  needed);
* :meth:`AvailabilityKernel.evaluate_many` batches k probability vectors
  through one vectorized numpy sweep — the campaign fast path.

Compiled kernels are memoized in a weight-bounded LRU keyed by a blake2b
fingerprint of the path-set structure and the variable order, mirroring
the engine's PathSet cache: a campaign that evaluates hundreds of fault
combinations against one UPSIM compiles the BDD once and then only
re-evaluates terminal probabilities.

Variable order matters for BDD size; :func:`order_from_topology` derives
it from the compiled engine's CSR ids so that topologically adjacent
components (and the links between them) get adjacent decision levels —
a good heuristic for network connectivity functions.  Without a topology
the fallback orders by descending occurrence frequency.
"""

from __future__ import annotations

import hashlib
import threading
from collections import Counter
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro import store as _store
from repro.core.engine import CompiledTopology, compile_topology
from repro.dependability import _bddreorder
from repro.dependability._bddtables import ComputedTable, UniqueTable
from repro.dependability.cutsets import minimize_sets
from repro.errors import AnalysisError
from repro.network.topology import Topology
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

__all__ = [
    "BDD",
    "AvailabilityKernel",
    "IncrementalAvailabilityKernel",
    "compile_structure",
    "compile_many",
    "compile_pair",
    "structure_fingerprint",
    "frequency_order",
    "order_from_topology",
    "order_from_compiled",
    "system_availability_bdd",
    "pair_availability_bdd",
    "kernel_stats",
    "reset_kernel_stats",
    "kernel_cache_info",
    "kernel_cache_get",
    "kernel_cache_clear",
]


#: apply-operation tags (double as :class:`ComputedTable` key prefixes)
_OP_AND = 0
_OP_OR = 1
_OP_ITE = 2

#: below this many requests the bulk paths fall back to scalar loops —
#: numpy call overhead beats vectorization on tiny batches, which keeps
#: small compiles (and the 10k-deep series chain) at dict-era speed
_SCALAR_CUTOFF = 4


class BDD:
    """A reduced ordered BDD manager over variables ``0 … nvar-1``.

    Nodes live in parallel **int64 numpy buffers** (``_var``/``_low``/
    ``_high``, capacity-doubled) indexed by node id, with plain-list
    mirrors serving the scalar hot loops; ids 0 and 1 are the FALSE/TRUE
    terminals (their ``var`` is the out-of-range sentinel ``nvar``, which
    makes "smallest variable on top" comparisons uniform).  The
    open-addressed :class:`~repro.dependability._bddtables.UniqueTable`
    guarantees one node per (var, low, high) triple, so structurally
    equal functions are pointer equal and the apply caches can key on ids
    alone.

    Construction is never recursive: the scalar ``apply_*``/``ite``
    operations run an explicit worklist, and :meth:`apply_many` batches
    whole frontiers of apply requests through vectorized
    level-synchronous sweeps — deep composition structures cannot hit the
    interpreter recursion limit, and wide ones amortize per-node Python
    overhead across numpy calls.
    """

    FALSE = 0
    TRUE = 1

    def __init__(self, nvar: int):
        self.nvar = nvar
        capacity = 1 << 10
        self._var = np.empty(capacity, dtype=np.int64)
        self._low = np.empty(capacity, dtype=np.int64)
        self._high = np.empty(capacity, dtype=np.int64)
        self._var[0] = self._var[1] = nvar
        self._low[0], self._low[1] = 0, 1
        self._high[0], self._high[1] = 0, 1
        self._n = 2
        self._var_l: List[int] = [nvar, nvar]
        self._low_l: List[int] = [0, 1]
        self._high_l: List[int] = [0, 1]
        self._unique = UniqueTable()
        self._computed = ComputedTable()
        #: memoized apply/ITE results reused during construction
        self.cache_hits = 0

    # node fields are exposed as the list mirrors so callers keep the
    # seed-era ``bdd.var[node]`` access pattern
    @property
    def var(self) -> List[int]:
        return self._var_l

    @property
    def low(self) -> List[int]:
        return self._low_l

    @property
    def high(self) -> List[int]:
        return self._high_l

    def __len__(self) -> int:
        return self._n

    def table_stats(self) -> Dict[str, int]:
        """Probe/rehash tallies of both open-addressed tables."""
        return {
            "unique_probes": self._unique.probes,
            "unique_rehashes": self._unique.rehashes,
            "unique_capacity": self._unique.capacity,
            "unique_fill": self._unique.fill,
            "computed_probes": self._computed.probes,
            "computed_rehashes": self._computed.rehashes,
            "computed_capacity": self._computed.capacity,
            "computed_fill": self._computed.fill,
            "nodes": self._n,
        }

    # -- allocation -----------------------------------------------------------

    def _grow_buffers(self, need: int) -> None:
        capacity = self._var.size
        while capacity < need:
            capacity *= 2
        for name in ("_var", "_low", "_high"):
            old = getattr(self, name)
            buf = np.empty(capacity, dtype=np.int64)
            buf[: self._n] = old[: self._n]
            setattr(self, name, buf)

    def _append_node(self, v: int, lo: int, hi: int) -> int:
        node = self._n
        if node >= self._var.size:
            self._grow_buffers(node + 1)
        self._var[node] = v
        self._low[node] = lo
        self._high[node] = hi
        self._n = node + 1
        self._var_l.append(v)
        self._low_l.append(lo)
        self._high_l.append(hi)
        return node

    def _append_nodes(
        self, v: int, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        k = lo.size
        start = self._n
        if start + k > self._var.size:
            self._grow_buffers(start + k)
        self._var[start : start + k] = v
        self._low[start : start + k] = lo
        self._high[start : start + k] = hi
        self._n = start + k
        self._var_l.extend([v] * k)
        self._low_l.extend(lo.tolist())
        self._high_l.extend(hi.tolist())
        return np.arange(start, start + k, dtype=np.int64)

    def mk(self, variable: int, low: int, high: int) -> int:
        """The unique node for (variable, low, high), reduced."""
        if low == high:
            return low
        return self._unique.lookup_or_insert(self, variable, low, high)

    def mk_many(
        self, variable: int, low: np.ndarray, high: np.ndarray
    ) -> np.ndarray:
        """Unique node ids for a batch of (variable, low, high) requests
        (requests may repeat; reduction and hash-consing are applied
        exactly as in :meth:`mk`)."""
        low = np.asarray(low, dtype=np.int64)
        high = np.asarray(high, dtype=np.int64)
        k = low.size
        if k <= _SCALAR_CUTOFF:
            return np.fromiter(
                (
                    self.mk(variable, int(lo), int(hi))
                    for lo, hi in zip(low, high)
                ),
                dtype=np.int64,
                count=k,
            )
        out = np.empty(k, dtype=np.int64)
        same = low == high
        out[same] = low[same]
        todo = ~same
        if todo.any():
            lo_t = low[todo]
            hi_t = high[todo]
            keys = (lo_t << 32) | hi_t
            _, first, inv = np.unique(
                keys, return_index=True, return_inverse=True
            )
            ids = self._unique.insert_many(
                self, variable, lo_t[first], hi_t[first]
            )
            out[todo] = ids[inv]
        return out

    def grow(self, nvar: int) -> None:
        """Extend the variable universe to *nvar* (append-only).

        New variables take the largest indices, so every existing node is
        still correctly ordered and every apply/unique-table entry stays
        valid; only the terminal sentinel (``var == nvar``) moves.
        """
        if nvar < self.nvar:
            raise AnalysisError(
                f"cannot shrink a BDD manager from {self.nvar} to {nvar} "
                f"variables"
            )
        self.nvar = nvar
        self._var[0] = self._var[1] = nvar
        self._var_l[0] = self._var_l[1] = nvar

    def cube(self, variables: Iterable[int]) -> int:
        """The conjunction of positive literals — one path's success."""
        node = self.TRUE
        for variable in sorted(set(variables), reverse=True):
            node = self.mk(variable, self.FALSE, node)
        return node

    def cube_many(self, paths: Sequence[Iterable[int]]) -> np.ndarray:
        """One :meth:`cube` root per path, built level-synchronously:
        all paths' literals at the deepest variable become one
        :meth:`mk_many` call, then the next level up, and so on."""
        k = len(paths)
        out = np.full(k, self.TRUE, dtype=np.int64)
        rows_l: List[int] = []
        vars_l: List[int] = []
        for row, path in enumerate(paths):
            distinct = set(path)
            rows_l.extend([row] * len(distinct))
            vars_l.extend(distinct)
        if not vars_l:
            return out
        va = np.array(vars_l, dtype=np.int64)
        ra = np.array(rows_l, dtype=np.int64)
        order = np.argsort(-va, kind="stable")
        va = va[order]
        ra = ra[order]
        boundaries = np.flatnonzero(np.diff(va)) + 1
        start = 0
        for stop in [*boundaries.tolist(), va.size]:
            v = int(va[start])
            rows = ra[start:stop]
            if rows.size <= _SCALAR_CUTOFF:
                for row in rows.tolist():
                    out[row] = self.mk(v, self.FALSE, int(out[row]))
            else:
                out[rows] = self.mk_many(
                    v, np.zeros(rows.size, dtype=np.int64), out[rows]
                )
            start = stop
        return out

    # -- scalar apply / ITE (iterative worklists) -----------------------------

    def _apply_scalar(self, op: int, f: int, g: int) -> int:
        """AND/OR of two nodes via an explicit two-phase worklist (CALL
        frames expand cofactors, RESUME frames fold children) — no
        interpreter recursion, identical memoization to the seed-era
        recursive apply."""
        computed = self._computed
        var_l, low_l, high_l = self._var_l, self._low_l, self._high_l
        hits = 0
        results: List[int] = []
        stack: List[Tuple[int, ...]] = [(0, f, g)]
        while stack:
            frame = stack.pop()
            if frame[0] == 0:  # CALL
                _, a, b = frame
                if op == _OP_AND:
                    if a == 0 or b == 0:
                        results.append(0)
                        continue
                    if a == 1:
                        results.append(b)
                        continue
                    if b == 1 or a == b:
                        results.append(a)
                        continue
                else:
                    if a == 1 or b == 1:
                        results.append(1)
                        continue
                    if a == 0:
                        results.append(b)
                        continue
                    if b == 0 or a == b:
                        results.append(a)
                        continue
                if a > b:
                    a, b = b, a
                cached = computed.get(op, a, b)
                if cached is not None:
                    hits += 1
                    results.append(cached)
                    continue
                top = min(var_l[a], var_l[b])
                if var_l[a] == top:
                    a0, a1 = low_l[a], high_l[a]
                else:
                    a0 = a1 = a
                if var_l[b] == top:
                    b0, b1 = low_l[b], high_l[b]
                else:
                    b0 = b1 = b
                stack.append((1, a, b, top))  # RESUME
                stack.append((0, a1, b1))
                stack.append((0, a0, b0))
            else:  # RESUME
                _, a, b, top = frame
                r1 = results.pop()
                r0 = results.pop()
                node = self.mk(top, r0, r1)
                computed.put(op, a, b, node)
                results.append(node)
        if hits:
            self.cache_hits += hits
            _note_cache_hits(hits)
        return results.pop()

    def apply_and(self, f: int, g: int) -> int:
        return self._apply_scalar(_OP_AND, f, g)

    def apply_or(self, f: int, g: int) -> int:
        return self._apply_scalar(_OP_OR, f, g)

    def ite(self, f: int, g: int, h: int) -> int:
        """if-then-else — the general apply, needed for voting gates."""
        computed = self._computed
        var_l, low_l, high_l = self._var_l, self._low_l, self._high_l
        hits = 0
        results: List[int] = []
        stack: List[Tuple[int, ...]] = [(0, f, g, h)]
        while stack:
            frame = stack.pop()
            if frame[0] == 0:  # CALL
                _, a, b, c = frame
                if a == 1:
                    results.append(b)
                    continue
                if a == 0:
                    results.append(c)
                    continue
                if b == c:
                    results.append(b)
                    continue
                if b == 1 and c == 0:
                    results.append(a)
                    continue
                cached = computed.get(_OP_ITE, a, b, c)
                if cached is not None:
                    hits += 1
                    results.append(cached)
                    continue
                top = min(var_l[a], var_l[b], var_l[c])
                a0, a1 = (
                    (low_l[a], high_l[a]) if var_l[a] == top else (a, a)
                )
                b0, b1 = (
                    (low_l[b], high_l[b]) if var_l[b] == top else (b, b)
                )
                c0, c1 = (
                    (low_l[c], high_l[c]) if var_l[c] == top else (c, c)
                )
                stack.append((1, a, b, c, top))  # RESUME
                stack.append((0, a1, b1, c1))
                stack.append((0, a0, b0, c0))
            else:  # RESUME
                _, a, b, c, top = frame
                r1 = results.pop()
                r0 = results.pop()
                node = self.mk(top, r0, r1)
                computed.put(_OP_ITE, a, b, node, c)
                results.append(node)
        if hits:
            self.cache_hits += hits
            _note_cache_hits(hits)
        return results.pop()

    # -- bulk apply (level-synchronous breadth-first) -------------------------

    @staticmethod
    def _rules_vec(op: int, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """Vectorized terminal rules: result id, or -1 when the request
        needs cofactor expansion."""
        if op == _OP_AND:
            return np.where(
                (f == 0) | (g == 0),
                0,
                np.where(f == 1, g, np.where((g == 1) | (f == g), f, -1)),
            ).astype(np.int64)
        return np.where(
            (f == 1) | (g == 1),
            1,
            np.where(f == 0, g, np.where((g == 0) | (f == g), f, -1)),
        ).astype(np.int64)

    def apply_many(self, op: int, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """AND/OR over k (f, g) request pairs in one breadth-first sweep.

        Requests are bucketed by their top variable; each level resolves
        terminal rules vectorized, probes the computed table in bulk,
        expands the misses' cofactors, and defers child results as
        (level, slot) references.  A bottom-up pass then materializes
        nodes level by level through :meth:`mk_many` — per-node Python
        overhead is amortized over whole frontiers.  Results are exactly
        those of :meth:`apply_and`/:meth:`apply_or` (same manager, same
        canonical nodes, same memo semantics).
        """
        f = np.asarray(f, dtype=np.int64)
        g = np.asarray(g, dtype=np.int64)
        k = f.size
        if k == 0:
            return np.empty(0, dtype=np.int64)
        if k <= _SCALAR_CUTOFF:
            return np.fromiter(
                (
                    self._apply_scalar(op, int(a), int(b))
                    for a, b in zip(f, g)
                ),
                dtype=np.int64,
                count=k,
            )
        out = np.empty(k, dtype=np.int64)
        resolved = self._rules_vec(op, f, g)
        pend = resolved < 0
        out[~pend] = resolved[~pend]
        if not pend.any():
            return out
        pf = np.minimum(f[pend], g[pend])
        pg = np.maximum(f[pend], g[pend])
        nvar = self.nvar
        cand_f: List[List[np.ndarray]] = [[] for _ in range(nvar)]
        cand_g: List[List[np.ndarray]] = [[] for _ in range(nvar)]
        cand_n = [0] * nvar
        hits = 0

        def push(fa: np.ndarray, ga: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
            """Queue requests on their top-variable level; returns
            (level, slot-in-level) references."""
            var_a = self._var
            levels = np.minimum(var_a[fa], var_a[ga])
            idx = np.empty(fa.size, dtype=np.int64)
            order = np.argsort(levels, kind="stable")
            ls = levels[order]
            bounds = np.flatnonzero(np.diff(ls)) + 1
            start = 0
            for stop in [*bounds.tolist(), ls.size]:
                v = int(ls[start])
                rows = order[start:stop]
                base = cand_n[v]
                cand_f[v].append(fa[rows])
                cand_g[v].append(ga[rows])
                cand_n[v] = base + rows.size
                idx[rows] = np.arange(base, base + rows.size)
                start = stop
            return levels, idx

        root_lev, root_idx = push(pf, pg)
        lvl_inv: List[Optional[np.ndarray]] = [None] * nvar
        lvl_res: List[Optional[np.ndarray]] = [None] * nvar
        lvl_work: List[Optional[tuple]] = [None] * nvar
        processed: List[int] = []
        computed = self._computed
        for v in range(nvar):
            if cand_n[v] == 0:
                continue
            processed.append(v)
            fa = (
                cand_f[v][0]
                if len(cand_f[v]) == 1
                else np.concatenate(cand_f[v])
            )
            ga = (
                cand_g[v][0]
                if len(cand_g[v]) == 1
                else np.concatenate(cand_g[v])
            )
            cand_f[v] = cand_g[v] = []  # free the chunks
            keys = (fa << 32) | ga
            _, first, inv = np.unique(
                keys, return_index=True, return_inverse=True
            )
            uf = fa[first]
            ug = ga[first]
            lvl_inv[v] = inv
            res = np.empty(uf.size, dtype=np.int64)
            cached, found = computed.get_many(op, uf, ug)
            nhits = int(found.sum())
            if nhits:
                hits += nhits
                res[found] = cached[found]
            lvl_res[v] = res
            todo = np.flatnonzero(~found)
            if not todo.size:
                continue
            var_a, low_a, high_a = self._var, self._low, self._high
            ft = uf[todo]
            gt = ug[todo]
            f_at = var_a[ft] == v
            g_at = var_a[gt] == v
            f0 = np.where(f_at, low_a[ft], ft)
            f1 = np.where(f_at, high_a[ft], ft)
            g0 = np.where(g_at, low_a[gt], gt)
            g1 = np.where(g_at, high_a[gt], gt)
            refs = []
            for ca, cb in ((f0, g0), (f1, g1)):
                rv = self._rules_vec(op, ca, cb)
                cpend = rv < 0
                clev = np.full(ca.size, -1, dtype=np.int64)
                cidx = rv
                if cpend.any():
                    cf = np.minimum(ca[cpend], cb[cpend])
                    cg = np.maximum(ca[cpend], cb[cpend])
                    levs, idxs = push(cf, cg)
                    clev[cpend] = levs
                    cidx[cpend] = idxs
                refs.append((clev, cidx))
            lvl_work[v] = (todo, ft, gt, refs)

        def resolve(levels: np.ndarray, idxs: np.ndarray) -> np.ndarray:
            vals = np.empty(levels.size, dtype=np.int64)
            direct = levels < 0
            vals[direct] = idxs[direct]
            rest = np.flatnonzero(~direct)
            if rest.size:
                levs = levels[rest]
                # ``return_index`` only to skip numpy's masked-array
                # check, which imports ``numpy.ma`` on first use
                for lv in np.unique(levs, return_index=True)[0].tolist():
                    rows = rest[levs == lv]
                    vals[rows] = lvl_res[lv][lvl_inv[lv][idxs[rows]]]
            return vals

        for v in reversed(processed):
            work = lvl_work[v]
            if work is None:
                continue
            todo, ft, gt, ((l0, i0), (l1, i1)) = work
            lo = resolve(l0, i0)
            hi = resolve(l1, i1)
            ids = self.mk_many(v, lo, hi)
            lvl_res[v][todo] = ids
            computed.put_many(op, ft, gt, ids)
        out[pend] = resolve(root_lev, root_idx)
        if hits:
            self.cache_hits += hits
            _note_cache_hits(hits)
        return out

    def reduce_many(
        self, op: int, groups: Sequence[np.ndarray]
    ) -> List[int]:
        """Fold each group of node ids under *op* (AND/OR) by balanced
        binary reduction, batching every group's pair list into one
        :meth:`apply_many` call per round.  ROBDD canonicity makes the
        result independent of association order, so this equals the
        sequential seed-era fold node-for-node."""
        identity = self.TRUE if op == _OP_AND else self.FALSE
        cur = [np.asarray(group, dtype=np.int64) for group in groups]
        while max((c.size for c in cur), default=0) > 1:
            fa_parts: List[np.ndarray] = []
            ga_parts: List[np.ndarray] = []
            metas: List[Tuple[int, np.ndarray]] = []
            for arr in cur:
                npairs = arr.size // 2
                fa_parts.append(arr[0 : 2 * npairs : 2])
                ga_parts.append(arr[1 : 2 * npairs : 2])
                metas.append((npairs, arr[2 * npairs :]))
            fa = np.concatenate(fa_parts)
            ga = np.concatenate(ga_parts)
            res = self.apply_many(op, fa, ga)
            nxt: List[np.ndarray] = []
            pos = 0
            for npairs, carry in metas:
                chunk = res[pos : pos + npairs]
                pos += npairs
                nxt.append(
                    np.concatenate((chunk, carry)) if carry.size else chunk
                )
            cur = nxt
        return [int(c[0]) if c.size else identity for c in cur]


_STATS_LOCK = threading.Lock()
_STATS = {"compilations": 0, "evaluations": 0, "cache_hits": 0}

#: Compiled kernels keyed by structure fingerprint.  The weight budget
#: (total BDD nodes retained) mirrors the engine's PathSet cache: a sweep
#: over many structures cannot grow memory without bound.
_KERNELS = _store.LRU(maxsize=256, max_weight=2_000_000)

_M_COMPILATIONS = _metrics.counter(
    "repro_bdd_compilations_total",
    "Structure compilations into the BDD availability kernel",
)
_M_NODES_ALLOCATED = _metrics.counter(
    "repro_bdd_nodes_allocated_total",
    "Decision nodes allocated across BDD compilations",
)
_M_ITE_CACHE_HITS = _metrics.counter(
    "repro_bdd_ite_cache_hits_total",
    "Apply/ITE memo hits while building BDD structure functions",
)
_M_EVALUATIONS = _metrics.counter(
    "repro_bdd_evaluations_total",
    "Probability-vector evaluations on compiled kernels",
)
_M_GROUP_HITS = _metrics.counter(
    "repro_bdd_group_root_hits_total",
    "Pair-group roots reused across incremental recompiles",
)
_M_GROUP_MISSES = _metrics.counter(
    "repro_bdd_group_root_misses_total",
    "Pair-group roots built from scratch during incremental recompiles",
)
_M_REBUILDS = _metrics.counter(
    "repro_bdd_incremental_rebuilds_total",
    "Full manager rebuilds forced by order changes or garbage pressure",
)
_metrics.gauge(
    "repro_bdd_kernel_cache_hits", "Compiled-kernel LRU cache hits"
).set_function(lambda: _KERNELS.hits)
_metrics.gauge(
    "repro_bdd_kernel_cache_misses", "Compiled-kernel LRU cache misses"
).set_function(lambda: _KERNELS.misses)
_metrics.gauge(
    "repro_bdd_kernel_cache_entries", "Compiled kernels currently cached"
).set_function(lambda: len(_KERNELS.data))
_metrics.gauge(
    "repro_bdd_kernel_cache_weight",
    "Total BDD nodes retained by the kernel cache",
).set_function(lambda: _KERNELS.total_weight)


_M_TABLE_PROBES = _metrics.counter(
    "repro_bdd_table_probes_total",
    "Open-addressed unique/computed table probe steps during compiles",
)
_M_TABLE_REHASHES = _metrics.counter(
    "repro_bdd_table_rehashes_total",
    "Open-addressed table growth rehashes during compiles",
)
_M_REORDER_PASSES = _metrics.counter(
    "repro_bdd_reorder_passes_total",
    "Sifting reorder passes run over compiled managers",
)
_M_REORDER_SWAPS = _metrics.counter(
    "repro_bdd_reorder_swaps_total",
    "Adjacent-level swaps performed while sifting",
)
_M_REORDER_NODES_SAVED = _metrics.counter(
    "repro_bdd_reorder_nodes_saved_total",
    "Decision nodes eliminated by sifting reorders",
)


def _count_evaluation(count: int = 1) -> None:
    with _STATS_LOCK:
        _STATS["evaluations"] += count
    _M_EVALUATIONS.inc(count)


def _note_cache_hits(count: int) -> None:
    """Flush apply/ITE memo hits into the stats/metrics layer as they
    happen — :func:`kernel_stats` reflects hits live, not only at
    :func:`compile_structure` exit."""
    with _STATS_LOCK:
        _STATS["cache_hits"] += count
    _M_ITE_CACHE_HITS.inc(count)


def _flush_table_metrics(bdd: "BDD") -> None:
    stats = bdd.table_stats()
    _M_TABLE_PROBES.inc(stats["unique_probes"] + stats["computed_probes"])
    _M_TABLE_REHASHES.inc(
        stats["unique_rehashes"] + stats["computed_rehashes"]
    )


class AvailabilityKernel:
    """A compiled service structure: one BDD, many cheap evaluations.

    Holds the system root (conjunction over all pair functions) plus one
    root per pair group, all in the same manager — pairs share subgraphs
    wherever their paths share components.  All queries are passes over
    the linearized DAG, and every bottom-up pass is the one module-level
    per-node loop :func:`_sweep`, fed a float or a k-vector per variable:

    * :meth:`availability` / :meth:`unavailability` /
      :meth:`pair_availability` — one scalar pass;
    * :meth:`evaluate_all` / :meth:`evaluate_vector` — the same pass,
      also reporting every pair root;
    * :meth:`evaluate_many` / :meth:`evaluate_many_all` — one pass with a
      k-vector per variable (k probability vectors at once);
    * :meth:`evaluate_perturbed` — one scalar pass per value of a single
      variable, every other variable at its base probability;
    * :meth:`birnbaum` — the scalar pass plus the one top-down pass,
      giving the importance of **every** variable at once;
    * :meth:`minimal_cut_sets` / :meth:`minimal_path_sets` — one memoized
      bottom-up recursion.
    """

    def __init__(
        self,
        bdd: BDD,
        root: int,
        group_roots: Sequence[int],
        variables: Sequence[str],
        fingerprint: str = "",
    ):
        self._bdd = bdd
        self.root = root
        self.group_roots = tuple(group_roots)
        self.variables = tuple(variables)
        self.index = {name: i for i, name in enumerate(self.variables)}
        self.fingerprint = fingerprint
        self._linearize()

    # -- layout ---------------------------------------------------------------

    def _linearize(self) -> None:
        """Topologically order the reachable DAG into flat arrays.

        In an ordered BDD every edge goes from a smaller variable index to
        a larger one (or to a terminal), so sorting non-terminal nodes by
        *descending* variable yields a valid bottom-up evaluation order.
        Positions 0 and 1 are the FALSE/TRUE terminals.
        """
        bdd = self._bdd
        n = bdd._n
        var_a = bdd._var[:n]
        low_a = bdd._low[:n]
        high_a = bdd._high[:n]
        reached = np.zeros(n, dtype=bool)
        reached[0] = reached[1] = True
        # ``return_index`` only to skip numpy's masked-array check, which
        # imports ``numpy.ma`` on first use
        roots = np.unique(
            np.array([self.root, *self.group_roots], dtype=np.int64),
            return_index=True,
        )[0]
        frontier = roots[~reached[roots]]
        reached[frontier] = True
        # wave-order BFS: each round gathers both children of the whole
        # frontier at once — reachability is a few array passes, not a
        # per-node Python loop
        while frontier.size:
            kids = np.unique(
                np.concatenate((low_a[frontier], high_a[frontier])),
                return_index=True,
            )[0]
            kids = kids[~reached[kids]]
            reached[kids] = True
            frontier = kids
        interior = np.flatnonzero(reached)
        interior = interior[interior > 1]
        interior = interior[np.lexsort((interior, -var_a[interior]))]
        position = np.zeros(n, dtype=np.int64)
        position[1] = 1
        position[interior] = np.arange(2, interior.size + 2)
        self._np_var = var_a[interior].astype(np.intp)
        self._np_low = position[low_a[interior]].astype(np.intp)
        self._np_high = position[high_a[interior]].astype(np.intp)
        self._var_ix = self._np_var.tolist()
        self._low_pos = self._np_low.tolist()
        self._high_pos = self._np_high.tolist()
        # frozen: these views are cached across callers and (for
        # store-loaded kernels) mmap-backed — a caller
        # mutating them in place would silently corrupt every consumer
        self._np_var.flags.writeable = False
        self._np_low.flags.writeable = False
        self._np_high.flags.writeable = False
        self._root_pos = int(position[self.root])
        self._group_pos = tuple(int(position[r]) for r in self.group_roots)
        #: number of interior (decision) nodes reachable from the roots
        self.size = int(interior.size)

    @classmethod
    def from_flat(
        cls,
        var_ix: np.ndarray,
        low_pos: np.ndarray,
        high_pos: np.ndarray,
        root_pos: int,
        group_pos: Sequence[int],
        variables: Sequence[str],
        fingerprint: str = "",
    ) -> "AvailabilityKernel":
        """Rebuild a kernel from its linearized arrays — no BDD manager.

        This is the warm-start constructor: :mod:`repro.store` persists
        exactly the :meth:`flat_arrays` shape (plus the group positions
        and variable names), and every evaluation/importance/set query
        runs on the linearized DAG alone, so a loaded kernel is fully
        equivalent to the freshly compiled one — bit-identical results,
        zero compilation work.  ``root``/``group_roots`` (manager node
        ids) are ``None`` on such kernels; all queries go through the
        position-space fields.
        """
        self = object.__new__(cls)
        self._bdd = None
        self.root = None
        self.group_roots = None
        self.variables = tuple(variables)
        self.index = {name: i for i, name in enumerate(self.variables)}
        self.fingerprint = fingerprint
        var = np.asarray(var_ix, dtype=np.intp)
        low = np.asarray(low_pos, dtype=np.intp)
        high = np.asarray(high_pos, dtype=np.intp)
        n = len(var)
        if len(low) != n or len(high) != n:
            raise AnalysisError(
                f"flat kernel arrays disagree on node count: "
                f"{n}/{len(low)}/{len(high)}"
            )
        if n and (
            int(var.min()) < 0
            or int(var.max()) >= len(self.variables)
            or int(low.min()) < 0
            or int(high.min()) < 0
        ):
            raise AnalysisError("flat kernel arrays reference out-of-range ids")
        # the forward sweep reads both children before writing node i at
        # position i + 2, so each child must sit strictly below it
        below = np.arange(2, n + 2)
        if ((low >= below) | (high >= below)).any():
            raise AnalysisError(
                "flat kernel arrays are not bottom-up ordered: a child "
                "position is not below its parent's"
            )
        for array in (var, low, high):
            if array.flags.writeable:
                array.flags.writeable = False
        self._np_var = var
        self._np_low = low
        self._np_high = high
        self._var_ix = var.tolist()
        self._low_pos = low.tolist()
        self._high_pos = high.tolist()
        self._root_pos = int(root_pos)
        self._group_pos = tuple(int(g) for g in group_pos)
        for pos in (self._root_pos, *self._group_pos):
            if not 0 <= pos < n + 2:
                raise AnalysisError(
                    f"flat kernel root/group position {pos} out of range"
                )
        self.size = n
        return self

    # -- probability vectors --------------------------------------------------

    def probability_vector(self, availabilities: Mapping[str, float]) -> np.ndarray:
        """The kernel-ordered numpy vector for a component→availability
        table (extra table entries are ignored; missing ones raise)."""
        missing = [name for name in self.variables if name not in availabilities]
        if missing:
            raise AnalysisError(f"no availability for components {missing}")
        vector = np.empty(len(self.variables), dtype=np.float64)
        for i, name in enumerate(self.variables):
            value = availabilities[name]
            if not 0.0 <= value <= 1.0:
                raise AnalysisError(
                    f"availability of {name!r} must be in [0, 1], got {value}"
                )
            vector[i] = value
        return vector

    # -- evaluation -----------------------------------------------------------

    def _sweep_vector(self, p: np.ndarray) -> List[float]:
        """Bottom-up node probabilities for one probability vector."""
        _count_evaluation()
        return _sweep(self._var_ix, self._low_pos, self._high_pos, p.tolist())

    def availability(self, availabilities: Mapping[str, float]) -> float:
        """P(system structure function is true) — one O(|BDD|) pass."""
        p = self.probability_vector(availabilities)
        return self._sweep_vector(p)[self._root_pos]

    def unavailability(self, availabilities: Mapping[str, float]) -> float:
        return 1.0 - self.availability(availabilities)

    def pair_availability(
        self, group: int, availabilities: Mapping[str, float]
    ) -> float:
        """Availability of one pair's root (index into the compiled groups)."""
        p = self.probability_vector(availabilities)
        return self._sweep_vector(p)[self._group_pos[group]]

    def evaluate_all(
        self, availabilities: Mapping[str, float]
    ) -> Tuple[float, Tuple[float, ...]]:
        """(system availability, per-group availabilities) in one pass."""
        return self._roots(self.probability_vector(availabilities))

    def evaluate_vector(
        self, p: np.ndarray
    ) -> Tuple[float, Tuple[float, ...]]:
        """(system, per-group) availabilities for one kernel-ordered raw
        vector — :meth:`evaluate_all` without the mapping validation, and
        the one-row route of :meth:`repro.analysis.whatif.Nominal.rows`."""
        p = np.asarray(p, dtype=np.float64)
        if p.ndim != 1 or p.shape[0] != len(self.variables):
            raise AnalysisError(
                f"probability vector must have shape "
                f"({len(self.variables)},), got {p.shape}"
            )
        return self._roots(p)

    def _roots(self, p: np.ndarray) -> Tuple[float, Tuple[float, ...]]:
        values = self._sweep_vector(p)
        return values[self._root_pos], tuple(
            values[g] for g in self._group_pos
        )

    def _matrix(
        self, tables: Union[np.ndarray, Sequence[Mapping[str, float]]]
    ) -> np.ndarray:
        """The validated (k, n_variables) float64 matrix for a batch."""
        if not isinstance(tables, np.ndarray):
            return np.stack(
                [self.probability_vector(table) for table in tables]
            ) if tables else np.empty((0, len(self.variables)))
        matrix = np.asarray(tables, dtype=np.float64)
        if matrix.ndim != 2 or matrix.shape[1] != len(self.variables):
            raise AnalysisError(
                f"probability matrix must be (k, {len(self.variables)}), "
                f"got {matrix.shape}"
            )
        return matrix

    def _sweep_matrix(self, matrix: np.ndarray) -> List[object]:
        """Bottom-up node values for a batch: every variable carries its
        k-column of *matrix* (copied contiguous — strided columns slow
        every per-node op), so every non-terminal node is a k-vector."""
        _count_evaluation(matrix.shape[0])
        rows = list(np.ascontiguousarray(matrix.T))
        return _sweep(self._var_ix, self._low_pos, self._high_pos, rows)

    def evaluate_many(
        self,
        tables: Union[np.ndarray, Sequence[Mapping[str, float]]],
    ) -> np.ndarray:
        """System availability for k probability vectors in one vectorized
        sweep — the campaign/what-if batch fast path.

        *tables* is either a (k, n_variables) float array in kernel
        variable order (see :meth:`probability_vector`) or a sequence of
        component→availability mappings.
        """
        matrix = self._matrix(tables)
        out = np.empty(matrix.shape[0], dtype=np.float64)
        if len(out):
            out[:] = self._sweep_matrix(matrix)[self._root_pos]
        return out

    def evaluate_many_all(
        self,
        tables: Union[np.ndarray, Sequence[Mapping[str, float]]],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(system, per-group)`` availabilities for k probability vectors
        in one vectorized sweep.

        :meth:`evaluate_many` extended with the group roots: the same
        bottom-up pass, with the per-group node values read off the same
        node list as the system root.  This is the one-pass
        multi-dimension fast path (:mod:`repro.dimensions` stacks one
        probability table per dimension and evaluates them all in a
        single traversal).  Returns ``(roots, groups)`` with shapes
        ``(k,)`` and ``(k, n_groups)``.
        """
        matrix = self._matrix(tables)
        k = matrix.shape[0]
        roots = np.empty(k, dtype=np.float64)
        groups = np.empty((k, len(self._group_pos)), dtype=np.float64)
        if k:
            values = self._sweep_matrix(matrix)
            roots[:] = values[self._root_pos]
            for j, pos in enumerate(self._group_pos):
                groups[:, j] = values[pos]
        return roots, groups

    def flat_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """The linearized DAG as ``(var, low, high, root_pos)`` numpy
        arrays — the shape the artifact store persists (see
        :mod:`repro.store`).  ``var`` indexes :attr:`variables`;
        ``low``/``high`` are positions in the evaluation array (0/1 are
        the FALSE/TRUE terminals, interior node *i* lives at position
        ``i + 2``).  The views are **read-only** — they are shared by
        every consumer of this kernel (and may be mmap-backed)."""
        return self._np_var, self._np_low, self._np_high, self._root_pos

    def evaluate_perturbed(
        self, base: np.ndarray, var: int, values: np.ndarray
    ) -> np.ndarray:
        """System availability when every variable holds its *base*
        probability except variable *var*, which takes each of *values*.

        The population evaluation plane sweeps the user's access device
        over ``(0, 1)`` with it.  Each value is one scalar sweep with
        ``rows[var]`` set to it, so results equal :meth:`evaluate_vector`
        on the perturbed vector bit for bit.
        """
        base = np.asarray(base, dtype=np.float64)
        if base.ndim != 1 or base.shape[0] != len(self.variables):
            raise AnalysisError(
                f"base probability vector must have shape "
                f"({len(self.variables)},), got {base.shape}"
            )
        if not 0 <= var < len(self.variables):
            raise AnalysisError(
                f"perturbed variable index {var} out of range "
                f"[0, {len(self.variables)})"
            )
        values = np.asarray(values, dtype=np.float64)
        if values.ndim != 1:
            raise AnalysisError(
                f"perturbed values must be a 1-D array, got shape {values.shape}"
            )
        _count_evaluation(len(values))
        rows = base.tolist()
        out = np.empty(len(values), dtype=np.float64)
        for i, value in enumerate(values.tolist()):
            rows[var] = value
            out[i] = _sweep(
                self._var_ix, self._low_pos, self._high_pos, rows
            )[self._root_pos]
        return out

    # -- importance -----------------------------------------------------------

    def birnbaum(self, availabilities: Mapping[str, float]) -> Dict[str, float]:
        """Birnbaum importance ``∂A_sys/∂A_c`` of every variable at once.

        One bottom-up pass gives node probabilities; one top-down pass
        accumulates each node's *reach* probability (the chance the
        evaluation path passes through it); the importance of variable v
        is ``Σ_{nodes n labeled v} reach(n)·(P(high) - P(low))``.
        """
        p = self.probability_vector(availabilities)
        values = self._sweep_vector(p)
        rows = p.tolist()
        reach = [0.0] * len(values)
        reach[self._root_pos] = 1.0
        var_ix, low, high = self._var_ix, self._low_pos, self._high_pos
        gradient = [0.0] * len(self.variables)
        # interior nodes are stored deepest-variable first, so the reverse
        # walk visits every parent before its children: reach is final at
        # visit time and the gradient can accumulate in the same sweep
        for k in range(len(var_ix) - 1, -1, -1):
            r = reach[k + 2]
            if r == 0.0:
                continue
            v = var_ix[k]
            pv = rows[v]
            gradient[v] += r * (values[high[k]] - values[low[k]])
            reach[high[k]] += r * pv
            reach[low[k]] += r * (1.0 - pv)
        return dict(zip(self.variables, gradient))

    # -- cut / path sets ------------------------------------------------------

    def _bottom_up_sets(
        self, root_pos: int, terminal_false, terminal_true, combine
    ) -> List[FrozenSet[str]]:
        """Shared memoized bottom-up recursion (iterative: component
        counts can exceed the interpreter recursion limit).

        Runs in linearized *position* space — positions 0/1 are the
        terminals, interior node *k* lives at ``k + 2`` — so it works
        identically on manager-backed and store-loaded kernels: the
        reachable DAG is the same either way.
        """
        var_ix, low_pos, high_pos = self._var_ix, self._low_pos, self._high_pos
        memo: Dict[int, Tuple[FrozenSet[str], ...]] = {
            0: terminal_false,
            1: terminal_true,
        }
        stack = [root_pos]
        while stack:
            pos = stack[-1]
            if pos in memo:
                stack.pop()
                continue
            low, high = low_pos[pos - 2], high_pos[pos - 2]
            pending = [child for child in (low, high) if child not in memo]
            if pending:
                stack.extend(pending)
                continue
            stack.pop()
            name = self.variables[var_ix[pos - 2]]
            memo[pos] = tuple(
                minimize_sets(combine(name, memo[low], memo[high]))
            )
        return list(memo[root_pos])

    def minimal_path_sets(
        self, group: Optional[int] = None
    ) -> List[FrozenSet[str]]:
        """Minimal path sets (minimal variable sets forcing the function
        true), from the DAG itself — independent of the input path lists."""
        root = self._root_pos if group is None else self._group_pos[group]
        return self._bottom_up_sets(
            root,
            terminal_false=(),
            terminal_true=(frozenset(),),
            combine=lambda name, low, high: list(low)
            + [s | {name} for s in high],
        )

    def minimal_cut_sets(
        self, group: Optional[int] = None
    ) -> List[FrozenSet[str]]:
        """Minimal cut sets (minimal variable sets forcing the function
        false) by the dual bottom-up recursion over the same DAG."""
        root = self._root_pos if group is None else self._group_pos[group]
        return self._bottom_up_sets(
            root,
            terminal_false=(frozenset(),),
            terminal_true=(),
            combine=lambda name, low, high: [s | {name} for s in low]
            + list(high),
        )


# -- the bottom-up sweep (shared by every evaluation route) -------------------


def _sweep(
    var_ix: Sequence[int],
    low: Sequence[int],
    high: Sequence[int],
    rows: Sequence[object],
) -> List[object]:
    """Node probabilities of the linearized DAG, bottom-up.

    Position 0/1 hold the FALSE/TRUE terminals and interior node *i*
    lands at position ``i + 2``; ``rows[v]`` is variable *v*'s
    probability: a float for scalar (and perturbed) evaluation, a
    k-vector per variable for a batch (``matrix.T``).

    This is the **only** forward evaluation loop: every route runs the
    identical per-node arithmetic in the same operand order, so scalar,
    batch, group and perturbed results agree bit for bit.
    """
    values: List[object] = [0.0, 1.0]
    append = values.append
    for v, lo, hi in zip(var_ix, low, high):
        pv = rows[v]
        append(pv * values[hi] + (1.0 - pv) * values[lo])
    return values


# -- variable orders ----------------------------------------------------------


def frequency_order(
    path_set_groups: Sequence[Sequence[FrozenSet[str]]],
) -> Tuple[str, ...]:
    """Fallback variable order: most frequently used components first
    (shared components high in the diagram maximizes subgraph sharing)."""
    counts: Counter = Counter()
    for group in path_set_groups:
        for path in group:
            counts.update(path)
    return tuple(sorted(counts, key=lambda name: (-counts[name], name)))


def order_from_topology(
    topology: Topology, components: Iterable[str]
) -> Tuple[str, ...]:
    """Variable order from the compiled engine's CSR ids (see
    :func:`order_from_compiled`)."""
    return order_from_compiled(compile_topology(topology), components)


def order_from_compiled(
    compiled: CompiledTopology, components: Iterable[str]
) -> Tuple[str, ...]:
    """Variable order from a compiled topology's CSR ids.

    Node components sort by their CSR id; a link component ``a|b`` sorts
    right after its lower-id endpoint (keeping each cable adjacent to the
    device it hangs off), and names unknown to the topology go last in
    lexical order.
    """
    index = compiled.index

    def key(name: str) -> Tuple[int, int, int, str]:
        node_id = index.get(name)
        if node_id is not None:
            return (node_id, 0, -1, name)
        if "|" in name:
            a, b = name.split("|", 1)
            ia, ib = index.get(a), index.get(b)
            if ia is not None and ib is not None:
                low_id, high_id = sorted((ia, ib))
                return (low_id, 1, high_id, name)
        return (len(compiled.names), 2, 0, name)

    return tuple(sorted(set(components), key=key))


# -- compilation --------------------------------------------------------------


def _canonical_groups(
    path_set_groups: Sequence[Sequence[FrozenSet[str]]],
) -> Tuple[Tuple[Tuple[str, ...], ...], ...]:
    return tuple(
        tuple(sorted({tuple(sorted(path)) for path in group}))
        for group in path_set_groups
    )


def structure_fingerprint(
    path_set_groups: Sequence[Sequence[FrozenSet[str]]],
    order: Sequence[str],
) -> str:
    """blake2b digest of the path-set structure plus variable order — the
    kernel cache key (same idiom as the engine's topology fingerprint)."""
    digest = hashlib.blake2b(digest_size=16)
    for name in order:
        digest.update(name.encode("utf-8"))
        digest.update(b"\x1f")
    digest.update(b"\x1e")
    for group in _canonical_groups(path_set_groups):
        for path in group:
            for component in path:
                digest.update(component.encode("utf-8"))
                digest.update(b"\x1f")
            digest.update(b"\x1d")
        digest.update(b"\x1e")
    return digest.hexdigest()


def _decode_kernel(fingerprint: str, arrays, meta) -> AvailabilityKernel:
    return AvailabilityKernel.from_flat(
        arrays["var"],
        arrays["low"],
        arrays["high"],
        int(meta["root_pos"]),
        arrays["group_pos"],
        meta["variables"],
        fingerprint,
    )


def _encode_kernel(kernel: AvailabilityKernel):
    """A kernel's flat arrays (plain and incremental-snapshot kernels
    alike)."""
    var, low, high, root_pos = kernel.flat_arrays()
    return (
        {
            "var": np.asarray(var, dtype=np.int64),
            "low": np.asarray(low, dtype=np.int64),
            "high": np.asarray(high, dtype=np.int64),
            "group_pos": np.asarray(kernel._group_pos, dtype=np.int64),
        },
        {"root_pos": int(root_pos), "variables": list(kernel.variables)},
    )


def _kernel_weight(kernel: AvailabilityKernel) -> int:
    """Nodes the kernel retains: its whole manager when it has one."""
    return len(kernel._bdd) if kernel._bdd is not None else kernel.size + 2


#: Compiled kernels keyed by cache key, warm-started from ``kernel``
#: artifacts.
_KERNEL_TIER = _store.Tier(
    "kernel", _KERNELS, _encode_kernel, _decode_kernel, _kernel_weight
)


#: a compile sifts only when the compiled diagram is both large and
#: bloated relative to its input (nodes reachable from the roots ≥
#: growth × total path-set incidences) — well-ordered structures never
#: pay the sifting pass, and the OR fold's dead intermediates, which
#: the manager still holds, do not count
_AUTO_MIN_NODES = 2048
_AUTO_GROWTH = 8


def _checked_groups(
    path_set_groups: Sequence[Sequence[FrozenSet[str]]],
) -> List[List[FrozenSet[str]]]:
    """The groups as lists, rejecting no groups and an empty group."""
    groups = [list(group) for group in path_set_groups]
    if not groups:
        raise AnalysisError("system_availability requires at least one group")
    if not all(groups):
        raise AnalysisError("a pair with no path sets is never connected")
    return groups


def _prepare_structure(
    path_set_groups: Sequence[Sequence[FrozenSet[str]]],
    order: Optional[Sequence[str]],
) -> Tuple[List[List[FrozenSet[str]]], Tuple[str, ...], str]:
    """Validate inputs and resolve ``(groups, ordered, fingerprint)``.
    The fingerprint is the cache key: whether a compile sifts is decided
    by the structure itself, so one structure has one kernel."""
    groups = _checked_groups(path_set_groups)
    components = {c for group in groups for path in group for c in path}
    if not components:
        raise AnalysisError("system_availability requires at least one component")
    if order is None:
        ordered = frequency_order(groups)
    else:
        order_list = list(order)
        if len(set(order_list)) != len(order_list):
            counts = Counter(order_list)
            dupes = sorted(n for n, c in counts.items() if c > 1)
            raise AnalysisError(
                f"variable order contains duplicate components {dupes}"
            )
        ordered = tuple(name for name in order_list if name in components)
        missing = components.difference(ordered)
        if missing:
            raise AnalysisError(
                f"variable order does not cover components {sorted(missing)}"
            )
    return groups, ordered, structure_fingerprint(groups, ordered)


def _build_group_roots(
    bdd: BDD, index: Mapping[str, int], groups: Sequence[Sequence[FrozenSet[str]]]
) -> List[int]:
    """All groups' OR-of-cubes roots through the bulk plane: one
    :meth:`BDD.cube_many` over every path of every group, then one
    balanced OR reduction per round across all groups at once."""
    paths: List[List[int]] = []
    slices: List[Tuple[int, int]] = []
    start = 0
    for group in groups:
        converted = [[index[c] for c in path] for path in group]
        paths.extend(converted)
        slices.append((start, start + len(converted)))
        start += len(converted)
    roots = bdd.cube_many(paths)
    return bdd.reduce_many(_OP_OR, [roots[a:b] for a, b in slices])


def _sift(
    bdd: BDD, roots: Sequence[int], variables: Tuple[str, ...]
) -> Tuple[BDD, List[int], Tuple[str, ...]]:
    """Run a sifting pass over *bdd* keeping *roots* alive; returns the
    reordered manager, *roots* remapped into it, and the variable naming
    by new level."""
    with _trace.span("bdd.reorder", variables=len(variables)) as span:
        new_bdd, mapping, perm, stats = _bddreorder.sift(bdd, list(roots))
        span.set(
            swaps=stats["swaps"],
            nodes_before=stats["live_before"],
            nodes_after=stats["live_after"],
        )
    _M_REORDER_PASSES.inc()
    _M_REORDER_SWAPS.inc(stats["swaps"])
    saved = stats["live_before"] - stats["live_after"]
    if saved > 0:
        _M_REORDER_NODES_SAVED.inc(saved)
    new_bdd.cache_hits = bdd.cache_hits
    return (
        new_bdd,
        [mapping[root] for root in roots],
        tuple(variables[perm[level]] for level in range(len(variables))),
    )


def compile_structure(
    path_set_groups: Sequence[Sequence[FrozenSet[str]]],
    *,
    order: Optional[Sequence[str]] = None,
    use_cache: bool = True,
) -> AvailabilityKernel:
    """Compile path-set groups (the :func:`system_availability` input
    shape) into an :class:`AvailabilityKernel`, memoized by structure
    fingerprint.

    All groups compile into one shared manager: the system root is the
    conjunction of the group roots, and any component shared across pairs
    is a single decision level reused by every function that tests it.
    Construction goes through the array-native bulk plane (open-addressed
    tables + level-synchronous apply batches).  A sifting pass reorders
    the variables, and the kernel is rebuilt, only when the diagram
    reachable from the roots blew up relative to its input structure
    (see ``_AUTO_MIN_NODES``/``_AUTO_GROWTH``).

    With an artifact store active (``REPRO_STORE``/``--store``) an LRU
    miss first tries the on-disk linearized arrays — a fresh process
    evaluating known structures performs zero BDD construction — and a
    fresh compile writes through for the next process.
    """
    groups, ordered, fingerprint = _prepare_structure(path_set_groups, order)

    def compile_() -> AvailabilityKernel:
        with _trace.span(
            "bdd.compile",
            variables=len(ordered),
            groups=len(groups),
            fingerprint=fingerprint,
        ) as span:
            bdd = BDD(len(ordered))
            index = {name: i for i, name in enumerate(ordered)}
            group_roots = _build_group_roots(bdd, index, groups)
            unique_roots = list(dict.fromkeys(group_roots))
            system = bdd.reduce_many(
                _OP_AND, [np.array(unique_roots, dtype=np.int64)]
            )[0]
            variables = tuple(ordered)
            kernel = AvailabilityKernel(
                bdd, system, group_roots, variables, fingerprint
            )
            incidences = sum(len(path) for group in groups for path in group)
            bloat = max(_AUTO_MIN_NODES, _AUTO_GROWTH * max(1, incidences))
            if kernel.size >= bloat:
                bdd, (system, *group_roots), variables = _sift(
                    bdd, [system, *group_roots], variables
                )
                kernel = AvailabilityKernel(
                    bdd, system, group_roots, variables, fingerprint
                )
            span.set(
                nodes=kernel.size,
                allocated=len(bdd) - 2,
                ite_cache_hits=bdd.cache_hits,
            )
        with _STATS_LOCK:
            _STATS["compilations"] += 1
        _M_COMPILATIONS.inc()
        _M_NODES_ALLOCATED.inc(len(bdd) - 2)
        _flush_table_metrics(bdd)
        return kernel

    return _KERNEL_TIER.fetch(fingerprint, compile_) if use_cache else compile_()


def compile_pair(
    path_sets: Sequence[FrozenSet[str]],
    *,
    order: Optional[Sequence[str]] = None,
    use_cache: bool = True,
) -> AvailabilityKernel:
    """Compile a single pair's path sets."""
    return compile_structure([list(path_sets)], order=order, use_cache=use_cache)


def compile_many(
    structures: Sequence[Sequence[Sequence[FrozenSet[str]]]],
    *,
    orders: Optional[Sequence[Optional[Sequence[str]]]] = None,
    order: Optional[Sequence[str]] = None,
    use_cache: bool = True,
) -> List[AvailabilityKernel]:
    """Compile many independent structures in this process, one
    :func:`compile_structure` each (*orders* gives one variable order
    per structure, *order* one for all).  Duplicate structures share one
    kernel through the kernel cache."""
    n = len(structures)
    if orders is None:
        per_order: List[Optional[Sequence[str]]] = [order] * n
    else:
        if len(orders) != n:
            raise AnalysisError(
                f"orders must match structures: {len(orders)} != {n}"
            )
        per_order = list(orders)
    return [
        compile_structure(s, order=o, use_cache=use_cache)
        for s, o in zip(structures, per_order)
    ]


def _group_digest(canonical_group: Tuple[Tuple[str, ...], ...]) -> str:
    """blake2b digest of one canonicalized pair group — the unit of reuse
    for :class:`IncrementalAvailabilityKernel`."""
    digest = hashlib.blake2b(digest_size=16)
    for path in canonical_group:
        for component in path:
            digest.update(component.encode("utf-8"))
            digest.update(b"\x1f")
        digest.update(b"\x1d")
    return digest.hexdigest()


class IncrementalAvailabilityKernel:
    """A persistent BDD manager that recompiles only changed pair groups.

    :func:`compile_structure` memoizes *whole structures*: one changed
    path set gives a new structure fingerprint and rebuilds every group
    from scratch.  Under topology churn most pairs are untouched by any
    single event, so this class keeps one manager alive across epochs and
    caches each pair group's root by its content digest — a recompile
    after a link flap re-derives only the groups whose path sets actually
    changed and re-ANDs the (mostly cached) roots into a fresh system
    root.  This is the BDD half of the delta-aware invalidation story
    (the engine half is :func:`repro.core.engine.discover_delta`).

    Correctness constraints, and how they are met:

    * an ROBDD manager requires one global variable order — the order is
      held **stable across epochs**; components first seen in a later
      epoch are *appended* (largest indices, see :meth:`BDD.grow`), which
      keeps every existing node and cached group root valid;
    * dead nodes accumulate as group structures change — when the
      reachable fraction drops below ~1/4 the manager is rebuilt from
      scratch (order re-derived, group cache cleared), bounding memory;
    * the returned :class:`AvailabilityKernel` snapshots the reachable
      DAG at construction (``_linearize`` copies into flat arrays), so
      kernels handed to earlier epochs stay internally consistent while
      later recompiles grow the shared manager.

    Thread safety: :meth:`recompile` holds an internal lock; returned
    kernels are immutable snapshots and safe to read concurrently.
    """

    #: full rebuild when reachable nodes are under this fraction of the
    #: manager.  The slack must be generous: sequential OR chains leave
    #: mostly-dead intermediates behind, so live/total sits well under
    #: the fraction even in a healthy manager — a small slack makes every
    #: recompile rebuild, discarding all cached group roots
    _GC_FRACTION = 0.25
    _GC_SLACK = 1 << 19

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._bdd: Optional[BDD] = None
        self._order: Tuple[str, ...] = ()
        self._group_roots: Dict[str, int] = {}
        self.stats = {
            "recompiles": 0,
            "group_hits": 0,
            "group_misses": 0,
            "rebuilds": 0,
        }

    def _rebuild(
        self,
        canonical: Tuple[Tuple[Tuple[str, ...], ...], ...],
        components: FrozenSet[str],
        order_hint: Optional[Sequence[str]],
    ) -> None:
        if order_hint is not None:
            ordered = tuple(n for n in order_hint if n in components)
            ordered += tuple(sorted(components.difference(ordered)))
        else:
            ordered = frequency_order(canonical)
        self._order = ordered
        self._bdd = BDD(len(ordered))
        self._group_roots = {}
        self.stats["rebuilds"] += 1
        _M_REBUILDS.inc()

    def recompile(
        self,
        path_set_groups: Sequence[Sequence[FrozenSet[str]]],
        *,
        order_hint: Optional[Sequence[str]] = None,
    ) -> AvailabilityKernel:
        """Compile *path_set_groups* reusing cached group roots.

        *order_hint* (e.g. :func:`order_from_topology`) seeds the
        variable order on the first build and after a garbage rebuild; in
        between it is ignored so the established order — and with it
        every cached root — survives topology mutations that would
        reshuffle CSR ids.
        """
        groups = _checked_groups(path_set_groups)
        canonical = _canonical_groups(groups)
        components = frozenset(
            c for group in canonical for path in group for c in path
        )
        with self._lock, _trace.span(
            "bdd.recompile_delta", groups=len(groups)
        ) as span:
            if self._bdd is None:
                self._rebuild(canonical, components, order_hint)
            elif not components.issubset(self._order):
                grown = self._order + tuple(
                    sorted(components.difference(self._order))
                )
                self._order = grown
                self._bdd.grow(len(grown))
            bdd = self._bdd
            index = {name: i for i, name in enumerate(self._order)}
            hits = misses = 0
            group_roots: List[int] = [0] * len(canonical)
            missed: List[Tuple[int, str, Tuple[Tuple[str, ...], ...]]] = []
            for slot, group in enumerate(canonical):
                digest = _group_digest(group)
                root = self._group_roots.get(digest)
                if root is None:
                    misses += 1
                    missed.append((slot, digest, group))
                else:
                    hits += 1
                    group_roots[slot] = root
            if missed:
                built = _build_group_roots(
                    bdd, index, [group for _, _, group in missed]
                )
                for (slot, digest, _), root in zip(missed, built):
                    self._group_roots[digest] = root
                    group_roots[slot] = root
            unique_roots = list(dict.fromkeys(group_roots))
            system = bdd.reduce_many(
                _OP_AND, [np.array(unique_roots, dtype=np.int64)]
            )[0]
            kernel = AvailabilityKernel(
                bdd,
                system,
                group_roots,
                self._order,
                structure_fingerprint(groups, self._order),
            )
            self.stats["recompiles"] += 1
            self.stats["group_hits"] += hits
            self.stats["group_misses"] += misses
            _M_GROUP_HITS.inc(hits)
            _M_GROUP_MISSES.inc(misses)
            span.set(
                group_hits=hits,
                group_misses=misses,
                nodes=len(bdd) - 2,
                reachable=kernel.size,
            )
            # garbage pressure: schedule a fresh manager for the *next*
            # recompile once dead nodes dominate
            live = kernel.size + 2
            if len(bdd) > self._GC_SLACK and live < len(bdd) * self._GC_FRACTION:
                self._bdd = None
            return kernel


def system_availability_bdd(
    path_set_groups: Sequence[Sequence[FrozenSet[str]]],
    availabilities: Mapping[str, float],
    *,
    order: Optional[Sequence[str]] = None,
) -> float:
    """Drop-in BDD-backed equivalent of
    :func:`repro.analysis.exact.system_availability` (no component bound)."""
    return compile_structure(path_set_groups, order=order).availability(
        availabilities
    )


def pair_availability_bdd(
    path_sets: Sequence[FrozenSet[str]],
    availabilities: Mapping[str, float],
    *,
    order: Optional[Sequence[str]] = None,
) -> float:
    """Drop-in BDD-backed equivalent of
    :func:`repro.analysis.exact.pair_availability`."""
    return compile_pair(path_sets, order=order).availability(availabilities)


# -- counters (same shape as repro.core.engine.engine_stats) ------------------


def kernel_stats() -> Dict[str, int]:
    """Counters for tests and benchmarks: structure compilations and
    probability-vector evaluations, plus the kernel-cache tally."""
    with _STATS_LOCK:
        stats = dict(_STATS)
    stats["kernel_cache_hits"] = _KERNELS.hits
    stats["kernel_cache_misses"] = _KERNELS.misses
    return stats


def reset_kernel_stats() -> None:
    with _STATS_LOCK:
        _STATS["compilations"] = 0
        _STATS["evaluations"] = 0
        _STATS["cache_hits"] = 0


def kernel_cache_info() -> Dict[str, int]:
    return {
        "hits": _KERNELS.hits,
        "misses": _KERNELS.misses,
        "currsize": len(_KERNELS.data),
        "maxsize": _KERNELS.maxsize,
        "weight": _KERNELS.total_weight,
    }


def kernel_cache_get(key: str) -> Optional[AvailabilityKernel]:
    """The kernel cached under *key* (a ``kernel.fingerprint``): the LRU
    entry, else the active store's, else ``None``."""
    return _KERNEL_TIER.get(key)


def kernel_cache_clear() -> None:
    """Drop every compiled kernel (the big hammer for tests/benchmarks;
    structure changes invalidate implicitly via the fingerprint key)."""
    _KERNELS.clear()
