"""High-performance path-discovery engine (compiled topologies + memoization).

Path discovery is the computational heart of the methodology (Section V-D:
DFS over all simple paths, worst case O(n!)), and every downstream product
— UPSIM generation, availability analysis, what-if sweeps — re-runs it.
The seed implementation walks a string-keyed, read-through UML view; this
module makes repeated discovery 10-100x cheaper on realistic topologies
*without changing results*:

* :class:`CompiledTopology` — a frozen integer-ID view of a
  :class:`~repro.network.topology.Topology`: CSR adjacency arrays
  (``indptr``/``indices``), name<->id tables, and a content *fingerprint*
  (hash over nodes + links) used as the cache key.  Compilation is
  O(V + E) and is reused while the fingerprint is unchanged.
* **Structural pruning** — before the DFS runs, the search space is
  restricted to nodes that can lie on *some* simple requester->provider
  path, via the biconnected-component / block-cut-tree decomposition
  (computed once per compiled topology, reused across all pairs).  Real
  networks are dominated by tree-like peripheries (Section V-D); the
  block-cut tree collapses them so the DFS never descends into dead-end
  client subtrees.
* **Bitmask visited tracking** — the DFS runs over integer ids with
  bytearray on-path/allowed flags instead of per-step string-set
  operations, preserving the seed's deterministic neighbor order (links
  in model insertion order), so the emitted path sequence is identical.
* **PathSet memoization** — an LRU cache keyed on ``(fingerprint,
  requester, provider, max_depth, max_paths)``.  Dynamicity scenarios
  (user mobility, migration, what-if sweeps) that revisit pairs hit the
  cache; any topology mutation changes the fingerprint, which invalidates
  every memoized result for the old topology.  Below it, full
  enumerations splice per-block path lists from a content-addressed
  block memo that survives mutations of other blocks.
* :func:`discover_many` — batch discovery for independent mapping pairs;
  the keyed result dict preserves deterministic (first-seen) ordering of
  stored results.

The public enumerators in :mod:`repro.core.pathdiscovery` delegate here;
``discover_paths_networkx`` remains the independent cross-check oracle.

Pruning soundness (see also ``docs/performance.md``): a vertex *w* lies
on some simple s-t path iff *w* belongs to a biconnected block on the
unique block-cut-tree path between s and t.  Necessity: any s-t path
must cross the cut vertices on that tree path in order, and a detour
into a side block would have to re-enter through the same cut vertex,
violating simplicity.  Sufficiency: within a biconnected block any
third vertex lies on some path between the block's entry and exit
vertices (a standard consequence of Menger's theorem).  Restricting the
DFS to that vertex union therefore removes no path and adds none.
"""

from __future__ import annotations

import hashlib
import threading
from itertools import product
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import store as _store
from repro.errors import PathDiscoveryError
from repro.network.topology import Topology
from repro.core.pathdiscovery import Path, PathSet, _check_endpoints
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace

__all__ = [
    "CompiledTopology",
    "compile_topology",
    "discover",
    "count",
    "iterate",
    "discover_many",
    "discover_delta",
    "discover_delta_compiled",
    "discover_many_delta",
    "path_cache_info",
    "path_cache_clear",
    "block_cache_info",
    "block_cache_clear",
    "engine_stats",
    "reset_engine_stats",
]


# ---------------------------------------------------------------------------
# compiled topology
# ---------------------------------------------------------------------------


class _Replay:
    """A re-iterable view over a one-shot iterator.

    The first pass pulls from the underlying iterator and memoizes;
    later passes replay the memo (extending it on demand).  This lets
    the block-product enumeration consume each block's path list many
    times while enumerating it at most once — and only as far as the
    consumer actually advances, preserving laziness.
    """

    __slots__ = ("_source", "_memo", "_exhausted")

    def __init__(self, source: Iterator[Tuple[str, ...]]):
        self._source = source
        self._memo: List[Tuple[str, ...]] = []
        self._exhausted = False

    def __iter__(self) -> Iterator[Tuple[str, ...]]:
        if self._exhausted:
            return iter(self._memo)  # C-speed list iteration
        return self._iter_filling()

    def _iter_filling(self) -> Iterator[Tuple[str, ...]]:
        memo = self._memo
        i = 0
        while True:
            if i < len(memo):
                yield memo[i]
            elif self._exhausted:
                return
            else:
                try:
                    value = next(self._source)
                except StopIteration:
                    self._exhausted = True
                    return
                memo.append(value)
                yield value
            i += 1


class CompiledTopology:
    """A frozen integer-ID CSR view of a topology, plus its block-cut tree.

    ``names[i]`` is the instance name of node *i*; ``index`` maps names
    back to ids.  ``indices[indptr[i]:indptr[i + 1]]`` are the neighbors
    of node *i* in link insertion order — exactly the order the seed DFS
    explored, so enumeration order is preserved.  The biconnected
    structure is computed lazily on first use and shared by all queries.
    """

    __slots__ = (
        "fingerprint",
        "names",
        "index",
        "indptr",
        "indices",
        "n",
        "_lock",
        "_blocks",
        "_vertex_blocks",
        "_is_cut",
        "_comp",
        "_tree_adj",
        "_np_indptr",
        "_np_indices",
    )

    def __init__(
        self,
        fingerprint: str,
        names: Tuple[str, ...],
        indptr: List[int],
        indices: List[int],
    ):
        self.fingerprint = fingerprint
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}
        self.indptr = indptr
        self.indices = indices
        self.n = len(names)
        self._lock = threading.Lock()
        self._blocks: Optional[List[List[int]]] = None
        self._vertex_blocks: Optional[List[List[int]]] = None
        self._is_cut: Optional[bytearray] = None
        self._comp: Optional[List[int]] = None
        self._tree_adj: Optional[List[List[int]]] = None
        self._np_indptr: Optional[np.ndarray] = None
        self._np_indices: Optional[np.ndarray] = None

    # -- construction -------------------------------------------------------

    @classmethod
    def from_topology(
        cls, topology: Topology, fingerprint: Optional[str] = None
    ) -> "CompiledTopology":
        if fingerprint is None:
            fingerprint = topology.fingerprint()
        names = tuple(topology.nodes())
        index = {name: i for i, name in enumerate(names)}
        indptr: List[int] = [0]
        indices: List[int] = []
        for name in names:
            for neighbor in topology.neighbors(name):
                indices.append(index[neighbor])
            indptr.append(len(indices))
        return cls(fingerprint, names, indptr, indices)

    @classmethod
    def from_arrays(
        cls,
        fingerprint: str,
        names: Tuple[str, ...],
        indptr: np.ndarray,
        indices: np.ndarray,
    ) -> "CompiledTopology":
        """Rehydrate a compiled topology from stored CSR arrays.

        The hot DFS loops index ``indptr``/``indices`` element-wise, where
        plain Python lists beat ndarray scalar indexing, so the arrays
        are expanded once here; the original (typically mmap-backed,
        read-only) views are kept for :meth:`csr_arrays`.
        """
        compiled = cls(fingerprint, names, indptr.tolist(), indices.tolist())
        compiled._np_indptr = indptr
        compiled._np_indices = indices
        return compiled

    def csr_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The CSR adjacency as read-only ``(indptr, indices)`` int64
        views — the persistable shape of the compiled topology.  Store-
        loaded topologies return the zero-copy mmap views; freshly
        compiled ones materialize (and cache) frozen copies, so callers
        can never corrupt the shared compiled structure in place."""
        if self._np_indptr is None or self._np_indices is None:
            with self._lock:
                if self._np_indptr is None or self._np_indices is None:
                    indptr = np.array(self.indptr, dtype=np.int64)
                    indices = np.array(self.indices, dtype=np.int64)
                    indptr.flags.writeable = False
                    indices.flags.writeable = False
                    self._np_indptr = indptr
                    self._np_indices = indices
        return self._np_indptr, self._np_indices

    def node_id(self, name: str) -> int:
        try:
            return self.index[name]
        except KeyError:
            raise PathDiscoveryError(
                f"{name!r} is not a component of the compiled topology"
            ) from None

    def neighbors_of(self, node: int) -> Sequence[int]:
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    # -- block-cut structure -------------------------------------------------

    def ensure_structure(self) -> None:
        """Compute the biconnected decomposition once (thread-safe)."""
        if self._blocks is not None:
            return
        with self._lock:
            if self._blocks is None:
                self._compute_structure()

    def _compute_structure(self) -> None:
        """Iterative Hopcroft-Tarjan biconnected components + block-cut tree."""
        n = self.n
        indptr, indices = self.indptr, self.indices
        disc = [0] * n  # 0 = unvisited; discovery times start at 1
        low = [0] * n
        parent = [-1] * n
        parent_edge_skipped = bytearray(n)
        comp = [-1] * n
        is_cut = bytearray(n)
        blocks: List[List[int]] = []
        vertex_blocks: List[List[int]] = [[] for _ in range(n)]
        timer = 1
        for root in range(n):
            if disc[root]:
                continue
            comp[root] = root
            root_children = 0
            edge_stack: List[Tuple[int, int]] = []
            disc[root] = low[root] = timer
            timer += 1
            stack: List[List[int]] = [[root, indptr[root]]]
            while stack:
                frame = stack[-1]
                u, ptr = frame
                if ptr < indptr[u + 1]:
                    frame[1] = ptr + 1
                    v = indices[ptr]
                    if v == u:
                        continue  # self-loops never extend a simple path
                    if not disc[v]:
                        parent[v] = u
                        comp[v] = root
                        edge_stack.append((u, v))
                        disc[v] = low[v] = timer
                        timer += 1
                        if u == root:
                            root_children += 1
                        stack.append([v, indptr[v]])
                    else:
                        if v == parent[u] and not parent_edge_skipped[u]:
                            # the tree edge itself; a *second* u-v link is a
                            # genuine cycle and falls through as a back edge
                            parent_edge_skipped[u] = 1
                            continue
                        if disc[v] < disc[u]:
                            edge_stack.append((u, v))
                            if disc[v] < low[u]:
                                low[u] = disc[v]
                else:
                    stack.pop()
                    if not stack:
                        continue
                    p = stack[-1][0]
                    if low[u] < low[p]:
                        low[p] = low[u]
                    if low[u] >= disc[p]:
                        # edges down to (p, u) form one biconnected block
                        members = set()
                        while edge_stack:
                            a, b = edge_stack.pop()
                            members.add(a)
                            members.add(b)
                            if a == p and b == u:
                                break
                        bid = len(blocks)
                        blocks.append(sorted(members))
                        for w in blocks[bid]:
                            vertex_blocks[w].append(bid)
                        if p != root:
                            is_cut[p] = 1
            if root_children >= 2:
                is_cut[root] = 1
        # block-cut tree: nodes are blocks [0, B) and cut vertices B + v
        n_blocks = len(blocks)
        tree_adj: List[List[int]] = [[] for _ in range(n_blocks + n)]
        for bid, members in enumerate(blocks):
            for w in members:
                if is_cut[w]:
                    tree_adj[bid].append(n_blocks + w)
                    tree_adj[n_blocks + w].append(bid)
        self._vertex_blocks = vertex_blocks
        self._is_cut = is_cut
        self._comp = comp
        self._tree_adj = tree_adj
        self._blocks = blocks

    @property
    def blocks(self) -> List[List[int]]:
        self.ensure_structure()
        assert self._blocks is not None
        return self._blocks

    def articulation_points(self) -> List[str]:
        """Cut-vertex names, for cross-checks against the network layer."""
        self.ensure_structure()
        assert self._is_cut is not None
        return [self.names[i] for i in range(self.n) if self._is_cut[i]]

    def _tree_path(self, s_node: int, t_node: int) -> Optional[List[int]]:
        """Ordered node sequence from *s_node* to *t_node* on the
        block-cut tree (BFS parent-tracking; the path is unique)."""
        assert self._tree_adj is not None
        prev: Dict[int, int] = {s_node: -1}
        frontier = [s_node]
        while frontier and t_node not in prev:
            next_frontier: List[int] = []
            for node in frontier:
                for adj in self._tree_adj[node]:
                    if adj not in prev:
                        prev[adj] = node
                        next_frontier.append(adj)
            frontier = next_frontier
        if t_node not in prev:
            return None
        path: List[int] = []
        node = t_node
        while node != -1:
            path.append(node)
            node = prev[node]
        path.reverse()
        return path

    def segments(
        self, s: int, t: int
    ) -> Optional[List[Tuple[int, int, Sequence[int]]]]:
        """Factorize the s-t query along the block-cut tree.

        Returns the ordered chain of blocks a simple s-t path must cross,
        as ``(entry, exit, block vertices)`` triples — entry of the first
        segment is *s*, exit of the last is *t*, and interior boundaries
        are the cut vertices joining consecutive blocks.  Every simple
        s-t path is exactly one concatenation of per-segment simple
        paths (a cut vertex can be visited only once, so the path crosses
        each boundary exactly once and never re-enters an earlier block).
        Returns ``None`` when no s-t path exists.
        """
        self.ensure_structure()
        assert (
            self._blocks is not None
            and self._vertex_blocks is not None
            and self._is_cut is not None
            and self._comp is not None
        )
        if self._comp[s] != self._comp[t]:
            return None
        n_blocks = len(self._blocks)

        def tree_node(v: int) -> Optional[int]:
            if self._is_cut[v]:
                return n_blocks + v
            vb = self._vertex_blocks[v]
            return vb[0] if vb else None

        s_node = tree_node(s)
        t_node = tree_node(t)
        if s_node is None or t_node is None:
            return None
        if s_node == t_node:
            return [(s, t, self._blocks[s_node])]
        path = self._tree_path(s_node, t_node)
        if path is None:
            return None
        result: List[Tuple[int, int, Sequence[int]]] = []
        entry = s
        for node in path:
            if node >= n_blocks:  # a cut vertex: boundary of the open block
                cut = node - n_blocks
                if result and result[-1][1] == -1:
                    block_entry, _, block = result[-1]
                    result[-1] = (block_entry, cut, block)
                entry = cut
            else:
                result.append((entry, -1, self._blocks[node]))
        block_entry, _, block = result[-1]
        result[-1] = (block_entry, t, block)
        return result

    def block_digest(self, block: Sequence[int]) -> str:
        """Content digest of one block's induced subgraph, id-independent.

        Hashes the block's vertex *names* (sorted) together with each
        vertex's in-block neighbor names in CSR adjacency order.  Two
        compiled topologies — typically successive epochs of a churned
        model — produce the same digest for a block iff the induced
        subgraph *and its traversal order* are identical, so a cached
        enumeration keyed on the digest replays the exact path sequence
        the DFS would emit.  Unrelated mutations (a link flapping in a
        different block, nodes added elsewhere) shift integer ids but
        leave names and per-node neighbor order untouched, keeping the
        digest — and therefore the cache entry — valid.
        """
        indptr, indices, names = self.indptr, self.indices, self.names
        in_block = bytearray(self.n)
        for w in block:
            in_block[w] = 1
        digest = hashlib.blake2b(digest_size=16)
        for u in sorted(block, key=lambda w: names[w]):
            digest.update(names[u].encode("utf-8"))
            digest.update(b"\x1e")
            for v in indices[indptr[u] : indptr[u + 1]]:
                if in_block[v]:
                    digest.update(names[v].encode("utf-8"))
                    digest.update(b"\x1f")
        return digest.hexdigest()

    # -- enumeration ---------------------------------------------------------

    def _block_adjacency(
        self, block: Sequence[int]
    ) -> List[Optional[List[int]]]:
        """Per-node neighbor id lists restricted to one block's vertices,
        original order preserved — O(block size + incident edges), not
        O(V + E), so small blocks stay cheap to query."""
        indptr, indices = self.indptr, self.indices
        in_block = bytearray(self.n)
        for w in block:
            in_block[w] = 1
        adjacency: List[Optional[List[int]]] = [None] * self.n
        for u in block:
            adjacency[u] = [
                v for v in indices[indptr[u] : indptr[u + 1]] if in_block[v]
            ]
        return adjacency

    def _condense(
        self,
        s: int,
        t: int,
        block: Sequence[int],
        adjacency: List[Optional[List[int]]],
    ) -> Dict[int, List[Tuple[int, Tuple[str, ...], int, str]]]:
        """Smooth degree-2 chains of one block's subgraph.

        Returns, per *branch vertex* (block degree != 2, plus s and t),
        its condensed out-edges as ``(target id, interior names, links,
        target name)`` in original neighbor order.  A block without
        chains (a dense block) maps every link to an edge with an empty
        interior, so one walk serves every block.  Interior vertices of
        a chain have exactly two block neighbors, so traversal through
        them is forced: simple s-t paths of the condensed multigraph
        correspond 1:1 (same emission order) to simple s-t paths of the
        block subgraph.  Branch-level on-path tracking suffices because
        a chain's interior is reachable only through its two endpoints.
        """
        names = self.names
        is_branch = bytearray(self.n)
        for u in block:
            if len(adjacency[u]) != 2:  # type: ignore[arg-type]
                is_branch[u] = 1
        is_branch[s] = 1
        is_branch[t] = 1
        condensed: Dict[int, List[Tuple[int, Tuple[str, ...], int, str]]] = {}
        for u in block:
            if not is_branch[u]:
                continue
            edges: List[Tuple[int, Tuple[str, ...], int, str]] = []
            for first in adjacency[u]:  # type: ignore[union-attr]
                interior: List[str] = []
                prev, cur = u, first
                steps = 0
                while not is_branch[cur] and steps <= self.n:
                    interior.append(names[cur])
                    a, b = adjacency[cur]  # type: ignore[misc]
                    prev, cur = cur, (b if a == prev else a)
                    steps += 1
                if cur == u or not is_branch[cur]:
                    # a cycle hanging off u through degree-2 interiors can
                    # never appear on a simple path (it would revisit u);
                    # the second clause is the walk-length safety valve
                    continue
                edges.append(
                    (cur, tuple(interior), len(interior) + 1, names[cur])
                )
            condensed[u] = edges
        return condensed

    def _plan(
        self, s: int, t: int, max_depth: Optional[int]
    ) -> Optional[Tuple[List[Tuple[int, int, Sequence[int]]], int, int]]:
        """The preamble every s-t query shares: ``(segments, limit, cap)``.

        *limit* bounds a path's links (``max_depth``, else the node
        count, which no simple path reaches).  *cap* bounds any one
        segment's links: each of the other segments contributes at
        least one.  *segments* is empty when s == t — the one trivial
        path, whatever the bound.  ``None`` means no s-t path fits.
        """
        limit = max_depth if max_depth is not None else self.n
        if s == t:
            return [], limit, limit
        segments = self.segments(s, t) if limit >= 1 else None
        if segments is None:
            return None
        cap = limit - (len(segments) - 1)
        if cap < 1:
            return None
        return segments, limit, cap

    def iter_names(
        self,
        s: int,
        t: int,
        *,
        max_depth: Optional[int] = None,
    ) -> Iterator[Tuple[str, ...]]:
        """All simple s-t paths as name tuples, seed DFS order, lazily.

        Three structural reductions compose here, none of which changes
        the emitted sequence relative to the seed DFS:

        1. block-cut factorization (:meth:`segments`) — paths through a
           chain of blocks are the cartesian product of per-block path
           lists, so each block is enumerated once instead of once per
           upstream prefix;
        2. the pruning mask only suppresses subtrees that can never
           reach the segment exit;
        3. chain condensation only removes forced intermediate steps.

        This is the route for consumers that may stop early
        (``max_paths``, :func:`iterate`): pulling one path from an
        astronomically large space stays cheap.  A single-block query
        streams :meth:`_iter_block` straight through; full enumerations
        go through :func:`_enumerate`, which splices memoized block
        lists.
        """
        plan = self._plan(s, t, max_depth)
        if plan is None:
            return
        segments, limit, cap = plan
        names = self.names
        if not segments:
            yield (names[s],)
            return
        if len(segments) == 1:
            entry, exit_, block = segments[0]
            yield from self._iter_block(entry, exit_, block, limit)
            return
        # Multi-block query: emit the nested product of per-block path
        # lists — exactly the order the seed DFS crosses the blocks.
        # Each block is enumerated at most once (a replay memo feeds the
        # later passes) and only as far as the consumer demands, so
        # pulling one path from an astronomically large space stays
        # cheap.
        bounded = limit < self.n
        sources: List[Iterable[Tuple[str, ...]]] = []
        for entry, exit_, block in segments:
            if len(block) == 2:  # a bridge: exactly one path, one link
                sources.append(((names[entry], names[exit_]),))
            else:
                sources.append(
                    _Replay(self._iter_block(entry, exit_, block, cap))
                )
        last = len(segments) - 1

        def emit(
            i: int, prefix: Tuple[str, ...], links: int
        ) -> Iterator[Tuple[str, ...]]:
            for piece in sources[i]:
                total = links + len(piece) - 1
                if i == last:
                    if not bounded or total <= limit:
                        yield prefix + piece[1:]
                elif not bounded or total + (last - i) <= limit:
                    yield from emit(i + 1, prefix + piece[1:], total)

        yield from emit(0, (names[s],), 0)

    def _iter_block(
        self, s: int, t: int, block: Sequence[int], limit: int
    ) -> Iterator[Tuple[str, ...]]:
        """DFS enumeration of simple s-t paths within one block — the one
        walk behind discovery, lazy iteration and counting."""
        names = self.names
        condensed = self._condense(s, t, block, self._block_adjacency(block))
        on_path = bytearray(self.n)
        on_path[s] = 1
        flat = [names[s]]  # expanded on-path names, for O(len) emission
        # Depth bookkeeping mirrors the seed exactly: a finished path may
        # carry at most `limit` links, and any non-terminal prefix at most
        # `limit - 1` (the seed blocks appends once len(path) reaches the
        # limit).
        interior_limit = limit - 1
        links_so_far = 0
        span_stack: List[Tuple[int, int]] = []  # (nodes appended, vertex id)
        stack = [iter(condensed[s])]
        while stack:
            edge = next(stack[-1], None)
            if edge is None:
                stack.pop()
                if span_stack:
                    span, vid = span_stack.pop()
                    on_path[vid] = 0
                    del flat[-span:]
                    links_so_far -= span
                continue
            vid, interior, links, vname = edge
            if on_path[vid]:
                continue
            depth = links_so_far + links
            if vid == t:
                if depth <= limit:
                    yield (*flat, *interior, vname)
                continue
            if depth > interior_limit:
                continue
            flat.extend(interior)
            flat.append(vname)
            links_so_far = depth
            on_path[vid] = 1
            span_stack.append((links, vid))
            stack.append(iter(condensed[vid]))

    def count_simple_paths(
        self,
        s: int,
        t: int,
        *,
        max_depth: Optional[int] = None,
        budget: Optional[int] = None,
    ) -> int:
        """Count simple s-t paths without storing them.

        The count is the product of per-block counts, each walked by
        :meth:`_iter_block` (a length-distribution convolution when a
        depth limit can cut a combination of blocks), so it never
        enumerates cross-block combinations.  A single-block query is
        the one-factor product, bounded or not.  Returns ``-1`` as soon
        as the count provably exceeds *budget* (the caller owns the
        error message).
        """
        plan = self._plan(s, t, max_depth)
        if plan is None:
            return 0
        segments, limit, cap = plan
        if len(segments) <= 1 or limit >= self.n:
            total = 1
            for entry, exit_, block in segments:
                if len(block) == 2:
                    continue  # a bridge contributes exactly one path
                block_count = 0
                for _ in self._iter_block(entry, exit_, block, cap):
                    block_count += 1
                    # every other segment multiplies this by >= 1, so a
                    # single block overshooting the budget is already
                    # conclusive — bail before enumerating an
                    # astronomically large block to completion
                    if budget is not None and block_count > budget:
                        return -1
                if block_count == 0:
                    return 0
                total *= block_count
                if budget is not None and total > budget:
                    return -1
            return total
        # depth-limited: convolve per-block length distributions
        dist: Dict[int, int] = {0: 1}
        for entry, exit_, block in segments:
            if len(block) == 2:
                block_dist = {1: 1}
            else:
                block_dist = {}
                for path in self._iter_block(entry, exit_, block, cap):
                    links = len(path) - 1
                    block_dist[links] = block_dist.get(links, 0) + 1
            if not block_dist:
                return 0
            next_dist: Dict[int, int] = {}
            for have, ways in dist.items():
                for links, count_ in block_dist.items():
                    d = have + links
                    if d <= limit:
                        next_dist[d] = next_dist.get(d, 0) + ways * count_
            dist = next_dist
            if not dist:
                return 0
        total = sum(dist.values())
        if budget is not None and total > budget:
            return -1
        return total


# ---------------------------------------------------------------------------
# caches and statistics
# ---------------------------------------------------------------------------


#: Compiled topologies, keyed by fingerprint (shared across Topology views).
_COMPILED = _store.LRU(maxsize=64)

#: Memoized PathSets: (fingerprint, requester, provider, max_depth,
#: max_paths) -> (paths tuple, truncated flag).  The weight budget caps
#: the cache at ~2M retained path elements (tens of MB), whatever the
#: per-result sizes are.
_PATHS = _store.LRU(maxsize=1024, max_weight=2_000_000)

#: Per-block enumerations keyed by (block content digest, entry, exit).
#: Unlike the PathSet cache this key is *fingerprint-independent*: a
#: topology mutation invalidates only the blocks it touches (their
#: digests change), so churned models reuse every untouched block's
#: enumeration — in :func:`discover` and :func:`discover_delta` alike.
_BLOCK_PATHS = _store.LRU(maxsize=4096, max_weight=2_000_000)

_STATS_LOCK = threading.Lock()
_STATS = {"compilations": 0, "enumerations": 0, "block_enumerations": 0,
          "delta_assemblies": 0}

# -- observability: coarse counters + live cache gauges (repro.obs) ----------

_M_COMPILATIONS = _metrics.counter(
    "repro_engine_compilations_total",
    "Topology compilations into CSR form",
)
_M_ENUMERATIONS = _metrics.counter(
    "repro_engine_enumerations_total",
    "Full path enumerations run (cache hits perform none)",
)
_M_PATHS_DISCOVERED = _metrics.counter(
    "repro_engine_paths_discovered_total",
    "Simple paths emitted by full enumerations",
)
_metrics.gauge(
    "repro_engine_path_cache_hits",
    "PathSet LRU hits since process start",
).set_function(lambda: _PATHS.hits)
_metrics.gauge(
    "repro_engine_path_cache_misses",
    "PathSet LRU misses since process start",
).set_function(lambda: _PATHS.misses)
_metrics.gauge(
    "repro_engine_path_cache_entries",
    "PathSets currently memoized",
).set_function(lambda: len(_PATHS.data))
_metrics.gauge(
    "repro_engine_path_cache_weight",
    "Total path elements retained in the PathSet LRU",
).set_function(lambda: _PATHS.total_weight)
_M_BLOCK_ENUMERATIONS = _metrics.counter(
    "repro_engine_block_enumerations_total",
    "Per-block enumerations run by delta-aware discovery "
    "(block-cache hits perform none)",
)
_M_DELTA_ASSEMBLIES = _metrics.counter(
    "repro_engine_delta_assemblies_total",
    "PathSets assembled by splicing cached per-block enumerations",
)
_metrics.gauge(
    "repro_engine_block_cache_hits",
    "Block-enumeration LRU hits since process start",
).set_function(lambda: _BLOCK_PATHS.hits)
_metrics.gauge(
    "repro_engine_block_cache_misses",
    "Block-enumeration LRU misses since process start",
).set_function(lambda: _BLOCK_PATHS.misses)
_metrics.gauge(
    "repro_engine_block_cache_entries",
    "Block enumerations currently memoized",
).set_function(lambda: len(_BLOCK_PATHS.data))
_metrics.gauge(
    "repro_engine_block_cache_weight",
    "Total path elements retained in the block-enumeration LRU",
).set_function(lambda: _BLOCK_PATHS.total_weight)


def engine_stats() -> Dict[str, int]:
    """Counters for tests and benchmarks: compilations and full DFS runs
    (cache hits perform neither), plus the PathSet-cache hit/miss tally."""
    with _STATS_LOCK:
        stats = dict(_STATS)
    stats["path_cache_hits"] = _PATHS.hits
    stats["path_cache_misses"] = _PATHS.misses
    stats["block_cache_hits"] = _BLOCK_PATHS.hits
    stats["block_cache_misses"] = _BLOCK_PATHS.misses
    return stats


def reset_engine_stats() -> None:
    with _STATS_LOCK:
        _STATS["compilations"] = 0
        _STATS["enumerations"] = 0
        _STATS["block_enumerations"] = 0
        _STATS["delta_assemblies"] = 0


def path_cache_info() -> Dict[str, int]:
    return {
        "hits": _PATHS.hits,
        "misses": _PATHS.misses,
        "currsize": len(_PATHS.data),
        "maxsize": _PATHS.maxsize,
    }


def path_cache_clear() -> None:
    """Explicit invalidation of every memoized PathSet (the fingerprint
    change on topology mutation invalidates implicitly; this is the big
    hammer for tests and long-running services)."""
    _PATHS.clear()


def block_cache_info() -> Dict[str, int]:
    return {
        "hits": _BLOCK_PATHS.hits,
        "misses": _BLOCK_PATHS.misses,
        "currsize": len(_BLOCK_PATHS.data),
        "maxsize": _BLOCK_PATHS.maxsize,
        "weight": _BLOCK_PATHS.total_weight,
    }


def block_cache_clear() -> None:
    """Drop every memoized per-block enumeration (content-addressed
    entries never go stale — this exists for tests and benchmarks that
    need a cold delta path)."""
    _BLOCK_PATHS.clear()


def _decode_compiled(fingerprint: str, arrays, meta) -> CompiledTopology:
    return CompiledTopology.from_arrays(
        fingerprint, tuple(meta["names"]), arrays["indptr"], arrays["indices"]
    )


def _encode_compiled(compiled: CompiledTopology):
    indptr, indices = compiled.csr_arrays()
    return (
        {"indptr": indptr, "indices": indices},
        {"names": list(compiled.names)},
    )


#: Compiled topologies, warm-started from ``csr`` artifacts.
_CSR_TIER = _store.Tier("csr", _COMPILED, _encode_compiled, _decode_compiled)


def compile_topology(topology: Topology) -> CompiledTopology:
    """Compile (or reuse) the integer-ID view of *topology*.

    The fingerprint is read on every call; :meth:`Topology.fingerprint`
    caches it per model revision and every model mutator bumps the
    revision, so a mutated read-through model is never served stale
    arrays and an unchanged one costs no rehash.  On an in-process cache
    miss the configured artifact store (``REPRO_STORE``) is consulted before
    compiling; a fresh compile writes through so other processes
    warm-start from it.
    """
    fingerprint = topology.fingerprint()
    cached = getattr(topology, "_compiled", None)
    if cached is not None and cached.fingerprint == fingerprint:
        return cached

    def compile_() -> CompiledTopology:
        with _trace.span("engine.compile", fingerprint=fingerprint) as span:
            compiled = CompiledTopology.from_topology(topology, fingerprint)
            span.set(nodes=compiled.n, edges=len(compiled.indices) // 2)
        with _STATS_LOCK:
            _STATS["compilations"] += 1
        _M_COMPILATIONS.inc()
        return compiled

    compiled = _CSR_TIER.fetch(fingerprint, compile_)
    try:
        topology._compiled = compiled  # type: ignore[attr-defined]
    except AttributeError:  # exotic Topology subclasses with __slots__
        pass
    return compiled


# ---------------------------------------------------------------------------
# public enumerators (the pathdiscovery module delegates here)
# ---------------------------------------------------------------------------


def _segment_paths(
    compiled: CompiledTopology,
    entry: int,
    exit_: int,
    block: Sequence[int],
    cap: int,
    memo: bool,
) -> Sequence[Path]:
    """One segment's path list, at most *cap* links per path.

    A bridge (two-vertex block) contributes exactly one path.  With
    *memo* the full block enumeration (*cap* is then no bound) is kept in
    the block LRU under ``(block_digest, entry name, exit name)``: the
    digest covers the induced subgraph *and* its traversal order, so a
    hit replays exactly the sequence :meth:`CompiledTopology._iter_block`
    would emit — on a churned topology only the blocks an event actually
    touched miss.
    """
    names = compiled.names
    if len(block) == 2:
        return ((names[entry], names[exit_]),)
    if not memo:
        return list(compiled._iter_block(entry, exit_, block, cap))
    key = (compiled.block_digest(block), names[entry], names[exit_])
    cached = _BLOCK_PATHS.get(key)
    if cached is not None:
        return cached
    # a simple path inside the block visits each vertex at most once, so
    # len(block) links always over-covers the longest possible path
    paths = tuple(compiled._iter_block(entry, exit_, block, len(block)))
    with _STATS_LOCK:
        _STATS["block_enumerations"] += 1
    _M_BLOCK_ENUMERATIONS.inc()
    _BLOCK_PATHS.put(key, paths, weight=sum(map(len, paths)) + 1)
    return paths


def _enumerate(
    compiled: CompiledTopology,
    requester: str,
    provider: str,
    max_depth: Optional[int] = None,
    max_paths: Optional[int] = None,
    *,
    memo: bool = True,
) -> PathSet:
    """The one enumeration behind :func:`discover`, the delta path and the
    churn oracle.

    A ``max_paths`` query stays lazy (:meth:`CompiledTopology.iter_names`)
    and stops one path past the bound.  A full one splices the product of
    per-segment path lists along the block-cut tree, in seed DFS order.
    Segment lists come from the block memo unless *memo* is off or a
    ``max_depth`` bound caps them (memo entries are full enumerations).
    """
    result = PathSet(requester, provider)
    s = compiled.node_id(requester)
    t = compiled.node_id(provider)
    if max_paths is not None:
        iterator = compiled.iter_names(s, t, max_depth=max_depth)
        for path in iterator:
            result.paths.append(path)
            if len(result.paths) >= max_paths:
                # peek once so the flag truthfully reports whether paths
                # were cut
                if next(iterator, None) is not None:
                    result.truncated = True
                break
        return result
    plan = compiled._plan(s, t, max_depth)
    if plan is None:
        return result
    segments, limit, cap = plan
    if not segments:
        result.paths.append((compiled.names[s],))
        return result
    k = len(segments)
    memo = memo and max_depth is None
    per_segment = []
    for entry, exit_, block in segments:
        paths = _segment_paths(compiled, entry, exit_, block, cap, memo)
        if not paths:
            return result
        per_segment.append(paths)
    bounded = max_depth is not None
    for combo in product(*per_segment):
        if bounded and sum(map(len, combo)) - k > limit:
            continue
        path = combo[0]
        for piece in combo[1:]:
            path = path + piece[1:]
        result.paths.append(path)
    return result


def _decode_paths(key, arrays, meta) -> Tuple[Tuple[Path, ...], bool]:
    paths = tuple(_store.decode_paths(arrays, meta["names"]))
    return paths, bool(meta["truncated"])


def _encode_paths(value: Tuple[Tuple[Path, ...], bool]):
    paths, truncated = value
    arrays, names = _store.encode_paths(paths)
    return arrays, {"names": names, "truncated": truncated}


#: Memoized enumerations ``(paths, truncated)``, warm-started from
#: ``pathset`` artifacts; the weight is the total path elements.
_PATH_TIER = _store.Tier(
    "pathset",
    _PATHS,
    _encode_paths,
    _decode_paths,
    lambda value: sum(map(len, value[0])) + 1,
)


def discover(
    topology: Topology,
    requester: str,
    provider: str,
    *,
    max_depth: Optional[int] = None,
    max_paths: Optional[int] = None,
    use_cache: bool = True,
) -> PathSet:
    """Memoized all-paths discovery on the compiled topology.

    Two cache tiers back this: the in-process PathSet LRU and, when an
    artifact store is active (``REPRO_STORE``/``--store``), the on-disk
    enumeration keyed by the same (fingerprint, endpoints, bounds)
    tuple — a fresh process re-running a known campaign performs zero
    enumerations.  A miss assembles the result from the block memo it
    shares with :func:`discover_delta`.  ``use_cache=False`` bypasses
    every cache, the block memo included.
    """
    with _trace.span(
        "engine.discover", requester=requester, provider=provider
    ) as span:
        _check_endpoints(topology, requester, provider)
        compiled = compile_topology(topology)

        def enumerate_() -> Tuple[Tuple[Path, ...], bool]:
            span.set(cached=False)
            with _STATS_LOCK:
                _STATS["enumerations"] += 1
            _M_ENUMERATIONS.inc()
            result = _enumerate(
                compiled, requester, provider, max_depth, max_paths,
                memo=use_cache,
            )
            _M_PATHS_DISCOVERED.inc(len(result.paths))
            return tuple(result.paths), result.truncated

        if use_cache:
            span.set(cached=True)
            paths, truncated = _PATH_TIER.fetch(
                (compiled.fingerprint, requester, provider, max_depth,
                 max_paths),
                enumerate_,
            )
        else:
            paths, truncated = enumerate_()
        span.set(paths=len(paths))
        return PathSet(requester, provider, list(paths), truncated=truncated)


def count(
    topology: Topology,
    requester: str,
    provider: str,
    *,
    max_depth: Optional[int] = None,
    budget: Optional[int] = None,
) -> int:
    """Count simple paths on the compiled topology without storing them."""
    _check_endpoints(topology, requester, provider)
    compiled = compile_topology(topology)
    with _STATS_LOCK:
        _STATS["enumerations"] += 1
    s = compiled.node_id(requester)
    t = compiled.node_id(provider)
    total = compiled.count_simple_paths(s, t, max_depth=max_depth, budget=budget)
    if total < 0:
        raise PathDiscoveryError(
            f"path count between {requester!r} and {provider!r} exceeds "
            f"budget {budget}"
        )
    return total


def iterate(
    topology: Topology,
    requester: str,
    provider: str,
    *,
    max_depth: Optional[int] = None,
) -> Iterator[Path]:
    """Lazy enumeration on the compiled topology (no memoization —
    laziness and caching do not mix; use :func:`discover` for the cache)."""
    _check_endpoints(topology, requester, provider)
    compiled = compile_topology(topology)
    with _STATS_LOCK:
        _STATS["enumerations"] += 1
    return compiled.iter_names(
        compiled.node_id(requester),
        compiled.node_id(provider),
        max_depth=max_depth,
    )


def discover_many(
    topology: Topology,
    pairs: Iterable[Tuple[str, str]],
    *,
    max_depth: Optional[int] = None,
    max_paths: Optional[int] = None,
    use_cache: bool = True,
) -> Dict[Tuple[str, str], PathSet]:
    """Discover paths for many (requester, provider) pairs.

    Duplicate pairs are enumerated once; the result dict is keyed and
    built in first-seen pair order, so stored results stay deterministic.
    A failure never surfaces bare: the raised :class:`PathDiscoveryError`
    names the (requester, provider) pair that failed.
    """
    unique: List[Tuple[str, str]] = list(dict.fromkeys(tuple(p) for p in pairs))
    with _trace.span("engine.discover_many", pairs=len(unique)):
        results: Dict[Tuple[str, str], PathSet] = {}
        for requester, provider in unique:
            try:
                results[requester, provider] = discover(
                    topology,
                    requester,
                    provider,
                    max_depth=max_depth,
                    max_paths=max_paths,
                    use_cache=use_cache,
                )
            except Exception as exc:
                if isinstance(exc, PathDiscoveryError):
                    raise PathDiscoveryError(
                        f"pair ({requester!r}, {provider!r}): {exc}"
                    ) from exc
                raise PathDiscoveryError(
                    f"pair ({requester!r}, {provider!r}): discovery failed "
                    f"with {type(exc).__name__}: {exc}"
                ) from exc
        return results


# ---------------------------------------------------------------------------
# delta-aware discovery (block-level memoization for churned topologies)
# ---------------------------------------------------------------------------


def discover_delta(
    topology: Topology,
    requester: str,
    provider: str,
    *,
    use_cache: bool = True,
) -> PathSet:
    """Delta-aware all-paths discovery: splice cached block enumerations.

    The same assembly as an unbounded :func:`discover` — same paths in the
    same order, from the same *content-addressed* per-block memo: when the
    topology mutates, only the biconnected blocks whose induced subgraph
    changed are re-enumerated, and every untouched block's path list is
    spliced back into the result.  This is the recompute primitive of the
    live-churn engine (:mod:`repro.core.churn`): a link flap on a
    peripheral block re-enumerates that block alone, not the whole pair.

    The result is registered in the in-process PathSet LRU (never written
    through to the artifact store), so subsequent plain :func:`discover`
    calls (pipeline Step 7, analysis) hit it without re-assembly.
    ``use_cache=False`` skips only that PathSet tier, not the block memo.
    """
    _check_endpoints(topology, requester, provider)
    return discover_delta_compiled(
        compile_topology(topology), requester, provider, use_cache=use_cache
    )


def discover_delta_compiled(
    compiled: CompiledTopology,
    requester: str,
    provider: str,
    *,
    use_cache: bool = True,
) -> PathSet:
    """:func:`discover_delta` over an already-compiled topology.

    The live-churn evaluator compiles on the mutating thread (so the CSR
    arrays and fingerprint are a consistent snapshot) and hands the frozen
    compiled view to a deadline-bounded worker; an abandoned worker can
    then never observe — or cache results derived from — a half-mutated
    model.
    """
    with _trace.span(
        "engine.discover_delta", requester=requester, provider=provider
    ) as span:
        key = (compiled.fingerprint, requester, provider, None, None)
        hit = _PATHS.get(key) if use_cache else None
        if hit is not None:
            paths, truncated = hit
            span.set(cached=True, paths=len(paths))
            return PathSet(requester, provider, list(paths), truncated=truncated)
        result = _enumerate(compiled, requester, provider)
        with _STATS_LOCK:
            _STATS["delta_assemblies"] += 1
        _M_DELTA_ASSEMBLIES.inc()
        span.set(cached=False, paths=len(result.paths))
        if use_cache:
            _PATH_TIER.put(
                key, (tuple(result.paths), False), write_through=False
            )
        return result


def discover_many_delta(
    topology: Topology,
    pairs: Iterable[Tuple[str, str]],
    *,
    use_cache: bool = True,
) -> Dict[Tuple[str, str], PathSet]:
    """Delta-aware discovery for many pairs (duplicates enumerated once).

    Serial by design: the churn engine calls this once per event, and the
    per-pair work after warm block caches is assembly-only — fan-out
    overhead would dominate.  Worker failures name the failing pair,
    matching :func:`discover_many`.
    """
    unique: List[Tuple[str, str]] = list(dict.fromkeys(tuple(p) for p in pairs))
    compiled = compile_topology(topology)
    compiled.ensure_structure()
    with _trace.span("engine.discover_many_delta", pairs=len(unique)):
        results: Dict[Tuple[str, str], PathSet] = {}
        for requester, provider in unique:
            try:
                results[(requester, provider)] = discover_delta(
                    topology, requester, provider, use_cache=use_cache
                )
            except PathDiscoveryError as exc:
                raise PathDiscoveryError(
                    f"pair ({requester!r}, {provider!r}): {exc}"
                ) from exc
        return results
