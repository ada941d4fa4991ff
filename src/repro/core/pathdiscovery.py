"""Path discovery: all simple paths between requester and provider.

Methodology Step 7 (Sections V-D, VI-G): "the service mapping pair gives
the initial and final boundaries of the ICT infrastructure used by a
specific atomic service.  A path discovery algorithm is then used to
identify all possible paths between requester and provider."  The paper
implements "a depth-first search (DFS) algorithm with a path tracking
mechanism to avoid live-locks within cycles" and notes the worst-case
complexity "reaching O(n!) for a fully interconnected graph of n nodes".

This module provides:

* :func:`discover_paths` — the all-paths enumerator (delegating to the
  compiled engine in :mod:`repro.core.engine`: integer-ID CSR DFS with
  block-cut-tree pruning and fingerprint-keyed memoization), with
  optional depth/count budgets for the combinatorial worst case;
* :func:`count_paths` — enumeration without storing paths, for the
  scalability sweeps;
* :func:`iter_paths` — the lazy engine-backed iterator;
* :func:`iter_paths_reference` / :func:`discover_paths_reference` — the
  seed string-keyed DFS (iterative, so deep tree-like peripheries cannot
  hit Python's recursion limit; the on-path set is the paper's
  path-tracking mechanism), kept as a second oracle and as the baseline
  the engine benchmarks measure against;
* :func:`discover_paths_networkx` — an independent baseline built on
  :func:`networkx.all_simple_paths`, used by the test-suite to cross-check
  both enumerators on every topology family;
* :class:`PathSet` — the result container, with the node/link union that
  UPSIM generation consumes (Step 8 merges paths "into a single network
  topology").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import PathDiscoveryError
from repro.network.topology import Topology

__all__ = [
    "Path",
    "PathSet",
    "discover_paths",
    "count_paths",
    "discover_paths_networkx",
    "iter_paths",
    "iter_paths_reference",
    "discover_paths_reference",
]

#: A path is the ordered tuple of visited instance names, endpoints included.
Path = Tuple[str, ...]


@dataclass
class PathSet:
    """All discovered paths for one (requester, provider) pair."""

    requester: str
    provider: str
    paths: List[Path] = field(default_factory=list)
    truncated: bool = False

    @property
    def count(self) -> int:
        return len(self.paths)

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self) -> Iterator[Path]:
        return iter(self.paths)

    def __bool__(self) -> bool:
        return bool(self.paths)

    def nodes(self) -> Set[str]:
        """Union of all visited nodes — the component set the pair's atomic
        service depends on ("only nodes which appear at least once in the
        discovered paths are preserved.  Multiple occurrences are ignored",
        Section VI-H)."""
        result: Set[str] = set()
        for path in self.paths:
            result.update(path)
        return result

    def links(self) -> Set[Tuple[str, str]]:
        """Union of traversed links as sorted name pairs."""
        result: Set[Tuple[str, str]] = set()
        for path in self.paths:
            for a, b in zip(path, path[1:]):
                result.add((a, b) if a <= b else (b, a))
        return result

    def shortest(self) -> Path:
        if not self.paths:
            raise PathDiscoveryError(
                f"no path between {self.requester!r} and {self.provider!r}"
            )
        return min(self.paths, key=len)

    def longest(self) -> Path:
        if not self.paths:
            raise PathDiscoveryError(
                f"no path between {self.requester!r} and {self.provider!r}"
            )
        return max(self.paths, key=len)

    def hop_counts(self) -> List[int]:
        """Number of links per path, in discovery order."""
        return [len(path) - 1 for path in self.paths]

    def as_strings(self) -> List[str]:
        """Paths rendered like the paper's §VI-G listing:
        ``t1—e1—d1—c1—d4—printS``."""
        return ["—".join(path) for path in self.paths]


def _check_endpoints(topology: Topology, requester: str, provider: str) -> None:
    for role, node in (("requester", requester), ("provider", provider)):
        if not topology.has_node(node):
            raise PathDiscoveryError(
                f"{role} {node!r} is not a component of topology "
                f"{topology.name!r}"
            )


def iter_paths_reference(
    topology: Topology,
    requester: str,
    provider: str,
    *,
    max_depth: Optional[int] = None,
) -> Iterator[Path]:
    """The seed DFS: lazily yield all simple requester→provider paths.

    The DFS keeps an *on-path* set — the paper's "path tracking mechanism
    to avoid live-locks within cycles" — so each node appears at most once
    per path.  ``max_depth`` bounds the number of links per path.

    The iteration order is deterministic: neighbors are explored in the
    order links were added to the model.  The compiled engine preserves
    this exact order; the equivalence suite and the benchmarks use this
    function as the seed baseline.
    """
    _check_endpoints(topology, requester, provider)
    if requester == provider:
        yield (requester,)
        return
    limit = max_depth if max_depth is not None else topology.node_count()
    if limit < 1:
        return

    # per-call adjacency memo: the DFS revisits nodes many times and
    # rebuilding neighbor lists from the UML model dominates the profile
    # (the model must not mutate during enumeration anyway)
    adjacency: Dict[str, List[str]] = {}

    def neighbors_of(node_name: str) -> List[str]:
        cached = adjacency.get(node_name)
        if cached is None:
            cached = topology.neighbors(node_name)
            adjacency[node_name] = cached
        return cached

    path: List[str] = [requester]
    on_path: Set[str] = {requester}
    # stack of neighbor iterators, one per path position
    stack: List[Iterator[str]] = [iter(neighbors_of(requester))]
    while stack:
        children = stack[-1]
        node = next(children, None)
        if node is None:
            stack.pop()
            on_path.discard(path.pop())
            continue
        if node in on_path:
            continue  # path tracking: never revisit a node on the current path
        if node == provider:
            yield tuple(path) + (node,)
            continue
        if len(path) >= limit:
            continue
        path.append(node)
        on_path.add(node)
        stack.append(iter(neighbors_of(node)))


def discover_paths_reference(
    topology: Topology,
    requester: str,
    provider: str,
    *,
    max_depth: Optional[int] = None,
    max_paths: Optional[int] = None,
) -> PathSet:
    """Seed-DFS counterpart of :func:`discover_paths` (no compilation,
    no pruning, no memoization) — the benchmark baseline."""
    result = PathSet(requester, provider)
    iterator = iter_paths_reference(
        topology, requester, provider, max_depth=max_depth
    )
    for path in iterator:
        result.paths.append(path)
        if max_paths is not None and len(result.paths) >= max_paths:
            # peek once so the flag truthfully reports whether paths were cut
            if next(iterator, None) is not None:
                result.truncated = True
            break
    return result


def iter_paths(
    topology: Topology,
    requester: str,
    provider: str,
    *,
    max_depth: Optional[int] = None,
) -> Iterator[Path]:
    """Lazily yield all simple requester→provider paths (DFS order).

    Delegates to the compiled engine (:mod:`repro.core.engine`): the DFS
    runs over integer ids with block-cut-tree pruning, in exactly the
    deterministic neighbor order of the seed implementation.
    """
    from repro.core import engine

    return engine.iterate(
        topology, requester, provider, max_depth=max_depth
    )


def discover_paths(
    topology: Topology,
    requester: str,
    provider: str,
    *,
    max_depth: Optional[int] = None,
    max_paths: Optional[int] = None,
) -> PathSet:
    """Enumerate all simple paths between *requester* and *provider*.

    Delegates to the compiled engine, which memoizes the result keyed on
    the topology fingerprint — repeated queries for the same pair on an
    unchanged topology are cache hits.

    Parameters
    ----------
    max_depth:
        Optional bound on links per path.  Unbounded by default.
    max_paths:
        Optional budget on the number of stored paths.  When the budget is
        hit the result is flagged ``truncated=True`` and enumeration stops —
        necessary on dense graphs where the full count is factorial
        (Section V-D).
    """
    from repro.core import engine

    return engine.discover(
        topology,
        requester,
        provider,
        max_depth=max_depth,
        max_paths=max_paths,
    )


def count_paths(
    topology: Topology,
    requester: str,
    provider: str,
    *,
    max_depth: Optional[int] = None,
    budget: Optional[int] = None,
) -> int:
    """Count simple paths without storing them.

    With *budget*, raises :class:`PathDiscoveryError` once the count
    exceeds the budget — the guard rail the scalability benchmarks use on
    the factorial families.
    """
    from repro.core import engine

    return engine.count(
        topology,
        requester,
        provider,
        max_depth=max_depth,
        budget=budget,
    )


def discover_paths_networkx(
    topology: Topology,
    requester: str,
    provider: str,
    *,
    max_depth: Optional[int] = None,
) -> PathSet:
    """Baseline enumerator built on :func:`networkx.all_simple_paths`.

    Produces the same path *set* as :func:`discover_paths` (order may
    differ); the tests assert set equality on every topology family.
    """
    import networkx as nx

    _check_endpoints(topology, requester, provider)
    graph = topology.to_networkx()
    result = PathSet(requester, provider)
    if requester == provider:
        result.paths.append((requester,))
        return result
    cutoff = max_depth if max_depth is not None else topology.node_count()
    for path in nx.all_simple_paths(graph, requester, provider, cutoff=cutoff):
        result.paths.append(tuple(path))
    return result
