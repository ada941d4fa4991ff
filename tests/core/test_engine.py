"""Tests for the compiled path-discovery engine.

Three layers of guarantees:

* **equivalence** — on every generator family the engine returns exactly
  the seed DFS's path sequence, and the same path *set* as the
  independent networkx oracle;
* **caching** — memoized PathSets are keyed on the topology fingerprint,
  so mutations invalidate implicitly and results are never stale;
* **pipeline economy** — one pipeline run enumerates each mapping pair
  exactly once (Step 8 reuses the Step-7 results).

The ``engine`` marker selects the differential part: the family
equivalence classes plus the one-block-walk checks (a hypothesis
differential over small generated graphs, dense blocks without chains,
and the count budget at its boundary).
"""

from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import engine
from repro.core.engine import (
    CompiledTopology,
    compile_topology,
    discover_many,
    engine_stats,
    path_cache_clear,
    reset_engine_stats,
)
from repro.core.mapping import ServiceMapping
from repro.core.pathdiscovery import (
    count_paths,
    discover_paths,
    discover_paths_networkx,
    discover_paths_reference,
    iter_paths,
)
from repro.core.pipeline import MethodologyPipeline
from repro.errors import PathDiscoveryError
from repro.network.builder import TopologyBuilder
from repro.network.generators import (
    balanced_tree,
    campus,
    complete,
    endpoints,
    erdos_renyi,
    generic_specs,
    ladder,
    ring,
)
from repro.network.topology import Topology


def _families():
    yield "tree", balanced_tree(2, 4)
    yield "tree-wide", balanced_tree(3, 3)
    yield "ring", ring(12)
    yield "ladder", ladder(6)
    yield "complete", complete(6)
    yield "campus", campus(dist_switches=3, edges_per_dist=2, clients_per_edge=2)
    yield "campus-dual", campus(
        dist_switches=3, edges_per_dist=2, clients_per_edge=2, dual_homed=True
    )
    for seed in (1, 2, 7, 13, 42):
        yield f"er-{seed}", erdos_renyi(16, 0.2, seed=seed)


FAMILIES = list(_families())
FAMILY_IDS = [name for name, _ in FAMILIES]
FAMILY_TOPOS = [Topology(builder.object_model) for _, builder in FAMILIES]


@pytest.fixture(autouse=True)
def _fresh_cache():
    path_cache_clear()
    engine.block_cache_clear()
    reset_engine_stats()
    yield
    path_cache_clear()
    engine.block_cache_clear()


@pytest.mark.engine
@pytest.mark.parametrize("topo", FAMILY_TOPOS, ids=FAMILY_IDS)
@pytest.mark.parametrize("max_depth", [None, 3, 5])
class TestEquivalence:
    def test_matches_networkx_set(self, topo, max_depth):
        oracle = discover_paths_networkx(
            topo, "client", "server", max_depth=max_depth
        )
        result = engine.discover(
            topo, "client", "server", max_depth=max_depth, use_cache=False
        )
        assert set(result.paths) == set(oracle.paths)

    def test_matches_reference_sequence(self, topo, max_depth):
        reference = discover_paths_reference(
            topo, "client", "server", max_depth=max_depth
        )
        result = engine.discover(
            topo, "client", "server", max_depth=max_depth, use_cache=False
        )
        assert result.paths == reference.paths
        assert result.truncated == reference.truncated

    def test_count_matches(self, topo, max_depth):
        reference = discover_paths_reference(
            topo, "client", "server", max_depth=max_depth
        )
        assert (
            engine.count(topo, "client", "server", max_depth=max_depth)
            == reference.count
        )


@pytest.mark.parametrize("topo", FAMILY_TOPOS, ids=FAMILY_IDS)
def test_truncation_matches_reference(topo):
    reference = discover_paths_reference(topo, "client", "server", max_paths=2)
    result = engine.discover(
        topo, "client", "server", max_paths=2, use_cache=False
    )
    assert result.paths == reference.paths
    assert result.truncated == reference.truncated


@pytest.mark.parametrize("topo", FAMILY_TOPOS, ids=FAMILY_IDS)
def test_iterate_is_lazy_and_equivalent(topo):
    iterator = engine.iterate(topo, "client", "server")
    reference = discover_paths_reference(topo, "client", "server")
    assert list(iterator) == reference.paths


def test_public_api_delegates_to_engine(usi_topo):
    """discover_paths/iter_paths/count_paths are the engine, same results."""
    reference = discover_paths_reference(usi_topo, "t1", "printS")
    assert discover_paths(usi_topo, "t1", "printS").paths == reference.paths
    assert list(iter_paths(usi_topo, "t1", "printS")) == reference.paths
    assert count_paths(usi_topo, "t1", "printS") == reference.count


# -- the one block walk ------------------------------------------------------


def _graph(n, edges):
    """A topology over switches ``v0 .. v{n-1}`` with the given links."""
    builder = TopologyBuilder("walk")
    for spec in generic_specs():
        builder.device_type(spec)
    for i in range(n):
        builder.add(f"v{i}", "DistSwitch")
    for a, b in edges:
        builder.connect(f"v{a}", f"v{b}")
    return Topology(builder.object_model)


def _assert_walk_matches_reference(topo, requester, provider, max_depth):
    reference = discover_paths_reference(
        topo, requester, provider, max_depth=max_depth
    )
    for use_cache in (False, True):  # plain walk, then the block memo
        result = engine.discover(
            topo, requester, provider, max_depth=max_depth,
            use_cache=use_cache,
        )
        assert result.paths == reference.paths
    lazy = engine.iterate(topo, requester, provider, max_depth=max_depth)
    assert list(lazy) == reference.paths
    assert (
        engine.count(topo, requester, provider, max_depth=max_depth)
        == reference.count
    )


@st.composite
def _walk_queries(draw):
    """(n, links, s, t, max_depth) over a simple graph with n <= 9.

    Three shapes: dense (the complete graph minus a few links, so blocks
    mostly have no degree-2 vertex and the walk condenses nothing),
    sparse (chain-heavy), and a row of complete blocks glued at cut
    vertices (a depth bound then cuts combinations across blocks).
    """
    n = draw(st.integers(2, 9))
    pairs = list(combinations(range(n), 2))
    shape = draw(st.sampled_from(["dense", "sparse", "blocks"]))
    if shape == "dense":
        dropped = set(draw(st.lists(st.sampled_from(pairs), max_size=n // 2)))
        edges = [pair for pair in pairs if pair not in dropped]
    elif shape == "sparse":
        edges = draw(
            st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)
        )
    else:
        cuts = (
            draw(st.lists(st.integers(1, n - 2), unique=True, max_size=3))
            if n > 2
            else []
        )
        bounds = [0, *sorted(cuts), n - 1]
        edges = [
            pair
            for lo, hi in zip(bounds, bounds[1:])
            for pair in combinations(range(lo, hi + 1), 2)
        ]
    s = draw(st.integers(0, n - 1))
    t = draw(st.integers(0, n - 1))
    max_depth = draw(st.one_of(st.none(), st.integers(1, n)))
    return n, edges, s, t, max_depth


@pytest.mark.engine
@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(_walk_queries())
def test_walk_differential_on_generated_graphs(query):
    n, edges, s, t, max_depth = query
    _assert_walk_matches_reference(_graph(n, edges), f"v{s}", f"v{t}", max_depth)


#: Dense biconnected graphs without a degree-2 vertex: chain condensation
#: has nothing to smooth, so every condensed edge is a single link.
DENSE = {
    "complete-6": (6, list(combinations(range(6), 2))),
    "k33": (6, [(a, b) for a in range(3) for b in range(3, 6)]),
    "wheel-7": (
        7,
        [(0, i) for i in range(1, 7)]
        + [(i, i % 6 + 1) for i in range(1, 7)],
    ),
    # three K4 blocks glued at cut vertices v3 and v6
    "k4-row": (
        10,
        [
            pair
            for lo in (0, 3, 6)
            for pair in combinations(range(lo, lo + 4), 2)
        ],
    ),
    "petersen": (
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)],
    ),
}


@pytest.mark.engine
@pytest.mark.parametrize("name", sorted(DENSE))
def test_dense_block_walk(name):
    n, edges = DENSE[name]
    topo = _graph(n, edges)
    compiled = compile_topology(topo)
    s, t = compiled.node_id("v1"), compiled.node_id(f"v{n - 1}")
    for entry, exit_, block in compiled.segments(s, t):
        condensed = compiled._condense(
            entry, exit_, block, compiled._block_adjacency(block)
        )
        assert all(
            not interior
            for out_edges in condensed.values()
            for _, interior, _, _ in out_edges
        )
    for max_depth in (None, *range(1, n + 1)):
        _assert_walk_matches_reference(topo, "v1", f"v{n - 1}", max_depth)


def _campus_dual():
    return Topology(
        campus(
            dist_switches=3, edges_per_dist=2, clients_per_edge=2,
            dual_homed=True,
        ).object_model
    )


@pytest.mark.engine
@pytest.mark.parametrize(
    "make, requester, provider, max_depth, blocks",
    [
        # one block (sw0 and sw5 are both inside the complete core)
        (lambda: Topology(complete(6).object_model), "sw0", "sw5", None, 1),
        # a chain of blocks: bridges around the dual-homed core
        (_campus_dual, "client", "server", None, 3),
        # depth-bounded, single block and across blocks (the bound cuts
        # combinations of the three K4 blocks)
        (lambda: Topology(complete(6).object_model), "sw0", "sw5", 3, 1),
        (lambda: _graph(*DENSE["k4-row"]), "v0", "v9", 5, 3),
    ],
    ids=["single-block", "multi-block", "bounded-single", "bounded-multi"],
)
def test_count_budget_boundary(make, requester, provider, max_depth, blocks):
    topo = make()
    compiled = compile_topology(topo)
    segments = compiled.segments(
        compiled.node_id(requester), compiled.node_id(provider)
    )
    assert len(segments) == blocks
    c = discover_paths_reference(
        topo, requester, provider, max_depth=max_depth
    ).count
    assert c > 1
    assert (
        engine.count(topo, requester, provider, max_depth=max_depth, budget=c)
        == c
    )
    with pytest.raises(PathDiscoveryError, match="budget"):
        engine.count(
            topo, requester, provider, max_depth=max_depth, budget=c - 1
        )


@pytest.mark.engine
@pytest.mark.parametrize("max_depth", [None, 6])
def test_count_budget_exits_early_on_one_block(monkeypatch, max_depth):
    """Over budget, a single-block count stops one path past the budget
    instead of walking the block's ~2,000 sw0-sw7 paths to the end."""
    walk = CompiledTopology._iter_block
    pulled = []

    def counting_walk(self, *args):
        for path in walk(self, *args):
            pulled.append(path)
            yield path

    monkeypatch.setattr(CompiledTopology, "_iter_block", counting_walk)
    compiled = compile_topology(Topology(complete(8).object_model))
    s, t = compiled.node_id("sw0"), compiled.node_id("sw7")
    assert len(compiled.segments(s, t)) == 1
    assert compiled.count_simple_paths(s, t, max_depth=max_depth, budget=10) == -1
    assert len(pulled) == 11


class TestCompiledTopology:
    def test_fingerprint_is_stable(self, usi_topo):
        assert usi_topo.fingerprint() == usi_topo.fingerprint()

    def test_compile_is_reused_for_unchanged_topology(self, usi_topo):
        first = compile_topology(usi_topo)
        second = compile_topology(usi_topo)
        assert first is second

    def test_segments_chain_multiplies_counts(self):
        """client->edge->dist->core-block->...: bridges factor out and the
        total count is the product of per-segment counts."""
        topo = Topology(
            campus(dist_switches=2, edges_per_dist=2, clients_per_edge=2)
            .object_model
        )
        compiled = compile_topology(topo)
        s = compiled.node_id("client")
        t = compiled.node_id("server")
        segments = compiled.segments(s, t)
        assert segments is not None
        assert len(segments) > 1  # the periphery contributes bridge segments
        assert segments[0][0] == s
        assert segments[-1][1] == t
        for (_, exit_a, _), (entry_b, _, _) in zip(segments, segments[1:]):
            assert exit_a == entry_b  # joined at cut vertices
        assert compiled.count_simple_paths(s, t) == len(
            discover_paths_networkx(topo, "client", "server").paths
        )

    def test_disconnected_pair_yields_no_paths(self):
        from repro.network.builder import TopologyBuilder
        from repro.network.generators import generic_specs

        builder = TopologyBuilder("split")
        for spec in generic_specs():
            builder.device_type(spec)
        builder.add("client", "GenClient")
        builder.add("server", "GenServer")
        builder.add("lonely", "EdgeSwitch")
        builder.connect("client", "lonely")
        topo = Topology(builder.object_model)
        assert engine.discover(topo, "client", "server").paths == []
        assert engine.count(topo, "client", "server") == 0


class TestMemoization:
    def test_repeated_query_hits_cache(self, usi_topo):
        engine.discover(usi_topo, "t1", "printS")
        before = engine_stats()
        again = engine.discover(usi_topo, "t1", "printS")
        after = engine_stats()
        assert after["enumerations"] == before["enumerations"]  # no new DFS
        assert after["path_cache_hits"] == before["path_cache_hits"] + 1
        assert again.paths == discover_paths_reference(usi_topo, "t1", "printS").paths

    def test_cached_result_is_a_fresh_pathset(self, usi_topo):
        first = engine.discover(usi_topo, "t1", "printS")
        first.paths.append(("bogus",))
        second = engine.discover(usi_topo, "t1", "printS")
        assert ("bogus",) not in second.paths

    def test_mutation_invalidates_via_fingerprint(self):
        builder = campus(dist_switches=2, edges_per_dist=2, clients_per_edge=2)
        topo = Topology(builder.object_model)
        stale = engine.discover(topo, "client", "server")
        old_fingerprint = topo.fingerprint()
        builder.connect("edge0_0", "edge1_0")  # live mutation of the model
        assert topo.fingerprint() != old_fingerprint
        fresh = engine.discover(topo, "client", "server")
        oracle = discover_paths_networkx(topo, "client", "server")
        assert set(fresh.paths) == set(oracle.paths)
        assert len(fresh.paths) > len(stale.paths)

    def test_use_cache_false_bypasses(self, usi_topo):
        engine.discover(usi_topo, "t1", "printS")
        before = engine_stats()
        engine.discover(usi_topo, "t1", "printS", use_cache=False)
        after = engine_stats()
        assert after["enumerations"] == before["enumerations"] + 1

    def test_budget_exceeded_raises(self):
        topo = Topology(complete(6).object_model)
        with pytest.raises(PathDiscoveryError, match="budget"):
            engine.count(topo, "client", "server", budget=3)


class TestDiscoverMany:
    PAIRS = [("t1", "printS"), ("p2", "printS"), ("t1", "printS")]

    def test_duplicate_pairs_enumerate_once(self, usi_topo):
        reset_engine_stats()
        discover_many(usi_topo, self.PAIRS, use_cache=False)
        assert engine_stats()["enumerations"] == 2  # two unique pairs


class TestPipelineSingleEnumeration:
    def test_one_enumeration_per_pair_per_run(
        self, usi, printing, table1, monkeypatch
    ):
        """Step 8 must reuse Step 7's PathSets: the pipeline performs
        exactly one enumeration per unique mapping pair and never falls
        back to ad-hoc discovery inside generate_upsim."""

        def _forbidden(*args, **kwargs):
            raise AssertionError(
                "generate_upsim re-discovered paths during a pipeline run"
            )

        monkeypatch.setattr(
            "repro.core.upsim.discover_paths", _forbidden
        )
        pipeline = (
            MethodologyPipeline()
            .set_infrastructure(usi)
            .set_service(printing)
            .set_mapping(table1)
        )
        path_cache_clear()
        reset_engine_stats()
        report = pipeline.run()
        unique_pairs = {
            (pair.requester, pair.provider)
            for pair in table1.pairs_for_service(printing)
        }
        assert engine_stats()["enumerations"] == len(unique_pairs)
        assert report.upsim is not None
        assert report.upsim.component_count > 0

    def test_pipeline_upsim_unchanged_by_threading(self, usi, printing, table1):
        serial = (
            MethodologyPipeline()
            .set_infrastructure(usi)
            .set_service(printing)
            .set_mapping(table1)
            .run()
        )
        threaded = (
            MethodologyPipeline()
            .set_infrastructure(usi)
            .set_service(printing)
            .set_mapping(table1)
            .run()
        )
        assert serial.upsim is not None and threaded.upsim is not None
        assert (
            serial.upsim.signatures() == threaded.upsim.signatures()
        )
        assert serial.upsim.path_sets.keys() == threaded.upsim.path_sets.keys()
        for key in serial.upsim.path_sets:
            assert (
                serial.upsim.path_sets[key].paths
                == threaded.upsim.path_sets[key].paths
            )


@pytest.mark.parametrize("topo", FAMILY_TOPOS, ids=FAMILY_IDS)
class TestDeltaDiscovery:
    """Block-spliced delta assembly returns exactly the monolithic-DFS
    sequence on every family."""

    def test_matches_reference_sequence(self, topo):
        reference = discover_paths_reference(topo, "client", "server")
        result = engine.discover_delta(topo, "client", "server", use_cache=False)
        assert result.paths == reference.paths
        assert not result.truncated

    def test_cached_delta_matches(self, topo):
        first = engine.discover_delta(topo, "client", "server")
        second = engine.discover_delta(topo, "client", "server")
        assert first.paths == second.paths

    def test_delta_result_feeds_plain_discover(self, topo):
        """A delta result lands in the shared path cache, so a later
        full-depth discover() is a pure cache hit."""
        engine.discover_delta(topo, "client", "server")
        before = engine_stats()
        result = engine.discover(topo, "client", "server")
        after = engine_stats()
        assert after["enumerations"] == before["enumerations"]
        assert result.paths == discover_paths_reference(
            topo, "client", "server"
        ).paths


class TestBlockCacheReuse:
    @staticmethod
    def _two_block_topology():
        """client - [ring block] - bridge - [K4 block] - server."""
        from repro.network.builder import TopologyBuilder
        from repro.network.generators import generic_specs

        builder = TopologyBuilder("two-blocks")
        for spec in generic_specs():
            builder.device_type(spec)
        builder.add("client", "GenClient")
        builder.add("server", "GenServer")
        for name in ("r1a", "r1b", "r1c", "r1d", "k2a", "k2b", "k2c", "k2d"):
            builder.add(name, "DistSwitch")
        for a, b in [("r1a", "r1b"), ("r1b", "r1c"), ("r1c", "r1d"),
                     ("r1d", "r1a")]:
            builder.connect(a, b)
        for a, b in [("k2a", "k2b"), ("k2a", "k2c"), ("k2a", "k2d"),
                     ("k2b", "k2c"), ("k2b", "k2d"), ("k2c", "k2d")]:
            builder.connect(a, b)
        builder.connect("client", "r1a")
        builder.connect("r1c", "k2a")  # the cut vertex chain
        builder.connect("k2c", "server")
        return builder.object_model

    def test_untouched_blocks_reused_after_mutation(self):
        model = self._two_block_topology()
        topo = Topology(model)
        engine.discover_delta(topo, "client", "server", use_cache=False)
        enumerated_first = engine_stats()["block_enumerations"]
        assert enumerated_first == 2  # the ring and the K4
        # cut a link inside the K4; the ring keeps its digest, so only
        # the touched block is re-enumerated (K4 minus an edge is still
        # biconnected)
        model.remove_link("k2b", "k2d")
        engine.discover_delta(topo, "client", "server", use_cache=False)
        assert engine_stats()["block_enumerations"] == enumerated_first + 1
        reference = discover_paths_reference(topo, "client", "server")
        spliced = engine.discover_delta(
            topo, "client", "server", use_cache=False
        )
        assert spliced.paths == reference.paths

    def test_discover_fills_the_block_memo_delta_reads(self):
        """discover and discover_delta assemble from one block memo: once
        discover has run, a delta of the same pair enumerates no block."""
        topo = Topology(self._two_block_topology())
        full = engine.discover(topo, "client", "server")
        path_cache_clear()
        before = engine_stats()["block_enumerations"]
        delta = engine.discover_delta(topo, "client", "server")
        assert engine_stats()["block_enumerations"] == before
        assert delta.paths == full.paths

    def test_uncached_routes_leave_the_block_memo_alone(self):
        """discover(use_cache=False) and the full-recompile churn oracle
        touch no cache, so the oracle stays independent of what it checks."""
        from repro.core.churn import ChurnPolicy, LiveEvaluator

        model = self._two_block_topology()
        before = engine.block_cache_info()
        engine.discover(Topology(model), "client", "server", use_cache=False)
        LiveEvaluator(
            model, [("client", "server")], policy=ChurnPolicy(delta=False)
        )
        assert engine.block_cache_info() == before

    def test_block_cache_info_shape(self):
        info = engine.block_cache_info()
        assert {"hits", "misses", "currsize", "maxsize", "weight"} <= set(info)

    def test_digest_is_id_independent(self):
        """Two structurally identical models share block digests, so a
        twin model's delta discovery is enumeration-free."""
        topo_a = Topology(campus(dist_switches=2, edges_per_dist=2,
                                 clients_per_edge=2).object_model)
        topo_b = Topology(campus(dist_switches=2, edges_per_dist=2,
                                 clients_per_edge=2).object_model)
        engine.discover_delta(topo_a, "client", "server", use_cache=False)
        before = engine_stats()["block_enumerations"]
        engine.discover_delta(topo_b, "client", "server", use_cache=False)
        assert engine_stats()["block_enumerations"] == before


class TestDiscoverManyDelta:
    PAIRS = [("client", "server"), ("client2", "server"), ("client", "server")]

    def test_matches_reference(self):
        topo = Topology(
            campus(dist_switches=3, edges_per_dist=2, clients_per_edge=2,
                   dual_homed=True).object_model
        )
        results = engine.discover_many_delta(topo, self.PAIRS)
        assert set(results) == {("client", "server"), ("client2", "server")}
        for (requester, provider), path_set in results.items():
            reference = discover_paths_reference(topo, requester, provider)
            assert path_set.paths == reference.paths

    def test_unknown_pair_names_the_pair(self):
        topo = Topology(ring(6).object_model)
        with pytest.raises(PathDiscoveryError, match="ghost"):
            engine.discover_many_delta(topo, [("client", "ghost")])
