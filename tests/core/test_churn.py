"""Tests for the live-churn engine (repro.core.churn).

The headline property: across every topology family and seeded event
stream, the delta-aware evaluator (one nominal kernel conditioned on
each epoch's down set) produces results equal to a full-recompile
oracle — path lists exactly, availabilities to 1e-12 — including when
failures are injected mid-stream.  The robustness contract is tested
directly: deadline overruns degrade to explicitly-stale serving of the
last-good epoch, poison events are quarantined with rollback, and the
evaluator never crashes or serves a mixed epoch.
"""

import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.churn import (
    ChurnPolicy,
    ChurnStream,
    ComponentCrash,
    ComponentRestore,
    LinkCut,
    LinkFlap,
    LinkRestore,
    LiveEvaluator,
    MigrateProvider,
    MoveUser,
)
from repro.core.engine import block_cache_clear, path_cache_clear
from repro.dependability import bdd
from repro.dependability.bdd import kernel_cache_clear
from repro.errors import AnalysisError, PathDiscoveryError, TopologyError
from repro.network.generators import (
    balanced_tree,
    campus,
    complete,
    erdos_renyi,
    ladder,
    ring,
)
from tests.conftest import always_sift

TOLERANCE = 1e-12

FAMILY_BUILDERS = {
    "tree": lambda: balanced_tree(2, 4),
    "ring": lambda: ring(12),
    "ladder": lambda: ladder(6),
    "complete": lambda: complete(6),
    "campus": lambda: campus(
        dist_switches=3, edges_per_dist=2, clients_per_edge=2, dual_homed=True
    ),
    "er": lambda: erdos_renyi(16, 0.2, seed=7),
}

PAIRS = [("client", "server")]


@pytest.fixture(autouse=True)
def _fresh_caches():
    path_cache_clear()
    block_cache_clear()
    kernel_cache_clear()
    yield
    path_cache_clear()
    block_cache_clear()
    kernel_cache_clear()


def _evaluators(family):
    """A delta evaluator and a full-recompile oracle over twin models."""
    delta = LiveEvaluator(FAMILY_BUILDERS[family]().object_model, PAIRS)
    oracle = LiveEvaluator(
        FAMILY_BUILDERS[family]().object_model,
        PAIRS,
        policy=ChurnPolicy(delta=False),
    )
    return delta, oracle


def _assert_equivalent(delta, oracle):
    a = delta.snapshot().snapshot
    b = oracle.snapshot().snapshot
    assert abs(a.availability - b.availability) < TOLERANCE
    assert a.disconnected == b.disconnected
    assert set(a.path_sets) == set(b.path_sets)
    for pair, path_set in a.path_sets.items():
        assert path_set.paths == b.path_sets[pair].paths, pair
    for pair, value in a.pair_availability.items():
        assert abs(value - b.pair_availability[pair]) < TOLERANCE, pair


@pytest.mark.churn
class TestDeltaOracleEquivalence:
    """Satellite: delta results match the full-recompile oracle to 1e-12
    across seeded churn streams on the six topology families."""

    @pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
    @pytest.mark.parametrize("seed", [1, 42])
    def test_family_stream(self, family, seed):
        delta, oracle = _evaluators(family)
        events = list(
            ChurnStream(
                FAMILY_BUILDERS[family]().object_model, PAIRS, seed=seed
            ).events(40)
        )
        report_delta = delta.run(iter(events))
        report_oracle = oracle.run(iter(events))
        # both evaluators see the identical stream, so any quarantining
        # (e.g. ambiguous re-link after a crash) happens symmetrically
        assert [repr(q.event) for q in report_delta.quarantined] == [
            repr(q.event) for q in report_oracle.quarantined
        ]
        assert not delta.snapshot().stale
        _assert_equivalent(delta, oracle)

    def test_equivalence_at_every_epoch(self):
        """Not only the final state: every published epoch matches."""
        delta, oracle = _evaluators("campus")
        events = list(
            ChurnStream(
                FAMILY_BUILDERS["campus"]().object_model, PAIRS, seed=9
            ).events(25)
        )
        for event in events:
            delta.run(iter([event]))
            oracle.run(iter([event]))
            _assert_equivalent(delta, oracle)

    @pytest.mark.reorder
    def test_sifted_nominal_kernel_every_epoch(self):
        """A sifted nominal kernel: every epoch conditioned on it still
        matches the unsifted full-recompile oracle."""

        def model():
            return campus(
                dist_switches=2, edges_per_dist=2, clients_per_edge=2
            ).object_model

        pairs = [("client", "server"), ("client2", "server")]
        passes = bdd._M_REORDER_PASSES.value
        with always_sift():
            live = LiveEvaluator(model(), pairs)
        assert bdd._M_REORDER_PASSES.value > passes
        oracle = LiveEvaluator(model(), pairs, policy=ChurnPolicy(delta=False))
        events = list(ChurnStream(model(), pairs, seed=5).events(60))
        for event in events:
            with always_sift():
                live.run(iter([event]))
            oracle.run(iter([event]))
            _assert_equivalent(live, oracle)

    def test_mobility_events_equivalent(self):
        delta, oracle = _evaluators("campus")
        events = [
            MigrateProvider("server", "core1"),
            LinkFlap("core1", "core2"),
            MoveUser("client", "client2"),
            LinkCut("dist0", "core1"),
        ]
        delta.run(iter(events))
        oracle.run(iter(events))
        assert delta.pairs == oracle.pairs == [("client2", "core1")]
        _assert_equivalent(delta, oracle)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_mid_stream_failure_injection(self, seed):
        """Injected recompute failures quarantine + roll back the hit
        events; the surviving stream still matches the oracle."""
        delta, oracle = _evaluators("campus")
        delta.policy = ChurnPolicy(max_retries=0, backoff=0.0)
        events = list(
            ChurnStream(
                FAMILY_BUILDERS["campus"]().object_model, PAIRS, seed=seed
            ).events(30)
        )
        fail_at = {7, 19}  # recompute calls that blow up (0-based events)
        original = delta._compute
        seen = {"n": 0}

        def flaky(*args, **kwargs):
            index = seen["n"]
            seen["n"] += 1
            if index in fail_at:
                raise PathDiscoveryError("injected mid-stream fault")
            return original(*args, **kwargs)

        delta._compute = flaky
        report = delta.run(iter(events))
        delta._compute = original
        assert len(report.quarantined) == 2
        assert all(q.rolled_back for q in report.quarantined)
        assert not delta.snapshot().stale
        # rollback means the delta model is as if the poisoned events
        # never arrived — replay the surviving stream through the oracle
        poisoned = [q.event for q in report.quarantined]
        survivors = [
            event
            for event in events
            if all(event is not bad for bad in poisoned)
        ]
        oracle.run(iter(survivors))
        _assert_equivalent(delta, oracle)


class TestChurnStream:
    def test_deterministic(self):
        model = FAMILY_BUILDERS["campus"]().object_model
        a = list(ChurnStream(model, PAIRS, seed=5).events(50))
        model2 = FAMILY_BUILDERS["campus"]().object_model
        b = list(ChurnStream(model2, PAIRS, seed=5).events(50))
        assert a == b

    def test_different_seeds_differ(self):
        model = FAMILY_BUILDERS["campus"]().object_model
        a = list(ChurnStream(model, PAIRS, seed=1).events(50))
        model2 = FAMILY_BUILDERS["campus"]().object_model
        b = list(ChurnStream(model2, PAIRS, seed=2).events(50))
        assert a != b

    def test_endpoints_never_crash(self):
        model = FAMILY_BUILDERS["campus"]().object_model
        events = list(ChurnStream(model, PAIRS, seed=4).events(300))
        crashed = {e.name for e in events if isinstance(e, ComponentCrash)}
        assert "client" not in crashed and "server" not in crashed

    def test_weight_validation(self):
        model = FAMILY_BUILDERS["ring"]().object_model
        with pytest.raises(TopologyError):
            ChurnStream(model, PAIRS, weights=(1.0,))
        with pytest.raises(TopologyError):
            ChurnStream(model, PAIRS, weights=(0.0,) * 7)

    def test_mobility_opt_in(self):
        model = FAMILY_BUILDERS["campus"]().object_model
        plain = ChurnStream(model, PAIRS, seed=6).events(200)
        assert not any(
            isinstance(e, (MigrateProvider, MoveUser)) for e in plain
        )
        model2 = FAMILY_BUILDERS["campus"]().object_model
        mobile = ChurnStream(
            model2,
            PAIRS,
            seed=6,
            mobility=True,
            weights=(1, 1, 1, 0, 0, 10, 10),
        ).events(50)
        assert any(isinstance(e, (MigrateProvider, MoveUser)) for e in mobile)

    def test_exhausted_stream_raises_instead_of_yielding_none(self):
        # crash-only weights: once every non-endpoint node is down, each
        # down link touches a crashed node, so nothing is applicable
        stream = ChurnStream(
            ring(6).object_model, PAIRS, weights=(0, 0, 0, 1, 0, 0, 0)
        )
        events = stream.events(8)
        head = [next(events) for _ in range(6)]
        assert all(isinstance(e, ComponentCrash) for e in head)
        with pytest.raises(TopologyError, match="no applicable events"):
            next(events)


class TestChurnPolicy:
    def test_boundary_values_accepted(self):
        policy = ChurnPolicy(
            deadline=None, max_retries=0, backoff=0.0, coalesce_window=1
        )
        assert policy.max_retries == 0 and policy.coalesce_window == 1
        assert ChurnPolicy(deadline=1e-9).deadline == 1e-9

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"coalesce_window": 0},
            {"coalesce_window": -3},
            {"backoff": -0.01},
            {"backoff": float("nan")},
            {"deadline": 0.0},
            {"deadline": -1.0},
            {"deadline": float("nan")},
        ],
        ids=lambda kwargs: ",".join(f"{k}={v}" for k, v in kwargs.items()),
    )
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(AnalysisError):
            ChurnPolicy(**kwargs)


class TestStateSettingSemantics:
    """Churn events are idempotent state setters — the property that
    makes last-wins coalescing sound."""

    def _evaluator(self):
        return LiveEvaluator(FAMILY_BUILDERS["campus"]().object_model, PAIRS)

    def test_cut_twice_is_noop(self):
        ev = self._evaluator()
        ev.run(iter([LinkCut("core1", "core2"), LinkCut("core1", "core2")]))
        assert ev.model.find_link("core1", "core2") is None
        assert not ev.quarantine

    def test_restore_present_link_is_noop(self):
        ev = self._evaluator()
        before = ev.snapshot().snapshot.fingerprint
        ev.run(iter([LinkRestore("core1", "core2")]))
        assert ev.snapshot().snapshot.fingerprint == before
        assert not ev.quarantine

    def test_cut_restore_preserves_link_identity(self):
        ev = self._evaluator()
        original = ev.model.find_link("core1", "core2")
        ev.run(iter([LinkCut("core1", "core2"), LinkRestore("core1", "core2")]))
        restored = ev.model.find_link("core1", "core2")
        assert restored is not None
        assert restored.name == original.name
        assert restored.association is original.association

    def test_crash_and_restore_round_trip(self):
        ev = self._evaluator()
        degree = len(ev.model.links_of("dist0"))
        ev.run(iter([ComponentCrash("dist0")]))
        assert not ev.model.has_instance("dist0")
        ev.run(iter([ComponentRestore("dist0")]))
        assert ev.model.has_instance("dist0")
        assert len(ev.model.links_of("dist0")) == degree
        assert not ev.quarantine

    def test_restore_keeps_link_to_still_crashed_neighbour(self):
        """A link shared with a neighbour that is still down comes back
        with that neighbour instead of being lost."""
        ev = LiveEvaluator(ring(6).object_model, PAIRS)
        nominal = ev.snapshot().snapshot.availability
        ev.run(
            iter(
                [
                    ComponentCrash("sw1"),
                    ComponentCrash("sw2"),
                    ComponentRestore("sw1"),
                    ComponentRestore("sw2"),
                ]
            )
        )
        assert ev.model.find_link("sw1", "sw2") is not None
        assert len(ev.model.links) == 8
        assert abs(ev.snapshot().snapshot.availability - nominal) < TOLERANCE
        assert not ev.quarantine

    @settings(max_examples=25, deadline=None)
    @given(
        family=st.sampled_from(sorted(FAMILY_BUILDERS)),
        seed=st.integers(0, 10_000),
        n_events=st.integers(1, 200),
    )
    @example(family="campus", seed=1, n_events=40)  # cut, then crash
    @example(family="ring", seed=0, n_events=200)
    def test_link_set_tracks_stream_mirror(self, family, seed, n_events):
        """After any non-mobility stream prefix the model holds exactly
        the links the stream's own mirror believes are up."""
        stream = ChurnStream(
            FAMILY_BUILDERS[family]().object_model, PAIRS, seed=seed
        )
        ev = LiveEvaluator(FAMILY_BUILDERS[family]().object_model, PAIRS)
        ev.run(stream.events(n_events))
        assert not ev.quarantine
        links = {
            tuple(sorted((link.end1.name, link.end2.name)))
            for link in ev.model.links
        }
        assert links == set(stream._up)

    def test_crash_endpoint_is_poison(self):
        ev = self._evaluator()
        report = ev.run(iter([ComponentCrash("server")]))
        assert len(report.quarantined) == 1
        assert ev.model.has_instance("server")
        assert not ev.stale


class TestGracefulDegradation:
    def _slow_evaluator(self, delay, policy):
        ev = LiveEvaluator(
            FAMILY_BUILDERS["campus"]().object_model, PAIRS, policy=policy
        )
        original = ev._compute
        state = {"delay": delay}

        def slow(*args, **kwargs):
            time.sleep(state["delay"])
            return original(*args, **kwargs)

        ev._compute = slow
        return ev, state

    def test_deadline_miss_serves_stale_last_good(self):
        ev, state = self._slow_evaluator(
            0.05, ChurnPolicy(deadline=0.005, coalesce_window=4)
        )
        baseline = ev.snapshot().snapshot
        events = list(
            ChurnStream(
                FAMILY_BUILDERS["campus"]().object_model, PAIRS, seed=2
            ).events(8)
        )
        report = ev.run(iter(events), catch_up=False)
        assert report.deadline_misses > 0
        view = ev.snapshot()
        assert view.stale
        assert view.lag_events > 0
        assert view.age_seconds >= 0.0
        # the served epoch is the untouched last-good one, not a mix
        assert view.snapshot.epoch == baseline.epoch
        assert view.snapshot.fingerprint == baseline.fingerprint

    def test_catch_up_clears_staleness(self):
        ev, state = self._slow_evaluator(
            0.05, ChurnPolicy(deadline=0.005, coalesce_window=4)
        )
        events = list(
            ChurnStream(
                FAMILY_BUILDERS["campus"]().object_model, PAIRS, seed=2
            ).events(8)
        )
        ev.run(iter(events), catch_up=False)
        assert ev.stale
        state["delay"] = 0.0  # burst over, recomputes are fast again
        ev.run(iter([]), catch_up=True)
        view = ev.snapshot()
        assert not view.stale and view.lag_events == 0

    def test_degraded_burst_coalesces_same_edge(self):
        ev, state = self._slow_evaluator(
            0.05, ChurnPolicy(deadline=0.005, coalesce_window=6)
        )
        flaps = [LinkFlap("core1", "core2") for _ in range(12)]
        report = ev.run(iter(flaps), catch_up=False)
        assert report.coalesced > 0
        assert report.applied + report.coalesced == 12

    def test_stale_result_matches_pre_burst_oracle(self):
        """Degraded serving is *consistent*: the stale snapshot equals a
        fresh evaluation of the pre-burst model, not a partial update."""
        policy = ChurnPolicy(deadline=0.005, coalesce_window=100)
        ev, _ = self._slow_evaluator(0.05, policy)
        oracle = LiveEvaluator(
            FAMILY_BUILDERS["campus"]().object_model,
            PAIRS,
            policy=ChurnPolicy(delta=False),
        )
        events = [LinkCut("dist0", "core1"), LinkCut("dist1", "core2")]
        ev.run(iter(events), catch_up=False)
        stale = ev.snapshot()
        assert stale.stale
        fresh = oracle.snapshot().snapshot  # oracle saw no events at all
        assert abs(stale.snapshot.availability - fresh.availability) < TOLERANCE


class TestQuarantine:
    def _evaluator(self, **policy):
        return LiveEvaluator(
            FAMILY_BUILDERS["campus"]().object_model,
            PAIRS,
            policy=ChurnPolicy(**policy),
        )

    def test_poison_event_is_parked_not_fatal(self):
        ev = self._evaluator()
        report = ev.run(
            iter([LinkCut("no-such-node", "core1"), LinkFlap("core1", "core2")])
        )
        assert len(report.quarantined) == 1
        parked = report.quarantined[0]
        assert "no-such-node" in repr(parked.event)
        assert "TopologyError" in parked.error
        # the healthy event still processed
        assert report.applied == 1 and not ev.stale

    def test_repeated_recompute_failure_retries_then_rolls_back(self):
        ev = self._evaluator(max_retries=2, backoff=0.0)
        original = ev._compute
        ev._compute = lambda *a, **k: (_ for _ in ()).throw(
            PathDiscoveryError("persistent fault")
        )
        fingerprint = ev.snapshot().snapshot.fingerprint
        report = ev.run(iter([LinkCut("core1", "core2")]), catch_up=False)
        ev._compute = original
        assert report.retries == 2
        assert len(report.quarantined) == 1
        assert report.quarantined[0].attempts == 3
        assert report.quarantined[0].rolled_back
        # rollback restored the model: the link is back, nothing is stale
        assert ev.model.find_link("core1", "core2") is not None
        assert not ev.stale
        assert ev.snapshot().snapshot.fingerprint == fingerprint

    def test_transient_failure_recovers_via_retry(self):
        ev = self._evaluator(max_retries=2, backoff=0.0)
        original = ev._compute
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise PathDiscoveryError("transient")
            return original(*args, **kwargs)

        ev._compute = flaky
        report = ev.run(iter([LinkCut("core1", "core2")]))
        ev._compute = original
        assert report.retries == 1
        assert not report.quarantined
        assert ev.model.find_link("core1", "core2") is None
        assert not ev.stale


class TestSnapshots:
    def test_initial_epoch_published_before_any_event(self):
        ev = LiveEvaluator(FAMILY_BUILDERS["ring"]().object_model, PAIRS)
        view = ev.snapshot()
        assert view.snapshot.epoch == 1
        assert not view.stale
        assert view.snapshot.availability > 0

    def test_epoch_increments_per_adoption(self):
        ev = LiveEvaluator(FAMILY_BUILDERS["ring"]().object_model, PAIRS)
        ev.run(iter([LinkFlap("sw0", "sw1")]))
        ev.run(iter([LinkFlap("sw2", "sw3")]))
        assert ev.snapshot().snapshot.epoch == 3

    def test_old_snapshot_objects_stay_consistent(self):
        ev = LiveEvaluator(FAMILY_BUILDERS["ring"]().object_model, PAIRS)
        old = ev.snapshot().snapshot
        old_paths = {p: ps.paths[:] for p, ps in old.path_sets.items()}
        ev.run(iter([LinkCut("sw0", "sw1")]))
        assert {p: ps.paths for p, ps in old.path_sets.items()} == old_paths

    def test_requires_pairs(self):
        with pytest.raises(TopologyError):
            LiveEvaluator(FAMILY_BUILDERS["ring"]().object_model, [])

    def test_report_to_dict_round_trips(self):
        ev = LiveEvaluator(FAMILY_BUILDERS["ring"]().object_model, PAIRS)
        report = ev.run(iter([LinkCut("sw0", "sw1")]))
        data = report.to_dict()
        assert data["events"] == 1
        assert data["final"]["stale"] is False
        assert isinstance(data["final"]["availability"], float)
