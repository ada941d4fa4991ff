"""Degradation-tolerant discovery: diagnostics, timeouts, retries, caching."""

from __future__ import annotations

import time

import pytest

from repro.core.engine import discover_many, engine_stats, path_cache_info
from repro.errors import PathDiscoveryError
from repro.network.topology import Topology
from repro.resilience import (
    FaultPlan,
    ResiliencePolicy,
    discover_many_resilient,
)

PAIRS = [("t1", "printS"), ("p2", "printS"), ("printS", "p2")]


class TestPolicy:
    def test_defaults(self):
        policy = ResiliencePolicy()
        assert policy.pair_timeout == 30.0
        assert policy.retries == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"pair_timeout": 0.0},
            {"retries": -1},
            {"backoff": -0.1},
            {"pair_timeout": float("nan")},
            {"backoff": float("nan")},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ResiliencePolicy(**kwargs)


class TestResilientDiscovery:
    def test_nominal_all_reachable(self, usi_topo):
        outcome = discover_many_resilient(usi_topo, PAIRS)
        assert outcome.complete
        assert not outcome.failed()
        assert sorted(outcome.path_sets) == sorted(PAIRS)
        for diagnostic in outcome.diagnostics:
            assert diagnostic.ok
            assert diagnostic.status == "ok"
            assert diagnostic.path_count > 0
            assert diagnostic.fault_context == ()

    def test_crash_degrades_instead_of_raising(self, usi_topo):
        overlay = FaultPlan.parse("crash:e3").apply(usi_topo)
        outcome = discover_many_resilient(overlay, PAIRS)
        assert not outcome.complete
        assert ("t1", "printS") in outcome.path_sets
        assert ("p2", "printS") not in outcome.path_sets
        failed = outcome.failed()
        assert {(d.requester, d.provider) for d in failed} == {
            ("p2", "printS"),
            ("printS", "p2"),
        }
        for diagnostic in failed:
            assert diagnostic.status == "unreachable"
            assert diagnostic.fault_context == ("crash:e3",)
            assert diagnostic.nearest_cut == ("e3",)

    def test_crashed_endpoint_is_its_own_cut(self, usi_topo):
        overlay = FaultPlan.parse("crash:p2").apply(usi_topo)
        diagnostic = discover_many_resilient(
            overlay, [("p2", "printS")]
        ).diagnostic_for("p2", "printS")
        assert diagnostic.status == "unreachable"
        assert "crashed by fault injection" in diagnostic.reason
        assert diagnostic.nearest_cut == ("p2",)

    def test_unknown_endpoint_is_diagnosed(self, usi_topo):
        diagnostic = discover_many_resilient(
            usi_topo, [("t99", "printS")]
        ).diagnostic_for("t99", "printS")
        assert diagnostic.status == "unreachable"
        assert "not a component" in diagnostic.reason
        assert diagnostic.nearest_cut == ()

    def test_severed_link_appears_in_nearest_cut(self, diamond_topo):
        overlay = FaultPlan.parse(["cut:e|a", "cut:b|e"]).apply(diamond_topo)
        diagnostic = discover_many_resilient(
            overlay, [("pc", "s")]
        ).diagnostic_for("pc", "s")
        assert diagnostic.status == "unreachable"
        assert diagnostic.nearest_cut == ("a|e", "b|e")

    def test_duplicate_pairs_processed_once(self, usi_topo):
        outcome = discover_many_resilient(
            usi_topo, [("t1", "printS"), ("t1", "printS")]
        )
        assert len(outcome.diagnostics) == 1

    def test_to_dict_is_deterministic(self, usi_topo):
        overlay = FaultPlan.parse("crash:e3").apply(usi_topo)
        first = discover_many_resilient(overlay, PAIRS)
        second = discover_many_resilient(overlay, PAIRS)
        assert [d.to_dict() for d in first.diagnostics] == [
            d.to_dict() for d in second.diagnostics
        ]


class _SlowTopology(Topology):
    """Every compile stalls, so any per-pair deadline expires."""

    def fingerprint(self) -> str:
        time.sleep(0.35)
        return super().fingerprint()


class _FlakyTopology(Topology):
    """Raises a transient error on the first *failures* compilations."""

    def __init__(self, model, failures: int):
        super().__init__(model)
        self.failures = failures

    def fingerprint(self) -> str:
        if self.failures > 0:
            self.failures -= 1
            raise RuntimeError("transient glitch")
        return super().fingerprint()


class TestTimeoutsAndRetries:
    def test_timeout_produces_diagnostic(self, usi):
        topology = _SlowTopology(usi)
        outcome = discover_many_resilient(
            topology,
            [("t1", "printS")],
            policy=ResiliencePolicy(pair_timeout=0.05, retries=3),
        )
        diagnostic = outcome.diagnostic_for("t1", "printS")
        assert diagnostic.status == "timeout"
        assert "exceeded the 0.05s deadline" in diagnostic.reason
        # deterministic enumeration: an expired deadline is never retried
        assert diagnostic.attempts == 1
        assert ("t1", "printS") not in outcome.path_sets

    def test_late_result_counts_as_timeout(self, usi_topo):
        """A discovery that returns after the deadline times out too, even
        a warm one that finishes before the waiting thread wakes."""
        discover_many_resilient(usi_topo, PAIRS)
        outcome = discover_many_resilient(
            usi_topo, PAIRS, policy=ResiliencePolicy(pair_timeout=1e-6)
        )
        assert [d.status for d in outcome.diagnostics] == ["timeout"] * 3
        assert not outcome.path_sets

    def test_transient_error_is_retried(self, usi):
        topology = _FlakyTopology(usi, failures=1)
        diagnostic = discover_many_resilient(
            topology,
            [("t1", "printS")],
            policy=ResiliencePolicy(retries=2, backoff=0.001),
        ).diagnostic_for("t1", "printS")
        assert diagnostic.status == "ok"
        assert diagnostic.attempts == 2

    def test_exhausted_retries_report_error(self, usi):
        topology = _FlakyTopology(usi, failures=10)
        diagnostic = discover_many_resilient(
            topology,
            [("t1", "printS")],
            policy=ResiliencePolicy(retries=1, backoff=0.001),
        ).diagnostic_for("t1", "printS")
        assert diagnostic.status == "error"
        assert "transient glitch" in diagnostic.reason
        assert diagnostic.attempts == 2


class TestOverlayCacheReuse:
    def test_same_fault_twice_hits_path_cache(self, usi_topo):
        """Acceptance: equal overlay fingerprints share cached PathSets."""
        plan = FaultPlan.parse("crash:e3")
        first = plan.apply(usi_topo)
        second = plan.apply(usi_topo)
        assert first.fingerprint() == second.fingerprint()

        discover_many_resilient(first, PAIRS)  # warm the cache
        before_stats = engine_stats()
        before_cache = path_cache_info()
        outcome = discover_many_resilient(second, PAIRS)
        after_stats = engine_stats()
        after_cache = path_cache_info()

        assert outcome.diagnostic_for("t1", "printS").ok
        # reachable pair answered from cache: hits grew, no new enumeration
        assert after_cache["hits"] > before_cache["hits"]
        assert after_stats["enumerations"] == before_stats["enumerations"]

    def test_overlay_does_not_poison_nominal_cache(self, usi_topo):
        plan = FaultPlan.parse("crash:e3")
        nominal = discover_many_resilient(usi_topo, [("p2", "printS")])
        assert nominal.diagnostic_for("p2", "printS").ok
        faulted = discover_many_resilient(
            plan.apply(usi_topo), [("p2", "printS")]
        )
        assert not faulted.diagnostic_for("p2", "printS").ok
        # nominal view still answers (and from cache, not a stale overlay)
        again = discover_many_resilient(usi_topo, [("p2", "printS")])
        assert again.diagnostic_for("p2", "printS").ok


class TestDiscoverManyErrors:
    def test_worker_error_names_the_pair(self, usi_topo):
        with pytest.raises(PathDiscoveryError, match=r"\('t99', 'printS'\)"):
            discover_many(usi_topo, [("t1", "printS"), ("t99", "printS")])
