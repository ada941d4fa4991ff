"""Fault specs, plans and the copy-on-write topology overlay."""

from __future__ import annotations

import pytest

from repro.errors import FaultPlanError, TopologyError
from repro.resilience import Fault, FaultOverlayTopology, FaultPlan


class TestFaultParsing:
    @pytest.mark.parametrize(
        "spec",
        [
            "crash:c1",
            "cut:d1|e1",
            "flap:e3@7:0.5",
            "degrade:c2:mtbf=100",
            "degrade:c2:mtbf=100,mttr=9",
        ],
    )
    def test_spec_round_trips(self, spec):
        assert Fault.parse(spec).spec() == spec

    def test_cut_target_is_canonically_sorted(self):
        assert Fault.parse("cut:e1|d1").target == "d1|e1"
        assert Fault.parse("cut:e1|d1") == Fault.parse("cut:d1|e1")

    def test_link_targets_canonical_however_built(self):
        """Direct construction canonicalises too, and so does a degrade
        on a link: either end may be typed first."""
        assert Fault("cut", "c2|c1") == Fault.cut("c1", "c2")
        assert Fault("cut", "c2|c1").spec() == "cut:c1|c2"
        reversed_, sorted_ = (
            Fault.parse("degrade:c2|c1:mtbf=500"),
            Fault.parse("degrade:c1|c2:mtbf=500"),
        )
        assert reversed_ == sorted_
        assert reversed_.target == "c1|c2"
        assert FaultPlan([reversed_]).fingerprint() == (
            FaultPlan([sorted_]).fingerprint()
        )

    def test_flap_default_duty(self):
        fault = Fault.parse("flap:e3@7")
        assert fault.seed == 7
        assert fault.duty == 0.5

    @pytest.mark.parametrize(
        "bad",
        [
            "crash",  # no target
            "bogus:c1",  # unknown kind
            "cut:c1",  # missing second endpoint
            "cut:c1|c1",  # self-link
            "flap:c1",  # missing seed
            "flap:c1@x",  # non-integer seed
            "flap:c1@3:1.5",  # duty out of range
            "degrade:c1",  # no overrides
            "degrade:c1:mtbf=-1",  # non-positive override
            "degrade:c1:weird=3",  # unknown property
        ],
    )
    def test_invalid_specs_raise(self, bad):
        with pytest.raises(FaultPlanError):
            Fault.parse(bad)

    def test_factories_match_parse(self):
        assert Fault.crash("c1") == Fault.parse("crash:c1")
        assert Fault.cut("e1", "d1") == Fault.parse("cut:d1|e1")
        assert Fault.flap("e3", 7) == Fault.parse("flap:e3@7")
        assert Fault.degrade("c2", mtbf=100.0) == Fault.parse(
            "degrade:c2:mtbf=100.0"
        )

    def test_flap_schedule_is_deterministic(self):
        fault = Fault.flap("e3", seed=7, duty=0.5)
        schedule = [fault.is_down_at(t) for t in range(32)]
        assert schedule == [
            Fault.flap("e3", seed=7, duty=0.5).is_down_at(t) for t in range(32)
        ]
        # a 0.5 duty cycle over 32 ticks is neither always-up nor always-down
        assert any(schedule) and not all(schedule)

    def test_different_seeds_give_different_schedules(self):
        a = [Fault.flap("e3", seed=1).is_down_at(t) for t in range(64)]
        b = [Fault.flap("e3", seed=2).is_down_at(t) for t in range(64)]
        assert a != b


class TestFaultPlan:
    def test_specs_are_sorted_and_deduplicated(self):
        plan = FaultPlan.parse(["cut:e1|d1", "crash:c1", "crash:c1"])
        assert plan.specs() == ("crash:c1", "cut:d1|e1")
        assert len(plan) == 2

    def test_parse_accepts_single_string(self):
        assert FaultPlan.parse("crash:c1").specs() == ("crash:c1",)

    def test_value_equality_and_fingerprint(self):
        a = FaultPlan.parse(["crash:c1", "cut:e1|d1"])
        b = FaultPlan.parse(["cut:d1|e1", "crash:c1"])
        assert a == b
        assert hash(a) == hash(b)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != FaultPlan.parse("crash:c2").fingerprint()

    def test_addition_merges_plans(self):
        merged = FaultPlan.parse("crash:c1") + FaultPlan.parse("cut:d1|e1")
        assert merged.specs() == ("crash:c1", "cut:d1|e1")

    def test_resolution_at_tick(self):
        plan = FaultPlan.parse(["crash:c1", "flap:e3@7"])
        assert not plan.is_resolved
        fault = Fault.flap("e3", 7)
        down_tick = next(t for t in range(64) if fault.is_down_at(t))
        up_tick = next(t for t in range(64) if not fault.is_down_at(t))
        assert plan.at(down_tick).specs() == ("crash:c1", "crash:e3")
        assert plan.at(up_tick).specs() == ("crash:c1",)

    def test_apply_unresolved_without_tick_raises(self, usi_topo):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse("flap:e3@7").apply(usi_topo)


class TestOverlay:
    def test_crash_removes_node_and_its_links(self, diamond_topo):
        overlay = FaultPlan.parse("crash:a").apply(diamond_topo)
        assert not overlay.has_node("a")
        assert overlay.node_count() == diamond_topo.node_count() - 1
        assert "a" not in overlay.neighbors("e")
        assert "a" not in overlay.neighbors("s")
        with pytest.raises(TopologyError):
            overlay.neighbors("a")

    def test_cut_removes_only_the_link(self, diamond_topo):
        overlay = FaultPlan.parse("cut:a|e").apply(diamond_topo)
        assert overlay.has_node("a") and overlay.has_node("e")
        assert "a" not in overlay.neighbors("e")
        assert "s" in overlay.neighbors("a")
        assert overlay.link_count() == diamond_topo.link_count() - 1

    def test_articulation_crash_disconnects(self, diamond_topo):
        assert diamond_topo.is_connected()
        overlay = FaultPlan.parse("crash:e").apply(diamond_topo)
        assert not overlay.is_connected()
        assert overlay.reachable_from("pc") == {"pc"}

    def test_redundant_crash_keeps_connectivity(self, diamond_topo):
        overlay = FaultPlan.parse("crash:a").apply(diamond_topo)
        assert overlay.is_connected()
        assert "s" in overlay.reachable_from("pc")

    def test_degrade_overrides_properties(self, diamond_topo):
        overlay = FaultPlan.parse("degrade:e:mtbf=100.0,mttr=9.0").apply(
            diamond_topo
        )
        assert overlay.node_property("e", "MTBF") == 100.0
        assert overlay.node_property("e", "MTTR") == 9.0
        # base is untouched (copy-on-write)
        assert diamond_topo.node_property("e", "MTBF") == 100000.0
        # other nodes read through
        assert overlay.node_property("s", "MTBF") == 50000.0
        assert overlay.availability_overrides() == {
            "e": {"MTBF": 100.0, "MTTR": 9.0}
        }

    def test_unknown_target_raises(self, diamond_topo):
        with pytest.raises(FaultPlanError, match="nope"):
            FaultPlan.parse("crash:nope").apply(diamond_topo)
        with pytest.raises(FaultPlanError):
            FaultPlan.parse("cut:pc|s").apply(diamond_topo)  # no such link

    def test_fingerprint_composition(self, diamond_topo):
        base_fp = diamond_topo.fingerprint()
        one = FaultPlan.parse("crash:a").apply(diamond_topo)
        two = FaultPlan.parse("crash:a").apply(diamond_topo)
        other = FaultPlan.parse("crash:b").apply(diamond_topo)
        assert one.fingerprint() == two.fingerprint()
        assert one.fingerprint() != base_fp
        assert one.fingerprint() != other.fingerprint()

    def test_overlays_nest(self, diamond_topo):
        inner = FaultPlan.parse("crash:a").apply(diamond_topo)
        outer = FaultPlan.parse("crash:b").apply(inner)
        assert not outer.has_node("a") and not outer.has_node("b")
        # both redundant switches down: pc can no longer reach s
        assert "s" not in outer.reachable_from("pc")

    def test_with_faults_convenience(self, usi_topo):
        overlay = usi_topo.with_faults("crash:c1")
        assert isinstance(overlay, FaultOverlayTopology)
        assert not overlay.has_node("c1")
        assert usi_topo.has_node("c1")
