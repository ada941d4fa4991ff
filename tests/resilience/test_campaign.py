"""Fault campaigns: sweeps, ranking, determinism, memoization."""

from __future__ import annotations

import json

import pytest

from repro.core.mapping import ServiceMapping, ServiceMappingPair
from repro.errors import AnalysisError, FaultPlanError
from repro.obs import metrics as _metrics
from repro.obs.trace import Tracer, activate
from repro.resilience import Fault, default_candidates, run_campaign
from repro.services.atomic import AtomicService
from repro.services.composite import CompositeService


@pytest.fixture()
def fetch_service():
    return CompositeService.sequential(
        "fetch", [AtomicService("auth"), AtomicService("get")]
    )


@pytest.fixture()
def fetch_mapping():
    return ServiceMapping(
        [
            ServiceMappingPair("auth", "pc", "s"),
            ServiceMappingPair("get", "s", "pc"),
        ]
    )


class TestRunCampaign:
    def test_single_fault_sweep_over_case_study(self, usi, printing, table1):
        """Acceptance: the full single-fault sweep completes and reports
        a diagnostic for every mapping pair of every combination."""
        report = run_campaign(usi, printing, table1, k=1)
        assert report.service_name == "printing"
        assert 0.0 < report.baseline_availability < 1.0
        pairs = set(report.pairs)
        assert len(report.results) == 10  # one crash per UPSIM component
        for result in report.results:
            assert len(result.faults) == 1
            diagnosed = {
                (d.requester, d.provider) for d in result.diagnostics
            }
            assert diagnosed == pairs
            assert 0.0 <= result.availability <= 1.0
        # crashing the print server severs every pair
        worst = next(
            r for r in report.results if r.faults == ("crash:printS",)
        )
        assert set(worst.unreachable_pairs) == pairs

    def test_results_ranked_most_severe_first(self, usi, printing, table1):
        report = run_campaign(usi, printing, table1, k=1)
        severities = [len(r.unreachable_pairs) for r in report.results]
        assert severities == sorted(severities, reverse=True)
        assert report.worst(3) == report.results[:3]

    def test_single_points_of_failure(self, diamond, fetch_service, fetch_mapping):
        report = run_campaign(diamond, fetch_service, fetch_mapping, k=1)
        spof_faults = {
            r.faults[0] for r in report.single_points_of_failure()
        }
        # e is the articulation point; endpoints sever their own pairs;
        # the redundant switches a and b survive alone
        assert "crash:e" in spof_faults
        assert "crash:a" not in spof_faults
        assert "crash:b" not in spof_faults

    def test_k2_includes_redundant_pair_combination(
        self, diamond, fetch_service, fetch_mapping
    ):
        report = run_campaign(
            diamond,
            fetch_service,
            fetch_mapping,
            candidates=["crash:a", "crash:b"],
            k=2,
        )
        assert {r.faults for r in report.results} == {
            ("crash:a",),
            ("crash:b",),
            ("crash:a", "crash:b"),
        }
        combo = next(r for r in report.results if len(r.faults) == 2)
        assert combo.unreachable_pairs  # both redundant switches down
        assert not combo.is_single_point_of_failure
        singles = [r for r in report.results if len(r.faults) == 1]
        assert all(not r.unreachable_pairs for r in singles)

    def test_degrade_candidate_reduces_availability(
        self, diamond, fetch_service, fetch_mapping
    ):
        report = run_campaign(
            diamond,
            fetch_service,
            fetch_mapping,
            # Formula 1: A = 1 - MTTR/MTBF = 0.5
            candidates=[Fault.degrade("e", mtbf=100.0, mttr=50.0)],
        )
        (result,) = report.results
        assert not result.unreachable_pairs
        # every atomic service routes through the degraded switch e
        assert result.degraded_services == ("auth", "get")
        assert 0.0 < result.availability < report.baseline_availability
        assert result.availability_loss > 0.0

    def test_candidates_accept_faults_and_strings(
        self, diamond, fetch_service, fetch_mapping
    ):
        report = run_campaign(
            diamond,
            fetch_service,
            fetch_mapping,
            candidates=[Fault.crash("e"), "cut:a|e"],
        )
        assert {r.faults for r in report.results} == {
            ("crash:e",),
            ("cut:a|e",),
        }

    def test_validation(self, diamond, fetch_service, fetch_mapping):
        with pytest.raises(FaultPlanError):
            run_campaign(diamond, fetch_service, fetch_mapping, k=0)
        with pytest.raises(FaultPlanError):
            run_campaign(diamond, fetch_service, fetch_mapping, ticks=0)
        with pytest.raises(FaultPlanError):
            run_campaign(
                diamond, fetch_service, fetch_mapping, candidates=[]
            )


class TestDeterminism:
    def test_seeded_flapping_campaign_is_reproducible(
        self, diamond, fetch_service, fetch_mapping
    ):
        """Acceptance: same seed -> byte-identical campaign report."""
        kwargs = dict(
            candidates=["flap:e@42:0.5", "crash:a"],
            k=2,
            ticks=8,
        )
        first = run_campaign(diamond, fetch_service, fetch_mapping, **kwargs)
        second = run_campaign(diamond, fetch_service, fetch_mapping, **kwargs)
        assert first.to_json() == second.to_json()

    def test_different_seed_changes_schedule(
        self, diamond, fetch_service, fetch_mapping
    ):
        def flap_result(seed):
            report = run_campaign(
                diamond,
                fetch_service,
                fetch_mapping,
                candidates=[f"flap:e@{seed}:0.5"],
                ticks=16,
            )
            (result,) = report.results
            return result

        a, b = flap_result(1), flap_result(2)
        # both sweep all 16 ticks deterministically
        assert a.ticks_evaluated == b.ticks_evaluated == 16
        assert 0 < a.active_ticks < 16
        assert (a.active_ticks, a.availability) != (
            b.active_ticks,
            b.availability,
        )

    def test_json_round_trips(self, diamond, fetch_service, fetch_mapping):
        report = run_campaign(
            diamond, fetch_service, fetch_mapping, candidates=["crash:e"]
        )
        payload = json.loads(report.to_json())
        assert payload["service"] == "fetch"
        assert payload["results"][0]["faults"] == ["crash:e"]
        # wall-clock timings must not leak into the machine-readable form
        assert "seconds" not in json.dumps(payload)


class TestDefaultCandidates:
    def test_component_crashes(self, upsim_t1_p2):
        candidates = default_candidates(upsim_t1_p2)
        specs = [fault.spec() for fault in candidates]
        assert all(spec.startswith("crash:") for spec in specs)
        assert len(specs) == upsim_t1_p2.component_count

    def test_link_cuts_included_on_request(self, upsim_t1_p2):
        candidates = default_candidates(upsim_t1_p2, include_links=True)
        cuts = [f for f in candidates if f.kind == "cut"]
        assert len(cuts) == len(upsim_t1_p2.used_links())


class TestCampaignKernels:
    def test_bdd_matches_enum(self, usi, printing, table1):
        via_bdd = run_campaign(usi, printing, table1, k=1, kernel="bdd")
        via_enum = run_campaign(usi, printing, table1, k=1, kernel="enum")
        assert via_bdd.baseline_availability == pytest.approx(
            via_enum.baseline_availability, abs=1e-12
        )
        assert [r.faults for r in via_bdd.results] == [
            r.faults for r in via_enum.results
        ]
        for a, b in zip(via_bdd.results, via_enum.results):
            assert a.availability == pytest.approx(b.availability, abs=1e-12)
            assert a.unreachable_pairs == b.unreachable_pairs

    def test_unknown_kernel_rejected(self, usi, printing, table1):
        with pytest.raises(FaultPlanError, match="unknown availability kernel"):
            run_campaign(usi, printing, table1, kernel="magic")


def _no_match(kind: str, detail: str) -> str:
    return f"fault plan does not match topology 'usi': {kind}: {detail}"


class TestTypedErrors:
    """The same candidates raise the same typed errors, with the same
    messages, as evaluating each plan on an overlay did."""

    @pytest.mark.parametrize(
        "candidates, message",
        [
            (["crash:nope"], _no_match("crash", "no component 'nope'")),
            (["cut:a|zz"], _no_match("cut", "no link 'a|zz'")),
            (
                ["degrade:c1|zz:mtbf=500"],
                _no_match("degrade", "no link 'c1|zz'"),
            ),
            # the first failing plan in sweep order is the one reported
            (
                ["crash:c1", "crash:nope", "cut:a|zz"],
                _no_match("crash", "no component 'nope'"),
            ),
        ],
    )
    def test_unknown_targets(self, usi_topo, printing, table1, candidates, message):
        with pytest.raises(FaultPlanError) as info:
            run_campaign(usi_topo, printing, table1, candidates=candidates, k=2)
        assert str(info.value) == message

    def test_degrade_with_mttr_above_mtbf(self, usi_topo, printing, table1):
        with pytest.raises(AnalysisError) as info:
            run_campaign(
                usi_topo,
                printing,
                table1,
                candidates=["degrade:c1:mtbf=1,mttr=5"],
            )
        assert str(info.value) == (
            "Formula (1) requires MTTR <= MTBF, got MTTR=5.0 > MTBF=1.0"
        )

    def test_flap_on_unknown_target_raises_when_first_down(
        self, usi_topo, printing, table1
    ):
        """Seed 7 keeps 'ghost' up on ticks 0-2 and down on tick 3: the
        plan is only wrong once a tick resolves it to a crash."""
        flap = Fault.parse("flap:ghost@7:0.5")
        assert [flap.is_down_at(t) for t in range(4)] == [False] * 3 + [True]
        report = run_campaign(
            usi_topo, printing, table1, candidates=[flap], ticks=3
        )
        assert report.results[0].active_ticks == 0
        with pytest.raises(FaultPlanError) as info:
            run_campaign(usi_topo, printing, table1, candidates=[flap], ticks=4)
        assert str(info.value) == _no_match("crash", "no component 'ghost'")


class TestLinkTargetSpelling:
    def test_degrade_link_either_end_first(self, usi_topo, printing, table1):
        """A degraded link may be named from either end, as a cut may."""
        reports = [
            run_campaign(usi_topo, printing, table1, candidates=[spec])
            for spec in ("degrade:c2|c1:mtbf=500", "degrade:c1|c2:mtbf=500")
        ]
        assert reports[0].to_json() == reports[1].to_json()
        (result,) = reports[0].results
        assert result.faults == ("degrade:c1|c2:mtbf=500",)
        assert result.availability_loss > 0.0


def _metric(name: str) -> float:
    family = _metrics.registry().get(name)
    return family.value if family is not None else 0.0


class TestObservability:
    COUNTERS = (
        "repro_campaign_faults_injected_total",
        "repro_campaign_memo_hits_total",
        "repro_campaign_combinations_total",
    )

    @pytest.mark.parametrize(
        "kwargs, expected",
        [
            # 20 candidates: 20 singles + 190 pairs, all distinct plans
            (dict(k=2, include_links=True), (400, 0, 210, 210)),
            # flapping plans resolve to repeating crash patterns per tick
            (
                dict(
                    candidates=[
                        "flap:c1@3:0.5",
                        "flap:d1@7:0.5",
                        "crash:c2",
                        "cut:d1|c1",
                        "degrade:d4:mtbf=500",
                    ],
                    k=2,
                    ticks=8,
                ),
                (23, 63, 15, 15),
            ),
        ],
    )
    def test_memo_counters(self, usi_topo, printing, table1, kwargs, expected):
        """Faults injected, memo hits, combinations and memo entries for
        USI t1/p2, as evaluating plan by plan on overlays counted them."""
        before = [_metric(name) for name in self.COUNTERS]
        run_campaign(usi_topo, printing, table1, **kwargs)
        deltas = [_metric(name) - b for name, b in zip(self.COUNTERS, before)]
        entries = _metric("repro_campaign_memo_entries")
        assert (*deltas, entries) == expected

    def test_one_evaluate_span_per_batch(self, usi_topo, printing, table1):
        tracer = Tracer()
        with activate(tracer):
            report = run_campaign(
                usi_topo, printing, table1, k=2, include_links=True
            )
        (run_span,) = tracer.find("campaign.run")
        assert run_span.attrs["plans"] == 210
        assert run_span.attrs["combinations"] == len(report.results) == 210
        (evaluate_span,) = tracer.find("campaign.evaluate")
        assert evaluate_span.attrs == {"rows": 210, "kernel": "bdd"}
        assert evaluate_span in run_span.children
