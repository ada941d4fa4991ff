"""CLI robustness surface: exit codes, --inject, the campaign subcommand."""

from __future__ import annotations

import json

import pytest

from repro.cli import exit_code_for, main
from repro.errors import (
    AnalysisError,
    ConstraintViolationError,
    FaultPlanError,
    MappingError,
    ModelError,
    ModelSpaceError,
    PathDiscoveryError,
    PathDiscoveryTimeout,
    ReproError,
    SerializationError,
    ServiceError,
    TopologyError,
    UnreachablePairError,
)


class TestExitCodes:
    @pytest.mark.parametrize(
        ("exc", "code"),
        [
            (ReproError("x"), 2),
            (OSError("x"), 2),
            (ModelError("x"), 3),
            (ConstraintViolationError("x"), 3),  # most-derived: a ModelError
            (SerializationError("x"), 4),
            (ModelSpaceError("x"), 5),
            (MappingError("x"), 6),
            (ServiceError("x"), 7),
            (TopologyError("x"), 8),
            (PathDiscoveryTimeout("a", "b", 1.0), 9),
            (UnreachablePairError("a", "b"), 10),
            (PathDiscoveryError("x"), 11),
            (AnalysisError("x"), 12),
            (FaultPlanError("x"), 13),
        ],
    )
    def test_mapping(self, exc, code):
        assert exit_code_for(exc) == code

    def test_codes_are_distinct_per_class(self):
        from repro.cli import EXIT_CODES

        codes = [code for _, code in EXIT_CODES]
        assert len(codes) == len(set(codes))
        assert 0 not in codes and 1 not in codes  # reserved

    def test_cli_reports_fault_plan_error(self, capsys):
        assert main(["casestudy", "--inject", "bogus:x"]) == 13
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "bogus" in err


class TestInject:
    def test_inject_crash_degrades_gracefully(self, capsys):
        assert main(["casestudy", "--inject", "crash:e3"]) == 0
        out = capsys.readouterr().out
        assert "injected faults: crash:e3" in out
        assert "pair diagnostics:" in out
        assert "unreachable (no surviving path); nearest cut: e3" in out
        # the surviving pair is still analyzed; e3 left the partial UPSIM
        assert "request_printing" in out
        assert "[e3:" not in out

    def test_inject_accepts_multiple_specs(self, capsys):
        # the c1|c2 core link is redundant: t1's pairs stay reachable
        code = main(
            ["casestudy", "--inject", "crash:e3", "--inject", "cut:c1|c2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "injected faults: crash:e3, cut:c1|c2" in out

    def test_inject_everything_down_is_unreachable_pair_error(self, capsys):
        assert main(["casestudy", "--inject", "crash:printS"]) == 10
        assert "error:" in capsys.readouterr().err

    def test_unknown_inject_target(self, capsys):
        assert main(["casestudy", "--inject", "crash:nope"]) == 13
        assert "nope" in capsys.readouterr().err


class TestCampaignCommand:
    def test_text_report(self, capsys):
        code = main(
            ["campaign", "--faults", "crash:c1", "--faults", "crash:e3"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "fault campaign for service 'printing'" in out
        assert "crash:c1" in out and "crash:e3" in out
        assert "single points of failure:" in out

    def test_json_report(self, capsys):
        code = main(["campaign", "--faults", "crash:e3", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["service"] == "printing"
        (result,) = payload["results"]
        assert result["faults"] == ["crash:e3"]
        assert [["p2", "printS"], ["printS", "p2"]] == sorted(
            result["unreachable_pairs"]
        )

    def test_bad_fault_spec(self, capsys):
        assert main(["campaign", "--faults", "crash:"]) == 13
        assert "error:" in capsys.readouterr().err

    def test_negative_limit_exits_13(self, capsys):
        """``--limit -1`` would slice off the last combination; it is
        rejected like a bad ``--k``/``--ticks``."""
        assert main(["campaign", "--faults", "crash:e3", "--limit", "-1"]) == 13
        captured = capsys.readouterr()
        assert "limit >= 0, got -1" in captured.err
        assert "more combination(s)" not in captured.out
