"""Golden snapshot tests: the dimension table rendering in the report
and CLI is pinned character-for-character against the case study."""

import pytest

from repro.analysis import analyze_upsim
from repro.cli import main
from repro.dimensions import evaluate_dimensions

pytestmark = pytest.mark.dimensions

GOLDEN_TABLE = """\
User-perceived dimensions (2 pairs)
  dimension       value        pair min     pair max
  availability    0.991626700  0.991980448  0.999633075
  responsiveness  0.287930251  0.534863448  0.538324785
  performability  0.995806762  0.991980448  0.999633075
  latency         22.000 ms    11.000       11.000
  cost            20.00        14.00        14.00"""


class TestDimensionReportText:
    def test_case_study_snapshot(self, upsim_t1_p2):
        report = evaluate_dimensions(upsim_t1_p2)
        assert report.to_text() == GOLDEN_TABLE

    def test_no_trailing_whitespace(self, upsim_t1_p2):
        report = evaluate_dimensions(upsim_t1_p2)
        for line in report.to_text().splitlines():
            assert line == line.rstrip()

    def test_subset_order_follows_selection(self, upsim_t1_p2):
        report = evaluate_dimensions(
            upsim_t1_p2, ["cost", "availability"]
        )
        lines = report.to_text().splitlines()
        assert lines[2].split()[0] == "cost"
        assert lines[3].split()[0] == "availability"

    def test_to_dict_shape(self, upsim_t1_p2):
        report = evaluate_dimensions(
            upsim_t1_p2, ["availability", "latency"]
        )
        data = report.to_dict()
        assert set(data) == {"availability", "latency"}
        assert data["availability"]["value"] == pytest.approx(0.991626700)
        assert data["latency"]["unit"] == "ms"
        assert data["latency"]["higher_is_better"] is False
        assert len(data["availability"]["per_pair"]) == 2


class TestAnalyzeReportIntegration:
    def test_dimensions_section_present(self, upsim_t1_p2):
        report = analyze_upsim(
            upsim_t1_p2,
            dimensions=["availability", "responsiveness", "performability"],
        )
        text = report.to_text()
        assert "User-perceived dimensions (2 pairs)" in text
        assert "responsiveness  0.287930251" in text
        # the availability headline and the dimension row must agree
        assert report.dimensions["availability"].value == pytest.approx(
            report.service_availability, abs=1e-12
        )

    def test_without_dimensions_section_absent(self, upsim_t1_p2):
        report = analyze_upsim(upsim_t1_p2)
        assert report.dimensions is None
        assert "User-perceived dimensions" not in report.to_text()


class TestCLI:
    def test_dimensions_ls(self, capsys):
        assert main(["dimensions", "ls"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == [
            "name", "mode", "fold", "rule", "unit", "description",
        ]
        for name in (
            "availability",
            "responsiveness",
            "performability",
            "latency",
            "cost",
        ):
            assert name in out
        assert "tropical-min-sum" in out
        assert "(5 dimension(s) registered)" in out

    def test_casestudy_with_dimensions(self, capsys):
        assert main(["casestudy", "--dimensions", "availability,cost"]) == 0
        out = capsys.readouterr().out
        assert "User-perceived dimensions (2 pairs)" in out
        assert "availability  0.991626700" in out
        assert "cost          20.00" in out

    def test_unknown_dimension_maps_to_analysis_error(self, capsys):
        code = main(["casestudy", "--dimensions", "karma"])
        err = capsys.readouterr().err
        assert code == 12  # AnalysisError exit code
        assert "unknown dimension 'karma'" in err

    def test_empty_dimension_list_rejected(self, capsys):
        code = main(["casestudy", "--dimensions", " , "])
        assert code == 12
        assert "at least one dimension" in capsys.readouterr().err
