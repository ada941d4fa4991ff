"""The ``upsim population`` subcommand."""

from __future__ import annotations

from repro.cli import main


class TestPopulationCommand:
    def test_default_run(self, capsys):
        assert main(["population", "--users", "500"]) == 0
        out = capsys.readouterr().out
        assert "population: 500 users" in out
        assert "std" in out and "gold" in out
        assert "worst-served users:" in out

    def test_custom_classes_and_top(self, capsys):
        assert (
            main(
                [
                    "population",
                    "--users",
                    "300",
                    "--classes",
                    "mobile:1:0.97",
                    "--top",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "mobile" in out
        assert out.count("  user ") == 2

    def test_report_line_counts_kernel_rows(self, capsys):
        assert main(["population", "--users", "400"]) == 0
        out = capsys.readouterr().out
        # two kernel rows (device at 0 and at 1) per attachment key
        assert "kernel row(s) swept" in out
        assert "shard" not in out

    def test_seed_changes_population(self, capsys):
        assert main(["population", "--users", "200", "--seed", "1"]) == 0
        first = capsys.readouterr().out
        assert main(["population", "--users", "200", "--seed", "2"]) == 0
        second = capsys.readouterr().out
        assert first != second

    def test_bad_class_spec_maps_to_analysis_error(self, capsys):
        assert main(["population", "--classes", "a:1:2:3:4"]) == 12
        assert "error:" in capsys.readouterr().err

    def test_zero_users_is_error(self, capsys):
        assert main(["population", "--users", "0"]) == 12
        assert "error:" in capsys.readouterr().err

    def test_negative_top_is_error(self, capsys):
        assert main(["population", "--users", "50", "--top", "-2"]) == 12
        assert "top must be >= 0" in capsys.readouterr().err

