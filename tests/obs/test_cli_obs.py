"""End-to-end CLI observability: --trace / --metrics / the obs command.

This is the acceptance criterion verbatim: ``casestudy --trace out.json
--metrics`` must emit a valid JSON trace containing spans for all eight
methodology steps (with engine and kernel children beneath them) and a
Prometheus text block that the round-trip parser accepts.  Steps 1-4 are
the command's own ``casestudy.step*`` spans; Steps 5-8 run inside
:class:`~repro.core.pipeline.MethodologyPipeline` and carry its
``pipeline.*`` stage names.
"""

import json

import pytest

from repro.cli import main
from repro.obs.trace import load
from tests.obs.test_prometheus import parse_exposition

EIGHT_STEPS = (
    "casestudy.step1_annotate_profiles",
    "casestudy.step2_object_diagram",
    "casestudy.step3_service_description",
    "casestudy.step4_mapping",
    "pipeline.import_uml",
    "pipeline.import_mapping",
    "pipeline.discover_paths",
    "pipeline.generate_upsim",
)


def _span_names(node, into):
    into.append(node["name"])
    for child in node.get("children", ()):
        _span_names(child, into)
    return into


def _index(trace_path):
    """Every span of a saved trace, grouped by name."""
    by_name = {}

    def index(node):
        by_name.setdefault(node["name"], []).append(node)
        for child in node.get("children", ()):
            index(child)

    for root in json.loads(trace_path.read_text())["spans"]:
        index(root)
    return by_name


@pytest.fixture()
def traced_run(tmp_path, capsys):
    # cold-start the caches so the compile spans appear in the trace the
    # way they do on a fresh CLI process (earlier tests warm them)
    from repro.core import engine
    from repro.dependability.bdd import kernel_cache_clear

    engine.path_cache_clear()
    engine._COMPILED.clear()
    kernel_cache_clear()

    trace_path = tmp_path / "out.json"
    code = main(["casestudy", "--trace", str(trace_path), "--metrics"])
    out = capsys.readouterr().out
    return code, trace_path, out


class TestCasestudyTraceMetrics:
    def test_exit_code_and_trace_file(self, traced_run):
        code, trace_path, out = traced_run
        assert code == 0
        data = load(str(trace_path))  # raises if not a valid trace file
        assert data["span_count"] > 0
        assert f"trace written to {trace_path}" in out

    def test_all_eight_steps_have_spans(self, traced_run):
        _, trace_path, _ = traced_run
        data = json.loads(trace_path.read_text())
        names = []
        for root in data["spans"]:
            _span_names(root, names)
        for step in EIGHT_STEPS:
            assert step in names, f"missing span for {step}"
        # Steps 5-8 are traced once, by the pipeline, never by the command
        retired = tuple(f"casestudy.step{n}" for n in (5, 6, 7, 8))
        assert [n for n in names if n.startswith(retired)] == []
        # the automated steps carry engine + kernel children
        assert "engine.discover_many" in names
        assert "engine.discover" in names
        assert "engine.compile" in names
        assert "bdd.compile" in names

    def test_step7_nests_engine_spans(self, traced_run):
        _, trace_path, _ = traced_run
        step7 = _index(trace_path)["pipeline.discover_paths"][0]
        subtree = _span_names(step7, [])
        assert "engine.discover_many" in subtree
        assert "engine.discover" in subtree

    def test_stage_spans_are_children_of_pipeline_run(self, traced_run):
        _, trace_path, _ = traced_run
        (run,) = _index(trace_path)["pipeline.run"]
        children = [child["name"] for child in run["children"]]
        for stage in EIGHT_STEPS[4:]:
            assert stage in children, f"{stage} not under pipeline.run"

    def test_metrics_block_passes_round_trip_parser(self, traced_run):
        _, _, out = traced_run
        # the Prometheus block starts at the first HELP/TYPE line
        lines = out.split("\n")
        start = next(
            i for i, line in enumerate(lines) if line.startswith("# ")
        )
        types, _, samples = parse_exposition("\n".join(lines[start:]))
        assert types.get("repro_engine_paths_discovered_total") == "counter"
        assert types.get("repro_pipeline_stage_seconds") == "histogram"
        assert samples, "no samples parsed from the CLI metrics block"
        paths = samples.get(("repro_engine_paths_discovered_total", ()))
        assert paths is not None and paths >= 1
        # summary table precedes the exposition block
        assert "metric" in out.split("# ")[0]

    def test_plain_casestudy_emits_neither(self, capsys):
        assert main(["casestudy"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE" not in out
        assert "trace written" not in out


class TestObsCommand:
    def test_renders_saved_trace(self, traced_run, capsys):
        _, trace_path, _ = traced_run
        assert main(["obs", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "pipeline.discover_paths" in out
        assert "ms" in out
        assert "span" in out  # trailing span-count line

    def test_max_depth_truncates(self, traced_run, capsys):
        _, trace_path, _ = traced_run
        assert main(["obs", str(trace_path), "--max-depth", "0"]) == 0
        out = capsys.readouterr().out
        assert "casestudy.step1_annotate_profiles" in out
        assert "engine.discover_many" not in out

    def test_rejects_non_trace_file(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text('{"not": "a trace"}')
        code = main(["obs", str(bogus)])
        assert code != 0

    def test_campaign_accepts_observability_flags(self, tmp_path, capsys):
        trace_path = tmp_path / "campaign.json"
        code = main(
            [
                "campaign",
                "--k",
                "1",
                "--trace",
                str(trace_path),
                "--metrics",
            ]
        )
        assert code == 0
        data = load(str(trace_path))
        names = []
        for root in data["spans"]:
            _span_names(root, names)
        assert "campaign.run" in names
        assert "campaign.evaluate" in names
        out = capsys.readouterr().out
        _, _, samples = parse_exposition(
            "\n".join(
                out.split("\n")[
                    next(
                        i
                        for i, line in enumerate(out.split("\n"))
                        if line.startswith("# ")
                    ):
                ]
            )
        )
        campaigns = samples.get(("repro_campaign_runs_total", ()))
        assert campaigns is not None and campaigns >= 1
