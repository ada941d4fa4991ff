"""Tests for the command-line interface."""

import pytest

from repro.analysis.exact import (
    pair_availability_reference,
    system_availability_reference,
)
from repro.analysis.transformations import (
    component_availabilities,
    pair_path_sets,
    service_path_set_groups,
)
from repro.casestudy import printing_mapping, printing_service, usi_builder
from repro.cli import main
from repro.core import MethodologyPipeline, ServiceMapping, ServiceMappingPair
from repro.network import DeviceSpec, TopologyBuilder
from repro.services import AtomicService, CompositeService
from repro.uml import xmi


@pytest.fixture()
def model_files(tmp_path, small_builder):
    service = CompositeService.sequential(
        "fetch", [AtomicService("auth"), AtomicService("get")]
    )
    bundle = xmi.ModelBundle(
        profiles=small_builder.profiles.as_list(),
        class_model=small_builder.class_model,
        object_model=small_builder.object_model,
        activities=[service.activity],
    )
    models_path = tmp_path / "models.xml"
    xmi.dump(bundle, str(models_path))
    mapping = ServiceMapping(
        [
            ServiceMappingPair("auth", "pc", "s"),
            ServiceMappingPair("get", "s", "pc"),
        ]
    )
    mapping_path = tmp_path / "mapping.xml"
    mapping.save(str(mapping_path))
    return str(models_path), str(mapping_path)


class TestCasestudy:
    def test_default_perspective(self, capsys):
        assert main(["casestudy"]) == 0
        out = capsys.readouterr().out
        assert "t1—e1—d1—c1—d4—printS" in out
        assert "upsim_printing_t1_printS" in out
        assert "service (all pairs)" in out

    def test_other_perspective(self, capsys):
        assert main(["casestudy", "--client", "t15", "--printer", "p3"]) == 0
        out = capsys.readouterr().out
        assert "t15" in out
        assert "p3" in out

    def test_unknown_client_is_error(self, tmp_path, capsys):
        # Step 6 rejects a mapping naming a component the infrastructure
        # lacks: MappingError, exit code 6 (see repro.cli docstring) --
        # the same code from casestudy and from analyze on that mapping
        assert main(["casestudy", "--client", "t99"]) == 6
        err = capsys.readouterr().err
        assert "error:" in err and "t99" in err

        builder = usi_builder()
        bundle = xmi.ModelBundle(
            profiles=builder.profiles.as_list(),
            class_model=builder.class_model,
            object_model=builder.object_model,
            activities=[printing_service().activity],
        )
        models = tmp_path / "usi.xml"
        xmi.dump(bundle, str(models))
        mapping = tmp_path / "mapping.xml"
        printing_mapping("t99", "p2", "printS").save(str(mapping))
        argv = ["analyze", "--models", str(models), "--service", "printing"]
        assert main([*argv, "--mapping", str(mapping)]) == 6
        err = capsys.readouterr().err
        assert "error:" in err and "t99" in err

    @pytest.mark.parametrize(
        ("flags", "code"),
        [(["--service", "ghost"], 2)],
    )
    def test_bad_option_exit_codes(self, flags, code, capsys):
        assert main(["casestudy", *flags]) == code
        assert capsys.readouterr().err.startswith("error:")


class TestFileCommands:
    def test_validate_ok(self, model_files, capsys):
        models, _ = model_files
        assert main(["validate", "--models", models]) == 0
        assert "well-formed" in capsys.readouterr().out

    def test_validate_detects_violations(self, tmp_path, small_builder, capsys):
        small_builder.add("dangling", "Pc")
        bundle = xmi.ModelBundle(
            profiles=small_builder.profiles.as_list(),
            class_model=small_builder.class_model,
            object_model=small_builder.object_model,
        )
        path = tmp_path / "bad.xml"
        xmi.dump(bundle, str(path))
        assert main(["validate", "--models", str(path)]) == 1
        assert "no-dangling-instances" in capsys.readouterr().out

    def test_paths(self, model_files, capsys):
        models, _ = model_files
        assert main(
            ["paths", "--models", models, "--requester", "pc", "--provider", "s"]
        ) == 0
        out = capsys.readouterr().out
        assert "pc -> s (2)" in out

    def test_paths_unknown_node(self, model_files, capsys):
        models, _ = model_files
        # PathDiscoveryError maps to exit code 11 (see repro.cli docstring)
        assert main(
            ["paths", "--models", models, "--requester", "pc", "--provider", "zz"]
        ) == 11

    def test_generate_with_outputs(self, model_files, tmp_path, capsys):
        models, mapping = model_files
        out_xml = tmp_path / "upsim.xml"
        out_dot = tmp_path / "upsim.dot"
        code = main(
            [
                "generate",
                "--models", models,
                "--service", "fetch",
                "--mapping", mapping,
                "--out", str(out_xml),
                "--dot", str(out_dot),
            ]
        )
        assert code == 0
        reloaded = xmi.load(str(out_xml))
        assert reloaded.object_model is not None
        assert set(reloaded.object_model.instance_names()) == {
            "pc", "e", "a", "b", "s"
        }
        assert out_dot.read_text().startswith("graph")

    def test_analyze(self, model_files, capsys):
        models, mapping = model_files
        code = main(
            [
                "analyze",
                "--models", models,
                "--service", "fetch",
                "--mapping", mapping,
                "--mc", "20000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "availability report" in out
        assert "Monte-Carlo" in out

    @pytest.mark.parametrize("command", ["casestudy", "analyze"])
    def test_negative_monte_carlo_samples_exit_12(
        self, model_files, command, capsys
    ):
        """A negative ``--mc`` is an error, not a report without the
        Monte-Carlo line."""
        models, mapping = model_files
        argv = [command, "--mc", "-5"]
        if command == "analyze":
            argv += ["--models", models, "--service", "fetch", "--mapping", mapping]
        assert main(argv) == 12
        captured = capsys.readouterr()
        assert "Monte-Carlo samples must be >= 0, got -5" in captured.err
        assert "availability report" not in captured.out

    def test_analyze_no_links(self, model_files, capsys):
        models, mapping = model_files
        assert main(
            [
                "analyze",
                "--models", models,
                "--service", "fetch",
                "--mapping", mapping,
                "--no-links",
            ]
        ) == 0

    def test_missing_models_file(self, capsys):
        with pytest.raises(SystemExit):
            main(["validate"])  # argparse: --models required

    def test_unknown_service_in_bundle(self, model_files, capsys):
        models, mapping = model_files
        # SerializationError (no such activity in the bundle) maps to 4
        assert main(
            ["analyze", "--models", models, "--service", "ghost", "--mapping", mapping]
        ) == 4


class TestKernelFlag:
    """``--kernel`` is gone: the compiled BDD is the one route, checked
    here against the state-enumeration reference kernels."""

    def test_casestudy_kernels_agree(self, monkeypatch, capsys):
        """The default ``casestudy`` report's pair and service
        availabilities equal the references to 1e-12."""
        reports = []
        analyze = MethodologyPipeline.analyze

        def spy(pipeline, **kwargs):
            reports.append((pipeline.upsim, analyze(pipeline, **kwargs)))
            return reports[-1][1]

        monkeypatch.setattr(MethodologyPipeline, "analyze", spy)
        assert main(["casestudy"]) == 0
        assert "service (all pairs)" in capsys.readouterr().out
        ((upsim, report),) = reports
        table = component_availabilities(upsim.model)
        assert report.service_availability == pytest.approx(
            system_availability_reference(service_path_set_groups(upsim), table),
            abs=1e-12,
        )
        assert len(report.pairs) == len(upsim.path_sets)
        for pair, path_set in zip(report.pairs, upsim.path_sets.values()):
            assert pair.availability == pytest.approx(
                pair_availability_reference(pair_path_sets(path_set), table),
                abs=1e-12,
            )

    def test_unknown_kernel_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["casestudy", "--kernel", "bdd"])
        assert "unrecognized arguments: --kernel" in capsys.readouterr().err
