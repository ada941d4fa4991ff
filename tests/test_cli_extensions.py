"""Tests for the operational CLI subcommands (impact/inventory/diversity/sla/query)."""

import pytest

from repro.casestudy import printing_service, table1_mapping, usi_builder
from repro.cli import main
from repro.uml import xmi


@pytest.fixture(scope="module")
def usi_files(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("usi_cli")
    builder = usi_builder()
    service = printing_service()
    bundle = xmi.ModelBundle(
        profiles=builder.profiles.as_list(),
        class_model=builder.class_model,
        object_model=builder.object_model,
        activities=[service.activity],
    )
    models = tmp_path / "usi.xml"
    xmi.dump(bundle, str(models))
    mapping = tmp_path / "mapping.xml"
    table1_mapping().save(str(mapping))
    return str(models), str(mapping), tmp_path


class TestImpact:
    def test_node_granularity(self, usi_files, capsys):
        models, mapping, _ = usi_files
        code = main(
            ["impact", "--models", models, "--service", "printing", "--mapping", mapping]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "printS" in out
        assert "hard outages" in out

    def test_link_granularity(self, usi_files, capsys):
        models, mapping, _ = usi_files
        code = main(
            [
                "impact",
                "--models", models,
                "--service", "printing",
                "--mapping", mapping,
                "--links",
            ]
        )
        assert code == 0
        assert "c1|c2" in capsys.readouterr().out


class TestUnknownDimension:
    def test_analyze_fails_before_any_output(self, usi_files, capsys):
        models, mapping, _ = usi_files
        code = main(
            [
                "analyze",
                "--models", models,
                "--service", "printing",
                "--mapping", mapping,
                "--dimensions", "availability,nope",
            ]
        )
        captured = capsys.readouterr()
        assert code == 12  # AnalysisError
        assert captured.out == ""
        assert "unknown dimension 'nope'" in captured.err


class TestAnalyzeIgnoresIrrelevantPairs:
    def test_pair_for_unused_service_with_unknown_components(
        self, usi_files, capsys
    ):
        """Section VI-D: a pair for an atomic service the composite never
        runs is ignored, even when its components are not in the model."""
        from repro.core import ServiceMappingPair

        models, mapping, tmp_path = usi_files
        extended = table1_mapping()
        extended.add(ServiceMappingPair("scan_documents", "t99", "scanner7"))
        extended_path = tmp_path / "extended_mapping.xml"
        extended.save(str(extended_path))
        argv = ["analyze", "--models", models, "--service", "printing"]

        assert main([*argv, "--mapping", mapping]) == 0
        plain = capsys.readouterr().out
        assert main([*argv, "--mapping", str(extended_path)]) == 0
        assert capsys.readouterr().out == plain
        assert "service (all pairs)" in plain


class TestInventory:
    def test_table_and_articulation_points(self, usi_files, capsys):
        models, _, _ = usi_files
        assert main(["inventory", "--models", models]) == 0
        out = capsys.readouterr().out
        assert "Comp" in out
        assert "articulation points" in out
        assert "e1" in out


class TestDiversity:
    def test_usi_pair(self, usi_files, capsys):
        models, _, _ = usi_files
        code = main(
            [
                "diversity",
                "--models", models,
                "--requester", "t1",
                "--provider", "printS",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "discovered paths:      2" in out
        assert "single node failure can disconnect" in out

    def test_unknown_node(self, usi_files, capsys):
        models, _, _ = usi_files
        assert main(
            [
                "diversity",
                "--models", models,
                "--requester", "t1",
                "--provider", "zzz",
            ]
        ) == 11  # PathDiscoveryError exit code


class TestSLA:
    def test_met(self, usi_files, capsys):
        models, mapping, _ = usi_files
        code = main(
            [
                "sla",
                "--models", models,
                "--service", "printing",
                "--mapping", mapping,
                "--required", "0.99",
            ]
        )
        assert code == 0
        assert "MET" in capsys.readouterr().out

    def test_violated_with_plan(self, usi_files, capsys):
        models, mapping, _ = usi_files
        code = main(
            [
                "sla",
                "--models", models,
                "--service", "printing",
                "--mapping", mapping,
                "--required", "0.999",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out
        assert "upgrade options" in out
        assert "t1" in out


class TestQuery:
    def test_query_printers(self, usi_files, capsys):
        models, _, tmp_path = usi_files
        pattern = tmp_path / "printers.vtcl"
        pattern.write_text(
            'pattern printers(p) {\n'
            '    p : instanceof "uml.classes.Printer"\n'
            '}\n',
            encoding="utf-8",
        )
        assert main(
            ["query", "--models", models, "--pattern-file", str(pattern)]
        ) == 0
        out = capsys.readouterr().out
        assert "uml.instances.p1" in out
        assert "(3 match(es))" in out

    def test_query_no_matches(self, usi_files, capsys):
        models, _, tmp_path = usi_files
        pattern = tmp_path / "none.vtcl"
        pattern.write_text(
            'pattern q(x) {\n    x in "nowhere"\n}\n', encoding="utf-8"
        )
        assert main(
            ["query", "--models", models, "--pattern-file", str(pattern)]
        ) == 0
        assert "no matches" in capsys.readouterr().out

    def test_query_bad_pattern(self, usi_files, capsys):
        models, _, tmp_path = usi_files
        pattern = tmp_path / "bad.vtcl"
        pattern.write_text("not a pattern", encoding="utf-8")
        assert main(
            ["query", "--models", models, "--pattern-file", str(pattern)]
        ) == 5  # ModelSpaceError exit code


class TestChurn:
    def test_text_report(self, capsys):
        code = main(["churn", "--events", "30", "--seed", "5", "--pairs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "events" in out
        assert "epoch" in out
        assert "availability" in out

    def test_json_report(self, capsys):
        import json

        code = main(
            ["churn", "--events", "20", "--seed", "3", "--pairs", "2", "--json"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["events"] == 20
        assert data["final"]["stale"] is False
        assert data["final"]["epoch"] >= 1

    def test_full_recompile_mode_agrees(self, capsys):
        import json

        main(["churn", "--events", "15", "--seed", "8", "--json"])
        delta = json.loads(capsys.readouterr().out)
        main(["churn", "--events", "15", "--seed", "8", "--json", "--full"])
        full = json.loads(capsys.readouterr().out)
        assert delta["final"]["availability"] == pytest.approx(
            full["final"]["availability"], abs=1e-12
        )

    def test_deadline_misses_reported(self, capsys):
        import json

        code = main(
            [
                "churn",
                "--events", "40",
                "--seed", "1",
                "--deadline", "0.000001",  # 1ns in ms: unmeetable
                "--json",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        # catch-up after the stream drains leaves the final epoch fresh
        assert data["final"]["stale"] is False

    def test_too_many_pairs_rejected(self, capsys):
        code = main(["churn", "--pairs", "500"])
        assert code == 8  # TopologyError

    @pytest.mark.parametrize(
        "flag, value",
        [("--retries", "-1"), ("--deadline", "-1"), ("--deadline", "0"),
         ("--window", "-3"), ("--window", "0")],
    )
    def test_out_of_range_policy_rejected(self, capsys, flag, value):
        code = main(["churn", "--events", "20", flag, value])
        assert code == 12  # AnalysisError, like --events
        captured = capsys.readouterr()
        assert captured.out == ""  # no report from a run that never ran
        assert "churn" in captured.err


class TestStoreCommand:
    @pytest.fixture(autouse=True)
    def _clean_store_config(self, monkeypatch):
        from repro import store as store_mod

        monkeypatch.delenv(store_mod.ENV_STORE, raising=False)
        store_mod.reset()
        # earlier tests leave the in-process LRUs warm; drop them so the
        # runs below actually exercise the store tier (a warm LRU hit
        # never needs the store, exactly like a long-lived service)
        self._fresh_caches()
        yield
        store_mod.reset()

    @staticmethod
    def _fresh_caches():
        from repro.core import engine
        from repro.dependability import bdd

        engine._COMPILED.clear()
        engine.path_cache_clear()
        engine.block_cache_clear()
        engine.reset_engine_stats()
        bdd.kernel_cache_clear()
        bdd.reset_kernel_stats()

    def test_run_with_store_then_ls_verify_gc(self, tmp_path, capsys):
        store_dir = str(tmp_path / "artifacts")
        # a traced run with --store persists every compiled structure
        code = main(["casestudy", "--store", store_dir])
        assert code == 0
        capsys.readouterr()

        code = main(["store", "ls", "--store", store_dir])
        assert code == 0
        out = capsys.readouterr().out
        assert "kernel" in out and "csr" in out and "pathset" in out

        code = main(["store", "verify", "--store", store_dir])
        assert code == 0
        assert "0 ok" not in capsys.readouterr().out

        code = main(["store", "gc", "--store", store_dir, "--max-bytes", "0"])
        assert code == 0
        assert "reclaimed" in capsys.readouterr().out

        code = main(["store", "ls", "--store", store_dir])
        assert code == 0
        assert "(0 object(s), 0 bytes)" in capsys.readouterr().out

    def test_verify_flags_corruption_with_exit_1(self, tmp_path, capsys):
        from repro.store import ArtifactStore
        import numpy as np

        store_dir = tmp_path / "artifacts"
        store = ArtifactStore(store_dir)
        digest = store.put("csr", ("fp",), {"x": np.arange(4)})
        path = store.object_path(digest)
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF
        path.write_bytes(bytes(blob))
        code = main(["store", "verify", "--store", str(store_dir)])
        assert code == 1
        assert "corrupt" in capsys.readouterr().out

    @pytest.mark.parametrize("action", ["ls", "verify", "gc"])
    def test_missing_store_directory_is_not_created(
        self, tmp_path, capsys, action
    ):
        store_dir = tmp_path / "typo" / "artifacts"
        code = main(["store", action, "--store", str(store_dir)])
        captured = capsys.readouterr()
        assert code == 14  # StoreError
        assert captured.out == ""
        assert "no store directory" in captured.err
        assert not (tmp_path / "typo").exists()

    @pytest.mark.parametrize("action", ["ls", "verify", "gc"])
    def test_directory_that_is_not_a_store_is_left_alone(
        self, tmp_path, capsys, action
    ):
        not_a_store = tmp_path / "docs"
        not_a_store.mkdir()
        code = main(["store", action, "--store", str(not_a_store)])
        captured = capsys.readouterr()
        assert code == 14  # StoreError
        assert captured.out == ""
        assert "not an artifact store" in captured.err
        assert list(not_a_store.iterdir()) == []

    def test_store_without_directory_maps_to_exit_14(self, capsys):
        code = main(["store", "ls"])
        assert code == 14  # StoreError
        assert "no store directory" in capsys.readouterr().err

    def test_malformed_max_bytes_with_store_flag_exits_14(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro import store as store_mod

        monkeypatch.setenv(store_mod.ENV_MAX_BYTES, "abc")
        code = main(["casestudy", "--store", str(tmp_path / "artifacts")])
        assert code == 14  # StoreError
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: REPRO_STORE_MAX_BYTES must be an integer >= 0, got 'abc'"
        ]

    def test_malformed_max_bytes_with_env_store_runs_without_store(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro import store as store_mod

        monkeypatch.setenv(store_mod.ENV_STORE, str(tmp_path / "from-env"))
        monkeypatch.setenv(store_mod.ENV_MAX_BYTES, "abc")
        assert main(["casestudy"]) == 0
        assert "printS" in capsys.readouterr().out
        assert not (tmp_path / "from-env").exists()

    def test_env_variable_names_the_store(self, tmp_path, capsys, monkeypatch):
        from repro import store as store_mod
        from repro.store import ArtifactStore
        import numpy as np

        store_dir = tmp_path / "from-env"
        ArtifactStore(store_dir).put("kernel", ("fp",), {"x": np.arange(3)})
        monkeypatch.setenv(store_mod.ENV_STORE, str(store_dir))
        code = main(["store", "ls"])
        assert code == 0
        assert "kernel" in capsys.readouterr().out

    def test_gc_without_bound_errors(self, tmp_path, capsys):
        store_dir = str(tmp_path / "artifacts")
        main(["casestudy", "--store", store_dir])
        capsys.readouterr()
        code = main(["store", "gc", "--store", store_dir])
        assert code == 14
        assert "size bound" in capsys.readouterr().err

    def test_second_run_hits_the_store(self, tmp_path, capsys):
        """--store on back-to-back runs: the repeat run performs zero
        path enumerations (all three tiers served from disk)."""
        from repro.core import engine
        from repro.dependability import bdd

        store_dir = str(tmp_path / "artifacts")
        assert main(["casestudy", "--store", store_dir]) == 0
        capsys.readouterr()
        # forget everything the first run cached in this process
        self._fresh_caches()
        assert main(["casestudy", "--store", store_dir]) == 0
        capsys.readouterr()
        assert engine.engine_stats()["enumerations"] == 0
        assert bdd.kernel_stats()["compilations"] == 0
