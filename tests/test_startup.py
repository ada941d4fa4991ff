"""Start-up floor: a command loads only the modules it runs.

``scipy`` (only ``expm``, for CTMC transients and the responsiveness
dimension) and ``networkx`` (only ``to_networkx``, ``upsim diversity``
and the ``discover_paths_networkx`` cross-check) are imported inside
the functions that use them.  The commands that need neither must not
load them.  The package ``__init__``s export their names lazily
(:mod:`repro._lazy`), so ``upsim casestudy`` also loads none of the
churn, what-if, SLA, placement, resilience and workload modules, and
neither ``numpy.ma`` nor ``numpy.random``; ``population``, ``churn`` and
``campaign`` do not load ``numpy.ma`` either.  Each case runs in a fresh
interpreter, because this test process has all of them loaded already.
No timing is pinned: the ``sys.modules`` check is the deterministic part
of the gain.
"""

import importlib
import json
import math
import os
import re
import subprocess
import sys
import textwrap

import pytest

pytestmark = pytest.mark.startup

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.abspath(os.path.join(HERE, "..", "src"))

HEAVY = ("scipy", "networkx")

#: modules ``upsim casestudy`` never runs
CASESTUDY_UNUSED = (
    "repro.core.churn",
    "repro.core.dynamics",
    "repro.analysis.whatif",
    "repro.analysis.sla",
    "repro.analysis.placement",
    "repro.resilience",
    "repro.workload",
    "numpy.ma",
    "numpy.random",
)

#: the packages whose ``__init__`` exports its names lazily
LAZY_PACKAGES = (
    "repro.core",
    "repro.analysis",
    "repro.dependability",
    "repro.network",
    "repro.vpm",
    "repro.viz",
    "repro.uml",
    "repro.services",
)


def _fresh(body, cwd):
    """Run *body* in a new interpreter; return the JSON of its last line."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_STORE"}
    env["PYTHONPATH"] = SRC
    result = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(body)],
        capture_output=True,
        text=True,
        env=env,
        cwd=str(cwd),
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


def _loaded_after_main(argv, cwd, modules=HEAVY):
    """Which of *modules* ``main(argv)`` leaves in ``sys.modules``."""
    return _fresh(
        f"""
        import contextlib, io, json, sys
        from repro.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            code = main({argv!r})
        print(json.dumps({{
            "code": code,
            "loaded": [m for m in {modules!r} if m in sys.modules],
        }}))
        """,
        cwd,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["casestudy"],
        ["casestudy", "--client", "t7", "--printer", "p3"],
        ["population", "--users", "200"],
        ["churn", "--events", "5", "--pairs", "1"],
        ["campaign", "--faults", "crash:c1"],
    ],
    ids=["casestudy", "casestudy_t7_p3", "population", "churn", "campaign"],
)
def test_default_commands_load_neither_package(argv, tmp_path):
    modules = (
        HEAVY + CASESTUDY_UNUSED
        if argv[0] == "casestudy"
        else HEAVY + ("numpy.ma",)
    )
    result = _loaded_after_main(argv, tmp_path, modules)
    assert result == {"code": 0, "loaded": []}


def test_package_imports_load_neither_package(tmp_path):
    loaded = _fresh(
        f"""
        import json, sys
        import repro, repro.cli, repro.core, repro.network
        import repro.dependability, repro.analysis
        print(json.dumps({{
            "unused": [
                m for m in {HEAVY + CASESTUDY_UNUSED!r} if m in sys.modules
            ],
            # the traced casestudy-cold ledger wraps the kernel entry
            # points right after ``import repro.cli``: they must be loaded
            "bdd": "repro.dependability.bdd" in sys.modules,
        }}))
        """,
        tmp_path,
    )
    assert loaded == {"unused": [], "bdd": True}


def test_network_inventory_stays_the_function(tmp_path):
    # ``inventory`` names a submodule and the function it defines; the
    # submodule's first import rebinds the package attribute to the module
    # unless the package binds the function after it
    got = _fresh(
        """
        import json
        import repro.network
        first = repro.network.inventory
        import repro.network.inventory
        from repro.network import inventory
        print(json.dumps([
            callable(first),
            repro.network.inventory is first,
            inventory is first,
        ]))
        """,
        tmp_path,
    )
    assert got == [True, True, True]


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_exports_behave_like_eager_ones(package):
    module = importlib.import_module(package)
    assert set(dir(module)) >= set(module.__all__)
    namespace = {}
    exec(f"from {package} import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(module.__all__)
    with pytest.raises(AttributeError, match=re.escape(repr(package))):
        getattr(module, "no_such_export")


def test_diversity_loads_networkx(tmp_path):
    from repro.casestudy import printing_service, usi_builder
    from repro.uml import xmi

    builder = usi_builder()
    models = tmp_path / "usi.xml"
    xmi.dump(
        xmi.ModelBundle(
            profiles=builder.profiles.as_list(),
            class_model=builder.class_model,
            object_model=builder.object_model,
            activities=[printing_service().activity],
        ),
        str(models),
    )
    argv = [
        "diversity",
        "--models", str(models),
        "--requester", "t1",
        "--provider", "printS",
    ]
    result = _loaded_after_main(argv, tmp_path)
    assert result["code"] == 0
    assert "networkx" in result["loaded"]


def test_responsiveness_dimension_loads_scipy(tmp_path):
    argv = ["casestudy", "--dimensions", "responsiveness"]
    result = _loaded_after_main(argv, tmp_path)
    assert result["code"] == 0
    assert "scipy" in result["loaded"]


def test_ctmc_transient_values(tmp_path):
    mtbf, mttr, t = 1000.0, 8.0, 5.0
    got = _fresh(
        f"""
        import json
        from repro.dependability.markov import component_ctmc
        print(json.dumps(component_ctmc({mtbf}, {mttr}).transient("up", {t}).tolist()))
        """,
        tmp_path,
    )
    # closed form of the two-state chain started "up"
    lam, mu = 1.0 / mtbf, 1.0 / mttr
    up = mu / (lam + mu) + lam / (lam + mu) * math.exp(-(lam + mu) * t)
    assert got == pytest.approx([up, 1.0 - up], abs=1e-12)


def test_to_networkx_values(tmp_path):
    from repro.casestudy import usi_topology

    topology = usi_topology()
    got = _fresh(
        """
        import json
        from repro.casestudy import usi_topology
        graph = usi_topology().to_networkx()
        print(json.dumps({
            "name": graph.name,
            "nodes": sorted(graph.nodes(data="classifier")),
            "edges": sorted(sorted(edge) for edge in graph.edges()),
        }))
        """,
        tmp_path,
    )
    assert got["name"] == topology.model.name
    assert got["nodes"] == sorted(
        [name, topology.instance(name).classifier.name]
        for name in topology.nodes()
    )
    assert got["edges"] == sorted(sorted(edge) for edge in topology.edges())


def test_traced_casestudy_opens_with_startup_root(tmp_path):
    spans = _fresh(
        """
        import contextlib, io, json
        from repro.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["casestudy", "--trace", "first.json"]) == 0
            assert main(["casestudy", "--trace", "second.json"]) == 0
        print(json.dumps([
            json.load(open(name))["spans"]
            for name in ("first.json", "second.json")
        ]))
        """,
        tmp_path,
    )
    first, second = spans
    startup = first[0]
    assert startup["name"] == "startup"
    assert startup["children"] == []
    assert startup["start"] == 0.0
    assert startup["duration"] > 0.0
    assert startup["attrs"]["modules"] > 0
    step1 = next(
        root for root in first
        if root["name"] == "casestudy.step1_annotate_profiles"
    )
    assert startup["start"] + startup["duration"] <= step1["start"]
    assert all(root["start"] >= 0.0 for root in first)
    # only the first main() call in a process owns the start-up interval
    assert [root["name"] for root in second].count("startup") == 0
    assert second[0]["name"] == "casestudy.step1_annotate_profiles"
