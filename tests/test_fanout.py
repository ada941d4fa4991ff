"""The one worker fan-out (:mod:`repro.fanout`) every parallel route uses.

Sharded population sweeps and ``compile_many`` pick the start method the
same way — fork in a single-threaded process that has it, spawn
otherwise — so these tests drive both planes through both methods on
Linux without any knob: a live helper thread is what makes them spawn.
The deadline thread of the resilient runner and the live evaluator
(:func:`repro.fanout.call_with_deadline`) must keep its spans under the
caller's.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading

import numpy as np
import pytest

from repro import fanout
from repro.casestudy import CLIENTS, printing_mapping
from repro.cli import main
from repro.core import engine
from repro.core.churn import ChurnPolicy, LinkCut, LiveEvaluator
from repro.dependability.bdd import compile_many, compile_structure, kernel_cache_clear
from repro.errors import AnalysisError
from repro.network.generators import campus
from repro.obs.trace import Tracer, activate, load
from repro.workload import Population, UserClass, evaluate_population

pytestmark = pytest.mark.fanout

CLASSES = (
    UserClass("std", weight=4, device_availability=0.98, jitter=0.05),
    UserClass("gold", weight=1, device_availability=0.9999),
)

STRUCTURES = [
    [[frozenset({f"s{s}a", f"s{s}b"}), frozenset({f"s{s}a", f"s{s}c"})]]
    for s in range(5)
] + [[[frozenset({"x", "y"})], [frozenset({"y", "z"}), frozenset({"w"})]]]


def usi_mapping(client):
    return printing_mapping(client, "p2")


def _exit_with(code):
    sys.exit(code)


def run_both_planes(usi_topo, printing):
    """Shard a population and fan a cold compile out, traced; return the
    start method each plane's span recorded."""
    population = Population.generate(1500, CLASSES, CLIENTS, seed=5)
    serial = evaluate_population(usi_topo, printing, usi_mapping, population)
    reference = [compile_structure(s, use_cache=False) for s in STRUCTURES]
    kernel_cache_clear()
    tracer = Tracer()
    with activate(tracer):
        sharded = evaluate_population(
            usi_topo, printing, usi_mapping, population, shards=2
        )
        kernels = compile_many(STRUCTURES, jobs=2)
    assert sharded.shards == 2
    assert np.array_equal(sharded.availability, serial.availability)
    for kernel, ref in zip(kernels, reference):
        assert kernel.variables == ref.variables
        assert kernel.fingerprint == ref.fingerprint
        table = {v: 0.7 + 0.02 * i for i, v in enumerate(ref.variables)}
        assert kernel.availability(table) == ref.availability(table)
        assert set(kernel.minimal_path_sets()) == set(ref.minimal_path_sets())
    (shards_span,) = tracer.find("workload.shards")
    (many_span,) = tracer.find("bdd.compile.many")
    assert many_span.attrs["shipped"] == len(STRUCTURES)
    assert many_span.attrs["fallback"] == 0
    return shards_span.attrs["method"], many_span.attrs["method"]


class TestRun:
    def test_names_every_failed_worker(self):
        with pytest.raises(
            AnalysisError, match="job 1: exit code 3; job 2: exit code 4"
        ):
            fanout.run(_exit_with, [(0,), (3,), (4,)], 60.0, label="job")


class TestStartMethod:
    def test_live_thread_spawns(
        self, usi_topo, printing, helper_thread, no_fanout_leftovers
    ):
        """Abandoned daemon threads may hold locks a fork would copy."""
        assert fanout.start_method() == "spawn"
        assert run_both_planes(usi_topo, printing) == ("spawn", "spawn")

    @pytest.mark.skipif(sys.platform != "linux", reason="fork is Linux-only here")
    def test_single_threaded_linux_forks(
        self, usi_topo, printing, forked_workers, no_fanout_leftovers
    ):
        assert fanout.start_method() == "fork"
        assert run_both_planes(usi_topo, printing) == ("fork", "fork")

    def test_platform_without_fork_spawns(
        self, usi_topo, printing, monkeypatch, no_fanout_leftovers
    ):
        """Where fork does not exist, both planes still fan out."""
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        assert run_both_planes(usi_topo, printing) == ("spawn", "spawn")


def _root_layers(roots):
    """Root span names that belong to the engine or the BDD kernel."""
    return [name for name in roots if name.startswith(("engine.", "bdd."))]


def _subtree_names(span):
    names = set()
    for child in span.children:
        names |= {child.name} | _subtree_names(child)
    return names


class TestCallWithDeadline:
    def test_worker_spans_nest_under_caller(self):
        tracer = Tracer()

        def work():
            with tracer.span("work"):
                return 7

        with activate(tracer):
            with tracer.span("caller"):
                outcome = fanout.call_with_deadline(work, 5.0)
        assert outcome == (True, 7, None)
        assert [r.name for r in tracer.roots] == ["caller"]
        assert [c.name for c in tracer.roots[0].children] == ["work"]

    def test_expired_attempt_is_abandoned(self):
        release = threading.Event()
        try:
            outcome = fanout.call_with_deadline(release.wait, 0.01)
        finally:
            release.set()
        assert outcome == (False, None, None)

    @pytest.mark.parametrize("timeout", [None, 5.0])
    def test_error_is_returned_not_raised(self, timeout):
        def work():
            raise KeyError("boom")

        finished, result, error = fanout.call_with_deadline(work, timeout)
        assert finished and result is None
        assert isinstance(error, KeyError)

    def test_casestudy_inject_has_no_engine_root_span(self, tmp_path, capsys):
        """The resilient runner's per-pair discovery nests under
        ``resilience.pair`` instead of surfacing at the trace root."""
        trace_path = tmp_path / "trace.json"
        argv = ["casestudy", "--inject", "crash:e3", "--trace", str(trace_path)]
        assert main(argv) == 0
        capsys.readouterr()
        roots = [root["name"] for root in load(str(trace_path))["spans"]]
        assert _root_layers(roots) == []
        assert "pipeline.run" in roots

    def test_churn_deadline_spans_nest_under_recompute(self):
        engine.path_cache_clear()
        engine.block_cache_clear()
        kernel_cache_clear()
        model = campus(
            dist_switches=3, edges_per_dist=2, clients_per_edge=2
        ).object_model
        tracer = Tracer()
        with activate(tracer):
            live = LiveEvaluator(
                model, [("client", "server")], policy=ChurnPolicy(deadline=5.0)
            )
            live.submit(LinkCut("dist0", "core1"))
            assert live.pump()
        assert _root_layers([r.name for r in tracer.roots]) == []
        (recompute,) = [r for r in tracer.roots if r.name == "dynamics.recompute"]
        below = _subtree_names(recompute)
        assert {"engine.discover_delta", "bdd.recompile_delta"} <= below
