"""The one worker fan-out (:mod:`repro.fanout`) every parallel route uses.

``compile_many`` picks the start method by one rule — fork in a
single-threaded process that has it, spawn otherwise — so these tests
drive it through both methods on Linux without any knob: a live helper
thread is what makes it spawn.
The deadline thread of the resilient runner and the live evaluator
(:func:`repro.fanout.call_with_deadline`) must keep its spans under the
caller's.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading

import pytest

from repro import fanout
from repro.cli import main
from repro.core import engine
from repro.core.churn import ChurnPolicy, LinkCut, LiveEvaluator
from repro.dependability.bdd import compile_many, compile_structure, kernel_cache_clear
from repro.errors import AnalysisError
from repro.network.generators import campus
from repro.obs.trace import Tracer, activate, load

pytestmark = pytest.mark.fanout

STRUCTURES = [
    [[frozenset({f"s{s}a", f"s{s}b"}), frozenset({f"s{s}a", f"s{s}c"})]]
    for s in range(5)
] + [[[frozenset({"x", "y"})], [frozenset({"y", "z"}), frozenset({"w"})]]]


def _exit_with(code):
    sys.exit(code)


def run_compile_plane():
    """Fan a cold compile out, traced; return the start method its span
    recorded."""
    reference = [compile_structure(s, use_cache=False) for s in STRUCTURES]
    kernel_cache_clear()
    tracer = Tracer()
    with activate(tracer):
        kernels = compile_many(STRUCTURES, jobs=2)
    for kernel, ref in zip(kernels, reference):
        assert kernel.variables == ref.variables
        assert kernel.fingerprint == ref.fingerprint
        table = {v: 0.7 + 0.02 * i for i, v in enumerate(ref.variables)}
        assert kernel.availability(table) == ref.availability(table)
        assert set(kernel.minimal_path_sets()) == set(ref.minimal_path_sets())
    (many_span,) = tracer.find("bdd.compile.many")
    assert many_span.attrs["shipped"] == len(STRUCTURES)
    assert many_span.attrs["fallback"] == 0
    return many_span.attrs["method"]


class TestBalance:
    def test_spreads_by_cost(self):
        assignments = fanout.balance([100, 1, 1, 1, 1], workers=2)
        loads = [sum([100, 1, 1, 1, 1][i] for i in a) for a in assignments]
        # the four small tasks all land opposite the giant one
        assert sorted(loads) == [4, 100]

    def test_every_task_assigned_once(self):
        assignments = fanout.balance([3, 5, 2, 8, 1, 1], workers=3)
        flat = sorted(i for a in assignments for i in a)
        assert flat == [0, 1, 2, 3, 4, 5]


class TestRun:
    def test_names_every_failed_worker(self):
        with pytest.raises(
            AnalysisError, match="job 1: exit code 3; job 2: exit code 4"
        ):
            fanout.run(_exit_with, [(0,), (3,), (4,)], 60.0, label="job")


class TestStartMethod:
    def test_live_thread_spawns(self, helper_thread, no_fanout_leftovers):
        """Abandoned daemon threads may hold locks a fork would copy."""
        assert fanout.start_method() == "spawn"
        assert run_compile_plane() == "spawn"

    @pytest.mark.skipif(sys.platform != "linux", reason="fork is Linux-only here")
    def test_single_threaded_linux_forks(
        self, forked_workers, no_fanout_leftovers
    ):
        assert fanout.start_method() == "fork"
        assert run_compile_plane() == "fork"

    def test_platform_without_fork_spawns(
        self, monkeypatch, no_fanout_leftovers
    ):
        """Where fork does not exist, the plane still fans out."""
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        assert run_compile_plane() == "spawn"


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

    def test_late_result_is_unfinished(self):
        """Sub-millisecond work can finish before the waiting thread wakes;
        past the timeout it still comes back unfinished."""
        assert fanout.call_with_deadline(lambda: 7, 1e-6) == (False, None, None)

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
            body = live._compute
            threads = []

            def worker(*args):
                threads.append(threading.current_thread())
                return body(*args)

            live._compute = worker
            live.submit(LinkCut("dist0", "core1"))
            assert live.pump()
        assert threads and threads[0] is not threading.current_thread()
        assert _root_layers([r.name for r in tracer.roots]) == []
        (recompute,) = [r for r in tracer.roots if r.name == "dynamics.recompute"]
        assert "dynamics.condition" in _subtree_names(recompute)
