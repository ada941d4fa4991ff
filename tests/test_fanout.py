"""The one worker thread (:func:`repro.fanout.call_with_deadline`).

The deadline thread of the resilient runner and the live evaluator must
keep its spans under the caller's.
"""

from __future__ import annotations

import threading

import pytest

from repro import fanout
from repro.cli import main
from repro.core import engine
from repro.core.churn import ChurnPolicy, LinkCut, LiveEvaluator
from repro.dependability.bdd import kernel_cache_clear
from repro.network.generators import campus
from repro.obs.trace import Tracer, activate, load

pytestmark = pytest.mark.fanout


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
