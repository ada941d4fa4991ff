"""Trace correctness: nesting, cross-thread propagation, export."""

import json
import threading

import pytest

from repro.core import engine
from repro.core.engine import discover_many
from repro.obs import trace as _trace
from repro.obs.trace import (
    NOOP_TRACER,
    NoopTracer,
    Span,
    Tracer,
    activate,
    get_tracer,
    load,
    render,
    set_tracer,
)


class TestNesting:
    def test_sibling_and_child_spans_nest(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child-a"):
                with tracer.span("grandchild"):
                    pass
            with tracer.span("child-b"):
                pass
        assert [r.name for r in tracer.roots] == ["root"]
        root = tracer.roots[0]
        assert [c.name for c in root.children] == ["child-a", "child-b"]
        assert [c.name for c in root.children[0].children] == ["grandchild"]
        assert tracer.span_count == 4

    def test_attrs_from_kwargs_and_set(self):
        tracer = Tracer()
        with tracer.span("op", kind="test") as span:
            span.set(result=42)
        assert tracer.roots[0].attrs == {"kind": "test", "result": 42}

    def test_exception_records_error_attr_and_closes_span(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("payload")
        span = tracer.roots[0]
        assert span.attrs["error"] == "ValueError: payload"
        assert span.end is not None
        assert tracer.current() is None

    def test_record_adds_a_closed_span_on_the_origin_clock(self):
        tracer = Tracer(origin=100.0)
        first = tracer.record("early", 100.0, 100.25, modules=3)
        with tracer.span("outer"):
            nested = tracer.record("inner", 100.5, 101.0)
        assert [r.name for r in tracer.roots] == ["early", "outer"]
        assert (first.start, first.duration, first.attrs) == (0.0, 0.25, {"modules": 3})
        assert tracer.roots[1].children == [nested]
        assert (nested.start, nested.end) == (0.5, 1.0)
        assert tracer.span_count == 3

    def test_durations_are_monotone(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer = tracer.roots[0]
        inner = outer.children[0]
        assert outer.duration >= inner.duration >= 0.0

    def test_find_walks_depth_first(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("b"):
                pass
        assert len(tracer.find("b")) == 2
        assert tracer.find("missing") == []


class TestCrossThread:
    def test_context_reparents_worker_spans(self):
        tracer = Tracer()

        def worker(parent):
            with tracer.context(parent):
                with tracer.span("worker-op"):
                    pass

        with tracer.span("batch"):
            parent = tracer.current()
            thread = threading.Thread(target=worker, args=(parent,))
            thread.start()
            thread.join()
        batch = tracer.roots[0]
        assert [c.name for c in batch.children] == ["worker-op"]

    def test_context_without_parent_is_a_noop(self):
        tracer = Tracer()
        with tracer.context(None):
            with tracer.span("orphan"):
                pass
        assert [r.name for r in tracer.roots] == ["orphan"]

    def test_discover_many_cold_compile_nests_under_batch_span(
        self, diamond_topo
    ):
        """A cold compile and every per-pair span nest under the batch."""
        engine._COMPILED.clear()
        engine.path_cache_clear()
        pairs = [("pc", "s"), ("pc", "a"), ("pc", "b"), ("e", "s")]
        tracer = Tracer()
        with activate(tracer):
            discover_many(diamond_topo, pairs, use_cache=False)
        assert [r.name for r in tracer.roots] == ["engine.discover_many"]
        batch = tracer.roots[0]
        per_pair = [c for c in batch.children if c.name == "engine.discover"]
        assert len(per_pair) == len(pairs)
        assert len(tracer.find("engine.compile")) == 1

    def test_concurrent_unrelated_threads_keep_separate_roots(self):
        tracer = Tracer()
        barrier = threading.Barrier(2)

        def worker(name):
            barrier.wait()
            with tracer.span(name):
                with tracer.span(f"{name}-inner"):
                    pass

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert sorted(r.name for r in tracer.roots) == ["t0", "t1"]
        for root in tracer.roots:
            assert len(root.children) == 1


class TestExport:
    def test_json_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("root", n=1):
            with tracer.span("child"):
                pass
        path = tmp_path / "trace.json"
        tracer.save(str(path))
        data = load(str(path))
        assert data["span_count"] == 2
        assert data == json.loads(tracer.to_json())
        root = data["spans"][0]
        assert root["name"] == "root"
        assert root["attrs"] == {"n": 1}
        assert root["children"][0]["name"] == "child"
        assert root["duration"] >= root["children"][0]["duration"]

    def test_load_rejects_non_trace_json(self, tmp_path):
        path = tmp_path / "not-a-trace.json"
        path.write_text('{"other": "payload"}')
        with pytest.raises(ValueError, match="no 'spans' key"):
            load(str(path))

    def test_render_tree_and_filters(self):
        tracer = Tracer()
        with tracer.span("root"):
            with tracer.span("child", pairs=3):
                pass
        text = render(tracer)
        assert "root" in text
        assert "  child" in text
        assert "pairs=3" in text
        assert "ms" in text
        # depth truncation hides the child, time filter hides everything
        assert "child" not in render(tracer, max_depth=0)
        assert render(tracer, min_seconds=3600.0) == "(empty trace)"


class TestNoop:
    def test_noop_span_is_shared_singleton(self):
        tracer = NoopTracer()
        a = tracer.span("x", attr=1)
        b = tracer.span("y")
        assert a is b
        with a as span:
            assert span.set(more=2) is span
        assert tracer.span_count == 0
        assert tracer.to_dict() == {"version": 1, "span_count": 0, "spans": []}

    def test_module_level_span_defaults_to_noop(self):
        assert get_tracer() is NOOP_TRACER
        with _trace.span("ignored") as span:
            assert span is _trace.span("also-ignored").__enter__()
        assert _trace.current_span() is None

    def test_activate_scopes_and_restores(self):
        tracer = Tracer()
        assert get_tracer() is NOOP_TRACER
        with activate(tracer) as active:
            assert active is tracer
            assert get_tracer() is tracer
            with _trace.span("recorded"):
                pass
        assert get_tracer() is NOOP_TRACER
        assert [r.name for r in tracer.roots] == ["recorded"]

    def test_activate_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with activate(Tracer()):
                raise RuntimeError("boom")
        assert get_tracer() is NOOP_TRACER

    def test_set_tracer_none_restores_noop(self):
        previous = set_tracer(Tracer())
        assert previous is NOOP_TRACER
        set_tracer(None)
        assert get_tracer() is NOOP_TRACER

    def test_span_objects_survive_render(self):
        # render accepts a live tracer or its exported dict identically
        tracer = Tracer()
        with tracer.span("only"):
            pass
        assert render(tracer) == render(tracer.to_dict())
        assert isinstance(tracer.roots[0], Span)
