"""Metric primitives, registry exports, and live-instrumentation counters."""

import json
import math

import pytest

from repro.core.engine import discover
from repro.obs import metrics as _metrics
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


@pytest.fixture()
def fresh():
    return MetricsRegistry()


class TestCounter:
    def test_inc_accumulates(self, fresh):
        c = fresh.counter("hits_total", "hits")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_negative_increment_rejected(self, fresh):
        c = fresh.counter("ups_total")
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)

    def test_labeled_series_are_independent(self, fresh):
        c = fresh.counter("ops_total", labelnames=("kind",))
        c.labels(kind="read").inc(3)
        c.labels(kind="write").inc()
        assert c.labels(kind="read").value == 3
        assert c.labels(kind="write").value == 1

    def test_labeled_family_rejects_unlabeled_use(self, fresh):
        c = fresh.counter("ops_total", labelnames=("kind",))
        with pytest.raises(ValueError, match="use .labels"):
            c.inc()
        with pytest.raises(ValueError, match="expects labels"):
            c.labels(wrong="x")

    def test_invalid_names_rejected(self, fresh):
        with pytest.raises(ValueError, match="invalid metric name"):
            fresh.counter("0bad")
        with pytest.raises(ValueError, match="invalid label name"):
            fresh.counter("fine_total", labelnames=("bad-label",))


class TestGauge:
    def test_set_and_read(self, fresh):
        g = fresh.gauge("depth")
        g.set(7)
        assert g.value == 7.0

    def test_callback_gauge_reads_live(self, fresh):
        state = {"n": 1}
        g = fresh.gauge("live")
        g.set_function(lambda: state["n"])
        assert g.value == 1.0
        state["n"] = 9
        assert g.value == 9.0
        g.set(0)  # explicit set clears the callback
        state["n"] = 100
        assert g.value == 0.0


class TestHistogram:
    def test_cumulative_buckets_sum_count(self, fresh):
        h = fresh.histogram("lat_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            h.observe(value)
        samples = {
            (name, key): value for name, key, value in h.samples()
        }
        assert samples[("lat_seconds_bucket", (("le", "0.1"),))] == 1.0
        assert samples[("lat_seconds_bucket", (("le", "1"),))] == 2.0
        assert samples[("lat_seconds_bucket", (("le", "+Inf"),))] == 3.0
        assert samples[("lat_seconds_count", ())] == 3.0
        assert samples[("lat_seconds_sum", ())] == pytest.approx(5.55)

    def test_bucket_bounds_validated(self, fresh):
        with pytest.raises(ValueError, match="at least one bucket"):
            fresh.histogram("empty_seconds", buckets=())
        with pytest.raises(ValueError, match="finite"):
            fresh.histogram("inf_seconds", buckets=(1.0, math.inf))


class TestRegistry:
    def test_get_or_create_returns_same_family(self, fresh):
        a = fresh.counter("x_total", "first help")
        b = fresh.counter("x_total", "other help ignored")
        assert a is b
        assert fresh.get("x_total") is a

    def test_kind_mismatch_rejected(self, fresh):
        fresh.counter("x_total")
        with pytest.raises(ValueError, match="already registered"):
            fresh.gauge("x_total")

    def test_unregister_and_clear(self, fresh):
        fresh.counter("x_total")
        fresh.unregister("x_total")
        assert fresh.get("x_total") is None
        fresh.gauge("y")
        fresh.clear()
        assert fresh.collect() == []
        assert fresh.summary() == "(no metrics recorded)"

    def test_to_json_is_valid_and_sorted(self, fresh):
        fresh.gauge("zz").set(1)
        fresh.counter("aa_total").inc()
        payload = json.loads(fresh.to_json())
        assert [family["name"] for family in payload] == ["aa_total", "zz"]
        assert payload[0]["samples"] == [
            {"name": "aa_total", "labels": {}, "value": 1.0}
        ]

    def test_summary_lists_every_sample(self, fresh):
        c = fresh.counter("ops_total", "ops", labelnames=("kind",))
        c.labels(kind="read").inc(2)
        text = fresh.summary()
        assert "ops_total" in text
        assert "kind=read" in text
        assert text.splitlines()[0].startswith("metric")

    def test_module_registry_helpers_share_default(self):
        c = _metrics.counter("test_obs_module_helper_total")
        assert _metrics.registry().get("test_obs_module_helper_total") is c
        _metrics.registry().unregister("test_obs_module_helper_total")


class TestLiveInstrumentation:
    """The counters/gauges the instrumented subsystems feed must move in
    the documented direction — cache hits increase on a warm re-run,
    misses do not."""

    def test_engine_cache_hits_increase_misses_do_not(self, diamond_topo):
        hits = _metrics.registry().get("repro_engine_path_cache_hits")
        misses = _metrics.registry().get("repro_engine_path_cache_misses")
        assert isinstance(hits, Gauge) and isinstance(misses, Gauge)
        discover(diamond_topo, "pc", "s")  # warm the entry
        h0, m0 = hits.value, misses.value
        discover(diamond_topo, "pc", "s")
        assert hits.value == h0 + 1
        assert misses.value == m0

    def test_paths_discovered_counter_is_monotone(self, diamond_topo):
        paths = _metrics.registry().get("repro_engine_paths_discovered_total")
        assert isinstance(paths, Counter)
        before = paths.value
        result = discover(diamond_topo, "pc", "s", use_cache=False)
        assert paths.value == before + len(result.paths)

    def test_bdd_gauges_registered(self):
        for name in (
            "repro_bdd_kernel_cache_hits",
            "repro_bdd_kernel_cache_misses",
            "repro_bdd_kernel_cache_entries",
        ):
            import repro.dependability.bdd  # noqa: F401 — registers gauges

            metric = _metrics.registry().get(name)
            assert isinstance(metric, Gauge)
            assert metric.value >= 0.0

    def test_analysis_evaluations_counted(self, fresh):
        from repro.analysis.exact import system_availability

        family = _metrics.registry().get("repro_analysis_evaluations_total")
        assert isinstance(family, Counter)
        before = family.value
        system_availability([[frozenset({"a"})]], {"a": 0.9})
        assert family.value == before + 1
