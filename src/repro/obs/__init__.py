"""Structured observability: tracing and metrics for the whole chain.

The methodology is pitched as an automated pipeline (import → path
discovery → UPSIM → dependability analysis); this package makes that
chain observable without adding a single dependency:

* :mod:`repro.obs.trace` — hierarchical spans with thread-safe context
  propagation (deadline-worker spans nest under their caller), JSON
  trace files, and a tree renderer (the ``upsim obs`` subcommand);
* :mod:`repro.obs.metrics` — counters / gauges / histograms with JSON,
  Prometheus-text and human-table exporters; the engine / BDD-kernel
  cache statistics are exposed as callback gauges so collection always
  reads the live values.

Tracing is off by default: the active tracer is a no-op whose ``span()``
returns one shared do-nothing context manager, so instrumentation points
cost a method call when disabled.  Enable it per scope::

    from repro import obs

    tracer = obs.Tracer()
    with obs.activate(tracer):
        report = pipeline.run()
    tracer.save("trace.json")
    print(obs.render(tracer))
    print(obs.registry().to_prometheus())

Counters are always on — they are coarse-grained (per stage, per pair,
per compilation, never per DFS step) and amount to one locked float add
at points that each do orders of magnitude more work.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    registry,
)
from repro.obs.trace import (
    NOOP_TRACER,
    NoopTracer,
    Span,
    Tracer,
    activate,
    current_span,
    get_tracer,
    load,
    render,
    set_tracer,
    span,
)

__all__ = [
    "Span",
    "Tracer",
    "NoopTracer",
    "NOOP_TRACER",
    "activate",
    "get_tracer",
    "set_tracer",
    "span",
    "current_span",
    "load",
    "render",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "counter",
    "gauge",
    "histogram",
]
