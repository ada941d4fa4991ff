"""Per-layer spans for traced benchmark runs, recorded from outside.

The benchmark never turns on the program's own tracer (:mod:`repro.obs`).
For a traced operation it instead wraps one table of public entry points,
:data:`TARGETS`, in spans named after the layer (module) they belong to:
module functions are replaced at every ``repro`` module that binds them,
class methods on their class.  The wrappers are installed just before a
traced operation and removed right after it, so untraced operations run
the unmodified program.

Each thread has its own span stack.  A span opened on a thread with an
empty stack (the resilient runner's per-pair deadline threads) becomes a
child of the innermost open span of the thread that began the operation.
A span's self time is its duration minus the union of its children's
intervals; the operation's root span keeps the time no wrapped call
explains, reported as the ``unattributed`` layer.  Because self times
partition the root, the ledger check (layers sum to the op total) fails
exactly when spans overlap, i.e. when concurrent work would be counted
twice, or when time is lost between the op timer and the root span.

This module imports nothing from the program at import time, so the
traced ``casestudy-cold`` processes can load it before ``repro``.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

#: every layer the ledger reports, in report order
LAYERS: Tuple[str, ...] = (
    "startup",
    "cli",
    "casestudy",
    "network",
    "vpm",
    "core.engine",
    "core.upsim",
    "dependability.bdd.compile",
    "dependability.bdd.kernel",
    "analysis",
    "viz",
    "workload",
    "core.churn",
    "resilience",
    "unattributed",
)

#: the layer that keeps an op's own self time: time no wrapped call explains
UNATTRIBUTED = "unattributed"
#: name of each operation's root span
OP = "op"

#: (layer, defining module, qualified name) of every wrapped entry point
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("cli", "repro.cli", "main"),
    ("casestudy", "repro.casestudy.usi", "usi_builder"),
    ("casestudy", "repro.casestudy.usi", "usi_network"),
    ("casestudy", "repro.casestudy.usi", "usi_topology"),
    ("casestudy", "repro.casestudy.printing", "printing_service"),
    ("casestudy", "repro.casestudy.printing", "printing_mapping"),
    ("network", "repro.network.builder", "TopologyBuilder.build"),
    ("network", "repro.network.topology", "Topology.__init__"),
    ("vpm", "repro.vpm.modelspace", "ModelSpace.__init__"),
    ("vpm", "repro.vpm.importers", "UMLImporter.import_object_model"),
    ("vpm", "repro.vpm.importers", "UMLImporter.import_activity"),
    ("vpm", "repro.vpm.importers", "MappingImporter.import_mapping"),
    ("core.engine", "repro.core.engine", "compile_topology"),
    ("core.engine", "repro.core.engine", "discover"),
    ("core.engine", "repro.core.engine", "discover_many"),
    ("core.engine", "repro.core.engine", "discover_delta"),
    ("core.engine", "repro.core.engine", "discover_delta_compiled"),
    ("core.engine", "repro.core.engine", "discover_many_delta"),
    ("core.upsim", "repro.core.upsim", "generate_upsim"),
    ("dependability.bdd.compile", "repro.dependability.bdd", "compile_structure"),
    ("dependability.bdd.compile", "repro.dependability.bdd", "compile_many"),
    (
        "dependability.bdd.compile",
        "repro.dependability.bdd",
        "IncrementalAvailabilityKernel.recompile",
    ),
    ("dependability.bdd.kernel", "repro.dependability.bdd", "AvailabilityKernel.availability"),
    ("dependability.bdd.kernel", "repro.dependability.bdd", "AvailabilityKernel.evaluate_all"),
    ("dependability.bdd.kernel", "repro.dependability.bdd", "AvailabilityKernel.evaluate_vector"),
    ("dependability.bdd.kernel", "repro.dependability.bdd", "AvailabilityKernel.evaluate_many"),
    ("dependability.bdd.kernel", "repro.dependability.bdd", "AvailabilityKernel.evaluate_many_all"),
    ("dependability.bdd.kernel", "repro.dependability.bdd", "AvailabilityKernel.evaluate_perturbed"),
    ("dependability.bdd.kernel", "repro.dependability.bdd", "AvailabilityKernel.birnbaum"),
    ("dependability.bdd.kernel", "repro.dependability.bdd", "AvailabilityKernel.minimal_path_sets"),
    ("dependability.bdd.kernel", "repro.dependability.bdd", "AvailabilityKernel.minimal_cut_sets"),
    ("analysis", "repro.analysis.report", "analyze_upsim"),
    ("analysis", "repro.analysis.whatif", "combined_failure_impact"),
    ("analysis", "repro.analysis.exact", "system_availability"),
    ("analysis", "repro.analysis.transformations", "component_availabilities"),
    ("analysis", "repro.analysis.transformations", "service_path_set_groups"),
    ("analysis", "repro.analysis.transformations", "service_availability_kernel"),
    ("viz", "repro.viz.ascii_art", "mapping_table"),
    ("viz", "repro.viz.ascii_art", "paths_text"),
    ("viz", "repro.viz.ascii_art", "object_model_text"),
    ("workload", "repro.workload.plane", "evaluate_population"),
    ("workload", "repro.workload.population", "Population.device_availability"),
    ("core.churn", "repro.core.churn", "LiveEvaluator.submit"),
    ("core.churn", "repro.core.churn", "LiveEvaluator.pump"),
    ("resilience", "repro.resilience.campaign", "run_campaign"),
    ("resilience", "repro.resilience.runner", "discover_many_resilient"),
    ("resilience", "repro.resilience.faults", "FaultPlan.apply"),
)

#: kernel entry points that evaluate probability vectors (the rest of the
#: kernel layer extracts minimal sets)
KERNEL_EVALUATIONS = frozenset(
    name
    for layer, _, name in TARGETS
    if layer == "dependability.bdd.kernel" and "minimal" not in name
)


class Span:
    """One timed call: layer name, wrapped function, interval, children."""

    __slots__ = ("name", "fn", "start", "end", "children")

    def __init__(self, name: str, fn: str, start: float, end: float = 0.0):
        self.name = name
        self.fn = fn
        self.start = start
        self.end = end
        self.children: List["Span"] = []

    def to_dict(self, t0: float = 0.0) -> Dict[str, object]:
        """The :mod:`repro.obs.trace` span layout (``upsim obs`` reads it)."""
        return {
            "name": self.name,
            "start": self.start - t0,
            "duration": self.end - self.start,
            "attrs": {"fn": self.fn} if self.fn else {},
            "children": [child.to_dict(t0) for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        start = float(data["start"])
        span = cls(
            str(data["name"]),
            str(data["attrs"].get("fn", "")),
            start,
            start + float(data["duration"]),
        )
        span.children = [cls.from_dict(child) for child in data["children"]]
        return span


class Recorder:
    """Collects the span tree of each traced operation."""

    def __init__(self):
        self._local = threading.local()
        self._op_stack: List[Span] = []
        self.ops: List[Span] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_op(self, start: Optional[float] = None) -> Span:
        root = Span(OP, "", time.monotonic() if start is None else start)
        stack = self._stack()
        stack.append(root)
        self._op_stack = stack
        return root

    def end_op(self, root: Span) -> None:
        root.end = time.monotonic()
        stack = self._stack()
        if stack and stack[-1] is root:
            stack.pop()
        self.ops.append(root)

    def open(self, layer: str, fn: str) -> Span:
        stack = self._stack()
        span = Span(layer, fn, time.monotonic())
        parent = stack[-1] if stack else (
            self._op_stack[-1] if self._op_stack else None
        )
        if parent is not None:
            parent.children.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.monotonic()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()


def _wrap(recorder: Recorder, layer: str, fn_name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = recorder.open(layer, fn_name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(span)

    return wrapper


class Patcher:
    """Installs and removes the :data:`TARGETS` wrappers.

    :meth:`prepare` resolves every binding site once — only modules
    already imported count, so preparing never imports program code —
    and :meth:`install` / :meth:`uninstall` are plain attribute swaps.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._swaps: List[Tuple[object, str, object, object]] = []
        self.missing: List[str] = []

    def prepare(self) -> "Patcher":
        functions: Dict[int, Tuple[object, object]] = {}
        for layer, module_name, qualname in TARGETS:
            module = sys.modules.get(module_name)
            if module is None:
                self.missing.append(f"{module_name}.{qualname}")
                continue
            if "." in qualname:
                cls_name, attr = qualname.split(".", 1)
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                wrapped = _wrap(self.recorder, layer, qualname, raw)
                self._swaps.append((cls, attr, raw, wrapped))
                continue
            original = getattr(module, qualname)
            functions[id(original)] = (
                original,
                _wrap(self.recorder, layer, qualname, original),
            )
        # module functions: every repro module that binds the same object
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = functions.get(id(value))
                if entry is not None and entry[0] is value:
                    self._swaps.append((module, attr, value, entry[1]))
        return self

    def install(self) -> None:
        for owner, attr, _, wrapped in self._swaps:
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._swaps:
            setattr(owner, attr, original)


def _covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of *intervals*."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def rollup(
    root: Span,
    self_s: Dict[str, float],
    calls: Dict[str, int],
    fn_calls: Dict[str, int],
) -> None:
    """Add the self time and call counts of every span under *root*."""
    pending = [root]
    while pending:
        span = pending.pop()
        layer = UNATTRIBUTED if span is root else span.name
        covered = _covered((c.start, c.end) for c in span.children)
        self_s[layer] = self_s.get(layer, 0.0) + (span.end - span.start - covered)
        calls[layer] = calls.get(layer, 0) + 1
        if span.fn:
            fn_calls[span.fn] = fn_calls.get(span.fn, 0) + 1
        pending.extend(span.children)


class Ledger:
    """Sums over a workload's traced operations: op wall time (from the
    op timer, not from the spans), layer self times and calls, and the
    program's counters and per-op extras."""

    FIELDS = ("self_s", "calls", "fn_calls", "counters", "extras")

    def __init__(self):
        self.ops = 0
        self.op_total = 0.0
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.fn_calls: Dict[str, int] = {}
        self.counters: Dict[str, float] = {}
        self.extras: Dict[str, float] = {}

    def add_op(
        self,
        root: Span,
        total: float,
        counters: Dict[str, float],
        extras: Dict[str, float],
    ) -> None:
        self.ops += 1
        self.op_total += total
        rollup(root, self.self_s, self.calls, self.fn_calls)
        for target, values in ((self.counters, counters), (self.extras, extras)):
            for key, value in values.items():
                target[key] = target.get(key, 0) + value

    def merge(self, data: Dict[str, object]) -> None:
        self.ops += data["ops"]
        self.op_total += data["op_total"]
        for field in self.FIELDS:
            target = getattr(self, field)
            for key, value in data[field].items():
                target[key] = target.get(key, 0) + value

    def to_dict(self) -> Dict[str, object]:
        data = {"ops": self.ops, "op_total": self.op_total}
        data.update({field: getattr(self, field) for field in self.FIELDS})
        return data


def op_dicts(ops: List[Span]) -> List[Dict[str, object]]:
    """Operations as span dicts, timed from the first one's start."""
    t0 = ops[0].start if ops else 0.0
    return [op.to_dict(t0) for op in ops]


def trace_document(spans: List[Dict[str, object]]) -> Dict[str, object]:
    """Span dicts as one :mod:`repro.obs.trace` file (``upsim obs FILE``)."""
    count = 0
    pending = list(spans)
    while pending:
        node = pending.pop()
        count += 1
        pending.extend(node["children"])
    return {"version": 1, "span_count": count, "spans": spans}


def program_counters() -> Dict[str, int]:
    """The program's cumulative engine and kernel counters, read through
    ``engine_stats`` / ``kernel_stats`` (imported here, at call time, so
    this module stays loadable before the program)."""
    from repro.core.engine import engine_stats
    from repro.dependability.bdd import kernel_stats

    engine = engine_stats()
    kernel = kernel_stats()
    return {
        "engine.enumerations": engine["enumerations"],
        "engine.compilations": engine["compilations"],
        "engine.path_hits": engine["path_cache_hits"],
        "engine.path_misses": engine["path_cache_misses"],
        "engine.block_hits": engine["block_cache_hits"],
        "engine.block_misses": engine["block_cache_misses"],
        "kernel.compilations": kernel["compilations"],
        "kernel.rows": kernel["evaluations"],
        "kernel.cache_hits": kernel["kernel_cache_hits"],
        "kernel.cache_misses": kernel["kernel_cache_misses"],
    }
