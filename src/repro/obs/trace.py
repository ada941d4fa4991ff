"""Hierarchical tracing: spans, context propagation, JSON export.

A :class:`Span` records one timed operation (name, attributes, wall time,
children); a :class:`Tracer` collects spans into trees.  The current span
is tracked **per thread**, so nested ``with tracer.span(...)`` blocks
build the tree automatically on any single thread; code that hands work
to another thread (the deadline worker of
:func:`repro.fanout.call_with_deadline`) captures :meth:`Tracer.current`
in the calling thread and re-attaches it on the worker with
:meth:`Tracer.context`, so cross-thread children nest under the right
parent.

The module-global *active tracer* defaults to :data:`NOOP_TRACER`, whose
``span()`` hands back one shared, do-nothing context manager — tracing
that is not explicitly enabled costs a dictionary-free method call per
instrumentation point and allocates nothing.  Enable tracing for a block
of code with::

    from repro.obs import Tracer, activate

    tracer = Tracer()
    with activate(tracer):
        pipeline.run()
    tracer.save("trace.json")

Trace files are plain JSON (see :meth:`Tracer.to_dict`); :func:`load`
reads them back and :func:`render` pretty-prints either a live tracer or
a loaded file as an indented tree — the ``upsim obs`` subcommand.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Union

__all__ = [
    "Span",
    "Tracer",
    "NoopTracer",
    "NOOP_TRACER",
    "get_tracer",
    "set_tracer",
    "activate",
    "span",
    "current_span",
    "load",
    "render",
]


class Span:
    """One timed, attributed operation in a trace tree."""

    __slots__ = ("name", "attrs", "start", "end", "children")

    def __init__(self, name: str, attrs: Optional[Dict[str, Any]] = None):
        self.name = name
        self.attrs: Dict[str, Any] = dict(attrs) if attrs else {}
        self.start: float = 0.0
        self.end: Optional[float] = None
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        """Seconds between start and end (0.0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) attributes on the span."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, duration={self.duration:.6f})"


class _SpanContext:
    """Context manager for one span's lifetime on one thread."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span_: Span):
        self._tracer = tracer
        self._span = span_

    def __enter__(self) -> Span:
        self._tracer._start(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc is not None:
            self._span.attrs.setdefault(
                "error", f"{type(exc).__name__}: {exc}"
            )
        self._tracer._finish(self._span)
        return None


class Tracer:
    """Collects spans into per-thread trees with a shared clock.

    Thread-safe: span start/finish mutate shared state under a lock, and
    every thread keeps its own current-span stack, so concurrent workers
    never corrupt each other's nesting.
    """

    enabled = True

    def __init__(self, *, origin: Optional[float] = None):
        # span times are seconds since *origin*, a time.perf_counter()
        # reading (default: now)
        self._t0 = time.perf_counter() if origin is None else origin
        self._lock = threading.Lock()
        self._local = threading.local()
        self.roots: List[Span] = []
        self.span_count = 0

    # -- per-thread stack -----------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def current(self) -> Optional[Span]:
        """The innermost open span on *this* thread (None outside spans).

        Capture this before handing work to another thread, then wrap the
        worker body in :meth:`context` to parent its spans correctly.
        """
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def context(self, parent: Optional[Span]) -> Iterator[None]:
        """Adopt *parent* as the current span for this thread.

        The no-parent case is accepted (and does nothing) so call sites
        can pass ``tracer.current()`` captured on another thread without
        branching.
        """
        if parent is None:
            yield
            return
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    # -- span lifecycle -------------------------------------------------------

    def span(self, name: str, **attrs: Any) -> _SpanContext:
        """A context manager opening a child of the current span.

        Attributes are arbitrary JSON-serializable keyword pairs; more
        can be attached later through :meth:`Span.set` on the object the
        ``with`` statement binds.
        """
        return _SpanContext(self, Span(name, attrs))

    def record(self, name: str, start: float, end: float, **attrs: Any) -> Span:
        """Add an already-finished span under the current span.

        *start* and *end* are :func:`time.perf_counter` readings, for work
        that ran before the tracer existed (``upsim``'s ``startup`` span).
        """
        span_ = Span(name, attrs)
        span_.start = start - self._t0
        span_.end = end - self._t0
        stack = self._stack()
        with self._lock:
            (stack[-1].children if stack else self.roots).append(span_)
            self.span_count += 1
        return span_

    def _start(self, span_: Span) -> None:
        span_.start = time.perf_counter() - self._t0
        stack = self._stack()
        with self._lock:
            if stack:
                stack[-1].children.append(span_)
            else:
                self.roots.append(span_)
            self.span_count += 1
        stack.append(span_)

    def _finish(self, span_: Span) -> None:
        span_.end = time.perf_counter() - self._t0
        stack = self._stack()
        if stack and stack[-1] is span_:
            stack.pop()

    # -- export ---------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "version": 1,
                "span_count": self.span_count,
                "spans": [root.to_dict() for root in self.roots],
            }

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    def find(self, name: str) -> List[Span]:
        """Every span with *name*, depth-first across all roots."""
        found: List[Span] = []
        stack = list(reversed(self.roots))
        while stack:
            node = stack.pop()
            if node.name == name:
                found.append(node)
            stack.extend(reversed(node.children))
        return found


class _NoopSpan:
    """The shared do-nothing span: every no-op trace call returns it."""

    __slots__ = ()
    name = ""
    attrs: Dict[str, Any] = {}
    children: List[Any] = []
    duration = 0.0

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


class NoopTracer:
    """API-compatible tracer that records nothing and allocates nothing."""

    enabled = False
    roots: List[Span] = []
    span_count = 0

    def span(self, name: str, **attrs: Any) -> _NoopSpan:
        return _NOOP_SPAN

    def current(self) -> None:
        return None

    def context(self, parent: Optional[Span]) -> _NoopSpan:
        # the no-op span doubles as a no-op context manager
        return _NOOP_SPAN

    def find(self, name: str) -> List[Span]:
        return []

    def to_dict(self) -> Dict[str, Any]:
        return {"version": 1, "span_count": 0, "spans": []}


NOOP_TRACER = NoopTracer()

_ACTIVE: Union[Tracer, NoopTracer] = NOOP_TRACER
_ACTIVE_LOCK = threading.Lock()


def get_tracer() -> Union[Tracer, NoopTracer]:
    """The process-wide active tracer (the no-op tracer by default)."""
    return _ACTIVE


def set_tracer(
    tracer: Optional[Union[Tracer, NoopTracer]],
) -> Union[Tracer, NoopTracer]:
    """Install *tracer* (None restores the no-op) and return the previous
    active tracer, so callers can restore it."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        previous = _ACTIVE
        _ACTIVE = tracer if tracer is not None else NOOP_TRACER
    return previous


@contextmanager
def activate(tracer: Union[Tracer, NoopTracer]) -> Iterator[Union[Tracer, NoopTracer]]:
    """Scoped :func:`set_tracer`: active inside the block, restored after."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def span(name: str, **attrs: Any):
    """Open a span on the active tracer (no-op unless tracing is enabled).

    This is the one call every instrumentation point makes; keeping it a
    plain module function keeps the disabled cost to a function call that
    returns a shared singleton.
    """
    return _ACTIVE.span(name, **attrs)


def current_span():
    """The active tracer's current span on this thread (None when off)."""
    return _ACTIVE.current()


# -- trace files --------------------------------------------------------------


def load(path: str) -> Dict[str, Any]:
    """Read a trace file written by :meth:`Tracer.save`."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "spans" not in data:
        raise ValueError(f"{path!r} is not a trace file (no 'spans' key)")
    return data


def render(
    trace: Union[Tracer, Dict[str, Any]],
    *,
    max_depth: Optional[int] = None,
    min_seconds: float = 0.0,
) -> str:
    """Pretty-print a tracer or a loaded trace dict as an indented tree.

    ``max_depth`` truncates deep traces; ``min_seconds`` hides spans
    faster than the threshold (their children are hidden with them).
    """
    data = trace.to_dict() if not isinstance(trace, dict) else trace
    lines: List[str] = []

    def walk(node: Dict[str, Any], depth: int) -> None:
        duration = float(node.get("duration", 0.0))
        if duration < min_seconds:
            return
        if max_depth is not None and depth > max_depth:
            return
        attrs = node.get("attrs") or {}
        attr_text = " ".join(
            f"{key}={attrs[key]}" for key in sorted(attrs)
        )
        label = f"{'  ' * depth}{node['name']}"
        line = f"{label:<48} {duration * 1000.0:>10.3f} ms"
        if attr_text:
            line += f"  {attr_text}"
        lines.append(line)
        for child in node.get("children", ()):
            walk(child, depth + 1)

    for root in data.get("spans", ()):
        walk(root, 0)
    if not lines:
        lines.append("(empty trace)")
    return "\n".join(lines)
