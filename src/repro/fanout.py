"""The one worker thread: :func:`call_with_deadline`.

The resilient runner's per-pair timeout and the live evaluator's
recompute deadline run their attempt on a daemon thread the caller can
abandon.  The thread re-attaches the caller's current span, so the spans
it opens nest where an inline call's would.  Everything else in this
package, BDD compiles included, runs in the calling thread.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Optional, Tuple

from repro.obs import trace as _trace

__all__ = ["call_with_deadline"]


def call_with_deadline(
    work: Callable[[], Any], timeout: Optional[float]
) -> Tuple[bool, Any, Optional[Exception]]:
    """Run *work()* and return ``(finished, result, error)``.

    With a *timeout* the call runs on a daemon thread that adopts the
    caller's current span and is abandoned after *timeout* seconds
    (``(False, None, None)``): the work has no cancellation point, so an
    expired thread finishes in the background.  A result that arrives
    after *timeout* is reported the same way — work shorter than the
    interpreter's thread switch interval can finish before the waiting
    thread wakes.  ``None`` runs it inline.  An exception raised by *work*
    is returned, not raised, however late.
    """
    if timeout is None:
        try:
            return True, work(), None
        except Exception as exc:  # noqa: BLE001 - diagnosed by the caller
            return True, None, exc
    tracer = _trace.get_tracer()
    parent = tracer.current()
    box: Dict[str, Any] = {}

    def target() -> None:
        with tracer.context(parent):
            try:
                box["result"] = work()
            except Exception as exc:  # noqa: BLE001 - diagnosed by the caller
                box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    started = time.monotonic()
    thread.start()
    thread.join(timeout)
    late = time.monotonic() - started > timeout
    if thread.is_alive() or (late and "error" not in box):
        return False, None, None
    return True, box.get("result"), box.get("error")
