"""Worker fan-out: the one place this package starts workers.

The one process plane — cold BDD compiles
(:func:`repro.dependability.bdd.compile_many`) — hands its work to
:func:`run`.  Workers receive only picklable arguments (paths, names,
small tuples) and move every array through :mod:`repro.store` artifact
files, so the same worker body runs under every start method.

The start method is chosen from what the process can observe: ``fork``
when the platform has it and the process runs a single thread, ``spawn``
otherwise.  A fork copies every lock in the address space in whatever
state its owner left it, and abandoned resilience/churn daemon threads
can still be alive, so a threaded process never forks.

Work is spread by :func:`balance`, a greedy longest-processing-time
assignment, so one giant task cannot serialize the fan-out.

The one worker *thread* is :func:`call_with_deadline`: the resilient
runner's per-pair timeout and the live evaluator's recompute deadline
run their attempt on a daemon thread the caller can abandon.  The thread
re-attaches the caller's current span, so the spans it opens nest where
an inline call's would.

:mod:`multiprocessing` loads only when a process fan-out runs;
``import repro.cli`` does not import it.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import AnalysisError
from repro.obs import trace as _trace

__all__ = ["balance", "start_method", "run", "call_with_deadline"]


def balance(costs: Sequence[int], workers: int) -> List[List[int]]:
    """Greedy longest-processing-time assignment of task indices: tasks
    sorted by descending cost each go to the least-loaded worker."""
    assignments: List[List[int]] = [[] for _ in range(workers)]
    loads = [0] * workers
    for task_ix in sorted(range(len(costs)), key=lambda i: -costs[i]):
        worker = loads.index(min(loads))
        assignments[worker].append(task_ix)
        loads[worker] += costs[task_ix]
    return assignments


def start_method() -> str:
    """``"fork"`` when available and no other thread is alive, else
    ``"spawn"``."""
    import multiprocessing

    if (
        "fork" in multiprocessing.get_all_start_methods()
        and threading.active_count() == 1
    ):
        return "fork"
    return "spawn"


def run(
    target: Callable[..., None],
    per_worker_args: Sequence[tuple],
    timeout: Optional[float],
    *,
    label: str,
) -> None:
    """Run ``target(*args)`` in one process per entry of
    *per_worker_args*, tagging the caller's current span with
    ``method=<fork|spawn>``.

    All workers share one deadline *timeout* seconds after the start
    (``None`` waits indefinitely).  Stragglers are terminated, and one
    :class:`AnalysisError` names every worker that failed or timed out —
    ``"<label> <i>: ..."`` for the *i*-th argument tuple.  Every started
    worker is joined or terminated before the call returns or raises.
    """
    import multiprocessing

    method = start_method()
    span = _trace.current_span()
    if span is not None:
        span.set(method=method)
    ctx = multiprocessing.get_context(method)
    workers = [ctx.Process(target=target, args=args) for args in per_worker_args]
    deadline = None if timeout is None else time.monotonic() + timeout
    failed: List[str] = []
    try:
        for worker in workers:
            worker.start()
        for worker_ix, worker in enumerate(workers):
            worker.join(
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            if worker.is_alive():
                failed.append(f"{label} {worker_ix}: timed out after {timeout}s")
            elif worker.exitcode != 0:
                failed.append(f"{label} {worker_ix}: exit code {worker.exitcode}")
    finally:
        for worker in workers:
            if worker.is_alive():
                worker.terminate()
                worker.join()
    if failed:
        raise AnalysisError(f"{label} worker(s) failed: " + "; ".join(failed))


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
