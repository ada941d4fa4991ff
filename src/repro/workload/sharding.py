"""Multicore sharding of population key batches.

For populations that exceed one core, the per-(attachment, service)
batches of :mod:`repro.workload.plane` fan out across worker processes
started by :func:`repro.fanout.run`.  The parent compiles every kernel
(discovery and BDD caches stay warm in one process) and writes each
task's linearized node arrays plus its base/annotation vectors once into
one :mod:`repro.store` artifact file in a scratch directory.  Workers
map that file read-only — no kernel is ever re-compiled or pickled — and
each writes one result artifact that the parent copies out before the
scratch directory is removed.  The files serve fork- and spawn-started
workers alike, so sharding runs wherever the platform can start worker
processes (:func:`sharding_supported`).  They are written atomically
and read back within the call, so they skip the store's payload digest:
hashing them cost ~28 ms of a ~140 ms two-shard 1M-user sweep.

Work distribution is greedy cost balancing
(:func:`repro.fanout.balance`): tasks sorted by estimated cost (BDD
nodes × annotation rows) go to the least-loaded shard, so one giant
attachment group cannot serialize the fan-out.
"""

from __future__ import annotations

import os
import tempfile
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro import store as _store
from repro.dependability.bdd import AvailabilityKernel, evaluate_perturbed_arrays
from repro.errors import AnalysisError, StoreError
from repro.obs import trace as _trace

__all__ = [
    "sharding_supported",
    "evaluate_sharded",
]

#: one sharded task: (kernel, base vector, perturbed variable, row values)
Task = Tuple[AvailabilityKernel, np.ndarray, int, np.ndarray]


def sharding_supported() -> bool:
    """Whether this platform can start worker processes — the one probe
    behind every process fan-out (:mod:`repro.fanout`)."""
    try:
        import multiprocessing
    except ImportError:
        return False
    return bool(multiprocessing.get_all_start_methods())


def _shard_worker(
    tasks_path: str,
    assignment: List[int],
    out_path: str,
    batch_rows: int,
) -> None:
    """Evaluate this shard's tasks from the mapped task artifact.

    Module-level and picklable-argument-only, so it runs under **any**
    start method (spawn re-imports this module in the child).  The task
    artifact is mapped read-only, and the results plus the shard's wall
    seconds land in one artifact at *out_path*.  The arithmetic is the
    same :func:`repro.dependability.bdd.evaluate_perturbed_arrays` as the
    single-process path, so results agree bit for bit.
    """
    started = time.perf_counter()
    artifact = _store.open_artifact(tasks_path, verify=False)
    arrays = artifact.arrays
    outs: Dict[str, np.ndarray] = {}
    for task_ix in assignment:
        outs[f"out-{task_ix}"] = evaluate_perturbed_arrays(
            arrays[f"var-{task_ix}"],
            arrays[f"low-{task_ix}"],
            arrays[f"high-{task_ix}"],
            artifact.meta["root_pos"][task_ix],
            arrays[f"base-{task_ix}"],
            artifact.meta["var"][task_ix],
            arrays[f"values-{task_ix}"],
            batch_rows=batch_rows,
        )
    _store.write_artifact_file(
        out_path,
        "shard-out",
        (os.path.basename(out_path),),
        outs,
        {"seconds": time.perf_counter() - started},
        digest=False,
    )


def _read_shard(path: str) -> Tuple[float, Dict[int, np.ndarray]]:
    """One shard's ``(wall seconds, {task index: results})``, copied out
    of the mapping so nothing keeps the scratch file open."""
    try:
        artifact = _store.open_artifact(path, verify=False)
    except StoreError as exc:
        raise AnalysisError(f"shard worker produced no result file: {exc}") from exc
    return float(artifact.meta["seconds"]), {
        int(name[len("out-") :]): np.array(out)
        for name, out in artifact.arrays.items()
    }


def evaluate_sharded(
    tasks: Sequence[Task],
    *,
    shards: int,
    batch_rows: int = 65536,
    timeout: float = 600.0,
) -> Tuple[List[np.ndarray], List[float]]:
    """Evaluate population key batches across shard worker processes.

    Returns ``(per-task result arrays in input order, per-shard wall
    seconds)``.  Raises :class:`AnalysisError` when the platform cannot
    start worker processes, or when any worker fails or outlives
    *timeout* seconds; the scratch artifact directory is removed in
    every case.
    """
    if shards < 2:
        raise AnalysisError(f"sharding needs shards >= 2, got {shards}")
    if not sharding_supported():
        raise AnalysisError(
            "sharding is not supported on this platform (cannot start "
            "worker processes); use the single-process batched path"
        )
    if not tasks:
        return [], []
    from repro import fanout

    shards = min(shards, len(tasks))
    with tempfile.TemporaryDirectory(prefix="repro-shard-") as scratch:
        arrays: Dict[str, np.ndarray] = {}
        root_pos: List[int] = []
        variables: List[int] = []
        costs: List[int] = []
        for i, (kernel, base, var, values) in enumerate(tasks):
            var_ix, low, high, root = kernel.flat_arrays()
            arrays[f"var-{i}"] = np.asarray(var_ix, dtype=np.int64)
            arrays[f"low-{i}"] = np.asarray(low, dtype=np.int64)
            arrays[f"high-{i}"] = np.asarray(high, dtype=np.int64)
            arrays[f"base-{i}"] = np.asarray(base, dtype=np.float64)
            arrays[f"values-{i}"] = np.asarray(values, dtype=np.float64)
            root_pos.append(int(root))
            variables.append(int(var))
            costs.append((len(var_ix) + 1) * max(len(values), 1))
        tasks_path = os.path.join(scratch, "tasks")
        _store.write_artifact_file(
            tasks_path,
            "shard-tasks",
            ("tasks",),
            arrays,
            {"root_pos": root_pos, "var": variables},
            digest=False,
        )
        assignments = fanout.balance(costs, shards)
        out_paths = [
            os.path.join(scratch, f"out-{shard_id}") for shard_id in range(shards)
        ]
        with _trace.span("workload.shards", shards=shards):
            fanout.run(
                _shard_worker,
                [
                    (tasks_path, assignment, out_path, batch_rows)
                    for assignment, out_path in zip(assignments, out_paths)
                ],
                timeout,
                label="shard",
            )
        results: List[np.ndarray] = [np.empty(0)] * len(tasks)
        shard_seconds: List[float] = []
        for out_path in out_paths:
            seconds, outs = _read_shard(out_path)
            shard_seconds.append(seconds)
            for task_ix, out in outs.items():
                results[task_ix] = out
        return results, shard_seconds
