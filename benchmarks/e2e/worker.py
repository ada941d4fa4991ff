"""One workload in one fresh process.

``python -m benchmarks.e2e.worker CONFIG`` where CONFIG is the JSON
object the runner passes: ``workload``, ``seed``, ``worker`` (index),
``seconds`` (this worker's share of the measured phase, or null for a
worker that only sets up), ``round_size``, ``trace`` and ``trace_file``.  The worker imports the program, builds its
inputs, runs one warm-up op (caches fill there), records the instant it
became ready, then runs a closed loop — the next op starts only after the
last one returned — until its share is spent.  Before an op, once
``PROBE_EVERY_S`` has passed since the last probe, it times the host-speed
probe (:func:`benchmarks.e2e.spec.probe`), untimed; each untraced op's
latency is reported with the probe taken last before it.  Its only output
is one JSON line on stdout.

For ``casestudy-cold`` the worker only sets up: it computes the oracle
availability of every mapping, which the runner checks the CLI output
against.

With ``trace`` on, even-numbered ops run with the layer wrappers
installed and odd-numbered ops without, so one process yields both the
ledger and the untraced latencies that ``tracing_overhead`` compares.
"""

from __future__ import annotations

import json
import math
import platform
import sys
import time
import traceback


def main(argv) -> int:
    config = json.loads(argv[0])
    from benchmarks.e2e import layers, workloads
    from benchmarks.e2e.spec import PROBE_EVERY_S, probe

    import numpy
    import scipy

    versions = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if config["workload"] == "casestudy-cold":
        references = workloads.casestudy_references()
        print(json.dumps({
            "ready": time.monotonic(),
            "references": references,
            "versions": versions,
        }))
        return 0

    workload = workloads.IN_PROCESS[config["workload"]](
        config["seed"], config["worker"]
    )
    workload.op(workload.next_input(-1))
    ready = time.monotonic()
    if config["seconds"] is None:  # a set-up-only worker
        print(json.dumps({"ready": ready, "versions": versions}))
        return 0

    trace = bool(config["trace"])
    recorder = layers.Recorder()
    patcher = layers.Patcher(recorder).prepare() if trace else None
    ledger = layers.Ledger()
    latencies = {"untraced": [], "traced": []}
    units = []  # work units of each untraced op
    probes = []  # the host probe last taken before each untraced op
    failed = 0
    errors = []
    round_size = config["round_size"]
    start = time.monotonic()
    deadline = start + config["seconds"]
    probed_at = -math.inf
    index = 0
    while True:
        # at least one traced and one untraced op, whatever the deadline
        if index >= 2 and index % round_size == 0:
            now = time.monotonic()
            round_seconds = (now - start) / (index // round_size)
            if now + round_seconds > deadline:
                break
        if time.monotonic() - probed_at >= PROBE_EVERY_S:
            host = probe()
            probed_at = time.monotonic()
        item = workload.next_input(index)
        traced = trace and index % 2 == 0
        if traced:
            before = workload.counters()
            patcher.install()
            t0 = time.monotonic()
            root = recorder.begin_op()
        else:
            t0 = time.monotonic()
        try:
            result = workload.op(item)
            error = None
        except Exception:  # noqa: BLE001 - a failed op is counted, not fatal
            result, error = None, traceback.format_exc(limit=3)
        if traced:
            recorder.end_op(root)
            t1 = time.monotonic()
            patcher.uninstall()
            counted = {
                key: value - before[key]
                for key, value in workload.counters().items()
            }
        else:
            t1 = time.monotonic()
        if error is None and index % workload.check_every == 0:
            error = workload.check(index, item, result)
        if error is not None:
            failed += 1
            errors.append(error)
        else:
            latencies["traced" if traced else "untraced"].append(t1 - t0)
            if traced:
                ledger.add_op(
                    root, t1 - t0, counted, workload.extras(item, result)
                )
            else:
                units.append(workload.units(item, result))
                probes.append(host)
        index += 1
    error = workload.final_check()
    if error is not None:
        failed += 1
        errors.append(error)
    if trace and config.get("trace_file"):
        with open(config["trace_file"], "w", encoding="utf-8") as handle:
            json.dump(layers.op_dicts(recorder.ops), handle)
    print(json.dumps({
        "ready": ready,
        "latencies": latencies,
        "units": units,
        "probes": probes,
        "attempted": index,
        "failed": failed,
        "errors": errors[:5],
        "ledger": ledger.to_dict(),
        "unpatched": patcher.missing if patcher else [],
        "versions": versions,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
