"""The ``run`` command: every workload's metrics, measured from outside.

The runner uses the standard library only and never imports the program.
Each workload runs in fresh worker processes (:mod:`benchmarks.e2e.worker`)
started one at a time — a closed loop with one client, which keeps the
load inside a 2-CPU box — and ``casestudy-cold`` starts one ``upsim``
process per op.  Every child gets the same environment: ``PYTHONPATH``
naming the checkout's ``src``, ``PYTHONHASHSEED`` derived from the seed,
and no ``REPRO_*`` variables, so ``jobs``, ``shards``, ``compile_jobs``
and the artifact store stay at their defaults.
"""

from __future__ import annotations

import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e import layers
from benchmarks.e2e.spec import (
    PROBE_REFERENCE_S,
    SETUPS,
    SPAWN_REFERENCE_S,
    VERSION,
    WORKERS,
    WORKLOADS,
    derive_seed,
    percentile,
)

ROOT = Path(__file__).resolve().parents[2]
DECLARATION = ROOT / "BENCHMARK.json"

#: seconds one ``upsim`` process or a worker's set-up may take before it
#: is killed and the run fails
PROCESS_TIMEOUT = 60.0
#: import-time probes per traced run (the median of each figure is kept)
IMPORT_PROBES = 3


class BenchmarkError(Exception):
    """The benchmark could not run (missing program, crashed worker)."""


def load_declaration() -> Dict[str, object]:
    with open(DECLARATION, encoding="utf-8") as handle:
        return json.load(handle)


@dataclass
class Process:
    code: int
    stdout: str
    stderr: str
    rss_mb: float
    started: float
    ended: float


def child_env(*seed_parts: object) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["PYTHONHASHSEED"] = str(derive_seed(*seed_parts))
    return env


def spawn(
    argv: Sequence[str],
    env: Dict[str, str],
    tmp: Path,
    *,
    timeout: float = PROCESS_TIMEOUT,
    started: Optional[float] = None,
) -> Process:
    """Run *argv* to completion; ``os.wait4`` gives its own peak RSS.

    Output goes to files, not pipes, so the runner waits on nothing but
    the child.  *started* is the ``time.monotonic()`` taken just before
    this call when the caller needs it first.
    """
    with tempfile.TemporaryFile(dir=tmp) as out, tempfile.TemporaryFile(
        dir=tmp
    ) as err:
        if started is None:
            started = time.monotonic()
        child = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        watchdog = threading.Timer(timeout, child.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            watchdog.cancel()
        ended = time.monotonic()
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Process(
            code=child.returncode,
            stdout=out.read().decode("utf-8", "replace"),
            stderr=err.read().decode("utf-8", "replace"),
            rss_mb=usage.ru_maxrss / 1024.0,
            started=started,
            ended=ended,
        )


def _python_module(module: str, *args: str) -> List[str]:
    return [sys.executable, "-m", module, *args]


def _last_json(process: Process, what: str) -> Dict[str, object]:
    if process.code != 0:
        raise BenchmarkError(
            f"{what} exited with {process.code}:\n{process.stderr[-2000:]}"
        )
    return json.loads(process.stdout.strip().splitlines()[-1])


def spread_of(values: Sequence[float]) -> float:
    """Quartile distance over median, as ``statistics.quantiles`` gives the
    quartiles (for three values: the range; 0 for a single value)."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / middle if middle else 0.0


def spawn_slowdown(env: Dict[str, str], tmp: Path) -> float:
    """How much slower than the reference speed the host starts a process
    now: a bare interpreter's start-and-exit time over
    ``SPAWN_REFERENCE_S``.  Process start-up pays for fresh memory and
    the scheduler, which the host slows more than it slows a loop."""
    process = spawn([sys.executable, "-c", "pass"], env, tmp)
    if process.code != 0:
        raise BenchmarkError(f"a bare interpreter exited with {process.code}")
    return (process.ended - process.started) / SPAWN_REFERENCE_S


def _top_gap(values: Sequence[float]) -> float:
    """How far the largest value stands above the next one, relative to it:
    the spread of a maximum."""
    if len(values) < 2:
        return 0.0
    largest, second = sorted(values, reverse=True)[:2]
    return (largest - second) / largest if largest else 0.0


# -- workloads -----------------------------------------------------------------


def _start_worker(
    name: str, seed: int, worker: int, config: Dict[str, object], tmp: Path
):
    """Run one worker; also returns its set-up as (wall seconds, the host's
    process start-up slowdown probed just before it)."""
    config = dict(config, workload=name, seed=seed, worker=worker)
    env = child_env(seed, name, worker)
    slow = spawn_slowdown(env, tmp)
    process = spawn(
        _python_module("benchmarks.e2e.worker", json.dumps(config)),
        env,
        tmp,
        timeout=PROCESS_TIMEOUT + 3 * (config.get("seconds") or 0.0),
    )
    data = _last_json(process, f"{name} worker {worker}")
    return process, data, (data["ready"] - process.started, slow)


def _in_process(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    round_size: int,
    tmp: Path,
    trace_file: Optional[str],
) -> Dict[str, object]:
    setups = []
    groups = []
    rss = []
    attempted = failed = 0
    errors: List[str] = []
    ledger = layers.Ledger()
    traced: List[float] = []
    trace_files = []
    for worker in range(SETUPS):
        measure = worker < WORKERS
        worker_trace = None
        if trace_file and measure:
            worker_trace = str(tmp / f"trace-{worker}.json")
            trace_files.append(worker_trace)
        process, data, setup = _start_worker(
            name,
            seed,
            worker,
            {
                "seconds": seconds / WORKERS if measure else None,
                "round_size": round_size,
                "trace": trace,
                "trace_file": worker_trace,
            },
            tmp,
        )
        setups.append(setup)
        if not measure:
            continue
        if data["unpatched"]:
            raise BenchmarkError(f"unresolved layer targets: {data['unpatched']}")
        ledger.merge(data["ledger"])
        traced.extend(data["latencies"]["traced"])
        groups.append(
            {
                "latencies": data["latencies"]["untraced"],
                "units": data["units"],
                "slowdowns": [p / PROBE_REFERENCE_S for p in data["probes"]],
            }
        )
        rss.append(process.rss_mb)
        attempted += data["attempted"]
        failed += data["failed"]
        errors.extend(data["errors"])
    if trace_file:
        spans = []
        for path in trace_files:
            with open(path, encoding="utf-8") as handle:
                spans.extend(json.load(handle))
        _write_trace(trace_file, spans)
    return {
        "attempted": attempted,
        "failed": failed,
        "errors": errors,
        "versions": data["versions"],
        "setups": setups,
        "groups": groups,
        "rss": rss,
        "ledger": ledger,
        "traced": traced,
    }


def _service_availability(stdout: str) -> Optional[str]:
    for line in stdout.splitlines():
        if line.startswith("service (all pairs)"):
            return line.split()[-2]
    return None


def _casestudy_cold(
    *, seed: int, seconds: float, trace: bool, tmp: Path, trace_file: Optional[str]
) -> Dict[str, object]:
    """Fresh ``upsim casestudy`` processes, one per op, each checked against
    the oracle the set-up workers computed.  ``started`` is read before the
    process exists, so a traced op's ``startup`` span covers interpreter
    start-up too.  Every untraced op is corrected by the start-up
    slowdown probed just before it."""
    name = "casestudy-cold"
    setups = []
    references = None
    versions = None
    for worker in range(SETUPS):
        _, data, setup = _start_worker(name, seed, worker, {}, tmp)
        setups.append(setup)
        if references is not None and data["references"] != references:
            raise BenchmarkError("case-study oracle differs between set-ups")
        references = data["references"]
        versions = data["versions"]

    env = child_env(seed, name)
    rng = random.Random(derive_seed(seed, name))
    positions = sorted(references)
    ledger = layers.Ledger()
    roots = []
    ops = []  # (latency, rss, traced, slowdown)
    errors = []
    dump = str(tmp / "spans.json")
    start = time.monotonic()
    deadline = start + seconds
    # a few ops, traced and untraced, whatever the deadline
    while len(ops) < 2 * WORKERS or (
        time.monotonic() + (time.monotonic() - start) / len(ops) <= deadline
    ):
        position = rng.choice(positions)
        client, printer = position.split("/")
        args = ["casestudy", "--client", client, "--printer", printer]
        traced = trace and len(ops) % 2 == 0
        slow = None if traced else spawn_slowdown(env, tmp)
        started = time.monotonic()
        if traced:
            argv = _python_module("benchmarks.e2e.cold", repr(started), dump, *args)
        else:
            argv = _python_module("repro.cli", *args)
        process = spawn(argv, env, tmp, started=started)
        printed = _service_availability(process.stdout)
        expected = f"{references[position]:.9f}"
        if process.code != 0 or printed != expected:
            errors.append(
                f"casestudy {position}: exit {process.code}, printed "
                f"{printed}, oracle {expected}"
            )
            ops.append(None)
            continue
        latency = process.ended - started
        ops.append((latency, process.rss_mb, traced, slow))
        if traced:
            with open(dump, encoding="utf-8") as handle:
                child = json.load(handle)
            root = layers.Span(layers.OP, "", started, process.ended)
            root.children = [layers.Span.from_dict(s) for s in child["spans"]]
            ledger.add_op(root, latency, child["counters"], {})
            roots.append(root)
    if trace_file:
        _write_trace(trace_file, layers.op_dicts(roots))

    done = [op for op in ops if op is not None]
    untraced = [op for op in done if not op[2]]
    return {
        "attempted": len(ops),
        "failed": len(errors),
        "errors": errors,
        "versions": versions,
        "setups": setups,
        "groups": [
            {
                "latencies": [op[0] for op in untraced],
                "units": [1] * len(untraced),
                "slowdowns": [op[3] for op in untraced],
            }
        ],
        "rss": [op[1] for op in untraced],
        "ledger": ledger,
        "traced": [op[0] for op in done if op[2]],
    }


def _write_trace(path: str, spans: List[Dict[str, object]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(layers.trace_document(spans), handle)


# -- metrics --------------------------------------------------------------------


def _windows(groups: List[Dict[str, object]], size: int) -> List[Dict[str, list]]:
    """Each worker's ops cut into runs of about *size* consecutive ops."""
    windows = []
    for group in groups:
        count = max(1, len(group["latencies"]) // size)
        for k in range(count):
            low = k * len(group["latencies"]) // count
            high = (k + 1) * len(group["latencies"]) // count
            if high > low:
                windows.append({key: ops[low:high] for key, ops in group.items()})
    return windows


def _window_metrics(spec, latencies: Sequence[float], units: Sequence[int]):
    return {
        "latency_p50_ms": percentile(latencies, 50.0) * 1e3,
        "latency_tail_ms": percentile(latencies, spec.tail) * 1e3,
        "throughput_per_s": sum(units) / sum(latencies),
    }


def _end_to_end(
    spec,
    groups: List[Dict[str, object]],
    setups: Sequence[Tuple[float, float]],
    rss: Sequence[float],
):
    """The end-to-end metrics, each one's spread, and the samples behind them.

    Every time is reported at the reference speed: divided by the host's
    slowdown probed just before it (see the README).  The host's speed
    drifts by tens of percent over minutes; without the correction that
    drift, not the program, set the spread between runs.  Latency and
    throughput are taken per window of consecutive ops, and the median
    over the windows is reported: a burst of host slowness that hits a few
    windows moves a pooled percentile but not the median over the windows.
    ``setup_s`` is the median of every set-up.  Peak RSS is the largest of
    any measured process, so its spread is the gap between the two
    largest.  The uncorrected figures are kept in the samples as ``wall``.
    """
    windows, wall, slowdowns = [], [], []
    for window in _windows(groups, spec.window):
        corrected = [
            seconds / slow
            for seconds, slow in zip(window["latencies"], window["slowdowns"])
        ]
        windows.append(_window_metrics(spec, corrected, window["units"]))
        wall.append(_window_metrics(spec, window["latencies"], window["units"]))
        slowdowns.append(statistics.median(window["slowdowns"]))
    values = {
        key: statistics.median(w[key] for w in windows) for key in windows[0]
    }
    spread = {key: spread_of([w[key] for w in windows]) for key in windows[0]}
    values["peak_rss_mb"] = max(rss)
    spread["peak_rss_mb"] = _top_gap(rss)
    setup_s = [seconds / slow for seconds, slow in setups]
    values["setup_s"] = statistics.median(setup_s)
    spread["setup_s"] = spread_of(setup_s)
    samples = {
        "windows": windows,
        "setups": setup_s,
        "rss": list(rss),
        "wall": {
            "windows": wall,
            "setups": [seconds for seconds, _ in setups],
            "slowdowns": slowdowns,
            "setup_slowdowns": [slow for _, slow in setups],
        },
    }
    return values, spread, samples


def import_profile(stderr: str) -> Dict[str, float]:
    """Cumulative import ms of ``repro``, numpy, scipy and networkx (each
    counted at its top-most appearance) and the self-time sum of every
    ``repro`` module, from ``python -X importtime`` output."""
    pending: Dict[int, list] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, cumulative, label = line[len("import time:"):].split("|")
        name = label.strip()
        depth = (len(label) - len(label.lstrip(" ")) - 1) // 2
        node = (name, int(self_us), int(cumulative), pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)
    roots = pending.get(0, [])

    def topmost(package: str) -> float:
        total = 0
        stack = list(roots)
        while stack:
            name, _, cumulative, children = stack.pop()
            if name == package or name.startswith(package + "."):
                total += cumulative
            else:
                stack.extend(children)
        return total / 1e3

    repro_self = 0
    stack = list(roots)
    while stack:
        name, self_us, _, children = stack.pop()
        if name == "repro" or name.startswith("repro."):
            repro_self += self_us
        stack.extend(children)
    return {
        "startup.import_ms": topmost("repro"),
        "startup.import.numpy_ms": topmost("numpy"),
        "startup.import.scipy_ms": topmost("scipy"),
        "startup.import.networkx_ms": topmost("networkx"),
        "startup.import.repro_ms": repro_self / 1e3,
    }


def _probe_imports(seed: int, tmp: Path) -> Dict[str, float]:
    profiles = []
    for probe in range(IMPORT_PROBES):
        process = spawn(
            [sys.executable, "-X", "importtime", "-c", "import repro.cli"],
            child_env(seed, "import-probe", probe),
            tmp,
        )
        if process.code != 0:
            raise BenchmarkError(f"import probe failed:\n{process.stderr[-2000:]}")
        profiles.append(import_profile(process.stderr))
    return {
        key: statistics.median(p[key] for p in profiles) for key in profiles[0]
    }


def layer_table(ledger: layers.Ledger) -> Dict[str, Dict[str, float]]:
    """Per layer: self ms per op, share of the traced op time, calls per op."""
    ops = max(ledger.ops, 1)
    total = ledger.op_total or 1.0
    return {
        layer: {
            "self_ms_per_op": ledger.self_s.get(layer, 0.0) / ops * 1e3,
            "share": ledger.self_s.get(layer, 0.0) / total,
            "calls_per_op": ledger.calls.get(layer, 0) / ops,
        }
        for layer in layers.LAYERS
    }


def _per_layer(
    ledger: layers.Ledger,
    traced: Sequence[float],
    untraced: Sequence[float],
    imports: Dict[str, float],
) -> Dict[str, float]:
    """The declared per-layer metrics.  A layer's self time is declared as
    its share of ``traced_op_ms`` (self ms per op = share x traced_op_ms),
    so every declared time is a measured, non-zero duration; a layer the
    workload never enters shows as share 0 with 0 calls."""
    ops = max(ledger.ops, 1)
    total = ledger.op_total or 1.0
    counters = ledger.counters

    def ratio(hits: str, misses: str) -> float:
        looked = counters.get(hits, 0) + counters.get(misses, 0)
        return counters.get(hits, 0) / looked if looked else 0.0

    values: Dict[str, float] = {"traced_op_ms": total / ops * 1e3}
    for layer, row in layer_table(ledger).items():
        values[f"{layer}.share"] = row["share"]
        values[f"{layer}.calls_per_op"] = row["calls_per_op"]
    values.update(imports)
    values.update({
        "core.engine.enumerations_per_op": counters.get("engine.enumerations", 0) / ops,
        "core.engine.compilations_per_op": counters.get("engine.compilations", 0) / ops,
        "core.engine.path_cache_hit_ratio": ratio("engine.path_hits", "engine.path_misses"),
        "core.engine.block_cache_hit_ratio": ratio("engine.block_hits", "engine.block_misses"),
        "dependability.bdd.compile.compilations_per_op": counters.get("kernel.compilations", 0) / ops,
        "dependability.bdd.compile.kernel_cache_hit_ratio": ratio("kernel.cache_hits", "kernel.cache_misses"),
        "dependability.bdd.kernel.evaluations_per_op": sum(
            ledger.fn_calls.get(fn, 0) for fn in layers.KERNEL_EVALUATIONS
        ) / ops,
        "dependability.bdd.kernel.rows_per_op": counters.get("kernel.rows", 0) / ops,
        "workload.dedup_ratio": ledger.extras.get("dedup_ratio", 0.0) / ops,
        "core.churn.recomputes_per_event": counters.get("churn.recomputes", 0) / ops,
        "resilience.scenarios_per_op": ledger.extras.get("scenarios", 0) / ops,
        "tracing_overhead": percentile(traced, 50.0) / percentile(untraced, 50.0) - 1.0,
        "ledger_error": abs(sum(ledger.self_s.values()) - ledger.op_total) / total,
    })
    return values


#: the ledger check: layers' self times must sum to the op total within this
LEDGER_TOLERANCE = 0.05


def run_workload(
    name: str,
    *,
    seed: int,
    seconds: float,
    trace: bool,
    quick: bool,
    tmp: Path,
    trace_file: Optional[str],
    declaration: Dict[str, object],
) -> Dict[str, object]:
    spec = WORKLOADS[name]
    if name == "casestudy-cold":
        raw = _casestudy_cold(
            seed=seed, seconds=seconds, trace=trace, tmp=tmp, trace_file=trace_file
        )
    else:
        raw = _in_process(
            name,
            seed=seed,
            seconds=seconds,
            trace=trace,
            round_size=1 if quick else spec.round_size,
            tmp=tmp,
            trace_file=trace_file,
        )
    groups = raw["groups"]
    attempted, failed, errors = raw["attempted"], raw["failed"], raw["errors"]
    if not any(g["latencies"] for g in groups):
        raise BenchmarkError(f"{name}: no untraced op succeeded: {errors[:3]}")
    values, spread, samples = _end_to_end(spec, groups, raw["setups"], raw["rss"])
    declared = declaration["end_to_end"]
    if trace:
        untraced = [x for g in groups for x in g["latencies"]]
        values = _per_layer(
            raw["ledger"], raw["traced"], untraced, _probe_imports(seed, tmp)
        )
        declared = declaration["per_layer"]
        spread = {}
        if not values["ledger_error"] <= LEDGER_TOLERANCE:
            failed += 1
            errors.append(
                f"ledger check: layer self times miss the op total by "
                f"{values['ledger_error']:.1%}"
            )
    names = [metric["name"] for metric in declared]
    if sorted(names) != sorted(values):
        raise BenchmarkError(
            f"metrics {sorted(set(names) ^ set(values))} are declared "
            f"but not measured, or measured but not declared"
        )
    per_window = min(len(w["latencies"]) for w in _windows(groups, spec.window))
    return {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "failed_ratio": failed / max(attempted, 1),
        "errors": errors[:10],
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
        "spread": spread,
        "samples": samples,
        "tail": {
            "percentile": spec.tail,
            "samples_per_window": per_window,
            "beyond_per_window": int(per_window * (100.0 - spec.tail) / 100.0),
        },
        "throughput_unit": spec.unit,
        "traced_ops": raw["ledger"].ops,
        "layers": layer_table(raw["ledger"]) if trace else {},
        "versions": raw["versions"],
    }


# -- provenance ------------------------------------------------------------------


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def machine() -> Dict[str, object]:
    model, mhz = "unknown", None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                key, _, value = line.partition(":")
                if key.strip() == "model name" and model == "unknown":
                    model = value.strip()
                elif key.strip() == "cpu MHz" and mhz is None:
                    mhz = float(value)
    except OSError:
        model = platform.processor() or "unknown"
    return {"cpu": model, "mhz": mhz, "nproc": len(os.sched_getaffinity(0))}


def provenance(versions: Dict[str, str]) -> Dict[str, object]:
    commit = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if commit else None
    return {
        "commit": commit,
        "dirty": None if status is None else bool(status),
        "machine": machine(),
        "versions": versions,
        "benchmark_version": VERSION,
    }


def fingerprints(
    prov: Dict[str, object], settings: Dict[str, object]
) -> Dict[str, Dict[str, object]]:
    """What must match for two result files to be comparable."""
    cpu = prov["machine"]
    return {
        "machine": {"cpu": cpu["cpu"], "nproc": cpu["nproc"]},
        "settings": dict(
            settings, benchmark_version=VERSION, **prov["versions"]
        ),
    }


# -- the command -------------------------------------------------------------------


def _print_workload(name: str, result: Dict[str, object]) -> None:
    tail = result["tail"]
    print(
        f"{name}: {result['attempted']} op(s), {result['failed']} failed "
        f"(failed_ratio {result['failed_ratio']:.4f}); tail = p{tail['percentile']:g} "
        f"of >= {tail['samples_per_window']} sample(s) per window, "
        f"{tail['beyond_per_window']} beyond it; "
        f"throughput in {result['throughput_unit']}/s"
    )
    for metric, entry in result["metrics"].items():
        print(f"  {metric:<52} {entry['value']:>14.6g} {entry['unit']}")
    if result["layers"]:
        print(f"  {'layer':<28} {'self ms/op':>12} {'share':>8} {'calls/op':>10}")
        for layer, row in result["layers"].items():
            print(
                f"  {layer:<28} {row['self_ms_per_op']:>12.3f} "
                f"{row['share']:>8.1%} {row['calls_per_op']:>10.1f}"
            )
    for error in result["errors"]:
        print(f"  error: {error}")


def run(args) -> int:
    declaration = load_declaration()
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        raise BenchmarkError(
            f"the program's source (src/repro) is not in {ROOT}; run the "
            f"benchmark from the root of a full checkout"
        )
    seconds = float(args.seconds or declaration["run_seconds"])
    if args.quick:
        seconds /= 10.0
    names = [args.workload] if args.workload else list(WORKLOADS)
    # the build: byte-compile once so no measured process pays for it, then
    # one untimed import so every run starts with the files in page cache
    for argv in (
        ["-m", "compileall", "-q", "src", "benchmarks/e2e"],
        ["-c", "import repro.cli"],
    ):
        subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=child_env(args.seed, "build"),
            check=True,
            capture_output=True,
            timeout=600,
        )
    tmp = Path(tempfile.mkdtemp(dir=ROOT, prefix=".bench_e2e-"))
    results = {}
    try:
        for name in names:
            trace_file = (
                f"{args.out}.{name}.trace.json" if args.out and args.trace else None
            )
            results[name] = run_workload(
                name,
                seed=args.seed,
                seconds=seconds,
                trace=bool(args.trace),
                quick=args.quick,
                tmp=tmp,
                trace_file=trace_file,
                declaration=declaration,
            )
            _print_workload(name, results[name])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    settings = {
        "seed": args.seed,
        "seconds": seconds,
        "quick": bool(args.quick),
        "trace": bool(args.trace),
        "workloads": names,
    }
    prov = provenance(next(iter(results.values()))["versions"])
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "provenance": prov,
                    "settings": settings,
                    "fingerprint": fingerprints(prov, settings),
                    "workloads": results,
                },
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
    if len(results) == 1:
        (result,) = results.values()
        metrics = result["metrics"]
    else:
        metrics = {
            f"{name}:{metric}": entry
            for name, result in results.items()
            for metric, entry in result["metrics"].items()
        }
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1
