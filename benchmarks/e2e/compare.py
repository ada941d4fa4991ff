"""The ``compare`` command: two sets of result files, one verdict per metric.

``compare A B`` takes a result file or a quoted glob on each side, so each
side can be a set of runs (``'base-*.json'``).  Only like is compared
with like: files whose machine fingerprint (CPU model, usable CPUs) or
settings fingerprint (seed, seconds, quick and trace mode, benchmark
version, Python/numpy/scipy versions) differ are refused.  For every
workload in both sets and every end-to-end metric, the verdict compares
the medians of the two sets against the metric's bound from
``BENCHMARK.json``:

* ``unresolved`` — the spread exceeds the bound, so the runs cannot
  resolve a change that size, unless every sample of B reads better than
  every sample of A.  With several runs on a side the spread is the
  quartile distance over the median of its runs, as for the benchmark's
  own repeatability check; a single run falls back to the spread across
  its worker windows (or set-ups), which cannot see drift between runs;
* ``regressed`` — B's median is worse than A's by more than the bound;
* ``within-bound`` — otherwise.
"""

from __future__ import annotations

import glob
import json
import statistics
from typing import Dict, List

from benchmarks.e2e.runner import load_declaration, spread_of


def _load_set(pattern: str) -> List[Dict[str, object]]:
    paths = sorted(glob.glob(pattern)) or [pattern]
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            runs.append(json.load(handle))
    return runs


def _fingerprint(run: Dict[str, object]) -> Dict[str, object]:
    settings = {
        k: v for k, v in run["fingerprint"]["settings"].items() if k != "workloads"
    }
    return {"machine": run["fingerprint"]["machine"], "settings": settings}


def _samples(result: Dict[str, object], name: str) -> List[float]:
    """The per-set-up, per-process or per-window values behind a metric."""
    samples = result["samples"]
    if name == "setup_s":
        return samples["setups"]
    if name == "peak_rss_mb":
        return samples["rss"]
    return [window[name] for window in samples["windows"]]


def verdict(
    a: List[Dict[str, object]], b: List[Dict[str, object]], metric: Dict[str, object]
) -> Dict[str, object]:
    """The verdict for one end-to-end *metric*, given each side's results
    for one workload (one per run)."""
    name, bound = metric["name"], metric["bound"]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    va = statistics.median(r["metrics"][name]["value"] for r in a)
    vb = statistics.median(r["metrics"][name]["value"] for r in b)
    spreads = []
    samples = []
    for side in (a, b):
        if len(side) > 1:
            values = [r["metrics"][name]["value"] for r in side]
            spreads.append(spread_of(values))
            samples.append(values)
        else:
            spreads.append(side[0]["spread"][name])
            samples.append(_samples(side[0], name))
    spread = max(spreads)
    change = (vb - va) / va if va else 0.0
    if spread > bound:
        best_a = min(sign * x for x in samples[0])
        if all(sign * x < best_a for x in samples[1]):
            result = "within-bound"
        else:
            result = "unresolved"
    else:
        result = "regressed" if sign * change > bound else "within-bound"
    return {"a": va, "b": vb, "change": change, "spread": spread, "verdict": result}


def compare(pattern_a: str, pattern_b: str) -> int:
    """Print the verdict table; exit status 1 when anything regressed and
    2 when the files are not comparable."""
    a, b = _load_set(pattern_a), _load_set(pattern_b)
    reference = _fingerprint(a[0])
    for run in a + b:
        fingerprint = _fingerprint(run)
        for kind in ("machine", "settings"):
            left, right = reference[kind], fingerprint[kind]
            if left != right:
                print(f"refusing to compare: {kind} fingerprints differ")
                for key in sorted(set(left) | set(right)):
                    if left.get(key) != right.get(key):
                        print(f"  {key}: {left.get(key)!r} vs {right.get(key)!r}")
                return 2
    declared = load_declaration()["end_to_end"]
    print(f"A: {len(a)} run(s), B: {len(b)} run(s)")
    print(
        f"{'workload':<18} {'metric':<18} {'A':>12} {'B':>12} "
        f"{'change':>8} {'spread':>7} {'bound':>6}  verdict"
    )
    regressed = 0
    for workload in a[0]["workloads"]:
        side_a = [run["workloads"][workload] for run in a if workload in run["workloads"]]
        side_b = [run["workloads"][workload] for run in b if workload in run["workloads"]]
        if len(side_a) != len(a) or not side_b:
            continue
        for metric in declared:
            if metric["name"] not in side_a[0]["metrics"]:
                continue
            row = verdict(side_a, side_b, metric)
            regressed += row["verdict"] == "regressed"
            print(
                f"{workload:<18} {metric['name']:<18} {row['a']:>12.5g} "
                f"{row['b']:>12.5g} {row['change']:>+8.1%} {row['spread']:>7.1%} "
                f"{metric['bound']:>6.0%}  {row['verdict']}"
            )
    return 1 if regressed else 0
