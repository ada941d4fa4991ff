"""Workload settings shared by the runner and its worker processes.

Standard library only: the runner imports this module without loading
the program.  Metric names, units and bounds live in ``BENCHMARK.json``;
this module holds what the JSON file does not: each workload's tail
percentile, its throughput unit, how many operations make one round
of distinct inputs, and the host-speed probe.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from typing import Sequence

#: bumped whenever a change to the benchmark makes old results incomparable
VERSION = 2

#: iterations of the host-speed probe's fixed pure-Python loop
PROBE_LOOPS = 20_000
#: timings of the loop per probe; the probe is their median
PROBE_REPEATS = 3
#: the reference speed: at it, the probe loop takes exactly this long ...
PROBE_REFERENCE_S = 1.0e-3
#: ... and a bare interpreter starts and exits in exactly this long (both
#: about their calm-host times on the reference box)
SPAWN_REFERENCE_S = 0.04
#: a worker probes the host before an op once this long has passed since
#: its last probe
PROBE_EVERY_S = 0.1

#: measuring worker processes per run; each measures a third of the run's
#: seconds
WORKERS = 3
#: set-ups per run (the measuring workers plus set-up-only ones);
#: setup_s is their median
SETUPS = 5


@dataclass(frozen=True)
class WorkloadSpec:
    #: percentile reported as ``latency_tail_ms``: the highest one that keeps
    #: at least ten samples beyond it at this workload's usual op count
    #: and does not fall among a rare class of slow ops, whose share moves
    #: with the seed (see the README)
    tail: float
    #: what ``throughput_per_s`` counts
    unit: str
    #: consecutive ops per window: latency and throughput are taken per
    #: window, and the median over a run's windows is reported
    window: int
    #: ops per round of distinct inputs; a worker only starts a round it can
    #: finish, so every run measures the same multiset of inputs
    round_size: int = 1


WORKLOADS = {
    "casestudy-cold": WorkloadSpec(tail=80.0, unit="runs", window=8),
    "population-campus": WorkloadSpec(tail=80.0, unit="users", window=10),
    "churn-campus": WorkloadSpec(tail=95.0, unit="events", window=2000),
    "campaign-usi": WorkloadSpec(
        tail=90.0, unit="scenarios", window=45, round_size=45
    ),
}


def derive_seed(*parts: object) -> int:
    """A 32-bit seed determined by *parts* (the run seed plus labels)."""
    digest = hashlib.blake2b(repr(parts).encode(), digest_size=4).digest()
    return int.from_bytes(digest, "big")


def probe() -> float:
    """Seconds the probe loop takes now (the median of ``PROBE_REPEATS``
    timings).  The loop touches nothing of the program, so its time tracks
    only the host's speed, which drifts by tens of percent over minutes on
    a shared box."""
    timings = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
        timings.append(time.perf_counter() - start)
    return sorted(timings)[len(timings) // 2]


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile of *values*, linearly interpolated."""
    ordered = sorted(values)
    if not ordered:
        return math.nan
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
