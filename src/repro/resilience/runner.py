"""Degradation-tolerant path discovery: timeouts, retries, diagnostics.

The engine's :func:`repro.core.engine.discover_many` is strict: the first
worker failure aborts the whole batch.  :func:`discover_many_resilient`
keeps going — every (requester, provider) pair independently resolves to
either a :class:`~repro.core.pathdiscovery.PathSet` or a structured
:class:`PairDiagnostic` explaining *why* it failed (crashed endpoint,
severed cut, expired deadline, repeated worker error) — so one
unreachable pair degrades the analysis instead of killing it.

Mechanics, governed by a :class:`ResiliencePolicy`:

* **per-pair timeout** — each discovery attempt runs on its own thread
  and is abandoned when ``pair_timeout`` expires (the DFS is pure CPU
  with no cancellation point; the abandoned thread finishes in the
  background and at worst warms the PathSet cache).  Timeouts are not
  retried: enumeration is deterministic, so a second identical attempt
  would expire identically.
* **bounded retry with backoff** — unexpected worker errors are retried
  up to ``retries`` times with exponential backoff; deterministic
  failures (missing endpoints, empty path sets) are diagnosed
  immediately.
* **graceful degradation** — unreachable pairs get a diagnostic carrying
  the active fault context and the *nearest-reachable cut*: the set of
  crashed components / severed links sitting on the frontier of the
  requester's surviving connected region — the first thing an operator
  would check.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import AbstractSet, Dict, Iterable, List, Optional, Tuple

from repro.core.engine import discover
from repro.core.pathdiscovery import PathSet
from repro.dependability.cutsets import link_component_name
from repro.errors import PathDiscoveryTimeout
from repro.fanout import call_with_deadline
from repro.network.topology import Topology
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.resilience.overlay import FaultOverlayTopology

__all__ = [
    "ResiliencePolicy",
    "PairDiagnostic",
    "DiscoveryOutcome",
    "discover_many_resilient",
]

_M_PAIRS = _metrics.counter(
    "repro_resilience_pairs_total",
    "Resilient pair discoveries by final status",
    labelnames=("status",),
)
_M_RETRIES = _metrics.counter(
    "repro_resilience_retries_total",
    "Discovery attempts retried after a worker error",
)
_M_TIMEOUTS = _metrics.counter(
    "repro_resilience_timeouts_total",
    "Discovery attempts abandoned at the pair deadline",
)


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs of the degradation-tolerant runner.

    ``pair_timeout``
        Seconds allowed per discovery attempt (``None`` disables the
        deadline).  The default keeps pathological topologies from
        stalling a campaign while staying far above any realistic
        enumeration.
    ``retries``
        Extra attempts after the first worker *error* (timeouts and
        deterministic unreachability are never retried).
    ``backoff``
        Base sleep before retry *n* (seconds, doubled each retry).
    """

    pair_timeout: Optional[float] = 30.0
    retries: int = 1
    backoff: float = 0.05

    def __post_init__(self):
        if self.pair_timeout is not None and not self.pair_timeout > 0:
            raise ValueError("pair_timeout must be > 0 or None")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if not self.backoff >= 0:
            raise ValueError("backoff must be >= 0")


@dataclass(frozen=True)
class PairDiagnostic:
    """Structured outcome of one (requester, provider) discovery.

    ``status`` is one of ``"ok"``, ``"unreachable"``, ``"timeout"``,
    ``"error"``; everything except ``"ok"`` means the pair contributed no
    paths and the surrounding analysis degraded around it.
    """

    requester: str
    provider: str
    status: str
    reason: str = ""
    attempts: int = 1
    path_count: int = 0
    #: spec strings of the faults active on the analyzed topology
    fault_context: Tuple[str, ...] = ()
    #: crashed components / severed links on the frontier of the
    #: requester's surviving region (empty when not determinable)
    nearest_cut: Tuple[str, ...] = ()
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready view.  Wall-clock timing is deliberately excluded so
        equal campaigns serialize identically (determinism contract)."""
        return {
            "requester": self.requester,
            "provider": self.provider,
            "status": self.status,
            "reason": self.reason,
            "attempts": self.attempts,
            "path_count": self.path_count,
            "fault_context": list(self.fault_context),
            "nearest_cut": list(self.nearest_cut),
        }

    def describe(self) -> str:
        label = f"{self.requester} -> {self.provider}"
        if self.ok:
            return f"{label}: reachable ({self.path_count} path(s))"
        text = f"{label}: {self.status}"
        if self.reason:
            text += f" ({self.reason})"
        if self.nearest_cut:
            text += f"; nearest cut: {', '.join(self.nearest_cut)}"
        return text


@dataclass
class DiscoveryOutcome:
    """Result of one resilient batch discovery."""

    #: PathSets of the reachable pairs, keyed (requester, provider),
    #: first-seen order
    path_sets: Dict[Tuple[str, str], PathSet] = field(default_factory=dict)
    #: one diagnostic per distinct pair, first-seen order (ok pairs too)
    diagnostics: List[PairDiagnostic] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return all(diag.ok for diag in self.diagnostics)

    def failed(self) -> List[PairDiagnostic]:
        return [diag for diag in self.diagnostics if not diag.ok]

    def diagnostic_for(self, requester: str, provider: str) -> PairDiagnostic:
        for diag in self.diagnostics:
            if (diag.requester, diag.provider) == (requester, provider):
                return diag
        raise KeyError((requester, provider))


def _adjacency(topology: Topology) -> Dict[str, List[Tuple[str, str]]]:
    """Every node's ``(neighbor, canonical link name)`` pairs — the base
    adjacency :func:`_nearest_cut` walks, built once per base."""
    return {
        node: [
            (neighbor, link_component_name(node, neighbor))
            for neighbor in topology.neighbors(node)
        ]
        for node in topology.nodes()
    }


def _nearest_cut(
    adjacency: Dict[str, List[Tuple[str, str]]],
    down: AbstractSet[str],
    cut: AbstractSet[str],
    requester: str,
) -> Tuple[str, ...]:
    """Faulted elements on the frontier of the requester's surviving region.

    Walk the base *adjacency* from *requester* without entering a downed
    node or crossing a cut link; every downed neighbor and cut link met on
    the way is on the frontier.  A downed requester is its own cut; one
    outside the base has none.
    """
    if requester not in adjacency:
        return ()
    if requester in down:
        return (requester,)
    region = {requester}
    frontier = [requester]
    found: set = set()
    while frontier:
        for neighbor, link in adjacency[frontier.pop()]:
            if neighbor in down:
                found.add(neighbor)
            elif link in cut:
                found.add(link)
            elif neighbor not in region:
                region.add(neighbor)
                frontier.append(neighbor)
    return tuple(sorted(found))


def discover_many_resilient(
    topology: Topology,
    pairs: Iterable[Tuple[str, str]],
    *,
    max_depth: Optional[int] = None,
    max_paths: Optional[int] = None,
    policy: Optional[ResiliencePolicy] = None,
) -> DiscoveryOutcome:
    """Discover paths for many pairs, degrading instead of raising.

    Duplicate pairs are processed once; the outcome's diagnostics list
    carries exactly one entry per distinct pair in first-seen order, and
    its path sets follow the same order.
    """
    policy = policy or ResiliencePolicy()
    unique = list(dict.fromkeys(tuple(p) for p in pairs))
    context = (
        topology.plan.specs()
        if isinstance(topology, FaultOverlayTopology)
        else ()
    )

    def run_pair(pair: Tuple[str, str]) -> PairDiagnostic:
        requester, provider = pair
        started = time.perf_counter()

        def diag(status: str, reason: str = "", **kw) -> PairDiagnostic:
            _M_PAIRS.labels(status=status).inc()
            return PairDiagnostic(
                requester,
                provider,
                status,
                reason=reason,
                fault_context=context,
                seconds=time.perf_counter() - started,
                **kw,
            )

        # deterministic pre-flight: a missing endpoint can never succeed,
        # so diagnose it without burning an attempt
        for role, node in (("requester", requester), ("provider", provider)):
            if not topology.has_node(node):
                crashed = isinstance(
                    topology, FaultOverlayTopology
                ) and topology.base.has_node(node)
                reason = (
                    f"{role} {node!r} crashed by fault injection"
                    if crashed
                    else f"{role} {node!r} is not a component of the topology"
                )
                return diag(
                    "unreachable",
                    reason,
                    nearest_cut=(node,) if crashed else (),
                )

        attempts = policy.retries + 1
        last_error: Optional[Exception] = None
        for attempt in range(1, attempts + 1):
            finished, result, error = call_with_deadline(
                lambda: discover(
                    topology,
                    requester,
                    provider,
                    max_depth=max_depth,
                    max_paths=max_paths,
                ),
                policy.pair_timeout,
            )
            if not finished:
                # enumeration is deterministic — retrying an expired
                # deadline would expire again, so diagnose immediately
                _M_TIMEOUTS.inc()
                timeout_error = PathDiscoveryTimeout(
                    requester, provider, policy.pair_timeout or 0.0
                )
                return diag("timeout", str(timeout_error), attempts=attempt)
            if error is None:
                path_set = result
                assert isinstance(path_set, PathSet)
                if not path_set:
                    return diag(
                        "unreachable",
                        "no surviving path"
                        if context
                        else "no path in the topology",
                        attempts=attempt,
                        nearest_cut=_nearest_cut(
                            _adjacency(topology.base),
                            topology._down,
                            topology._cut,
                            requester,
                        )
                        if isinstance(topology, FaultOverlayTopology)
                        else (),
                    )
                outcome.path_sets[pair] = path_set
                return diag(
                    "ok", attempts=attempt, path_count=len(path_set.paths)
                )
            last_error = error
            if attempt <= policy.retries:
                _M_RETRIES.inc()
                if policy.backoff > 0:
                    time.sleep(policy.backoff * (2 ** (attempt - 1)))
        return diag(
            "error",
            f"{type(last_error).__name__}: {last_error}",
            attempts=attempts,
        )

    outcome = DiscoveryOutcome()
    with _trace.span("resilience.discover_many", pairs=len(unique)):
        for pair in unique:
            with _trace.span(
                "resilience.pair", requester=pair[0], provider=pair[1]
            ) as span:
                diag = run_pair(pair)
                span.set(status=diag.status, attempts=diag.attempts)
            outcome.diagnostics.append(diag)
    return outcome
