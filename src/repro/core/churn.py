"""Live-churn engine: conditioned recomputation with graceful degradation.

:mod:`repro.core.dynamics` models *planned* changes: one operation, one
full pipeline re-run, caller handles failures.  A live network is not
that polite — links flap in bursts, components crash mid-evaluation, and
the paper's Section V-A3 efficiency claim ("dynamic system changes
[handled] by updating only individual models") only pays off if an event
costs far less than a fresh evaluation.  This module is that claim under
load:

* :class:`ChurnStream` — a deterministic, seeded generator of churn
  events (link cut/restore/flap, component crash/restore, service
  migration, user move) over a live infrastructure model; the same seed
  always yields the same event sequence, so delta and full-recompile
  runs are comparable event for event.
* :class:`LiveEvaluator` — applies events to the model and re-derives
  availabilities by **conditioning one nominal structure**.  Every state
  a stream produces is the nominal model minus a *down set* of nodes and
  links, and the simple paths of a subgraph are exactly the nominal
  paths that avoid the removed elements.  So an epoch only computes the
  down set and conditions one :class:`repro.analysis.whatif.Nominal` —
  the primitive campaigns and what-if share — on it: pairs with no
  surviving path are disconnected, and availabilities are one row of the
  nominal kernel with the down columns at 0.  The nominal is rebuilt — a
  *rebase* — only when the pairs change or the model holds an element
  outside the rebased model's universe.
* **Epoch snapshots** — readers always see a consistent
  :class:`EpochSnapshot` (availabilities computed from one model state,
  path sets enumerated on that state's frozen compiled topology the
  first time they are read); a snapshot is swapped in atomically only
  when its recompute finished inside the deadline.
* **Graceful degradation** — a recompute that overruns its per-event
  deadline is abandoned (daemon worker, never adopted) and the evaluator
  keeps serving the last-good epoch *explicitly flagged stale*, with the
  staleness bound (events applied but not reflected, seconds since the
  epoch) surfaced on every read.  While degraded, queued events coalesce
  per edge/entity (last state wins) so one catch-up recompute absorbs a
  whole burst.
* **Poison-event quarantine** — an event whose application fails
  validation, or whose recompute keeps failing after bounded
  retry/backoff, is rolled back (the model returns to the last-good
  state), parked in :attr:`LiveEvaluator.quarantine` and reported; it is
  never fatal and never leaves the model half-mutated.

Thread-safety of abandoned workers: the mutating thread compiles the
topology (CSR arrays + fingerprint — a consistent frozen snapshot),
computes the down set against the nominal and, for a rebase, the
availability table *before* handing work to the deadline-bounded
worker, so an abandoned worker never reads the live model; a nominal it
builds is adopted only with its epoch.

Every stage emits ``dynamics.*`` trace spans and ``repro_dynamics_*``
metrics through :mod:`repro.obs`; ``upsim churn`` drives the whole loop
from the command line and ``benchmarks/test_bench_churn.py`` pins the
delta-vs-full speedup floor (BENCH_churn.json).
"""

from __future__ import annotations

import threading
import time
from collections.abc import Mapping as _MappingABC
from dataclasses import dataclass, field
from functools import partial
from typing import (
    TYPE_CHECKING,
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.core.engine import CompiledTopology, _enumerate, compile_topology
from repro.core.pathdiscovery import PathSet
from repro.errors import AnalysisError, ReproError, TopologyError
from repro.fanout import call_with_deadline
from repro.network.topology import Topology
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.uml.objects import Link, ObjectModel

if TYPE_CHECKING:
    from repro.analysis.whatif import Nominal

__all__ = [
    "ChurnEvent",
    "LinkCut",
    "LinkRestore",
    "LinkFlap",
    "ComponentCrash",
    "ComponentRestore",
    "MigrateProvider",
    "MoveUser",
    "ChurnPolicy",
    "ChurnStream",
    "EpochSnapshot",
    "SnapshotView",
    "QuarantinedEvent",
    "ChurnReport",
    "LiveEvaluator",
]


# ---------------------------------------------------------------------------
# events
# ---------------------------------------------------------------------------


class ChurnEvent:
    """Base class of live-churn events.

    Unlike the strict operations of :mod:`repro.core.dynamics` (which
    raise on redundant changes), churn events are **state-setting**:
    cutting an already-absent link or restoring a present one is a no-op.
    Coalescing relies on this — after a burst is merged per
    :meth:`coalesce_key` (last event wins), replaying only the survivors
    must land the model in the same state as replaying the full burst.
    """

    def coalesce_key(self) -> Optional[Tuple]:
        """Events sharing a key collapse to the latest one while the
        evaluator is degraded; ``None`` never coalesces."""
        return None

    def apply(self, evaluator: "LiveEvaluator") -> Optional[Callable[[], None]]:
        """Mutate the evaluator's model/pairs; return an undo (or None)."""
        raise NotImplementedError


def _edge_key(a: str, b: str) -> Tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class LinkCut(ChurnEvent):
    """The link between *a* and *b* goes down (no-op if already down)."""

    a: str
    b: str

    def coalesce_key(self) -> Tuple:
        return ("link", _edge_key(self.a, self.b))

    def apply(self, evaluator: "LiveEvaluator") -> Optional[Callable[[], None]]:
        return evaluator._set_link(self.a, self.b, up=False)


@dataclass(frozen=True)
class LinkRestore(ChurnEvent):
    """The link between *a* and *b* comes back (no-op if already up)."""

    a: str
    b: str

    def coalesce_key(self) -> Tuple:
        return ("link", _edge_key(self.a, self.b))

    def apply(self, evaluator: "LiveEvaluator") -> Optional[Callable[[], None]]:
        return evaluator._set_link(self.a, self.b, up=True)


@dataclass(frozen=True)
class LinkFlap(ChurnEvent):
    """The link bounces: down and back up within one event.

    Net connectivity is unchanged but the link is re-registered (new
    insertion position), so the fingerprint moves and the delta path must
    prove it can revalidate a whole epoch from caches.
    """

    a: str
    b: str

    def coalesce_key(self) -> Tuple:
        return ("link", _edge_key(self.a, self.b))

    def apply(self, evaluator: "LiveEvaluator") -> Optional[Callable[[], None]]:
        undo_cut = evaluator._set_link(self.a, self.b, up=False)
        if undo_cut is None:  # was already down: flap ends with it up
            return evaluator._set_link(self.a, self.b, up=True)
        undo_restore = evaluator._set_link(self.a, self.b, up=True)

        def undo() -> None:
            if undo_restore is not None:
                undo_restore()
            undo_cut()

        return undo


@dataclass(frozen=True)
class ComponentCrash(ChurnEvent):
    """Component *name* fails: it and its incident links leave the model."""

    name: str

    def coalesce_key(self) -> Tuple:
        return ("component", self.name)

    def apply(self, evaluator: "LiveEvaluator") -> Optional[Callable[[], None]]:
        return evaluator._crash(self.name)


@dataclass(frozen=True)
class ComponentRestore(ChurnEvent):
    """A crashed component returns, re-cabled to its surviving neighbors."""

    name: str

    def coalesce_key(self) -> Tuple:
        return ("component", self.name)

    def apply(self, evaluator: "LiveEvaluator") -> Optional[Callable[[], None]]:
        return evaluator._restore(self.name)


@dataclass(frozen=True)
class MigrateProvider(ChurnEvent):
    """Every pair served by *old* is now served by *new* (Section V-A3:
    "migrating a service ... requires updating only the mapping")."""

    old: str
    new: str

    def coalesce_key(self) -> Tuple:
        return ("provider", self.old)

    def apply(self, evaluator: "LiveEvaluator") -> Optional[Callable[[], None]]:
        return evaluator._retarget(self.old, self.new, role=1)


@dataclass(frozen=True)
class MoveUser(ChurnEvent):
    """Every pair requested from *old* is now requested from *new*."""

    old: str
    new: str

    def coalesce_key(self) -> Tuple:
        return ("requester", self.old)

    def apply(self, evaluator: "LiveEvaluator") -> Optional[Callable[[], None]]:
        return evaluator._retarget(self.old, self.new, role=0)


# ---------------------------------------------------------------------------
# policy / snapshots / reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChurnPolicy:
    """Robustness knobs of the live evaluator.

    ``deadline`` bounds each recompute attempt in seconds (None =
    unbounded); a missed deadline degrades to stale serving instead of
    blocking the event loop.  Recompute *errors* (not timeouts) retry up
    to ``max_retries`` times with exponential backoff
    (``backoff * 2**attempt`` seconds) before the event is quarantined
    and rolled back.  While degraded, up to ``coalesce_window`` events
    are absorbed per edge/entity before the next catch-up attempt.
    ``delta=False`` turns the evaluator into its own full-recompile
    oracle: fresh topology compilation, uncached enumeration, Formula 1
    and a fresh BDD per event — the equivalence baseline for tests and
    benchmarks.
    """

    deadline: Optional[float] = None
    max_retries: int = 2
    backoff: float = 0.05
    coalesce_window: int = 8
    delta: bool = True

    def __post_init__(self) -> None:
        if self.deadline is not None and not self.deadline > 0:
            raise AnalysisError(
                f"churn deadline must be > 0 s or None, got {self.deadline}"
            )
        if self.max_retries < 0:
            raise AnalysisError(
                f"churn retries must be >= 0, got {self.max_retries}"
            )
        if not self.backoff >= 0:
            raise AnalysisError(f"churn backoff must be >= 0, got {self.backoff}")
        if self.coalesce_window < 1:
            raise AnalysisError(
                f"churn coalescing window must be >= 1, got "
                f"{self.coalesce_window}"
            )


@dataclass(frozen=True)
class EpochSnapshot:
    """One internally-consistent result set: every field derives from the
    same model state (identified by ``fingerprint``).

    ``path_sets`` is a read-only mapping; on the delta route each pair's
    list is enumerated on the epoch's frozen compiled topology the first
    time it is read (a conditioned epoch never needs the lists)."""

    epoch: int
    fingerprint: str
    path_sets: Mapping[Tuple[str, str], PathSet]
    availability: float
    pair_availability: Mapping[Tuple[str, str], float]
    disconnected: Tuple[Tuple[str, str], ...]
    applied_events: int
    created_at: float


@dataclass(frozen=True)
class SnapshotView:
    """What a reader gets: the last-good epoch plus its staleness bound.

    ``stale`` is True whenever events have been applied to the model that
    the snapshot does not reflect (degraded serving); ``lag_events`` and
    ``age_seconds`` bound the staleness.  The epoch itself is always
    internally consistent — degradation never mixes epochs.
    """

    snapshot: EpochSnapshot
    stale: bool
    lag_events: int
    age_seconds: float


@dataclass(frozen=True)
class QuarantinedEvent:
    """A parked poison event: what failed, how often it was retried, and
    proof the model was rolled back (the evaluator keeps running)."""

    event: ChurnEvent
    error: str
    attempts: int
    rolled_back: bool


@dataclass
class ChurnReport:
    """Tally of one :meth:`LiveEvaluator.run` (all counters cumulative
    over the run, not the evaluator lifetime)."""

    events: int = 0
    applied: int = 0
    coalesced: int = 0
    recomputes: int = 0
    epochs: int = 0
    deadline_misses: int = 0
    retries: int = 0
    quarantined: List[QuarantinedEvent] = field(default_factory=list)
    elapsed: float = 0.0
    final: Optional[SnapshotView] = None

    def to_dict(self) -> Dict[str, object]:
        final = self.final
        return {
            "events": self.events,
            "applied": self.applied,
            "coalesced": self.coalesced,
            "recomputes": self.recomputes,
            "epochs": self.epochs,
            "deadline_misses": self.deadline_misses,
            "retries": self.retries,
            "quarantined": [
                {
                    "event": repr(q.event),
                    "error": q.error,
                    "attempts": q.attempts,
                    "rolled_back": q.rolled_back,
                }
                for q in self.quarantined
            ],
            "elapsed_s": self.elapsed,
            "final": None
            if final is None
            else {
                "epoch": final.snapshot.epoch,
                "availability": final.snapshot.availability,
                "stale": final.stale,
                "lag_events": final.lag_events,
                "age_seconds": final.age_seconds,
                "disconnected": [
                    list(pair) for pair in final.snapshot.disconnected
                ],
            },
        }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

_M_EVENTS = _metrics.counter(
    "repro_dynamics_events_total", "Churn events submitted to live evaluators"
)
_M_COALESCED = _metrics.counter(
    "repro_dynamics_coalesced_total",
    "Churn events absorbed by same-edge coalescing while degraded",
)
_M_RECOMPUTES = _metrics.counter(
    "repro_dynamics_recomputes_total", "Delta recompute attempts"
)
_M_REBASES = _metrics.counter(
    "repro_dynamics_rebases_total",
    "Adopted epochs that rebuilt the nominal structure instead of "
    "conditioning it",
)
_M_EPOCHS = _metrics.counter(
    "repro_dynamics_epochs_total", "Consistent epochs published"
)
_M_DEADLINE_MISSES = _metrics.counter(
    "repro_dynamics_deadline_misses_total",
    "Recomputes abandoned at the per-event deadline",
)
_M_RETRIES = _metrics.counter(
    "repro_dynamics_retries_total", "Recompute retries after errors"
)
_M_QUARANTINED = _metrics.counter(
    "repro_dynamics_quarantined_total",
    "Poison events parked in quarantine (with model rollback)",
)
_H_RECOMPUTE = _metrics.histogram(
    "repro_dynamics_recompute_seconds",
    "Wall time of successful recomputes",
    buckets=(0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0),
)


# ---------------------------------------------------------------------------
# live evaluator
# ---------------------------------------------------------------------------


def _elements(compiled: CompiledTopology) -> Iterator[str]:
    """Every node, then every link (named as :func:`link_component_name`
    names it), of a frozen compiled topology."""
    from repro.dependability.cutsets import link_component_name

    names, indptr, indices = compiled.names, compiled.indptr, compiled.indices
    yield from names
    for i, name in enumerate(names):
        for j in indices[indptr[i] : indptr[i + 1]]:
            if j > i:
                yield link_component_name(name, names[j])


class _Base(NamedTuple):
    """The nominal one rebase builds from one frozen model state, with
    what decides the next rebase: its pairs and its element universe."""

    pairs: Tuple[Tuple[str, str], ...]
    elements: FrozenSet[str]
    nominal: "Nominal"


class _PathSetView(_MappingABC):
    """An epoch's path sets as a read-only mapping: each pair's list is
    enumerated on the epoch's frozen compiled topology the first time it
    is read (seeded with lists already in hand)."""

    __slots__ = ("_compiled", "_paths")

    def __init__(
        self,
        compiled: CompiledTopology,
        pairs: Iterable[Tuple[str, str]],
        known: Optional[Mapping[Tuple[str, str], PathSet]] = None,
    ):
        self._compiled = compiled
        self._paths: Dict[Tuple[str, str], Optional[PathSet]] = dict.fromkeys(
            pairs
        )
        if known:
            self._paths.update(known)

    def __getitem__(self, pair: Tuple[str, str]) -> PathSet:
        path_set = self._paths[pair]
        if path_set is None:
            # racing first reads enumerate the same list from the same
            # frozen arrays; whichever store lands is the same value
            path_set = self._paths[pair] = _enumerate(self._compiled, *pair)
        return path_set

    def __contains__(self, pair: object) -> bool:
        return pair in self._paths

    def __iter__(self) -> Iterator[Tuple[str, str]]:
        return iter(self._paths)

    def __len__(self) -> int:
        return len(self._paths)


class _Computed(NamedTuple):
    """One recompute's outputs, built entirely from frozen inputs (plus
    the base a delta epoch conditioned, adopted with it)."""

    path_sets: Mapping[Tuple[str, str], PathSet]
    availability: float
    pair_availability: Dict[Tuple[str, str], float]
    disconnected: Tuple[Tuple[str, str], ...]
    base: Optional[_Base]


class LiveEvaluator:
    """Sustained user-perceived evaluation of a mutating infrastructure.

    *pairs* are the (requester, provider) endpoints under evaluation (the
    mapping's communication pairs).  Events arrive through
    :meth:`submit` / :meth:`run`; readers call :meth:`snapshot` at any
    time and always receive a consistent epoch with an explicit staleness
    bound.  See the module docstring for the degradation/quarantine
    contract.
    """

    def __init__(
        self,
        infrastructure: ObjectModel,
        pairs: Sequence[Tuple[str, str]],
        *,
        policy: Optional[ChurnPolicy] = None,
    ):
        if not pairs:
            raise TopologyError("live evaluation requires at least one pair")
        self.model = infrastructure
        self.topology = Topology(infrastructure)
        self.pairs: List[Tuple[str, str]] = [tuple(p) for p in pairs]
        self.policy = policy or ChurnPolicy()
        self._base: Optional[_Base] = None
        self._lock = threading.Lock()
        self._snapshot: Optional[EpochSnapshot] = None
        self._epoch = 0
        self._applied = 0
        self._queue: List[ChurnEvent] = []
        self.quarantine: List[QuarantinedEvent] = []
        self.stats = {
            "events": 0,
            "applied": 0,
            "coalesced": 0,
            "recomputes": 0,
            "rebases": 0,
            "deadline_misses": 0,
            "retries": 0,
        }
        self._down_links: Dict[Tuple[str, str], Link] = {}
        self._crashed: Dict[str, Tuple[object, List[Link]]] = {}
        # the initial epoch must exist before any event arrives; no
        # deadline — a reader-visible evaluator starts consistent
        with _trace.span("dynamics.initial_epoch", pairs=len(self.pairs)):
            self._recompute_unbounded()

    # -- model mutation primitives (state-setting, with undo) ---------------

    def _set_link(self, a: str, b: str, *, up: bool) -> Optional[Callable[[], None]]:
        model = self.model
        for end in (a, b):
            if not model.has_instance(end):
                raise TopologyError(f"component {end!r} not in the network")
        present = model.find_link(a, b) is not None
        key = _edge_key(a, b)
        if up:
            if present:
                return None
            remembered = self._down_links.pop(key, None)
            if remembered is not None:
                model.add_link(
                    remembered.end1,
                    remembered.end2,
                    remembered.association,
                    name=remembered.name,
                )
            else:
                model.add_link(a, b)

            def undo_up() -> None:
                link = self.model.remove_link(a, b)
                self._down_links[key] = link

            return undo_up
        if not present:
            return None
        link = model.remove_link(a, b)
        self._down_links[key] = link

        def undo_down() -> None:
            self._down_links.pop(key, None)
            self.model.add_link(
                link.end1, link.end2, link.association, name=link.name
            )

        return undo_down

    def _crash(self, name: str) -> Optional[Callable[[], None]]:
        if name in self._crashed:
            return None  # already down
        if not self.model.has_instance(name):
            raise TopologyError(f"component {name!r} not in the network")
        if any(name in pair for pair in self.pairs):
            raise TopologyError(
                f"component {name!r} is an evaluation endpoint; crashing it "
                f"would leave pairs without a requester/provider"
            )
        inst, links = self.model.remove_instance(name, cascade=True)
        self._crashed[name] = (inst, links)

        def undo() -> None:
            del self._crashed[name]
            self.model.add_existing_instance(inst)
            for link in links:
                self.model.add_link(
                    link.end1, link.end2, link.association, name=link.name
                )

        return undo

    def _restore(self, name: str) -> Optional[Callable[[], None]]:
        """Bring *name* back, re-cabled to every neighbour that is up.

        The links it went down with join the cut links in
        ``_down_links``, and every down link between *name* and a present
        node comes back: a link to a neighbour that is still crashed
        waits there and returns with that neighbour.
        """
        entry = self._crashed.pop(name, None)
        if entry is None:
            return None  # never crashed (or already restored)
        inst, links = entry
        model = self.model
        before = dict(self._down_links)
        for link in links:
            self._down_links[_edge_key(link.end1.name, link.end2.name)] = link
        model.add_existing_instance(inst)
        recabled: List[Link] = []
        for key, link in list(self._down_links.items()):
            if name not in key:
                continue
            other = key[1] if key[0] == name else key[0]
            if model.has_instance(other):
                del self._down_links[key]
                recabled.append(
                    model.add_link(
                        link.end1, link.end2, link.association, name=link.name
                    )
                )

        def undo() -> None:
            for link in recabled:
                self.model.remove_link(link.end1, link.end2)
            self._down_links.clear()
            self._down_links.update(before)
            removed_inst, _ = self.model.remove_instance(name)
            self._crashed[name] = (removed_inst, links)

        return undo

    def _retarget(self, old: str, new: str, *, role: int) -> Callable[[], None]:
        if not self.model.has_instance(new):
            raise TopologyError(f"component {new!r} not in the network")
        if not any(pair[role] == old for pair in self.pairs):
            what = "provider" if role else "requester"
            raise TopologyError(f"{old!r} is not a {what} of any pair")
        before = list(self.pairs)
        self.pairs = [
            (new, p[1]) if role == 0 and p[0] == old
            else (p[0], new) if role == 1 and p[1] == old
            else p
            for p in self.pairs
        ]

        def undo() -> None:
            self.pairs = before

        return undo

    # -- recompute -----------------------------------------------------------

    def _prepare(
        self,
    ) -> Tuple[
        CompiledTopology,
        Tuple[Tuple[str, str], ...],
        Optional[Dict[str, float]],
        Optional[_Base],
        Collection[str],
    ]:
        """Freeze everything a worker needs, on the mutating thread.

        Returns ``(compiled, pairs, availabilities, base, down)``.  A
        delta epoch whose pairs match the base's and whose elements the
        base all knows conditions *base*'s nominal on the *down*
        elements; otherwise (and on every oracle epoch) *base* is None and
        Formula 1 is resolved here, where the live model is safe to read.
        """
        # deferred: analysis.transformations imports core.pathdiscovery,
        # which would close an import cycle through repro.core.__init__
        from repro.analysis.transformations import component_availabilities

        pairs = tuple(self.pairs)
        if not self.policy.delta:
            # full-recompile oracle: pay compilation from scratch
            compiled = CompiledTopology.from_topology(self.topology)
        else:
            compiled = compile_topology(self.topology)
            base = self._base
            if base is not None and base.pairs == pairs:
                present = set(_elements(compiled))
                if present <= base.elements:
                    return compiled, pairs, None, base, base.elements - present
        return compiled, pairs, component_availabilities(self.model), None, ()

    def _compute(
        self,
        compiled: CompiledTopology,
        pairs: Tuple[Tuple[str, str], ...],
        availabilities: Optional[Mapping[str, float]],
        base: Optional[_Base],
        down: Collection[str],
    ) -> _Computed:
        """The worker body: frozen inputs only — never the live model."""
        if not self.policy.delta:
            return self._compute_full(compiled, pairs, availabilities)
        # deferred: repro.analysis imports core modules at load time
        from repro.analysis.whatif import Nominal

        with _trace.span(
            "dynamics.condition", rebase=base is None, down=len(down)
        ) as span:
            known = None
            if base is None:
                known = {
                    pair: _enumerate(compiled, *pair)
                    for pair in dict.fromkeys(pairs)
                }
                base = _Base(
                    pairs,
                    frozenset(_elements(compiled)),
                    Nominal(known, availabilities, compiled),
                )
            nominal = base.nominal
            counts = nominal.survivors(down)
            (system,), (groups,) = nominal.rows([(down, nominal.table)])
            disconnected = {
                tuple(sorted(pair))
                for pair, group in nominal.group.items()
                if not counts[group]
            }
            span.set(disconnected=len(disconnected))
        full_pair = {pair: groups[group] for pair, group in nominal.group.items()}
        return _Computed(
            _PathSetView(compiled, full_pair, known),
            system,
            full_pair,
            tuple(sorted(disconnected)),
            base,
        )

    @staticmethod
    def _compute_full(
        compiled: CompiledTopology,
        pairs: Tuple[Tuple[str, str], ...],
        availabilities: Mapping[str, float],
    ) -> _Computed:
        """The oracle: uncached enumeration and a fresh BDD per epoch."""
        # deferred imports: dependability.bdd imports core.engine, whose
        # package import chain loops back through this module
        from repro.dependability.bdd import compile_structure
        from repro.dependability.cutsets import path_components

        path_sets: Dict[Tuple[str, str], PathSet] = {
            pair: _enumerate(compiled, *pair, memo=False)
            for pair in dict.fromkeys(pairs)
        }
        distinct: Dict[Tuple[str, str], PathSet] = {}
        for pair, ps in path_sets.items():
            distinct.setdefault(tuple(sorted(pair)), ps)
        groups: List[List] = []
        group_keys: List[Tuple[str, str]] = []
        disconnected: List[Tuple[str, str]] = []
        for key, ps in distinct.items():
            if not ps.paths:
                disconnected.append(key)
                continue
            groups.append([path_components(path) for path in ps.paths])
            group_keys.append(key)
        pair_availability: Dict[Tuple[str, str], float] = {
            key: 0.0 for key in disconnected
        }
        system = 0.0 if disconnected else 1.0
        if groups:
            kernel = compile_structure(groups, use_cache=False)
            vector = np.array(
                [availabilities.get(v, 0.0) for v in kernel.variables],
                dtype=np.float64,
            )
            sys_av, group_avs = kernel.evaluate_vector(vector)
            if not disconnected:
                system = sys_av
            for key, value in zip(group_keys, group_avs):
                pair_availability[key] = value
        full_pair = {
            pair: pair_availability[tuple(sorted(pair))] for pair in path_sets
        }
        return _Computed(
            path_sets, system, full_pair, tuple(sorted(disconnected)), None
        )

    def _adopt(self, compiled: CompiledTopology, computed: _Computed) -> None:
        with self._lock:
            self._epoch += 1
            self._snapshot = EpochSnapshot(
                epoch=self._epoch,
                fingerprint=compiled.fingerprint,
                path_sets=computed.path_sets,
                availability=computed.availability,
                pair_availability=computed.pair_availability,
                disconnected=computed.disconnected,
                applied_events=self._applied,
                created_at=time.monotonic(),
            )
        if computed.base is not self._base:
            if self._base is not None:
                self.stats["rebases"] += 1
                _M_REBASES.inc()
            self._base = computed.base
        _M_EPOCHS.inc()

    def _recompute_unbounded(self) -> None:
        prepared = self._prepare()
        self._adopt(prepared[0], self._compute(*prepared))

    def _try_recompute(self) -> Tuple[bool, Optional[BaseException]]:
        """One deadline-bounded, retry-wrapped recompute attempt.

        Returns ``(adopted, last_error)``: ``(True, None)`` on success,
        ``(False, None)`` on a deadline miss (degraded serving), and
        ``(False, error)`` when every retry failed (caller quarantines).
        """
        policy = self.policy
        self.stats["recomputes"] += 1
        _M_RECOMPUTES.inc()
        with _trace.span(
            "dynamics.recompute",
            deadline=policy.deadline or 0.0,
            delta=policy.delta,
        ) as span:
            last_error: Optional[BaseException] = None
            for attempt in range(policy.max_retries + 1):
                if attempt:
                    self.stats["retries"] += 1
                    _M_RETRIES.inc()
                    time.sleep(policy.backoff * (2 ** (attempt - 1)))
                prepared = self._prepare()
                compiled, _, _, base, _ = prepared
                span.set(rebase=policy.delta and base is None)
                started = time.monotonic()
                finished, computed, error = call_with_deadline(
                    partial(self._compute, *prepared), policy.deadline
                )
                elapsed = time.monotonic() - started
                if not finished:
                    # abandoned: the worker only holds frozen inputs,
                    # its (content-addressed) cache writes stay valid
                    self.stats["deadline_misses"] += 1
                    _M_DEADLINE_MISSES.inc()
                    span.set(outcome="deadline")
                    return False, None
                if error is not None:
                    last_error = error
                    continue
                self._adopt(compiled, computed)
                _H_RECOMPUTE.observe(elapsed)
                span.set(outcome="epoch", epoch=self._epoch, attempts=attempt + 1)
                return True, None
            span.set(outcome="error", attempts=policy.max_retries + 1)
            return False, last_error

    # -- event intake --------------------------------------------------------

    def submit(self, event: ChurnEvent) -> None:
        """Queue one event (processed by the next :meth:`pump`)."""
        self.stats["events"] += 1
        _M_EVENTS.inc()
        self._queue.append(event)

    def _coalesce(self) -> List[ChurnEvent]:
        """Drain the queue, keeping only the last event per coalesce key
        (in last-occurrence order); keyless events all survive."""
        drained, self._queue = self._queue, []
        survivors: "Dict[object, ChurnEvent]" = {}
        unkeyed = 0
        for event in drained:
            key = event.coalesce_key()
            if key is None:
                unkeyed += 1
                survivors[("unkeyed", unkeyed)] = event
            else:
                survivors.pop(key, None)  # re-insert at the back
                survivors[key] = event
        merged = len(drained) - len(survivors)
        if merged:
            self.stats["coalesced"] += merged
            _M_COALESCED.inc(merged)
        return list(survivors.values())

    def pump(self) -> bool:
        """Apply the (coalesced) queue, then attempt one recompute.

        Returns True when a fresh epoch was adopted; False when the
        evaluator is serving stale (deadline miss) or the queue only held
        poison events.  Never raises on event failures — poison events
        are quarantined with rollback.
        """
        events = self._coalesce()
        applied: List[Tuple[ChurnEvent, Optional[Callable[[], None]]]] = []
        for event in events:
            with _trace.span(
                "dynamics.event", kind=type(event).__name__
            ) as span:
                try:
                    undo = event.apply(self)
                except ReproError as exc:
                    # validation poison: apply is atomic, nothing to undo
                    self._quarantine(event, exc, attempts=1, rolled_back=True)
                    span.set(outcome="quarantined")
                    continue
                self._applied += 1
                self.stats["applied"] += 1
                applied.append((event, undo))
                span.set(outcome="applied")
        if not applied:
            # model unchanged; only recompute if a previous miss left us
            # behind (opportunistic catch-up), otherwise stay fresh
            if not self.snapshot().stale:
                return True
        adopted, error = self._try_recompute()
        if adopted:
            return True
        if error is not None:
            self._rollback_batch(applied, error)
        return False

    def _rollback_batch(
        self,
        applied: List[Tuple[ChurnEvent, Optional[Callable[[], None]]]],
        error: BaseException,
    ) -> None:
        """Every retry failed: restore the last-good model state.

        The recompute evaluated the batch's *combined* effect, so there
        is no per-event blame — the whole batch is quarantined and undone
        in reverse order (rare: recompute errors are injected faults or
        genuine engine bugs, not normal churn).  After the rollback the
        model matches the served epoch again, so staleness clears.
        """
        for _, undo in reversed(applied):
            if undo is not None:
                undo()
        with self._lock:
            self._applied -= len(applied)
        for event, _ in applied:
            self._quarantine(
                event,
                error,
                attempts=self.policy.max_retries + 1,
                rolled_back=True,
            )

    def _quarantine(
        self,
        event: ChurnEvent,
        error: BaseException,
        *,
        attempts: int,
        rolled_back: bool,
    ) -> None:
        self.quarantine.append(
            QuarantinedEvent(
                event=event,
                error=f"{type(error).__name__}: {error}",
                attempts=attempts,
                rolled_back=rolled_back,
            )
        )
        _M_QUARANTINED.inc()

    # -- reads ---------------------------------------------------------------

    def snapshot(self) -> SnapshotView:
        """The last-good epoch plus its staleness bound (never blocks on
        an in-flight recompute, never mixes epochs)."""
        with self._lock:
            snap = self._snapshot
            applied = self._applied
        assert snap is not None  # constructor publishes epoch 1
        lag = applied - snap.applied_events
        return SnapshotView(
            snapshot=snap,
            stale=lag > 0,
            lag_events=lag,
            age_seconds=time.monotonic() - snap.created_at,
        )

    @property
    def stale(self) -> bool:
        return self.snapshot().stale

    # -- driving -------------------------------------------------------------

    def run(
        self,
        events: Iterable[ChurnEvent],
        *,
        catch_up: bool = True,
    ) -> ChurnReport:
        """Drive a whole event stream through the evaluator.

        Healthy steady state processes one event per recompute.  After a
        deadline miss the evaluator degrades: it keeps *applying* events
        (so the model is current) but batches recompute attempts every
        ``policy.coalesce_window`` events, letting same-edge bursts
        coalesce; each attempt that succeeds ends degradation.  With
        *catch_up* (default) a final unbounded recompute guarantees the
        returned snapshot is fresh — benchmarks and equivalence tests
        rely on that.
        """
        report = ChurnReport()
        base = dict(self.stats)
        base_quarantined = len(self.quarantine)
        base_epoch = self._epoch
        started = time.monotonic()
        degraded = False
        pending = 0
        with _trace.span("dynamics.run", delta=self.policy.delta):
            for event in events:
                report.events += 1
                self.submit(event)
                pending += 1
                if degraded and pending < self.policy.coalesce_window:
                    continue
                fresh = self.pump()
                pending = 0
                degraded = not fresh and self.snapshot().stale
            if self._queue:
                self.pump()
            if catch_up and self.snapshot().stale:
                with _trace.span("dynamics.catch_up"):
                    self.stats["recomputes"] += 1
                    _M_RECOMPUTES.inc()
                    self._recompute_unbounded()
        report.applied = self.stats["applied"] - base["applied"]
        report.coalesced = self.stats["coalesced"] - base["coalesced"]
        report.recomputes = self.stats["recomputes"] - base["recomputes"]
        report.deadline_misses = (
            self.stats["deadline_misses"] - base["deadline_misses"]
        )
        report.retries = self.stats["retries"] - base["retries"]
        report.quarantined = self.quarantine[base_quarantined:]
        report.epochs = self._epoch - base_epoch
        report.elapsed = time.monotonic() - started
        report.final = self.snapshot()
        return report


# ---------------------------------------------------------------------------
# deterministic event streams
# ---------------------------------------------------------------------------


class ChurnStream:
    """Seeded, deterministic churn-event generator over a model.

    The stream tracks its *own* mirror of link/component state (it never
    reads the evaluator), so the same seed yields the identical event
    sequence no matter how the consumer fares — the property the
    delta-vs-oracle equivalence tests depend on.  Generated events are
    always sensible with respect to the mirror: links are cut only while
    up, restored only while down, components crash only while alive, and
    evaluation endpoints are never crashed.
    """

    #: relative weights of (cut, restore, flap, crash, restore-component,
    #: migrate, move).  Repair outweighs damage so a sustained stream
    #: settles into a mostly-healthy network (~20% degraded) rather than
    #: grinding everything down to disconnection
    DEFAULT_WEIGHTS = (1.5, 6.0, 4.0, 0.5, 2.0, 0.5, 0.5)

    def __init__(
        self,
        model: ObjectModel,
        pairs: Sequence[Tuple[str, str]],
        *,
        seed: int = 0,
        weights: Optional[Sequence[float]] = None,
        mobility: bool = False,
    ):
        self._rng = np.random.default_rng(seed)
        self._pairs = [tuple(p) for p in pairs]
        self._protected = {name for pair in self._pairs for name in pair}
        self._up: List[Tuple[str, str]] = sorted(
            _edge_key(link.end1.name, link.end2.name) for link in model.links
        )
        self._down: List[Tuple[str, str]] = []
        self._alive: List[str] = sorted(
            inst.name
            for inst in model.instances
            if inst.name not in self._protected
        )
        self._crashed: List[str] = []
        self._mobility = mobility
        weights = tuple(
            weights if weights is not None else self.DEFAULT_WEIGHTS
        )
        if len(weights) != 7:
            raise TopologyError(
                f"churn weights must have 7 entries, got {len(weights)}"
            )
        if not mobility:
            weights = weights[:5] + (0.0, 0.0)
        total = float(sum(weights))
        if total <= 0:
            raise TopologyError("churn weights must not all be zero")
        self._weights = np.asarray(weights, dtype=np.float64) / total

    def _pick(self, items: List) -> object:
        return items[int(self._rng.integers(len(items)))]

    def _link_endpoints(self, edge: Tuple[str, str]) -> bool:
        """Is either endpoint of *edge* currently crashed in the mirror?"""
        crashed = set(self._crashed)
        return edge[0] in crashed or edge[1] in crashed

    def events(self, n: int) -> Iterator[ChurnEvent]:
        """Yield *n* deterministic events."""
        for _ in range(n):
            yield self._next()

    def __iter__(self) -> Iterator[ChurnEvent]:  # endless
        while True:
            yield self._next()

    def _next(self) -> ChurnEvent:
        for _ in range(64):  # resample when a kind has no candidates
            kind = int(self._rng.choice(7, p=self._weights))
            event = self._emit(kind)
            if event is not None:
                return event
        # pathological mirrors (everything down) fall back to a restore
        event = self._emit(1)
        if event is None:
            raise TopologyError("churn stream has no applicable events")
        return event

    def _emit(self, kind: int) -> Optional[ChurnEvent]:
        if kind == 0:  # cut
            candidates = [e for e in self._up if not self._link_endpoints(e)]
            if not candidates:
                return None
            edge = self._pick(candidates)
            self._up.remove(edge)
            self._down.append(edge)
            return LinkCut(*edge)
        if kind == 1:  # restore link
            candidates = [e for e in self._down if not self._link_endpoints(e)]
            if not candidates:
                return None
            edge = self._pick(candidates)
            self._down.remove(edge)
            self._up.append(edge)
            return LinkRestore(*edge)
        if kind == 2:  # flap (state unchanged)
            candidates = [e for e in self._up if not self._link_endpoints(e)]
            if not candidates:
                return None
            return LinkFlap(*self._pick(candidates))
        if kind == 3:  # crash
            if not self._alive:
                return None
            name = self._pick(self._alive)
            self._alive.remove(name)
            self._crashed.append(name)
            # incident links leave the model with the component
            gone = [e for e in self._up if name in e]
            for edge in gone:
                self._up.remove(edge)
                self._down.append(edge)
            return ComponentCrash(name)
        if kind == 4:  # restore component
            if not self._crashed:
                return None
            name = self._pick(self._crashed)
            self._crashed.remove(name)
            self._alive.append(name)
            back = [
                e
                for e in self._down
                if name in e and not self._link_endpoints(e)
            ]
            for edge in back:
                self._down.remove(edge)
                self._up.append(edge)
            return ComponentRestore(name)
        if kind == 5:  # migrate provider
            providers = sorted({p for _, p in self._pairs})
            targets = [n for n in self._alive if n not in self._protected]
            if not providers or not targets:
                return None
            old = self._pick(providers)
            new = self._pick(targets)
            self._pairs = [
                (r, new) if p == old else (r, p) for r, p in self._pairs
            ]
            self._protected = {n for pair in self._pairs for n in pair}
            return MigrateProvider(old, new)  # type: ignore[arg-type]
        # kind == 6: move user
        requesters = sorted({r for r, _ in self._pairs})
        targets = [n for n in self._alive if n not in self._protected]
        if not requesters or not targets:
            return None
        old = self._pick(requesters)
        new = self._pick(targets)
        self._pairs = [
            (new, p) if r == old else (r, p) for r, p in self._pairs
        ]
        self._protected = {n for pair in self._pairs for n in pair}
        return MoveUser(old, new)  # type: ignore[arg-type]
