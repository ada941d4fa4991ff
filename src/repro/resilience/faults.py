"""Deterministic fault plans: what to break, described as data.

A :class:`Fault` is one injected defect; a :class:`FaultPlan` is a set of
them, applied together.  Plans are *values*: they parse from compact spec
strings (the CLI's ``--inject`` syntax), compare by content, and carry a
blake2b :meth:`~FaultPlan.fingerprint` so the path engine's memoization
stays correct — two overlays built from equal plans over the same base
topology hash identically and share cached PathSets, while the nominal
topology keeps its own fingerprint and its cached results untouched.

Supported fault kinds (spec syntax in parentheses):

``crash``  (``crash:<component>``)
    The component is down: removed from the overlay together with every
    incident link.
``cut``  (``cut:<a>|<b>``)
    The cable between *a* and *b* is severed; both endpoints stay up.
    Link targets (of ``cut`` and ``degrade``) are canonicalised to
    sorted ``a|b`` order, so either spelling names the same fault.
``flap``  (``flap:<component>@<seed>[:<duty>]``)
    Intermittent failure: the component is down on a pseudo-random
    subset of discrete ticks drawn from a seeded schedule (*duty* is the
    per-tick down probability, default 0.5).  Flapping must be resolved
    to a concrete tick with :meth:`FaultPlan.at` before the plan can be
    applied — the schedule is a pure function of (target, seed, tick),
    so equal seeds always produce equal campaigns.
``degrade``  (``degrade:<component>:mtbf=<h>[,mttr=<h>]``)
    The component stays connected but its dependability attributes are
    overridden — an aging device or a flaky optic that still passes
    traffic.  Structure-only consumers (path discovery) are unaffected;
    availability analysis sees the degraded MTBF/MTTR.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.dependability.cutsets import link_component_name
from repro.errors import FaultPlanError

__all__ = ["Fault", "FaultPlan", "FAULT_KINDS"]

FAULT_KINDS = ("crash", "cut", "flap", "degrade")


@dataclass(frozen=True)
class Fault:
    """One injected defect.  Construct via :meth:`parse` or the factories."""

    kind: str
    target: str
    seed: Optional[int] = None
    duty: Optional[float] = None
    mtbf: Optional[float] = None
    mttr: Optional[float] = None

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r} (supported: "
                f"{', '.join(FAULT_KINDS)})"
            )
        if not self.target:
            raise FaultPlanError(f"{self.kind} fault needs a target component")
        a, sep, b = self.target.partition("|")
        if self.kind == "cut":
            if not sep or not a or not b:
                raise FaultPlanError(
                    f"cut fault target must name a link as '<a>|<b>', "
                    f"got {self.target!r}"
                )
            if a == b:
                raise FaultPlanError(
                    f"cut fault needs two distinct endpoints, got {self.target!r}"
                )
        if self.kind in ("cut", "degrade") and sep and a and b:
            # a link is one component whichever end is typed first
            object.__setattr__(self, "target", link_component_name(a, b))
        if self.kind == "flap":
            if self.seed is None:
                raise FaultPlanError(
                    f"flap fault on {self.target!r} needs a schedule seed "
                    f"(spec: flap:<component>@<seed>)"
                )
            duty = 0.5 if self.duty is None else self.duty
            if not 0.0 < duty < 1.0:
                raise FaultPlanError(
                    f"flap duty must be in (0, 1), got {duty}"
                )
        if self.kind == "degrade":
            if self.mtbf is None and self.mttr is None:
                raise FaultPlanError(
                    f"degrade fault on {self.target!r} overrides nothing "
                    f"(spec: degrade:<component>:mtbf=<h>[,mttr=<h>])"
                )
            for label, value in (("mtbf", self.mtbf), ("mttr", self.mttr)):
                if value is not None and value <= 0:
                    raise FaultPlanError(
                        f"degrade fault on {self.target!r}: {label} must be "
                        f"> 0, got {value}"
                    )

    # -- factories ----------------------------------------------------------

    @classmethod
    def crash(cls, component: str) -> "Fault":
        return cls("crash", component)

    @classmethod
    def cut(cls, a: str, b: str) -> "Fault":
        return cls("cut", f"{a}|{b}")

    @classmethod
    def flap(cls, component: str, seed: int, duty: float = 0.5) -> "Fault":
        return cls("flap", component, seed=seed, duty=duty)

    @classmethod
    def degrade(
        cls,
        component: str,
        *,
        mtbf: Optional[float] = None,
        mttr: Optional[float] = None,
    ) -> "Fault":
        return cls("degrade", component, mtbf=mtbf, mttr=mttr)

    @classmethod
    def parse(cls, spec: str) -> "Fault":
        """Parse one ``kind:...`` spec string (the CLI ``--inject`` syntax)."""
        kind, sep, rest = spec.partition(":")
        kind = kind.strip()
        if not sep or not rest:
            raise FaultPlanError(
                f"malformed fault spec {spec!r} (expected '<kind>:<target>...')"
            )
        if kind == "crash":
            return cls.crash(rest.strip())
        if kind == "cut":
            ends = [e.strip() for e in rest.split("|")]
            if len(ends) != 2 or not all(ends):
                raise FaultPlanError(
                    f"malformed cut spec {spec!r} (expected 'cut:<a>|<b>')"
                )
            return cls.cut(*ends)
        if kind == "flap":
            target, sep, schedule = rest.partition("@")
            if not sep or not target.strip():
                raise FaultPlanError(
                    f"malformed flap spec {spec!r} "
                    f"(expected 'flap:<component>@<seed>[:<duty>]')"
                )
            seed_text, _, duty_text = schedule.partition(":")
            try:
                seed = int(seed_text)
                duty = float(duty_text) if duty_text else 0.5
            except ValueError as exc:
                raise FaultPlanError(
                    f"malformed flap spec {spec!r}: {exc}"
                ) from None
            return cls.flap(target.strip(), seed, duty)
        if kind == "degrade":
            target, sep, overrides = rest.partition(":")
            if not sep or not target.strip():
                raise FaultPlanError(
                    f"malformed degrade spec {spec!r} (expected "
                    f"'degrade:<component>:mtbf=<h>[,mttr=<h>]')"
                )
            values: Dict[str, float] = {}
            for item in overrides.split(","):
                key, sep, value = item.partition("=")
                key = key.strip().lower()
                if not sep or key not in ("mtbf", "mttr"):
                    raise FaultPlanError(
                        f"malformed degrade spec {spec!r}: bad override "
                        f"{item!r} (expected mtbf=<h> or mttr=<h>)"
                    )
                try:
                    values[key] = float(value)
                except ValueError as exc:
                    raise FaultPlanError(
                        f"malformed degrade spec {spec!r}: {exc}"
                    ) from None
            return cls.degrade(target.strip(), **values)
        raise FaultPlanError(
            f"unknown fault kind {kind!r} in spec {spec!r} (supported: "
            f"{', '.join(FAULT_KINDS)})"
        )

    # -- views -------------------------------------------------------------

    def spec(self) -> str:
        """The canonical spec string (``parse(spec())`` round-trips)."""
        if self.kind == "flap":
            duty = 0.5 if self.duty is None else self.duty
            return f"flap:{self.target}@{self.seed}:{duty:g}"
        if self.kind == "degrade":
            parts = []
            if self.mtbf is not None:
                parts.append(f"mtbf={self.mtbf:g}")
            if self.mttr is not None:
                parts.append(f"mttr={self.mttr:g}")
            return f"degrade:{self.target}:{','.join(parts)}"
        return f"{self.kind}:{self.target}"

    def is_down_at(self, tick: int) -> bool:
        """Whether a flapping component is down at *tick*.

        The schedule is a pure function of (target, seed, tick) — stable
        across processes, platforms and fault-plan composition order.
        """
        if self.kind != "flap":
            raise FaultPlanError(
                f"{self.kind} fault on {self.target!r} has no schedule"
            )
        duty = 0.5 if self.duty is None else self.duty
        rng = random.Random(f"flap:{self.target}:{self.seed}:{tick}")
        return rng.random() < duty

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return self.spec()


class FaultPlan:
    """An unordered set of faults applied together.

    Plans are immutable values: equal fault sets compare equal, hash
    equal, and fingerprint equal regardless of construction order.
    """

    __slots__ = ("faults",)

    def __init__(self, faults: Iterable[Fault] = ()):
        unique = dict.fromkeys(faults)
        self.faults: Tuple[Fault, ...] = tuple(
            sorted(unique, key=lambda f: f.spec())
        )

    # -- construction --------------------------------------------------------

    @classmethod
    def parse(cls, specs: Iterable[str] | str) -> "FaultPlan":
        """Build a plan from spec strings (a single spec or an iterable)."""
        if isinstance(specs, str):
            specs = [specs]
        return cls(Fault.parse(spec) for spec in specs)

    def __add__(self, other: "FaultPlan") -> "FaultPlan":
        return FaultPlan(self.faults + other.faults)

    # -- value semantics -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FaultPlan) and self.faults == other.faults

    def __hash__(self) -> int:
        return hash(self.faults)

    def __len__(self) -> int:
        return len(self.faults)

    def __iter__(self) -> Iterator[Fault]:
        return iter(self.faults)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({list(self.specs())!r})"

    def specs(self) -> Tuple[str, ...]:
        return tuple(fault.spec() for fault in self.faults)

    def fingerprint(self) -> str:
        """Content hash of the plan (composes with the topology fingerprint).

        The overlay topology hashes ``(base fingerprint, plan
        fingerprint)``, so the same plan applied twice to the same base
        yields the same compiled topology and hits the memoized PathSet
        cache, while any differing fault invalidates implicitly.
        """
        digest = hashlib.blake2b(digest_size=16)
        for spec in self.specs():
            digest.update(b"\x00f")
            digest.update(spec.encode("utf-8"))
        return digest.hexdigest()

    # -- flap resolution -----------------------------------------------------

    @property
    def is_resolved(self) -> bool:
        """True when the plan has no unresolved flapping faults."""
        return all(fault.kind != "flap" for fault in self.faults)

    def at(self, tick: int) -> "FaultPlan":
        """Resolve flapping faults at *tick*: each becomes a crash when its
        seeded schedule says down, and disappears when it says up."""
        resolved: List[Fault] = []
        for fault in self.faults:
            if fault.kind != "flap":
                resolved.append(fault)
            elif fault.is_down_at(tick):
                resolved.append(Fault.crash(fault.target))
        return FaultPlan(resolved)

    # -- effective fault sets ------------------------------------------------

    def downed_nodes(self) -> Tuple[str, ...]:
        """Components removed by crash faults (resolved plans only)."""
        return tuple(f.target for f in self.faults if f.kind == "crash")

    def cut_links(self) -> Tuple[str, ...]:
        """Canonical ``a|b`` labels of severed links."""
        return tuple(f.target for f in self.faults if f.kind == "cut")

    def overrides(self) -> Dict[str, Dict[str, float]]:
        """Per-component MTBF/MTTR overrides from degrade faults."""
        table: Dict[str, Dict[str, float]] = {}
        for fault in self.faults:
            if fault.kind != "degrade":
                continue
            entry = table.setdefault(fault.target, {})
            if fault.mtbf is not None:
                entry["MTBF"] = fault.mtbf
            if fault.mttr is not None:
                entry["MTTR"] = fault.mttr
        return table

    def component_names(self) -> Tuple[str, ...]:
        """Availability-table names of structurally failed components:
        crash targets plus ``a|b`` labels of cut links (degrade targets
        stay up and are not included)."""
        return self.downed_nodes() + self.cut_links()

    # -- application ---------------------------------------------------------

    def apply(self, topology, *, tick: Optional[int] = None):
        """Overlay this plan onto *topology*.

        Unresolved flapping faults require a *tick*; crash/cut/degrade
        plans apply directly.  Returns a
        :class:`~repro.resilience.overlay.FaultOverlayTopology`; raises
        :class:`FaultPlanError` when a target does not exist in the base
        topology or flapping is left unresolved.
        """
        from repro.resilience.overlay import FaultOverlayTopology

        plan = self
        if not plan.is_resolved:
            if tick is None:
                raise FaultPlanError(
                    "plan contains flapping faults; resolve them with "
                    ".at(tick) or pass tick= to apply()"
                )
            plan = plan.at(tick)
        return FaultOverlayTopology(topology, plan)
