"""The population model: user classes × attachment locations × profiles.

A *population* is a set of simulated users, each belonging to one
:class:`UserClass` and attached to one infrastructure component (their
*attachment location* — the paper's "client position", Section V-A3).
The class describes everything that differentiates users of the same
attachment point:

* ``device_availability`` — the availability of the user's own access
  device as they perceive it (``None`` keeps the Formula-1 value of the
  attachment component);
* ``jitter`` — a relative per-user degradation spread: user *u* of the
  class perceives ``base · (1 − jitter · r_u)`` with ``r_u`` drawn once,
  deterministically, in ``[0, 1)``.  ``jitter = 0`` makes every user of
  a class at one attachment identical (a zero slope in the plane's
  affine rule);
* ``demand`` — requests per user, a reporting weight for capacity-style
  roll-ups;
* ``mobility`` — the fraction of the attachment list the class roams
  over (1.0 = anywhere, small values concentrate the class on a few
  positions, raising the plane's deduplication ratio).

Everything is generated from a seeded :class:`numpy.random.Generator`,
so a population is a pure function of ``(n_users, classes, attachments,
seed)`` — benchmarks and the scalar/vectorized equivalence tests rely on
that determinism.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.mapping import ServiceMapping, ServiceMappingPair
from repro.errors import AnalysisError, MappingError

__all__ = [
    "UserClass",
    "Population",
    "parse_user_classes",
    "mapping_for_user",
]


@dataclass(frozen=True)
class UserClass:
    """One class of users sharing a demand/device/mobility profile."""

    name: str
    weight: float = 1.0
    device_availability: Optional[float] = None
    jitter: float = 0.0
    demand: float = 1.0
    mobility: float = 1.0

    def __post_init__(self):
        if not self.name:
            raise AnalysisError("user class needs a non-empty name")
        if not self.weight > 0.0:
            raise AnalysisError(
                f"user class {self.name!r}: weight must be > 0, "
                f"got {self.weight}"
            )
        if self.device_availability is not None and not (
            0.0 <= self.device_availability <= 1.0
        ):
            raise AnalysisError(
                f"user class {self.name!r}: device_availability must be in "
                f"[0, 1], got {self.device_availability}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise AnalysisError(
                f"user class {self.name!r}: jitter must be in [0, 1), "
                f"got {self.jitter}"
            )
        if not self.demand > 0.0:
            raise AnalysisError(
                f"user class {self.name!r}: demand must be > 0, "
                f"got {self.demand}"
            )
        if not 0.0 < self.mobility <= 1.0:
            raise AnalysisError(
                f"user class {self.name!r}: mobility must be in (0, 1], "
                f"got {self.mobility}"
            )


def parse_user_classes(spec: str) -> Tuple[UserClass, ...]:
    """Parse the CLI class spec ``NAME[:WEIGHT[:DEVICE_A[:JITTER]]],...``.

    Examples::

        parse_user_classes("std:1")
        parse_user_classes("gold:2:0.9999,std:8:0.98:0.05")
    """
    classes = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(":")
        if len(parts) > 4:
            raise AnalysisError(
                f"user-class spec {chunk!r}: expected "
                f"NAME[:WEIGHT[:DEVICE_A[:JITTER]]]"
            )
        name = parts[0]
        try:
            weight = float(parts[1]) if len(parts) > 1 else 1.0
            device = float(parts[2]) if len(parts) > 2 else None
            jitter = float(parts[3]) if len(parts) > 3 else 0.0
        except ValueError as exc:
            raise AnalysisError(
                f"user-class spec {chunk!r}: {exc}"
            ) from None
        classes.append(
            UserClass(name, weight=weight, device_availability=device, jitter=jitter)
        )
    if not classes:
        raise AnalysisError(f"user-class spec {spec!r} declares no classes")
    if len({c.name for c in classes}) != len(classes):
        raise AnalysisError(f"user-class spec {spec!r} repeats a class name")
    return tuple(classes)


class Population:
    """N users as contiguous numpy arrays — the evaluation-plane input.

    ``class_index[u]`` / ``attachment_index[u]`` locate user *u* in the
    class and attachment tables; ``jitter_unit[u]`` is their fixed
    ``[0, 1)`` degradation draw.  Arrays, not user objects: a million
    users cost ~20 MB and every plane operation stays vectorized.
    """

    def __init__(
        self,
        classes: Sequence[UserClass],
        attachments: Sequence[str],
        class_index: np.ndarray,
        attachment_index: np.ndarray,
        jitter_unit: Optional[np.ndarray] = None,
    ):
        self.classes = tuple(classes)
        self.attachments = tuple(attachments)
        if not self.classes:
            raise AnalysisError("population needs at least one user class")
        if not self.attachments:
            raise AnalysisError("population needs at least one attachment")
        if len(set(self.attachments)) != len(self.attachments):
            raise AnalysisError("population attachments repeat a component")
        self.class_index = np.ascontiguousarray(class_index, dtype=np.int32)
        self.attachment_index = np.ascontiguousarray(
            attachment_index, dtype=np.int32
        )
        n = len(self.class_index)
        if len(self.attachment_index) != n:
            raise AnalysisError(
                f"class_index ({n} users) and attachment_index "
                f"({len(self.attachment_index)} users) disagree"
            )
        if n and (
            self.class_index.min() < 0
            or self.class_index.max() >= len(self.classes)
        ):
            raise AnalysisError("class_index out of range")
        if n and (
            self.attachment_index.min() < 0
            or self.attachment_index.max() >= len(self.attachments)
        ):
            raise AnalysisError("attachment_index out of range")
        if jitter_unit is None:
            jitter_unit = np.zeros(n, dtype=np.float64)
        self.jitter_unit = np.ascontiguousarray(jitter_unit, dtype=np.float64)
        if len(self.jitter_unit) != n:
            raise AnalysisError("jitter_unit length disagrees with users")
        if n and not (
            self.jitter_unit.min() >= 0.0 and self.jitter_unit.max() < 1.0
        ):
            raise AnalysisError("jitter_unit out of range [0, 1)")

    # -- construction -------------------------------------------------------

    @classmethod
    def generate(
        cls,
        n_users: int,
        classes: Sequence[UserClass],
        attachments: Sequence[str],
        *,
        seed: int = 0,
    ) -> "Population":
        """A deterministic population of *n_users* over *attachments*.

        Class membership is drawn by normalized class weight; each class
        then distributes its users uniformly over its *roaming set* — a
        class-rotated slice of the attachment list sized by the class's
        ``mobility`` fraction, so low-mobility classes concentrate.
        """
        if n_users < 1:
            raise AnalysisError(f"population size must be >= 1, got {n_users}")
        classes = tuple(classes)
        attachments = tuple(attachments)
        if not classes:
            raise AnalysisError("population needs at least one user class")
        if not attachments:
            raise AnalysisError("population needs at least one attachment")
        rng = np.random.default_rng(seed)
        weights = np.array([c.weight for c in classes], dtype=np.float64)
        class_index = rng.choice(
            len(classes), size=n_users, p=weights / weights.sum()
        ).astype(np.int32)
        attachment_index = np.empty(n_users, dtype=np.int32)
        n_attach = len(attachments)
        for ci, user_class in enumerate(classes):
            mask = class_index == ci
            count = int(mask.sum())
            if not count:
                continue
            roam = max(1, math.ceil(user_class.mobility * n_attach))
            # rotate the roaming window per class so low-mobility classes
            # do not all pile onto the same few attachment points
            start = (ci * roam) % n_attach
            window = np.arange(start, start + roam) % n_attach
            attachment_index[mask] = window[
                rng.integers(0, roam, size=count)
            ].astype(np.int32)
        jitter_unit = rng.random(n_users)
        return cls(classes, attachments, class_index, attachment_index, jitter_unit)

    # -- views --------------------------------------------------------------

    @property
    def n_users(self) -> int:
        return len(self.class_index)

    def class_counts(self) -> Dict[str, int]:
        counts = np.bincount(self.class_index, minlength=len(self.classes))
        return {c.name: int(n) for c, n in zip(self.classes, counts)}

    def attachment_counts(self) -> Dict[str, int]:
        counts = np.bincount(
            self.attachment_index, minlength=len(self.attachments)
        )
        return {a: int(n) for a, n in zip(self.attachments, counts) if n}

    def group_index(self) -> np.ndarray:
        """Per-user row of the flattened :meth:`device_table`:
        ``class_index · n_attachments + attachment_index`` (``intp``, so
        ``take`` gathers with it without converting the index)."""
        index = np.multiply(
            self.class_index, len(self.attachments), dtype=np.intp
        )
        index += self.attachment_index
        return index

    def device_table(self, table: Mapping[str, float]) -> np.ndarray:
        """The ``(n_classes, n_attachments)`` device availability before
        jitter: the class override, or absent one the Formula-1 value of
        the attachment component from *table*.

        User *u* perceives ``device_table[c, k] · (1 − jitter[c] · r_u)``
        for their class *c* and attachment *k* — the one definition both
        :meth:`device_availability` and the evaluation plane read.
        """
        try:
            attach_avail = np.array(
                [table[name] for name in self.attachments], dtype=np.float64
            )
        except KeyError as exc:
            raise AnalysisError(
                f"attachment component {exc.args[0]!r} has no availability "
                f"annotation in the model"
            ) from None
        device = np.tile(attach_avail, (len(self.classes), 1))
        for ci, user_class in enumerate(self.classes):
            if user_class.device_availability is not None:
                device[ci] = user_class.device_availability
        return device

    def jitters(self) -> np.ndarray:
        """Per-class relative jitter, class order."""
        return np.array([c.jitter for c in self.classes], dtype=np.float64)

    def device_availability(
        self, table: Mapping[str, float]
    ) -> np.ndarray:
        """Per-user perceived availability of their own access device.

        The user's :meth:`device_table` entry degraded by their jitter
        draw, clipped to ``[0, 1]``.  The scalar oracle reads this array;
        the vectorized plane folds the same table and jitters into one
        affine rule per (class, attachment) group instead.
        """
        values = self.device_table(table).ravel().take(self.group_index())
        values *= 1.0 - self.jitters().take(self.class_index) * self.jitter_unit
        return np.clip(values, 0.0, 1.0, out=values)


def mapping_for_user(
    mapping: ServiceMapping, user_component: str
) -> Callable[[str], ServiceMapping]:
    """A mapping factory replacing *user_component* with each attachment.

    The pipeline's Step-9 bridge: the configured mapping is a template
    describing one perspective (say Table I's ``t1``); the returned
    factory produces the mapping of any other user position by
    substituting the user component — exactly the paper's "user mobility
    to an already-modeled position" update (Section V-A3).
    """
    mentioned = {
        name
        for pair in mapping.pairs
        for name in (pair.requester, pair.provider)
    }
    if user_component not in mentioned:
        raise MappingError(
            f"user component {user_component!r} does not appear in the mapping"
        )

    def factory(attachment: str) -> ServiceMapping:
        if attachment == user_component:
            return mapping
        return ServiceMapping(
            ServiceMappingPair(
                pair.atomic_service,
                attachment if pair.requester == user_component else pair.requester,
                attachment if pair.provider == user_component else pair.provider,
            )
            for pair in mapping.pairs
        )

    return factory
