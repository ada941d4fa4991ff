"""UML object diagrams: instance specifications, links and object models.

Object diagrams describe the *deployed* network (Section V-A1): "network
nodes are instanceSpecifications of those classes, and communication is
represented by the corresponding links, which are instances of
associations."  Both the complete infrastructure (Figure 9) and the UPSIM
output (Figures 11, 12) are object diagrams.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.errors import ModelError
from repro.uml.classes import Association, Class, ClassModel
from repro.uml.metamodel import NamedElement, coerce_value

__all__ = [
    "Slot",
    "InstanceSpecification",
    "Link",
    "ObjectModel",
]


class Slot:
    """A slot: a per-instance value for a declared attribute.

    The methodology requires static class attributes, so in well-formed
    models slots are not used to override dependability values; the
    constraint engine (:mod:`repro.uml.constraints`) flags slots that shadow
    static attributes.  They remain available for purely informational
    per-instance data (e.g. an asset tag).
    """

    def __init__(self, defining_property_name: str, type_name: str, value: Any):
        self.defining_property_name = defining_property_name
        self.type_name = type_name
        self.value = coerce_value(type_name, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Slot {self.defining_property_name}={self.value!r}>"


class InstanceSpecification(NamedElement):
    """An instance of a class — one concrete network node (e.g. ``t1:Comp``).

    The *signature* of an instance is its name plus its classifier; the
    UPSIM preserves signatures so that "a subsequent service dependability
    analysis will find specific required properties for every element"
    (Section V-E).
    """

    _id_prefix = "inst"

    def __init__(
        self,
        name: str,
        classifier: Class,
        *,
        slots: Iterable[Slot] = (),
        xmi_id: Optional[str] = None,
        comment: str = "",
    ):
        super().__init__(name, xmi_id=xmi_id, comment=comment)
        if classifier.is_abstract:
            raise ModelError(
                f"cannot instantiate abstract class {classifier.name!r} "
                f"for instance {name!r}"
            )
        self.classifier = classifier
        self.slots: List[Slot] = list(slots)

    @property
    def signature(self) -> str:
        """The UML-style ``name:Class`` label, e.g. ``"t1:Comp"``."""
        return f"{self.name}:{self.classifier.name}"

    def property_value(self, name: str) -> Any:
        """Value of attribute *name* for this instance.

        Slots take precedence (informational data only), then the static
        class/stereotype attribute values.
        """
        for slot in self.slots:
            if slot.defining_property_name == name:
                return slot.value
        return self.classifier.attribute_value(name)

    def property_dict(self) -> Dict[str, Any]:
        """All property values of this instance (class signature + slots)."""
        values = self.classifier.property_dict()
        for slot in self.slots:
            values[slot.defining_property_name] = slot.value
        return values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<InstanceSpecification {self.signature}>"


class Link(NamedElement):
    """An instance of an association connecting two instance specifications.

    Links model deployed communication (a cable, a wireless channel).  The
    link ends must conform to the association's end types.
    """

    _id_prefix = "link"

    def __init__(
        self,
        name: str,
        association: Association,
        end1: InstanceSpecification,
        end2: InstanceSpecification,
        *,
        xmi_id: Optional[str] = None,
        comment: str = "",
    ):
        super().__init__(name, xmi_id=xmi_id, comment=comment)
        if not association.connects(end1.classifier, end2.classifier):
            raise ModelError(
                f"link {name!r}: association {association.name!r} does not "
                f"permit connecting {end1.signature} and {end2.signature}"
            )
        self.association = association
        self.end1 = end1
        self.end2 = end2

    @property
    def ends(self) -> Tuple[InstanceSpecification, InstanceSpecification]:
        return (self.end1, self.end2)

    def other_end(self, instance: InstanceSpecification) -> InstanceSpecification:
        if instance.xmi_id == self.end1.xmi_id:
            return self.end2
        if instance.xmi_id == self.end2.xmi_id:
            return self.end1
        raise ModelError(
            f"instance {instance.signature} is not an end of link {self.name!r}"
        )

    def connects_instances(
        self, a: InstanceSpecification, b: InstanceSpecification
    ) -> bool:
        ids = {self.end1.xmi_id, self.end2.xmi_id}
        return {a.xmi_id, b.xmi_id} == ids

    def property_dict(self) -> Dict[str, Any]:
        """Property values inherited from the instantiated association."""
        return self.association.property_dict()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.end1.name}--{self.end2.name} ({self.association.name})>"


class ObjectModel(NamedElement):
    """An object diagram: instances + links over a class model.

    Used both for the complete infrastructure (methodology Step 2) and for
    the generated UPSIM (Step 8).  Provides the graph-style accessors that
    path discovery and UPSIM generation build on.
    """

    _id_prefix = "objmodel"

    def __init__(
        self,
        name: str = "infrastructure",
        class_model: Optional[ClassModel] = None,
        *,
        xmi_id: Optional[str] = None,
        comment: str = "",
    ):
        super().__init__(name, xmi_id=xmi_id, comment=comment)
        self.class_model = class_model if class_model is not None else ClassModel()
        self._instances: Dict[str, InstanceSpecification] = {}
        self._links: Dict[str, Link] = {}
        self._adjacency: Dict[str, List[str]] = {}
        #: bumped by every mutator: views key derived state (the topology
        #: fingerprint) on it instead of rehashing the model per call
        self.revision = 0

    # -- population ------------------------------------------------------------

    def add_instance(
        self, name: str, classifier: Class | str, *, slots: Iterable[Slot] = ()
    ) -> InstanceSpecification:
        """Create and register an instance of *classifier* named *name*."""
        if name in self._instances:
            raise ModelError(f"object model already contains instance {name!r}")
        if isinstance(classifier, str):
            classifier = self.class_model.get_class(classifier)
        instance = InstanceSpecification(name, classifier, slots=slots)
        instance.owner = self
        self._instances[name] = instance
        self._adjacency[name] = []
        self.revision += 1
        return instance

    def add_existing_instance(self, instance: InstanceSpecification) -> InstanceSpecification:
        """Register an already-built instance (used by the UPSIM generator to
        preserve signatures from the source infrastructure)."""
        if instance.name in self._instances:
            raise ModelError(
                f"object model already contains instance {instance.name!r}"
            )
        self._instances[instance.name] = instance
        self._adjacency[instance.name] = []
        self.revision += 1
        return instance

    def add_link(
        self,
        a: InstanceSpecification | str,
        b: InstanceSpecification | str,
        association: Association | str | None = None,
        *,
        name: Optional[str] = None,
    ) -> Link:
        """Link instances *a* and *b*.

        If *association* is omitted, a unique association connecting the two
        classifiers is looked up in the class model (ambiguity is an error).
        Parallel links between the same pair are rejected: the infrastructure
        graph is simple, as in the paper's topology.
        """
        inst_a = self.get_instance(a) if isinstance(a, str) else a
        inst_b = self.get_instance(b) if isinstance(b, str) else b
        if inst_a.name == inst_b.name:
            raise ModelError(f"self-link on instance {inst_a.name!r} not allowed")
        if inst_a.name not in self._instances or inst_b.name not in self._instances:
            missing = inst_a.name if inst_a.name not in self._instances else inst_b.name
            raise ModelError(f"instance {missing!r} not in object model")
        if self.find_link(inst_a, inst_b) is not None:
            raise ModelError(
                f"instances {inst_a.name!r} and {inst_b.name!r} already linked"
            )
        if association is None:
            candidates = self.class_model.associations_between(
                inst_a.classifier, inst_b.classifier
            )
            if not candidates:
                raise ModelError(
                    f"no association connects {inst_a.signature} and "
                    f"{inst_b.signature}"
                )
            if len(candidates) > 1:
                names = [c.name for c in candidates]
                raise ModelError(
                    f"ambiguous associations {names} between {inst_a.signature} "
                    f"and {inst_b.signature}; pass one explicitly"
                )
            association = candidates[0]
        elif isinstance(association, str):
            association = self.class_model.get_association(association)
        link_name = name if name is not None else f"{inst_a.name}--{inst_b.name}"
        if link_name in self._links:
            raise ModelError(f"object model already contains link {link_name!r}")
        link = Link(link_name, association, inst_a, inst_b)
        link.owner = self
        self._links[link_name] = link
        self._adjacency[inst_a.name].append(link_name)
        self._adjacency[inst_b.name].append(link_name)
        self.revision += 1
        return link

    # -- controlled removal ----------------------------------------------------

    def remove_link(
        self, a: InstanceSpecification | str, b: InstanceSpecification | str
    ) -> Link:
        """Remove the link between *a* and *b* and return it.

        Object models are mostly append-only; removal exists for the
        dynamicity scenarios (maintenance, link churn — Section V-A3).
        The adjacency index stays consistent, and the returned
        :class:`Link` carries everything needed to restore the connection
        (``add_link(link.end1, link.end2, link.association,
        name=link.name)``).
        """
        name_a = a if isinstance(a, str) else a.name
        name_b = b if isinstance(b, str) else b.name
        for name in (name_a, name_b):
            if name not in self._instances:
                raise ModelError(f"object model has no instance {name!r}")
        link = self.find_link(name_a, name_b)
        if link is None:
            raise ModelError(f"no link between {name_a!r} and {name_b!r} to remove")
        del self._links[link.name]
        self._adjacency[link.end1.name].remove(link.name)
        self._adjacency[link.end2.name].remove(link.name)
        self.revision += 1
        return link

    def remove_instance(
        self, instance: InstanceSpecification | str, *, cascade: bool = False
    ) -> Tuple[InstanceSpecification, List[Link]]:
        """Remove an instance; with ``cascade=True`` its links go too.

        Returns ``(instance, removed links)`` so callers can undo the
        operation exactly (churn rollback).  Without *cascade* a still-
        linked instance is an error — silent removal would leave dangling
        link ends.
        """
        name = instance if isinstance(instance, str) else instance.name
        inst = self.get_instance(name)
        incident = self.links_of(name)
        if incident and not cascade:
            raise ModelError(
                f"instance {name!r} still has {len(incident)} link(s); "
                f"remove them first or pass cascade=True"
            )
        removed = [self.remove_link(link.end1, link.end2) for link in incident]
        del self._instances[name]
        del self._adjacency[name]
        self.revision += 1
        return inst, removed

    # -- access ----------------------------------------------------------------

    def get_instance(self, name: str) -> InstanceSpecification:
        try:
            return self._instances[name]
        except KeyError:
            raise ModelError(f"object model has no instance {name!r}") from None

    def has_instance(self, name: str) -> bool:
        return name in self._instances

    def get_link(self, name: str) -> Link:
        try:
            return self._links[name]
        except KeyError:
            raise ModelError(f"object model has no link {name!r}") from None

    def find_link(
        self, a: InstanceSpecification | str, b: InstanceSpecification | str
    ) -> Optional[Link]:
        """The link between *a* and *b*, or ``None``."""
        name_a = a if isinstance(a, str) else a.name
        name_b = b if isinstance(b, str) else b.name
        if name_a not in self._adjacency:
            return None
        for link_name in self._adjacency[name_a]:
            link = self._links[link_name]
            if link.end1.name == name_b or link.end2.name == name_b:
                return link
        return None

    @property
    def instances(self) -> List[InstanceSpecification]:
        return list(self._instances.values())

    @property
    def links(self) -> List[Link]:
        return list(self._links.values())

    def instance_names(self) -> List[str]:
        return list(self._instances)

    def links_of(self, instance: InstanceSpecification | str) -> List[Link]:
        name = instance if isinstance(instance, str) else instance.name
        if name not in self._adjacency:
            raise ModelError(f"object model has no instance {name!r}")
        return [self._links[link_name] for link_name in self._adjacency[name]]

    def neighbors(self, instance: InstanceSpecification | str) -> List[InstanceSpecification]:
        name = instance if isinstance(instance, str) else instance.name
        inst = self.get_instance(name)
        return [link.other_end(inst) for link in self.links_of(name)]

    def degree(self, instance: InstanceSpecification | str) -> int:
        name = instance if isinstance(instance, str) else instance.name
        if name not in self._adjacency:
            raise ModelError(f"object model has no instance {name!r}")
        return len(self._adjacency[name])

    def __len__(self) -> int:
        return len(self._instances)

    def __contains__(self, name: str) -> bool:
        return name in self._instances

    def __iter__(self) -> Iterator[InstanceSpecification]:
        return iter(self._instances.values())

    # -- whole-model operations ----------------------------------------------

    def instances_of(self, classifier: Class | str) -> List[InstanceSpecification]:
        """All instances whose classifier is (a subclass of) *classifier*."""
        if isinstance(classifier, str):
            classifier = self.class_model.get_class(classifier)
        return [
            inst
            for inst in self._instances.values()
            if inst.classifier.conforms_to(classifier)
        ]

    def subgraph(self, instance_names: Iterable[str], name: str = "subgraph") -> "ObjectModel":
        """The induced sub-model on *instance_names*.

        Instances are shared (not copied) so the subgraph preserves the
        original signatures and class properties — exactly the "filter on
        the complete topology" of methodology Step 8.  Links are included iff
        both ends are retained; "multiple occurrences are ignored" because
        the name set is deduplicated.
        """
        keep: Set[str] = set(instance_names)
        unknown = keep - set(self._instances)
        if unknown:
            raise ModelError(f"unknown instances in subgraph request: {sorted(unknown)}")
        sub = ObjectModel(name, self.class_model)
        for inst_name in self._instances:  # preserve original insertion order
            if inst_name in keep:
                sub.add_existing_instance(self._instances[inst_name])
        for link in self._links.values():
            if link.end1.name in keep and link.end2.name in keep:
                sub.add_link(link.end1, link.end2, link.association, name=link.name)
        return sub

    def connected_components(self) -> List[Set[str]]:
        """Connected components of the link graph, as sets of instance names."""
        seen: Set[str] = set()
        components: List[Set[str]] = []
        for start in self._instances:
            if start in seen:
                continue
            component: Set[str] = set()
            stack = [start]
            while stack:
                node = stack.pop()
                if node in component:
                    continue
                component.add(node)
                for link_name in self._adjacency[node]:
                    link = self._links[link_name]
                    other = link.end2.name if link.end1.name == node else link.end1.name
                    if other not in component:
                        stack.append(other)
            seen |= component
            components.append(component)
        return components

    def is_connected(self) -> bool:
        if not self._instances:
            return True
        return len(self.connected_components()) == 1
