"""The topology fingerprint is cached per object-model revision.

Every :class:`~repro.uml.objects.ObjectModel` mutator bumps
``model.revision``; :meth:`Topology.fingerprint` rehashes only when the
revision moved.  These tests pin that no mutator leaves a stale digest
behind — in the view that cached it, in a second view over the same
model, in a fault overlay on top, and in the compiled CSR view.
"""

import pytest

from repro.core.engine import compile_topology
from repro.errors import ModelError
from repro.network.topology import Topology
from repro.uml.objects import InstanceSpecification

pytestmark = pytest.mark.population


def _add_instance(model):
    model.add_instance("x", "Sw")


def _add_existing_instance(model):
    model.add_existing_instance(
        InstanceSpecification("y", model.class_model.get_class("Sw"))
    )


def _add_link(model):
    model.add_link("a", "b", "Cable")


def _remove_link(model):
    model.remove_link("a", "s")


def _remove_instance(model):
    model.remove_instance("pc", cascade=True)


MUTATORS = [
    _add_instance,
    _add_existing_instance,
    _add_link,
    _remove_link,
    _remove_instance,
]
MUTATOR_IDS = [m.__name__.lstrip("_") for m in MUTATORS]


@pytest.mark.parametrize("mutate", MUTATORS, ids=MUTATOR_IDS)
class TestEveryMutatorInvalidates:
    def test_cached_fingerprint_changes(self, diamond, mutate):
        topology = Topology(diamond)
        before = topology.fingerprint()
        revision = diamond.revision
        mutate(diamond)
        assert diamond.revision > revision
        after = topology.fingerprint()
        assert after != before
        # the refreshed digest is what a fresh view computes from scratch
        assert after == Topology(diamond).fingerprint()

    def test_second_view_sees_the_change(self, diamond, mutate):
        first, second = Topology(diamond), Topology(diamond)
        before = first.fingerprint()
        assert second.fingerprint() == before
        mutate(diamond)
        assert first.fingerprint() != before
        assert second.fingerprint() == first.fingerprint()

    def test_overlay_follows_its_base(self, diamond, mutate):
        topology = Topology(diamond)
        overlay = topology.with_faults("crash:e")
        before = overlay.fingerprint()
        mutate(diamond)
        assert overlay.fingerprint() != before

    def test_compile_topology_recompiles(self, diamond, mutate):
        topology = Topology(diamond)
        compiled = compile_topology(topology)
        mutate(diamond)
        fresh = compile_topology(topology)
        assert fresh is not compiled
        assert fresh.fingerprint == topology.fingerprint()
        assert fresh.names == tuple(topology.nodes())


class TestUnchangedModel:
    def test_digest_is_served_from_cache(self, diamond):
        topology = Topology(diamond)
        # the cache hands back the stored string itself, not a rehash
        assert topology.fingerprint() is topology.fingerprint()

    def test_compile_topology_reuses_csr_view(self, diamond):
        topology = Topology(diamond)
        compiled = compile_topology(topology)
        assert compile_topology(topology) is compiled

    def test_failed_mutation_keeps_the_digest(self, diamond):
        topology = Topology(diamond)
        before = topology.fingerprint()
        with pytest.raises(ModelError):
            diamond.add_link("pc", "e", "Cable")  # already linked
        assert topology.fingerprint() is before
