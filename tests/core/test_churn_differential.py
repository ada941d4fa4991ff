"""Churn differential: the conditioned nominal route against the
full-recompile oracle at every epoch (run with ``-m churn``).

Every state a churn stream produces is a rebase model minus a down set,
so the delta evaluator conditions one nominal kernel instead of
rediscovering and recompiling.  These properties pin that route to the
``ChurnPolicy(delta=False)`` oracle on ring, ladder, campus, complete and
connected Erdős–Rényi topologies: seeded stream prefixes with and without
mobility, hand-built restores of links the base never had, restores
after a rebase and a sifted nominal kernel — availabilities to 1e-12,
path lists, ``disconnected`` and fingerprints equal.  A metamorphic
relation closes the battery: taking one more element down never raises
a pair's availability.
"""

import contextlib
from itertools import combinations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.churn import (
    ChurnPolicy,
    ChurnStream,
    ComponentCrash,
    LinkCut,
    LinkRestore,
    LiveEvaluator,
    MigrateProvider,
)
from repro.network.generators import campus, complete, erdos_renyi, ladder, ring
from repro.obs import metrics as _metrics
from repro.obs.trace import Tracer, activate
from tests.conftest import always_sift

pytestmark = pytest.mark.churn

TOLERANCE = 1e-12

FAMILIES = {
    "ring": lambda: ring(6),
    "ladder": lambda: ladder(4),
    "campus": lambda: campus(
        dist_switches=2, edges_per_dist=2, clients_per_edge=2, dual_homed=True
    ),
    "complete": lambda: complete(5),
    "er": lambda: erdos_renyi(10, 0.3, seed=3),
}

#: a repeated unordered pair exercises the distinct-pair rule
PAIRS = {
    "campus": [("client", "server"), ("client2", "server")],
}
DEFAULT_PAIRS = [("client", "server"), ("server", "client")]

SETTINGS = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _model(family):
    return FAMILIES[family]().object_model


def _pairs(family):
    return list(PAIRS.get(family, DEFAULT_PAIRS))


def _assert_same_epoch(live, oracle):
    a, b = live.snapshot(), oracle.snapshot()
    assert not a.stale and not b.stale
    a, b = a.snapshot, b.snapshot
    assert a.fingerprint == b.fingerprint
    assert a.disconnected == b.disconnected
    assert abs(a.availability - b.availability) <= TOLERANCE
    assert list(a.pair_availability) == list(b.pair_availability)
    for pair, value in b.pair_availability.items():
        assert abs(a.pair_availability[pair] - value) <= TOLERANCE, pair
    assert list(a.path_sets) == list(b.path_sets)
    for pair, path_set in b.path_sets.items():
        assert a.path_sets[pair].paths == path_set.paths, pair


def _run_in_lockstep(family, events, *, sift=False):
    """Drive the delta evaluator (every compile sifted under *sift*) and
    the unsifted oracle through *events*, comparing every epoch."""

    def sifting():
        return always_sift() if sift else contextlib.nullcontext()

    with sifting():
        live = LiveEvaluator(_model(family), _pairs(family))
    oracle = LiveEvaluator(
        _model(family), _pairs(family), policy=ChurnPolicy(delta=False)
    )
    _assert_same_epoch(live, oracle)
    for event in events:
        with sifting():
            live.run(iter([event]))
        oracle.run(iter([event]))
        assert [q.event for q in live.quarantine] == [
            q.event for q in oracle.quarantine
        ]
        _assert_same_epoch(live, oracle)
    return live


@st.composite
def _streams(draw):
    """``(family, events)``: a seeded stream prefix, optionally with
    mobility, with hand-built restores of never-seen links spliced in."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    model = _model(family)
    events = list(
        ChurnStream(
            model,
            _pairs(family),
            seed=draw(st.integers(0, 2**16)),
            mobility=draw(st.booleans()),
        ).events(draw(st.integers(1, 30)))
    )
    names = sorted(inst.name for inst in model.instances)
    unseen = [
        edge for edge in combinations(names, 2) if model.find_link(*edge) is None
    ]
    for _ in range(draw(st.integers(0, 3))):
        edge = draw(st.sampled_from(unseen))
        events.insert(draw(st.integers(0, len(events))), LinkRestore(*edge))
    return family, events


@SETTINGS
@given(stream=_streams(), sift=st.booleans())
def test_every_epoch_matches_the_oracle(stream, sift):
    family, events = stream
    _run_in_lockstep(family, events, sift=sift)


def test_restore_after_rebase_rebases_again():
    """A link down when the nominal was rebuilt is an element the new
    nominal lacks: restoring it rebases once more, and both epochs match
    the oracle."""
    events = [
        LinkCut("dist0", "core1"),
        MigrateProvider("server", "core2"),  # pairs change: rebase
        LinkCut("dist1", "core2"),  # conditioned
        LinkRestore("dist0", "core1"),  # unknown to the nominal: rebase
        LinkRestore("edge0_0", "edge1_1"),  # never in the base: rebase
    ]
    live = _run_in_lockstep("campus", events)
    assert live.stats["rebases"] == 3
    assert live.stats["recomputes"] == len(events)


def test_rebase_is_observable():
    """Rebuilt epochs are told apart from conditioned ones on the
    recompute span, in ``stats`` and in the rebase counter."""
    rebases = _metrics.counter("repro_dynamics_rebases_total")
    start = rebases.value
    tracer = Tracer()
    with activate(tracer):
        live = LiveEvaluator(_model("campus"), _pairs("campus"))
        live.run(
            iter([LinkCut("dist0", "core1"), MigrateProvider("server", "core2")])
        )
    (run,) = [span for span in tracer.roots if span.name == "dynamics.run"]
    recomputes = [
        span for span in run.children if span.name == "dynamics.recompute"
    ]
    assert [span.attrs["rebase"] for span in recomputes] == [False, True]
    assert live.stats["rebases"] == 1
    assert rebases.value == start + 1


@SETTINGS
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    seed=st.integers(0, 2**16),
    n_events=st.integers(0, 30),
    data=st.data(),
)
def test_one_more_down_element_never_raises_availability(
    family, seed, n_events, data
):
    pairs = _pairs(family)
    live = LiveEvaluator(_model(family), pairs)
    live.run(ChurnStream(_model(family), pairs, seed=seed).events(n_events))
    endpoints = {name for pair in pairs for name in pair}
    candidates = [
        ComponentCrash(inst.name)
        for inst in live.model.instances
        if inst.name not in endpoints
    ] + [LinkCut(link.end1.name, link.end2.name) for link in live.model.links]
    before = live.snapshot().snapshot
    live.run(iter([data.draw(st.sampled_from(candidates))]))
    after = live.snapshot().snapshot
    assert not live.quarantine
    assert after.availability <= before.availability + TOLERANCE
    for pair, value in after.pair_availability.items():
        assert value <= before.pair_availability[pair] + TOLERANCE, pair
