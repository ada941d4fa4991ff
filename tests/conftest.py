"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib

import pytest

from repro.casestudy import (
    printing_mapping,
    printing_service,
    table1_mapping,
    usi_network,
)
from repro.core import generate_upsim
from repro.dependability import bdd
from repro.network import DeviceSpec, StandardProfiles, Topology, TopologyBuilder


@contextlib.contextmanager
def always_sift():
    """Every compile inside the block takes the sifting pass: the bloat
    rule's thresholds drop to 0.  The kernel cache is cleared on entry
    and exit, so no kernel crosses the boundary.  A context manager
    rather than a fixture, so hypothesis tests can use it per example."""
    saved = bdd._AUTO_MIN_NODES, bdd._AUTO_GROWTH
    bdd.kernel_cache_clear()
    bdd._AUTO_MIN_NODES = bdd._AUTO_GROWTH = 0
    try:
        yield
    finally:
        bdd._AUTO_MIN_NODES, bdd._AUTO_GROWTH = saved
        bdd.kernel_cache_clear()


@pytest.fixture(scope="session")
def usi():
    """The USI infrastructure object model (session-cached, read-only)."""
    return usi_network()


@pytest.fixture(scope="session")
def usi_topo(usi):
    return Topology(usi)


@pytest.fixture(scope="session")
def profiles():
    return StandardProfiles()


@pytest.fixture(scope="session")
def printing():
    return printing_service()


@pytest.fixture(scope="session")
def table1():
    return table1_mapping()


@pytest.fixture(scope="session")
def upsim_t1_p2(usi_topo, printing, table1):
    return generate_upsim(usi_topo, printing, table1)


@pytest.fixture(scope="session")
def upsim_t15_p3(usi_topo, printing):
    return generate_upsim(usi_topo, printing, printing_mapping("t15", "p3"))


@pytest.fixture()
def small_builder():
    """A fresh 5-node redundant diamond network builder.

    pc -- e -- a -- s
               |  /
          e -- b-/   (e dual-homed to a and b; a,b both reach s)
    """
    builder = TopologyBuilder("diamond")
    builder.device_type(DeviceSpec("Sw", "Switch", mtbf=100000.0, mttr=1.0))
    builder.device_type(DeviceSpec("Pc", "Client", mtbf=5000.0, mttr=10.0))
    builder.device_type(DeviceSpec("Srv", "Server", mtbf=50000.0, mttr=0.5))
    builder.add("pc", "Pc")
    builder.add("e", "Sw")
    builder.add("a", "Sw")
    builder.add("b", "Sw")
    builder.add("s", "Srv")
    builder.connect("pc", "e")
    builder.connect("e", "a")
    builder.connect("e", "b")
    builder.connect("a", "s")
    builder.connect("b", "s")
    return builder


@pytest.fixture()
def diamond(small_builder):
    return small_builder.build()


@pytest.fixture()
def diamond_topo(diamond):
    return Topology(diamond)
