"""Shared fixtures for the test suite."""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import threading

import pytest

from repro.casestudy import (
    printing_mapping,
    printing_service,
    table1_mapping,
    usi_network,
)
from repro.core import generate_upsim
from repro.network import DeviceSpec, StandardProfiles, Topology, TopologyBuilder


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


# -- process fan-out (repro.fanout) -------------------------------------------


def _fanout_scratch():
    """Fan-out scratch directories under the temp dir, plus the names in
    /dev/shm (POSIX shared memory), as one comparable snapshot."""
    scratch = {
        name
        for name in os.listdir(tempfile.gettempdir())
        if name.startswith("repro-compile-")
    }
    try:
        shm = set(os.listdir("/dev/shm"))
    except FileNotFoundError:  # pragma: no cover - non-Linux
        shm = set()
    return scratch, shm


@pytest.fixture()
def no_fanout_leftovers():
    """Fail the test if it leaves a fan-out scratch directory or a new
    /dev/shm entry behind, whichever way its fan-out ended."""
    before = _fanout_scratch()
    yield
    assert _fanout_scratch() == before


@pytest.fixture()
def forked_workers():
    """Fan-outs in this test start with fork, so a monkeypatched worker
    body reaches the children.  Threads earlier tests abandoned get a
    few seconds to finish; the test skips where fork is unavailable or
    they are still alive."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method on this platform")
    for thread in threading.enumerate():
        if thread is not threading.current_thread():
            thread.join(timeout=5.0)
    if threading.active_count() != 1:
        pytest.skip("threads abandoned by earlier tests are still alive")


@pytest.fixture()
def helper_thread():
    """A live helper thread for the test's duration: fan-outs must spawn."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, daemon=True)
    thread.start()
    yield thread
    stop.set()
    thread.join(timeout=5.0)
    assert not thread.is_alive()
