"""Shared fixtures and hypothesis configuration."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.clusters.profiles import (
    fast_ethernet,
    gigabit_ethernet,
    myrinet,
)
from repro.simnet.engine import Engine
from repro.simnet.topology import Topology, single_switch

# Keep property tests fast and deterministic in CI.
settings.register_profile(
    "repro",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: long-running simulation test (deselect with -m 'not slow')"
    )


@pytest.fixture(autouse=True)
def _ledger_off():
    """Keep CLI invocations from appending to the working-dir run ledger.

    Tests exercising the ledger re-point ``REPRO_LEDGER`` at a tmp path
    themselves; everything else must not litter ``.repro/`` or slow down
    on fingerprinting. Managed via ``os.environ`` directly rather than
    ``monkeypatch`` so this autouse fixture does not pull the shared
    ``monkeypatch`` instance ahead of per-class xunit teardown fixtures
    (which would reorder env restoration around ``teardown_method``).
    """
    before = os.environ.get("REPRO_LEDGER")
    os.environ["REPRO_LEDGER"] = "off"
    try:
        yield
    finally:
        if before is None:
            os.environ.pop("REPRO_LEDGER", None)
        else:
            os.environ["REPRO_LEDGER"] = before


@pytest.fixture
def engine() -> Engine:
    """A fresh event engine."""
    return Engine()


@pytest.fixture
def small_topology():
    """Four hosts on one ideal switch, 100 MB/s NICs."""
    return single_switch(4, nic_bandwidth=100e6)


@pytest.fixture(scope="session")
def gige_cluster():
    """The Gigabit Ethernet profile (session-scoped: profiles are frozen)."""
    return gigabit_ethernet()


@pytest.fixture(scope="session")
def fe_cluster():
    """The Fast Ethernet profile."""
    return fast_ethernet()


@pytest.fixture(scope="session")
def myrinet_cluster():
    """The Myrinet profile."""
    return myrinet()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic NumPy generator for test inputs."""
    return np.random.default_rng(12345)


def _draw_fabric(data, *, connected: bool = False) -> Topology:
    """A finalized random fabric drawn from hypothesis *data*.

    1–9 switches, each with a finite backplane or none, cabled by random
    trunks (cycles included) and carrying 1–2 hosts; the hosts are
    cabled in a random switch order.  With *connected*, the first
    cables form a random spanning tree, so every host pair routes.
    """
    n = data.draw(st.integers(min_value=1, max_value=9), label="switches")
    cables = []
    if connected:
        cables = [
            (data.draw(st.integers(0, sw - 1), label="tree"), sw)
            for sw in range(1, n)
        ]
    if n > 1:
        switch = st.integers(min_value=0, max_value=n - 1)
        extra = data.draw(
            st.lists(
                st.tuples(switch, switch).filter(lambda c: c[0] != c[1]),
                max_size=2 * n,
            ),
            label="cables",
        )
        cabled = set(map(frozenset, cables))
        for cable in extra:
            if frozenset(cable) not in cabled:
                cabled.add(frozenset(cable))
                cables.append(cable)
    backplanes = data.draw(
        st.lists(st.booleans(), min_size=n, max_size=n), label="backplanes"
    )
    per_switch = data.draw(
        st.lists(st.integers(1, 2), min_size=n, max_size=n), label="hosts"
    )
    host_switches = data.draw(
        st.permutations(
            [sw for sw, count in enumerate(per_switch) for _ in range(count)]
        ),
        label="cabling",
    )
    topo = Topology()
    for finite in backplanes:
        topo.add_switch(backplane_capacity=1e9 if finite else None)
    for a, b in cables:
        topo.connect_switches(a, b, bandwidth=5e8)
    for sw in host_switches:
        topo.add_host(sw, nic_bandwidth=1e8)
    return topo.finalize()


@pytest.fixture(scope="session")
def draw_fabric():
    """Draws a random finalized fabric: ``draw_fabric(data, connected=...)``
    inside a ``@given(data=st.data())`` test."""
    return _draw_fabric
