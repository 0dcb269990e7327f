"""Shared fixtures for the test suite.

Every test runs under a leak guard (:func:`_leak_guard`): a test that
leaves behind a file descriptor, a thread, a ``/dev/shm`` segment or a
child process fails, naming what leaked.
"""

import gc
import multiprocessing
import os
import threading
import time
from multiprocessing import resource_tracker

import numpy as np
import pytest

from repro.core.types import Dataset
from repro.datagen.network import NetworkConfig, generate_network_flows
from repro.datagen.tickets import TicketConfig, generate_tickets
from repro.structures.hierarchy import BitHierarchy, ExplicitHierarchy
from repro.structures.product import ProductDomain, line_domain


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: a test that takes several seconds"
    )


#: How long a test's leftovers may take to go away after it returns.
LEAK_GRACE_S = 1.0


def _listing(path):
    """Entries of ``path``, or None where the platform has no such path."""
    try:
        return set(os.listdir(path))
    except FileNotFoundError:
        return None


def _open_fds():
    """Open descriptors mapped to their targets (None without /proc)."""
    fds = _listing("/proc/self/fd")
    if fds is None:
        return None
    targets = {}
    for fd in fds:
        try:
            targets[fd] = os.readlink(f"/proc/self/fd/{fd}")
        except OSError:
            pass  # the descriptor the listing itself used, closed by now
    return targets


def _resources():
    """What a test may leak, keyed by kind (None: not checkable here)."""
    return {
        "file descriptors": _open_fds(),
        "threads": {
            (thread.ident, thread.name) for thread in threading.enumerate()
        },
        "/dev/shm entries": _listing("/dev/shm"),
        "child processes": {
            child.pid for child in multiprocessing.active_children()
        },
    }


def _leaked(before):
    """Resources present now that were not in ``before``, by kind."""
    after = _resources()
    leaked = {}
    for kind, was in before.items():
        if was is None:
            continue
        new = sorted(set(after[kind]) - set(was), key=str)
        if new and isinstance(was, dict):
            new = [f"{key} -> {after[kind][key]}" for key in new]
        if new:
            leaked[kind] = new
    return leaked


@pytest.fixture(scope="session", autouse=True)
def _resource_tracker():
    """Start multiprocessing's resource tracker up front: its pipe lives
    as long as the process, so the first test to start it would
    otherwise be blamed for a leaked descriptor."""
    resource_tracker.ensure_running()


@pytest.fixture(autouse=True)
def _leak_guard():
    """Fail a test that leaks descriptors, threads, shm or children.

    Leftovers get up to :data:`LEAK_GRACE_S` -- with garbage collection
    -- to go away, since a closing thread or an unreferenced file may
    outlive the test body by a moment.
    """
    before = _resources()
    yield
    leaked = _leaked(before)
    deadline = time.monotonic() + LEAK_GRACE_S
    while leaked and time.monotonic() < deadline:
        gc.collect()
        time.sleep(0.01)
        leaked = _leaked(before)
    if leaked:
        pytest.fail(f"test leaked resources: {leaked}", pytrace=False)


@pytest.fixture
def rng():
    """A deterministic random generator for tests."""
    return np.random.default_rng(20260612)


@pytest.fixture
def small_weights(rng):
    """A small heavy-tailed weight vector."""
    return 1.0 + rng.pareto(1.3, size=200)


@pytest.fixture
def line_dataset(rng):
    """A 1-D dataset over an ordered domain of size 10_000."""
    n = 300
    keys = np.sort(rng.choice(10_000, size=n, replace=False))
    weights = 1.0 + rng.pareto(1.2, size=n)
    return Dataset.one_dimensional(keys, weights, size=10_000)


@pytest.fixture
def bit_hier():
    """A 12-bit binary hierarchy."""
    return BitHierarchy(12)


@pytest.fixture
def hier_dataset(rng, bit_hier):
    """A 1-D dataset whose keys live in a 12-bit hierarchy."""
    n = 250
    keys = np.sort(rng.choice(bit_hier.num_leaves, size=n, replace=False))
    weights = 1.0 + rng.pareto(1.2, size=n)
    return Dataset(
        coords=keys.reshape(-1, 1),
        weights=weights,
        domain=ProductDomain([bit_hier]),
    )


@pytest.fixture
def grid_dataset(rng):
    """A 2-D dataset over a 1024 x 1024 product of bit hierarchies."""
    n = 400
    domain = ProductDomain([BitHierarchy(10), BitHierarchy(10)])
    coords = rng.integers(0, 1024, size=(n, 2))
    weights = 1.0 + rng.pareto(1.2, size=n)
    dataset = Dataset(coords=coords, weights=weights, domain=domain)
    return dataset.aggregate_duplicates()


@pytest.fixture(scope="session")
def network_small():
    """A small synthetic network-flow dataset (shared across tests)."""
    config = NetworkConfig(
        n_pairs=3000, n_sources=1000, n_dests=900, bits=20,
        min_prefix=4, max_prefix=12,
    )
    return generate_network_flows(config, seed=99)


@pytest.fixture(scope="session")
def tickets_small():
    """A small synthetic ticket dataset (shared across tests)."""
    config = TicketConfig(n_combinations=3000)
    return generate_tickets(config, seed=77)
