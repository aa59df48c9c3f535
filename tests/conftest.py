"""Shared fixtures for the Nymix reproduction test suite."""

from __future__ import annotations

import gc

import pytest

from repro.cloud import make_dropbox, make_google_drive
from repro.core import NymManager, NymixConfig
from repro.net.internet import Internet
from repro.sim import SeededRng, Timeline
from repro.vmm import Hypervisor

from tests.gc_counts import frozen_objects


@pytest.fixture
def timeline() -> Timeline:
    return Timeline(seed=42)


@pytest.fixture
def rng() -> SeededRng:
    return SeededRng(42)


@pytest.fixture
def internet(timeline) -> Internet:
    return Internet(timeline)


@pytest.fixture
def hypervisor(timeline, internet) -> Hypervisor:
    return Hypervisor(timeline, internet)


@pytest.fixture
def manager() -> NymManager:
    """A fully wired Nymix instance with both cloud providers registered."""
    m = NymManager(NymixConfig(seed=7))
    m.add_cloud_provider(make_dropbox())
    m.add_cloud_provider(make_google_drive())
    return m


@pytest.fixture(autouse=True)
def no_frozen_heap():
    """Fail a test that leaves the heap frozen: a sharded run it never
    ended (a barrier's ``gc.freeze()`` lasts until the run's teardown).

    Every test starts unfrozen, so one leak fails only its own test.
    """
    gc.unfreeze()
    yield
    frozen = frozen_objects()
    assert frozen == 0, f"the test left {frozen} objects frozen"
