"""Exact work counts on the flash-clone launch path, at fixed seeds.

A launch is cheap because of the work it skips.  A flash-cloned nymbox
adopts its zygote template's memory runs instead of replaying the
boot-time ``map_image``/``dirty`` sequence, and shares them until its
first private write.  Warm ntor caches spare the relays their x25519
ladders, and KSM answers an unchanged host from its memo.  None of that
moves a journal byte, so only counting the work shows that it is
skipped.  These tests count calls through ``monkeypatch`` wrappers on
objects built with default settings, after clearing the process-global
caches, and pin the exact numbers.  The cases under ``COLD_BOOT``
(``tests/seed_oracles.py``) show the counts of the cold path the pins
guard against.
"""

import collections

import pytest

import repro.anonymizers.tor.relay as relay_module
from repro.anonymizers.dissent.dcnet import DcNetDeployment
from repro.core import NymManager, NymixConfig
from repro.fleet import Fleet
from repro.fleet.shard import ShardConfig, ShardedFleet, run_sharded_fleet
from repro.memory.ksm import Ksm
from repro.memory.pages import GuestMemory
from repro.obs.metrics import MetricsRegistry
from repro.runtime import reset_process_caches
from repro.sim.clock import Timeline
from repro.tenancy.policy import FleetPolicies
from repro.workloads.fleet import fleet_workload

from tests.seed_oracles import COLD_BOOT, apply

#: ``(key, owner, attribute, when)``: calls to ``owner.attribute`` count
#: under ``key`` if ``when`` is None or true of the call's arguments.
COUNTED = [
    ("adopt", GuestMemory, "adopt_template", None),
    ("map_image", GuestMemory, "map_image", None),
    ("dirty", GuestMemory, "dirty", None),
    # _ensure_private copies the runs only while they are still shared.
    ("cow_copy", GuestMemory, "_ensure_private", lambda guest: guest._cow_shared),
    ("relay_x25519", relay_module, "x25519", None),
    ("ksm_recompute", Ksm, "_compute_stats", None),
]


@pytest.fixture(autouse=True)
def _fresh_process_caches():
    reset_process_caches()
    yield
    reset_process_caches()


@pytest.fixture
def count_work(monkeypatch):
    """``start()`` wraps every counted call and returns the live tally."""

    def start():
        counts = {key: 0 for key, *_ in COUNTED}
        for key, owner, name, when in COUNTED:
            real = getattr(owner, name)
            monkeypatch.setattr(owner, name, _counting(counts, key, real, when))
        return counts

    return start


def _counting(counts, key, real, when):
    def counted(*args, **kwargs):
        if when is None or when(*args):
            counts[key] += 1
        return real(*args, **kwargs)

    return counted


def _work(adopt=0, map_image=0, dirty=0, cow_copy=0, relay_x25519=0, ksm_recompute=0):
    return dict(
        adopt=adopt,
        map_image=map_image,
        dirty=dirty,
        cow_copy=cow_copy,
        relay_x25519=relay_x25519,
        ksm_recompute=ksm_recompute,
    )


def _manager_cycles(count_work):
    """20 create/discard cycles on a seed-11 manager after 10 warm-ups."""
    manager = NymManager(NymixConfig(seed=11))
    for _ in range(10):
        manager.discard_nym(manager.create_nym())
    counts = count_work()
    for _ in range(20):
        manager.discard_nym(manager.create_nym())
    return counts


def _fleet_places(count_work):
    """32 places on a seed-5, 4-host ksm-aware fleet after 8 warm-ups."""
    timeline = Timeline(seed=5)
    fleet = Fleet(timeline, hosts=4, policies=FleetPolicies(placement="ksm-aware"))
    workload = fleet_workload(timeline.fork_rng("wl"), 40)
    for item in workload[:8]:
        fleet.place(item.name, item.image_id)
    counts = count_work()
    for item in workload[8:]:
        fleet.place(item.name, item.image_id)
    return counts


SHARDED = ShardConfig(seed=7, shards=2, hosts_per_shard=2, nyms=24, epoch_s=5.0)


def _sharded_run(count_work, spool_dir):
    """One whole seed-7 run: 2 shards x 2 hosts, 24 nyms, 5 s epochs."""
    counts = count_work()
    run_sharded_fleet(SHARDED, str(spool_dir))
    return counts


class TestNymManager:
    def test_default_launches_adopt_the_zygote(self, count_work):
        assert _manager_cycles(count_work) == _work(
            adopt=40, relay_x25519=17, ksm_recompute=60
        )

    def test_cold_boots_replay_the_boot_sequence(self, count_work, monkeypatch):
        apply(monkeypatch, COLD_BOOT)
        assert _manager_cycles(count_work) == _work(
            map_image=40, dirty=40, relay_x25519=17, ksm_recompute=60
        )


class TestFleet:
    def test_default_placements_adopt_the_zygote(self, count_work):
        # map_image and dirty run only for the two zygotes (AnonVM and
        # CommVM) of the one image flavour the warm-up never launched.
        assert _fleet_places(count_work) == _work(
            adopt=64, map_image=2, dirty=2, ksm_recompute=64
        )

    def test_cold_boots_replay_the_boot_sequence(self, count_work, monkeypatch):
        apply(monkeypatch, COLD_BOOT)
        assert _fleet_places(count_work) == _work(
            map_image=64, dirty=64, ksm_recompute=64
        )


class TestShardedFleet:
    def test_default_run_adopts_the_zygote(self, count_work, tmp_path):
        # Each nym's own browsing writes make its one private copy.
        assert _sharded_run(count_work, tmp_path) == _work(
            adopt=48, map_image=12, dirty=34, cow_copy=22, ksm_recompute=79
        )

    def test_cold_boots_replay_the_boot_sequence(
        self, count_work, monkeypatch, tmp_path
    ):
        apply(monkeypatch, COLD_BOOT)
        assert _sharded_run(count_work, tmp_path) == _work(
            map_image=48, dirty=70, ksm_recompute=79
        )


def test_unchanged_host_answers_from_the_ksm_memo(count_work):
    manager = NymManager(NymixConfig(seed=11))
    for _ in range(3):
        manager.create_nym()
    hypervisor = manager.hypervisor
    hypervisor.memory.ksm.run_to_completion()
    before = (hypervisor.memory.ksm.stats(), hypervisor.memory_snapshot())
    counts = count_work()
    for _ in range(5):
        assert (hypervisor.memory.ksm.stats(), hypervisor.memory_snapshot()) == before
    assert counts == _work()


class TestObservabilityWork:
    """What an arrival pays the sink besides its journal lines."""

    def test_placements_look_metrics_up_only_for_new_wires(self, monkeypatch):
        # Instruments a component holds are looked up once per holder: the
        # first placement on each of the two hosts the warm-up left empty.
        # Each new VirtualWire still binds its three counters by name.
        lookups = collections.Counter()
        real = MetricsRegistry._get_or_create

        def counted(registry, name, cls):
            lookups[name] += 1
            return real(registry, name, cls)

        def count_lookups():
            monkeypatch.setattr(MetricsRegistry, "_get_or_create", counted)
            return lookups

        _fleet_places(count_lookups)
        assert dict(lookups) == {
            "net.link.frames": 32,
            "net.link.bytes": 32,
            "net.link.dropped_frames": 32,
            "vmm.vm.created": 1,
            "vmm.vms_live": 1,
            "vmm.vm.boots": 1,
            "vmm.boot.phase_s": 1,
        }

    def test_a_sharded_run_records_no_spans(self, tmp_path):
        # Nothing reads a shard's tracer, so a fleet boot opens no span.
        sharded = ShardedFleet(SHARDED, str(tmp_path))
        try:
            assert sharded.run().completed
            finished = [shard.timeline.obs.tracer.finished for shard in sharded.shards]
        finally:
            sharded.close()
        assert finished == [[], []]


def test_a_tor_only_manager_builds_no_dcnet(monkeypatch):
    built = []
    real_init = DcNetDeployment.__init__

    def counted(deployment, *args, **kwargs):
        built.append(deployment)
        real_init(deployment, *args, **kwargs)

    monkeypatch.setattr(DcNetDeployment, "__init__", counted)
    manager = NymManager(NymixConfig(seed=11))
    manager.discard_nym(manager.create_nym(anonymizer="tor"))
    assert built == []
    manager.create_nym(anonymizer="dissent")
    manager.create_nym(anonymizer="dissent")
    assert len(built) == 1
