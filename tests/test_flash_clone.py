"""Flash-clone launch path: zygote templates, COW adoption, handshake caches.

The load-bearing property throughout: a flash-cloned nymbox is
*semantically identical* to a cold-booted one — same fingerprints, same
memory accounting, and byte-identical same-seed event journals — so the
zygote cache is purely a wall-clock optimization.
"""

import pytest

from repro.core import NymManager, NymixConfig
from repro.memory.pages import GuestMemory
from repro.memory.physmem import MIB
from repro.net.internet import Internet
from repro.sim import Timeline
from repro.vmm import Hypervisor, VmSpec


@pytest.fixture(autouse=True)
def _fresh_ntor_cache():
    """Isolate the process-global client keyshare cache per test."""
    from repro.anonymizers.tor.circuit import NTOR_CLIENT_CACHE

    NTOR_CLIENT_CACHE.clear()
    yield
    NTOR_CLIENT_CACHE.clear()


def _churn_manager(flash_clone: bool, seed: int = 42, cycles: int = 3):
    manager = NymManager(NymixConfig(seed=seed, flash_clone=flash_clone))
    for _ in range(cycles):
        manager.discard_nym(manager.create_nym())
    nym = manager.create_nym()
    return manager, nym


# ---------------------------------------------------------------------------
# Clone vs cold-boot equivalence
# ---------------------------------------------------------------------------


class TestCloneColdEquivalence:
    def test_manager_state_identical(self):
        cold_mgr, cold_nym = _churn_manager(flash_clone=False)
        flash_mgr, flash_nym = _churn_manager(flash_clone=True)

        assert (
            flash_mgr.hypervisor.memory_snapshot()
            == cold_mgr.hypervisor.memory_snapshot()
        )
        assert flash_nym.anonvm.fingerprint() == cold_nym.anonvm.fingerprint()
        assert flash_nym.commvm.fingerprint() == cold_nym.commvm.fingerprint()
        assert flash_nym.anonvm.memory.stats() == cold_nym.anonvm.memory.stats()
        assert flash_nym.commvm.memory.stats() == cold_nym.commvm.memory.stats()
        assert (
            flash_mgr.hypervisor.memory.ksm.stats()
            == cold_mgr.hypervisor.memory.ksm.stats()
        )

    def test_same_seed_journals_byte_identical(self):
        cold_mgr, _ = _churn_manager(flash_clone=False)
        flash_mgr, _ = _churn_manager(flash_clone=True)
        cold = cold_mgr.obs.journal.export_jsonl()
        flash = flash_mgr.obs.journal.export_jsonl()
        assert flash == cold

    def test_journals_identical_with_caches_disabled(self):
        """The handshake caches are stream-neutral: warm, cold, or
        disabled, the same seed draws the same RNG stream."""
        from repro.perfbench.legacy import seed_crypto_mode

        flash_mgr, _ = _churn_manager(flash_clone=True)
        with seed_crypto_mode():
            cold_mgr, _ = _churn_manager(flash_clone=False)
        assert (
            flash_mgr.obs.journal.export_jsonl()
            == cold_mgr.obs.journal.export_jsonl()
        )

    def test_fleet_stats_and_journals_identical(self):
        from repro.fleet import Fleet
        from repro.tenancy.policy import FleetPolicies
        from repro.workloads.fleet import fleet_workload

        def run(flash_clone: bool):
            timeline = Timeline(seed=5)
            fleet = Fleet(
                timeline, hosts=2,
                policies=FleetPolicies(placement="ksm-aware"),
                flash_clone=flash_clone,
            )
            workload = fleet_workload(timeline.fork_rng("wl"), 8)
            for item in workload:
                fleet.place(item.name, item.image_id)
            fleet.settle_ksm()
            return fleet.stats(), timeline.obs.journal.export_jsonl()

        cold_stats, cold_journal = run(flash_clone=False)
        flash_stats, flash_journal = run(flash_clone=True)
        assert flash_stats == cold_stats
        assert flash_journal == cold_journal


# ---------------------------------------------------------------------------
# COW guest-memory adoption
# ---------------------------------------------------------------------------


def _booted(owner: str, template=None) -> GuestMemory:
    guest = GuestMemory(owner, 64 * MIB)
    if template is not None and guest.can_adopt(template):
        guest.adopt_template(template)
    else:
        guest.map_image("img", 16 * MIB)
        guest.dirty(8 * MIB)
    return guest


class TestCowAdoption:
    def _template(self) -> GuestMemory:
        return _booted("zygote")

    def test_adopted_stats_match_cold_boot(self):
        template = self._template()
        clone = _booted("clone", template)
        cold = _booted("cold")
        assert clone.stats() == cold.stats()
        assert clone.dirty_epoch == cold.dirty_epoch

    def test_can_adopt_requires_pristine_guest(self):
        template = self._template()
        guest = GuestMemory("g", 64 * MIB)
        assert guest.can_adopt(template)
        guest.dirty(1 * MIB)
        assert not guest.can_adopt(template)
        smaller = GuestMemory("s", 32 * MIB)
        assert not smaller.can_adopt(template)

    def test_writes_after_adoption_do_not_touch_template(self):
        template = self._template()
        before = template.stats()
        clone = _booted("clone", template)
        clone.dirty(4 * MIB)
        assert template.stats() == before

    def test_erasing_clone_leaves_template_intact(self):
        template = self._template()
        before = template.stats()
        clone = _booted("clone", template)
        clone.secure_erase()
        assert clone.erased
        assert template.stats() == before
        assert not template.erased

    def test_clone_helper_equivalent_to_adopt(self):
        template = self._template()
        clone = template.clone("clone")
        assert clone.stats() == template.stats()
        assert clone.owner_id == "clone"

    def test_unique_serials_continue_after_adoption(self):
        """Clones inherit the template's serial watermark, so pages they
        dirty later never collide with adopted unique pages."""
        template = self._template()
        clone = _booted("clone", template)
        adopted = {tag for tag, _ in clone.page_groups() if tag[0] == "unique"}
        clone.dirty(1 * MIB)
        fresh = {
            tag for tag, _ in clone.page_groups() if tag[0] == "unique"
        } - adopted
        assert fresh and not (fresh & adopted)


# ---------------------------------------------------------------------------
# Zygote cache on the hypervisor
# ---------------------------------------------------------------------------


class TestZygoteCache:
    @pytest.fixture
    def hv(self):
        timeline = Timeline(seed=9)
        return Hypervisor(timeline, Internet(timeline))

    def test_flash_clone_boots_running_pair(self, hv):
        template = hv.nymbox_template(VmSpec.anonvm(), VmSpec.commvm(), "tor")
        anon, comm, wire = hv.flash_clone(template, "nym1")
        anon.boot()
        comm.boot()
        assert anon.running and comm.running
        cold_anon = Hypervisor(hv.timeline, hv.internet, zygote_cache=False)
        cold = cold_anon.create_vm(VmSpec.anonvm(), name="cold-anon")
        cold.boot()
        assert anon.memory.stats() == cold.memory.stats()

    def test_zygote_memory_not_registered_with_host(self, hv):
        baseline = hv.memory.stats().guest_allocated_bytes
        template = hv.nymbox_template(VmSpec.anonvm(), VmSpec.commvm(), "tor")
        hv._zygote_memory(template.anon_spec, template.image_id)
        assert hv.memory.stats().guest_allocated_bytes == baseline

    def test_mount_layers_shared_across_clones(self, hv):
        template = hv.nymbox_template(VmSpec.anonvm(), VmSpec.commvm(), "tor")
        anon1, _, _ = hv.flash_clone(template, "nym1")
        anon2, _, _ = hv.flash_clone(template, "nym2")
        layers1 = anon1.fs.layers
        layers2 = anon2.fs.layers
        assert layers1[0] is not layers2[0]  # fresh tmpfs top per clone
        assert layers1[1] is layers2[1]  # shared config layer
        assert layers1[2] is layers2[2]  # shared base/verified bottom

    def test_partial_clone_failure_rolls_back(self, hv):
        template = hv.nymbox_template(VmSpec.anonvm(), VmSpec.commvm(), "tor")
        hv.create_vm(VmSpec.commvm(), name="nym1-comm")  # occupy the comm name
        with pytest.raises(Exception):
            hv.flash_clone(template, "nym1")
        assert "nym1-anon" not in [vm.vm_id for vm in hv.vms()]


# ---------------------------------------------------------------------------
# Handshake precomputation
# ---------------------------------------------------------------------------


class TestHandshakeCaches:
    def test_fixed_base_matches_ladder(self):
        import sys

        x = sys.modules["repro.crypto.x25519"]
        base_u = (9).to_bytes(32, "little")
        for i in range(16):
            scalar = bytes([i * 7 + 1]) + bytes(30) + bytes([64])
            assert x.x25519_base(scalar) == x.x25519(scalar, base_u)

    def test_fixed_base_toggle_round_trips(self):
        """The seed mode swaps the comb for the ladder and back again;
        keypairs come out the same either way."""
        import sys

        from repro.perfbench.legacy import seed_crypto_mode
        from repro.sim.rng import SeededRng

        x = sys.modules["repro.crypto.x25519"]
        comb = x.x25519_base
        private, public = x.x25519_keypair(SeededRng(3))
        with seed_crypto_mode():
            assert x.x25519_base is not comb
            private2, public2 = x.x25519_keypair(SeededRng(3))
        assert x.x25519_base is comb
        assert (private, public) == (private2, public2)

    def test_relay_memo_skips_recompute(self, monkeypatch):
        import sys

        from repro.anonymizers.tor.relay import Relay
        from repro.net.addresses import Ipv4Address
        from repro.sim.rng import SeededRng

        x = sys.modules["repro.crypto.x25519"]
        relay = Relay(
            "r1",
            Ipv4Address.parse("10.9.0.1"),
            10e6,
            frozenset({"Guard", "Exit"}),
            SeededRng(1),
        )
        client_private, client_public = x.x25519_keypair(SeededRng(2))
        relay.handle_create(1, client_public)
        first = relay._circuits[1]

        calls = [0]
        real = x.x25519

        def counting(private, public):
            calls[0] += 1
            return real(private, public)

        monkeypatch.setattr("repro.anonymizers.tor.relay.x25519", counting)
        relay.handle_create(2, client_public)
        assert calls[0] == 0  # memo hit: no scalar multiplication
        second = relay._circuits[2]
        assert (first.forward_key, first.backward_key) == (
            second.forward_key,
            second.backward_key,
        )

    def test_client_cache_preserves_rng_stream_and_keys(self):
        from contextlib import nullcontext

        from repro.anonymizers.tor.circuit import NTOR_CLIENT_CACHE, Circuit
        from repro.anonymizers.tor.relay import Relay
        from repro.net.addresses import Ipv4Address
        from repro.perfbench.legacy import seed_crypto_mode
        from repro.sim.rng import SeededRng

        def build(enabled: bool):
            NTOR_CLIENT_CACHE.clear()
            rng = SeededRng(77)
            relays = [
                Relay(
                    f"r{i}",
                    Ipv4Address.parse(f"10.9.0.{i + 1}"),
                    10e6,
                    frozenset({"Guard", "Exit"}),
                    rng.fork(f"r{i}"),
                )
                for i in range(3)
            ]
            circuit_rng = rng.fork("circuit")
            keys = []
            with nullcontext() if enabled else seed_crypto_mode():
                for _ in range(2):  # second build hits the cache when enabled
                    circuit = Circuit(Timeline(seed=1), circuit_rng)
                    circuit.build(relays)
                    keys.append(
                        [(h.forward_key, h.backward_key) for h in circuit._hops]
                    )
            return keys, circuit_rng.token_bytes(8)

        warm_keys, warm_tail = build(enabled=True)
        cold_keys, cold_tail = build(enabled=False)
        # First builds start from an empty cache, so they agree exactly.
        assert warm_keys[0] == cold_keys[0]
        # The repeat build reuses the cached keyshares; without the cache
        # it derives fresh ones from the same (burned) draw.
        assert warm_keys[1] == warm_keys[0]
        assert cold_keys[1] != cold_keys[0]
        # Either way the RNG stream advances identically.
        assert warm_tail == cold_tail


# ---------------------------------------------------------------------------
# Hypervisor wiring fixes (satellites)
# ---------------------------------------------------------------------------


class TestWireIndex:
    @pytest.fixture
    def hv(self):
        timeline = Timeline(seed=4)
        return Hypervisor(timeline, Internet(timeline))

    def test_destroy_removes_only_own_wires(self, hv):
        template = hv.nymbox_template(VmSpec.anonvm(), VmSpec.commvm(), "tor")
        anon1, comm1, wire1 = hv.flash_clone(template, "nym1")
        anon2, comm2, wire2 = hv.flash_clone(template, "nym2")
        hv.destroy_vm(anon1)
        hv.destroy_vm(comm1)
        assert wire1 not in hv._wires
        assert wire2 in hv._wires
        assert not wire1.up
        assert wire2.up

    def test_index_survives_interleaved_teardown(self, hv):
        template = hv.nymbox_template(VmSpec.anonvm(), VmSpec.commvm(), "tor")
        pairs = [hv.flash_clone(template, f"nym{i}") for i in range(4)]
        for anon, comm, wire in (pairs[1], pairs[3], pairs[0], pairs[2]):
            hv.destroy_vm(anon)
            hv.destroy_vm(comm)
            assert wire not in hv._wires
        assert hv._wires == []
        assert hv._wire_slots == {} and hv._wires_by_nic == {}

    def test_foreign_wire_appended_directly_is_tolerated(self, hv):
        """Red-team tests append rogue wires straight to ``_wires``; the
        index must neither break nor tear them down on VM destroy."""
        from repro.net.link import VirtualWire
        from repro.net.nic import VirtualNic

        template = hv.nymbox_template(VmSpec.anonvm(), VmSpec.commvm(), "tor")
        anon, comm, wire = hv.flash_clone(template, "nym1")
        rogue = VirtualWire(
            hv.timeline,
            VirtualNic("a", "02:00:00:00:00:01"),
            VirtualNic("b", "02:00:00:00:00:02"),
            name="rogue",
        )
        hv._wires.append(rogue)
        hv.destroy_vm(anon)
        hv.destroy_vm(comm)
        assert rogue in hv._wires
        assert rogue.up


class TestLanWireReuse:
    @pytest.fixture
    def hv(self):
        timeline = Timeline(seed=6)
        return Hypervisor(timeline, Internet(timeline))

    def test_wire_and_client_reused_across_acquires(self, hv):
        first = hv.acquire_lan_address()
        wire = hv._lan_wire
        client = hv._lan_client
        second = hv.acquire_lan_address()
        assert hv._lan_wire is wire
        assert hv._lan_client is client
        assert first == second  # the lease table hands the same address back

    def test_wire_severed_after_each_acquire(self, hv):
        hv.acquire_lan_address()
        assert not hv._lan_wire.up
        hv.acquire_lan_address()
        assert not hv._lan_wire.up

    def test_reacquire_adds_no_journal_link_noise(self, hv):
        hv.acquire_lan_address()
        up_events = hv.timeline.obs.journal.count("net.link.up")
        hv.acquire_lan_address()
        assert hv.timeline.obs.journal.count("net.link.up") == up_events
