"""The Nym Manager: lifecycle, phases, amnesia, per-nym isolation."""

import pytest

from repro.core import NymManager, NymixConfig, NymUsageModel
from repro.errors import AnonymizerError, NymError, NymStateError
from repro.vmm.vm import MIB, VmSpec

from tests.gc_counts import cyclic_garbage


class TestCreateNym:
    def test_creates_running_nymbox(self, manager):
        nymbox = manager.create_nym(name="alice")
        assert nymbox.running
        assert nymbox.anonvm.running and nymbox.commvm.running
        assert nymbox.anonymizer.started

    def test_startup_phases_recorded(self, manager):
        nymbox = manager.create_nym(name="alice")
        assert 7.0 <= nymbox.startup.boot_vm_s <= 12.0
        assert 3.0 <= nymbox.startup.start_anonymizer_s <= 12.0
        assert nymbox.startup.ephemeral_nym_s == 0.0

    def test_boot_phase_is_parallel_max(self, manager):
        """The pair boots concurrently: phase ≈ AnonVM's boot, not the sum."""
        nymbox = manager.create_nym(name="alice")
        assert nymbox.startup.boot_vm_s < 9.5 * 1.08 + 1.0  # not ~13.5s serial

    def test_total_startup_within_paper_range(self, manager):
        """§1: 'Nymix ... loads within 15 to 25 seconds.'"""
        nymbox = manager.create_nym(name="alice")
        manager.timed_browse(nymbox, "twitter.com")
        assert 12.0 <= nymbox.startup.total_s <= 27.0

    def test_duplicate_name_rejected(self, manager):
        manager.create_nym(name="alice")
        with pytest.raises(NymError):
            manager.create_nym(name="alice")

    def test_default_anonymizer_from_config(self, manager):
        nymbox = manager.create_nym()
        assert nymbox.anonymizer.kind == "tor"

    def test_alternative_anonymizers(self, manager):
        assert manager.create_nym(name="a", anonymizer="incognito").anonymizer.kind == "incognito"
        assert manager.create_nym(name="b", anonymizer="dissent").anonymizer.kind == "dissent"

    def test_composed_anonymizer(self, manager):
        nymbox = manager.create_nym(name="combo", anonymizer="tor+dissent")
        assert nymbox.anonymizer.kind == "tor+dissent"
        assert nymbox.anonymizer.started

    @pytest.mark.parametrize(
        "default, kind",
        [
            ("tor", "carrier-pigeon"),
            ("tor", "tor+carrier-pigeon"),
            ("tor", "stegotorus:carrier-pigeon"),
            ("carrier-pigeon", None),
        ],
        ids=["bare", "composed", "camouflaged", "config-default"],
    )
    def test_an_unknown_kind_is_refused_before_any_vm(self, default, kind):
        manager = NymManager(NymixConfig(seed=7, default_anonymizer=default))
        journal = manager.obs.journal.export_jsonl()
        now = manager.timeline.now
        with pytest.raises(AnonymizerError, match="unknown anonymizer 'carrier-pigeon'"):
            manager.create_nym(name="x", anonymizer=kind)
        assert manager.hypervisor.vms() == []
        assert manager.obs.journal.export_jsonl() == journal
        assert manager.timeline.now == now
        # Nothing was left behind, so the name is free for a good kind.
        assert manager.create_nym(name="x", anonymizer="tor").anonymizer.started

    def test_custom_specs(self, manager):
        nymbox = manager.create_nym(name="big", anon_spec=VmSpec.anonvm(ram_bytes=1024 * MIB))
        assert nymbox.anonvm.spec.ram_bytes == 1024 * MIB

    def test_names_autogenerated(self, manager):
        a = manager.create_nym()
        b = manager.create_nym()
        assert a.nym.name != b.nym.name


    def test_a_dropped_manager_leaves_no_cycle(self):
        # The host's DHCP handshake drops its NICs' handlers, whose owners
        # hold the NICs, so reference counting alone frees a manager.
        assert cyclic_garbage(lambda: NymManager(NymixConfig(seed=1))) == 0


class TestBrowsing:
    def test_timed_browse_sets_phase(self, manager):
        nymbox = manager.create_nym(name="alice")
        load = manager.timed_browse(nymbox, "twitter.com")
        assert load.payload_bytes > 0
        assert nymbox.startup.load_page_s > 0

    def test_sign_in_binds_account(self, manager):
        nymbox = manager.create_nym(name="alice")
        manager.timed_browse(nymbox, "twitter.com")
        nymbox.sign_in("twitter.com", "pseudo", "pw")
        assert nymbox.nym.accounts["twitter.com"] == "pseudo"
        assert nymbox.browser.has_credentials_for("twitter.com")

    def test_destination_sees_exit_not_user(self, manager):
        nymbox = manager.create_nym(name="alice")
        manager.timed_browse(nymbox, "twitter.com")
        server = manager.internet.server_named("twitter.com")
        assert server.seen_client_ips[-1] != manager.hypervisor.public_ip


class TestDiscardNym:
    def test_amnesia(self, manager):
        """§3.4: turning off a pseudonym wipes every trace."""
        nymbox = manager.create_nym(name="alice")
        manager.timed_browse(nymbox, "facebook.com")
        anon_memory = nymbox.anonvm.memory
        manager.discard_nym(nymbox)
        assert nymbox.destroyed
        assert anon_memory.erased
        assert nymbox.anonvm.fs.ram_bytes == 0
        assert "alice" not in manager.live_nyms()

    def test_memory_returns_to_host(self, manager):
        baseline = manager.hypervisor.memory.stats().guest_allocated_bytes
        nymbox = manager.create_nym(name="alice")
        manager.discard_nym(nymbox)
        assert manager.hypervisor.memory.stats().guest_allocated_bytes == baseline

    def test_destroyed_nymbox_rejects_use(self, manager):
        nymbox = manager.create_nym(name="alice")
        manager.discard_nym(nymbox)
        with pytest.raises(NymStateError):
            nymbox.browse("twitter.com")


class TestPerNymIsolation:
    def test_parallel_nyms_have_distinct_tor_instances(self, manager):
        a = manager.create_nym(name="a")
        b = manager.create_nym(name="b")
        assert a.anonymizer is not b.anonymizer
        assert a.anonymizer.current_circuit.circ_id != b.anonymizer.current_circuit.circ_id

    def test_browser_state_not_shared(self, manager):
        a = manager.create_nym(name="a")
        b = manager.create_nym(name="b")
        manager.timed_browse(a, "gmail.com")
        assert a.browser.history
        assert not b.browser.history

    def test_cross_nym_probe_fails(self, manager):
        a = manager.create_nym(name="a")
        b = manager.create_nym(name="b")
        assert not manager.hypervisor.probe_cross_vm(a.anonvm, b.anonvm)
        assert not manager.hypervisor.probe_cross_vm(a.anonvm, b.commvm)

    def test_identical_fingerprints(self, manager):
        a = manager.create_nym(name="a")
        b = manager.create_nym(name="b")
        assert a.anonvm.fingerprint().as_dict() == b.anonvm.fingerprint().as_dict()


class TestInstalledOsNym:
    def test_windows_needs_repair_then_boots(self, manager):
        report, vm, ios = manager.boot_installed_os_nym("Windows 7")
        assert report.repair_seconds > 100
        assert report.boot_seconds > 25
        assert report.cow_bytes > 0
        assert not report.physical_disk_modified

    def test_linux_boots_without_repair(self, manager):
        report, _, _ = manager.boot_installed_os_nym("Ubuntu 12.04")
        assert report.repair_seconds == 0.0

    def test_unknown_os_rejected(self, manager):
        with pytest.raises(NymError):
            manager.boot_installed_os_nym("TempleOS")


class TestCloudAccounts:
    def test_unknown_provider_rejected(self, manager):
        with pytest.raises(NymError):
            manager.create_cloud_account("nowhere.example", "u", "p")

    def test_account_creation(self, manager):
        account = manager.create_cloud_account("dropbox.com", "anon1", "pw")
        assert account.username == "anon1"
