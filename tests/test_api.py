"""The public API: the NymixSession deployment and its keyword-only calls."""

import pytest

from repro import NymixConfig, NymixSession, NymManager
from repro.errors import NymError, NymStateError, PersistenceError
from repro.unionfs.layer import Layer

from tests.gc_counts import cyclic_garbage


class TestNymixSession:
    def test_context_manager_wires_the_stack(self):
        with NymixSession(seed=7) as nx:
            assert nx.hypervisor.timeline is nx.timeline
            assert nx.obs is nx.timeline.obs
            assert "dropbox.com" in nx.providers
            assert "drive.google.com" in nx.providers

    def test_the_session_is_a_manager_with_a_lifecycle(self):
        # Forwarding methods cannot grow back: everything but the
        # lifecycle is the manager's own.
        assert issubclass(NymixSession, NymManager)
        own = {name for name in vars(NymixSession) if not name.startswith("_")}
        assert own == {"open", "close", "manager"}
        with NymixSession(seed=7, cloud_providers=False) as nx:
            assert nx.manager is nx

    def test_seed_reaches_the_timeline(self):
        with NymixSession(seed=123) as nx:
            assert nx.config.seed == 123
            nx.create_nym(name="a")  # the wired stack actually works

    def test_config_object_with_seed_override(self):
        config = NymixConfig(seed=1, deterministic_guards=True)
        with NymixSession(config, seed=9) as nx:
            assert nx.config.seed == 9
            assert nx.config.deterministic_guards is True

    def test_exit_tears_down_every_live_nym(self):
        session = NymixSession(seed=7)
        with session as nx:
            nx.create_nym(name="a")
            nx.create_nym(name="b")
            assert nx.live_nyms() == ["a", "b"]
        assert session.live_nyms() == []
        assert session.closed

    def test_closed_session_refuses_reuse(self):
        session = NymixSession(seed=7)
        with session:
            pass
        with pytest.raises(NymStateError):
            session.open()
        # Post-mortem reads (journal, metrics) stay available.
        assert session.live_nyms() == []

    def test_a_closed_session_launches_nothing(self):
        nx = NymixSession(seed=1, cloud_providers=False)
        nx.store_nym(nx.create_nym(name="kept"), password="pw")
        nx.close()
        journal = nx.obs.journal.export_jsonl()
        now = nx.timeline.now
        with pytest.raises(NymStateError):
            nx.create_nym(name="late")
        with pytest.raises(NymStateError):
            nx.load_nym("kept", "pw")
        with pytest.raises(NymError):
            nx.recover_nym("kept", "pw")
        nx.close()
        assert nx.hypervisor.vms() == []
        assert nx.timeline.now == now
        assert nx.obs.journal.export_jsonl() == journal
        assert nx.live_nyms() == [] and "kept" in nx.stored_nyms

    def test_close_destroys_every_vm_and_then_boots_none(self):
        with NymixSession(seed=1, cloud_providers=False) as nx:
            nym = nx.create_nym(name="a")
            nx.boot_installed_os_nym("Windows 8")
            nx.sanivm()
        assert nx.hypervisor.vms() == []
        events = [(e.name, dict(e.fields).get("vm")) for e in nx.obs.journal.events]
        assert events[-3:] == [
            ("vm.destroyed", "hostos-windows-8-1"),
            ("vm.destroyed", "sanivm"),
            ("session.closed", None),
        ]
        journal = nx.obs.journal.export_jsonl()
        now = nx.timeline.now
        for late_boot in (
            lambda: nx.boot_installed_os_nym("Windows 8"),
            nx.sanivm,
            lambda: nx.mount_host_filesystem("host", Layer("host")),
            lambda: nx.transfer_file_to_nym("host", "/a.txt", nym),
        ):
            with pytest.raises(NymStateError):
                late_boot()
        assert nx.hypervisor.vms() == []
        assert nx.timeline.now == now
        assert nx.obs.journal.export_jsonl() == journal

    def test_a_closed_session_leaves_no_cycle(self):
        # A session that stored a browsed nym to the cloud and loaded it
        # back is freed by reference counting alone once closed.
        def closed_session():
            with NymixSession(seed=3) as nx:
                nx.create_cloud_account("dropbox.com", "u", "cloud-pw")
                nym = nx.create_nym(name="a")
                nx.timed_browse(nym, "bbc.co.uk")
                nx.store_nym(
                    nym, password="pw",
                    provider_host="dropbox.com", account_username="u",
                )
                nx.discard_nym(nym)
                nx.load_nym("a", "pw")

        assert cyclic_garbage(closed_session) == 0

    def test_a_session_dropped_with_a_live_nym_leaves_no_cycle(self):
        # Without close(): the live VMs' writable layers report to the
        # hypervisor's FS tally and their guest memories hold KSM weakly,
        # and each nymbox wire holds its NICs weakly, so reference
        # counting alone frees the session and its live nym.
        def dropped_session():
            nx = NymixSession(seed=1)
            nx.timed_browse(nx.create_nym(name="a"), "bbc.co.uk")
            assert len(nx.live_nyms()) == 1

        assert cyclic_garbage(dropped_session) == 0

    def test_cloud_providers_optional(self):
        with NymixSession(seed=7, cloud_providers=False) as nx:
            assert nx.providers == {}

    def test_store_and_load_through_facade(self):
        with NymixSession(seed=7) as nx:
            nx.create_cloud_account("dropbox.com", "u", "cloud-pw")
            box = nx.create_nym(name="keeper")
            nx.store_nym(
                box, password="pw",
                provider_host="dropbox.com", account_username="u",
            )
            nx.discard_nym(box)
            restored = nx.load_nym("keeper", "pw")
            assert restored.nym.name == "keeper"

    def test_same_seed_journals_are_byte_identical(self):
        def run() -> str:
            with NymixSession(seed=31) as nx:
                box = nx.create_nym(name="det")
                nx.timed_browse(box, "bbc.co.uk")
                nx.store_nym(box, password="pw")
            return nx.obs.journal.export_jsonl()

        assert run() == run()

    def test_session_events_in_journal(self):
        with NymixSession(seed=7) as nx:
            pass
        names = [e.name for e in nx.obs.journal.events]
        assert "session.opened" in names
        assert "session.closed" in names


class TestKeywordOnlyCalls:
    def test_positional_arguments_rejected(self, manager):
        with pytest.raises(TypeError):
            manager.create_nym("alice")
        box = manager.create_nym(name="bob")
        with pytest.raises(TypeError):
            manager.store_nym(box, "pw")
        with NymixSession(seed=7, cloud_providers=False) as nx:
            with pytest.raises(TypeError):
                nx.create_nym("carol")
            assert nx.live_nyms() == []
        assert manager.live_nyms() == ["bob"]
        assert "bob" not in manager.stored_nyms

    def test_store_without_password_fails(self, manager):
        box = manager.create_nym(name="nopw")
        with pytest.raises(PersistenceError):
            manager.store_nym(box)
