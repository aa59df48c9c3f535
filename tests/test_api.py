"""The redesigned public API: NymixSession facade and request objects."""

import pytest

from repro import NymixConfig, NymixSession, NymRequest, StoreNymRequest
from repro.core.nym import NymUsageModel
from repro.errors import NymStateError, PersistenceError


class TestNymixSession:
    def test_context_manager_wires_the_stack(self):
        with NymixSession(seed=7) as nx:
            assert nx.manager.timeline is nx.timeline
            assert nx.hypervisor is nx.manager.hypervisor
            assert nx.internet is nx.manager.internet
            assert nx.obs is nx.manager.obs
            assert "dropbox.com" in nx.manager.providers
            assert "drive.google.com" in nx.manager.providers

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
            manager = nx.manager
            assert manager.live_nyms() == ["a", "b"]
        assert manager.live_nyms() == []
        assert session.closed

    def test_closed_session_refuses_reuse(self):
        session = NymixSession(seed=7)
        with session:
            pass
        with pytest.raises(NymStateError):
            session.open()
        # Post-mortem reads (journal, metrics) stay available.
        assert session.manager.live_nyms() == []

    def test_cloud_providers_optional(self):
        with NymixSession(seed=7, cloud_providers=False) as nx:
            assert nx.manager.providers == {}

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
            return nx.manager.obs.journal.export_jsonl()

        assert run() == run()

    def test_session_events_in_journal(self):
        with NymixSession(seed=7) as nx:
            manager = nx.manager
        names = [e.name for e in manager.obs.journal.events]
        assert "session.opened" in names
        assert "session.closed" in names


class TestNymRequest:
    def test_create_from_request_object(self, manager):
        request = NymRequest(name="req-nym", usage=NymUsageModel.PERSISTENT)
        box = manager.create_nym(request)
        assert box.nym.name == "req-nym"
        assert box.nym.usage_model is NymUsageModel.PERSISTENT

    def test_keywords_override_request_fields(self, manager):
        base = NymRequest(name="template", chain_commvms=False)
        box = manager.create_nym(base, name="alice")
        assert box.nym.name == "alice"

    def test_request_is_a_reusable_template(self, manager):
        base = NymRequest(usage=NymUsageModel.PERSISTENT)
        a = manager.create_nym(base, name="a")
        b = manager.create_nym(base, name="b")
        assert a.nym.usage_model is NymUsageModel.PERSISTENT
        assert b.nym.usage_model is NymUsageModel.PERSISTENT

    def test_two_request_objects_rejected(self, manager):
        with pytest.raises(TypeError):
            manager.create_nym(NymRequest(), request=NymRequest())

    def test_positional_arguments_other_than_a_request_rejected(self, manager):
        with pytest.raises(TypeError, match="NymRequest"):
            manager.create_nym("alice")
        with pytest.raises(TypeError):
            manager.create_nym(NymRequest(), "tor")
        box = manager.create_nym(name="bob")
        with pytest.raises(TypeError, match="StoreNymRequest"):
            manager.store_nym(box, "pw")
        assert manager.live_nyms() == ["bob"]

    def test_store_request_object(self, manager):
        manager.create_cloud_account("dropbox.com", "u", "cloud-pw")
        box = manager.create_nym(name="s")
        receipt = manager.store_nym(
            box,
            request=StoreNymRequest(
                password="pw", provider_host="dropbox.com", account_username="u"
            ),
        )
        assert receipt.encrypted_bytes > 0

    def test_store_without_password_fails(self, manager):
        box = manager.create_nym(name="nopw")
        with pytest.raises(PersistenceError):
            manager.store_nym(box)

    def test_merged_keeps_unset_fields(self):
        base = NymRequest(anonymizer="tor+dissent", chain_commvms=True)
        merged = base.merged({"name": "x", "anonymizer": None})
        assert merged.name == "x"
        assert merged.anonymizer == "tor+dissent"
        assert merged.chain_commvms is True
