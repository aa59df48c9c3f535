"""Host memory remanence (§3.4's Dunn discussion) and manager integration."""

import pytest

from repro.core import NymManager, NymixConfig
from repro.errors import MemoryError_
from repro.memory.remanence import AdversaryAccess, RemanenceTracker
from repro.obs import Observability

MIB = 1024 * 1024


class TestRemanenceTracker:
    def test_teardown_leaves_traces(self):
        tracker = RemanenceTracker(residual_fraction=0.02)
        residual = tracker.record_nym_teardown("alice", 512 * MIB)
        assert residual == int(512 * MIB * 0.02)
        assert tracker.total_residual_bytes > 0
        assert tracker.traces_for("alice")

    def test_trace_kinds(self):
        tracker = RemanenceTracker()
        tracker.record_nym_teardown("alice", 512 * MIB)
        kinds = {trace.kind for trace in tracker.traces_for("alice")}
        assert kinds == {"page-cache", "dma-buffer", "vmm-heap"}

    def test_live_adversary_recovers_traces(self):
        tracker = RemanenceTracker()
        tracker.record_nym_teardown("alice", 512 * MIB)
        assert tracker.recoverable_bytes(AdversaryAccess.LIVE) > 0
        assert tracker.evidence_of_nym("alice", AdversaryAccess.LIVE)

    def test_powered_off_adversary_recovers_nothing(self):
        """Volatile RAM: 'such state is likely to be inaccessible.'"""
        tracker = RemanenceTracker()
        tracker.record_nym_teardown("alice", 512 * MIB)
        assert tracker.recoverable_bytes(AdversaryAccess.AFTER_SHUTDOWN) == 0
        assert not tracker.evidence_of_nym("alice", AdversaryAccess.AFTER_SHUTDOWN)

    def test_reboot_clears_everything(self):
        tracker = RemanenceTracker()
        tracker.record_nym_teardown("alice", 512 * MIB)
        cleared = tracker.reboot()
        assert cleared > 0
        assert tracker.total_residual_bytes == 0
        assert tracker.reboots == 1

    def test_ephemeral_channels_nearly_eliminate_traces(self):
        """Dunn's mitigation [18] as a config option."""
        plain = RemanenceTracker(ephemeral_channels=False)
        scrubbed = RemanenceTracker(ephemeral_channels=True)
        plain_residual = plain.record_nym_teardown("a", 512 * MIB)
        scrubbed_residual = scrubbed.record_nym_teardown("a", 512 * MIB)
        assert scrubbed_residual < plain_residual * 0.05

    def test_summary_by_kind(self):
        tracker = RemanenceTracker()
        tracker.record_nym_teardown("a", 512 * MIB)
        tracker.record_nym_teardown("b", 512 * MIB)
        summary = tracker.summary()
        assert summary["page-cache"] > summary["dma-buffer"]

    @pytest.mark.parametrize("ephemeral", [False, True])
    def test_running_total_matches_the_traces(self, ephemeral):
        obs = Observability()
        tracker = RemanenceTracker(ephemeral_channels=ephemeral, obs=obs)
        gauge = obs.metrics.gauge("mem.remanence.residual_bytes")

        def check():
            expected = sum(t.residual_bytes for t in tracker._traces)
            assert tracker.total_residual_bytes == expected
            assert gauge.value == expected

        for index in range(6):
            tracker.record_nym_teardown(f"a{index}", (index + 1) * 97 * MIB)
            check()
        before = sum(t.residual_bytes for t in tracker._traces)
        assert before > 0
        assert tracker.reboot() == before
        check()
        assert tracker.total_residual_bytes == 0
        for index in range(3):
            tracker.record_nym_teardown(f"b{index}", 300 * MIB)
            check()
        assert tracker.total_residual_bytes > 0

    def test_invalid_inputs(self):
        with pytest.raises(MemoryError_):
            RemanenceTracker(residual_fraction=1.5)
        with pytest.raises(MemoryError_):
            RemanenceTracker().record_nym_teardown("a", -1)


class TestManagerIntegration:
    def test_discard_records_remanence(self, manager):
        nymbox = manager.create_nym(name="alice")
        manager.discard_nym(nymbox)
        assert manager.remanence.total_residual_bytes > 0
        assert manager.remanence.evidence_of_nym("alice", AdversaryAccess.LIVE)

    def test_reboot_host_kills_nyms_and_clears_traces(self, manager):
        manager.create_nym(name="a")
        nymbox = manager.create_nym(name="b")
        manager.discard_nym(nymbox)
        cleared = manager.reboot_host()
        assert cleared > 0
        assert manager.live_nyms() == []
        assert manager.remanence.total_residual_bytes == 0

    def test_ephemeral_channels_config(self):
        manager = NymManager(NymixConfig(seed=2, ephemeral_channels=True))
        nymbox = manager.create_nym(name="a")
        manager.discard_nym(nymbox)
        plain = NymManager(NymixConfig(seed=2))
        nymbox2 = plain.create_nym(name="a")
        plain.discard_nym(nymbox2)
        assert (
            manager.remanence.total_residual_bytes
            < plain.remanence.total_residual_bytes * 0.05
        )
