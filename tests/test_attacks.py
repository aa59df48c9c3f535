"""The adversary suite: fingerprinting, staining, exploits, intersection."""

import pytest

from repro.attacks import (
    AnonVmCompromise,
    CommVmCompromise,
    EvercookieStain,
    GuardExposureModel,
    IntersectionAttack,
    distinguishing_bits,
    fingerprints_distinguishable,
)
from repro.attacks.fingerprinting import cpu_timing_fingerprint
from repro.attacks.intersection import candidate_count_after_epochs, linkable_by_exit
from repro.obs import Observability
from repro.sim import SeededRng


class TestFingerprinting:
    def test_identical_fingerprints_zero_bits(self, manager):
        nyms = [manager.create_nym(name=f"n{i}") for i in range(3)]
        vm_fps = [n.anonvm.fingerprint() for n in nyms]
        browser_fps = [n.browser.fingerprint for n in nyms]
        assert distinguishing_bits(vm_fps) == 0.0
        assert distinguishing_bits(browser_fps) == 0.0
        assert not fingerprints_distinguishable(vm_fps)

    def test_heterogeneous_population_leaks_bits(self):
        fps = [{"ua": "chrome"}, {"ua": "firefox"}, {"ua": "chrome"}, {"ua": "safari"}]
        assert fingerprints_distinguishable(fps)
        assert distinguishing_bits(fps) > 1.0

    def test_entropy_of_uniform_population(self):
        fps = [{"id": i} for i in range(8)]
        assert distinguishing_bits(fps) == pytest.approx(3.0)

    def test_empty_population(self):
        assert distinguishing_bits([]) == 0.0

    def test_cpu_timing_clusters(self):
        labels = cpu_timing_fingerprint([1.00, 1.01, 2.00, 0.99, 2.02])
        assert labels[0] == labels[1] == labels[3]
        assert labels[2] == labels[4]
        assert labels[0] != labels[2]

    def test_cpu_timing_homogeneous(self):
        labels = cpu_timing_fingerprint([1.0, 1.001, 0.999])
        assert len(set(labels)) == 1


class TestStaining:
    def test_stain_detected_while_nym_lives(self, manager):
        nymbox = manager.create_nym(name="victim")
        stain = EvercookieStain("track-123")
        planted = stain.plant(nymbox)
        assert planted == 5
        assert stain.detected(nymbox)

    def test_ephemeral_nym_sheds_stain(self, manager):
        """§3.3: 'trackable stains disappear immediately when the nym does.'"""
        nymbox = manager.create_nym(name="victim")
        stain = EvercookieStain("track-123")
        stain.plant(nymbox)
        manager.discard_nym(nymbox)
        fresh = manager.create_nym(name="victim")
        assert not stain.detected(fresh)

    def test_persistent_nym_carries_stain(self, manager):
        """The §3.5 trade-off: persistent mode preserves stains too."""
        manager.create_cloud_account("dropbox.com", "u", "p")
        nymbox = manager.create_nym(name="victim")
        stain = EvercookieStain("track-123")
        stain.plant(nymbox)
        manager.store_nym(nymbox, password="pw", provider_host="dropbox.com", account_username="u")
        manager.discard_nym(nymbox)
        restored = manager.load_nym("victim", "pw")
        assert stain.detected(restored)

    def test_preconfigured_nym_sheds_stain_at_restore(self, manager):
        manager.create_cloud_account("dropbox.com", "u", "p")
        nymbox = manager.create_nym(name="victim")
        manager.snapshot_nym(nymbox, password="pw", provider_host="dropbox.com", account_username="u")
        stain = EvercookieStain("track-123")
        stain.plant(nymbox)  # infection AFTER the snapshot
        manager.close_session(nymbox)
        restored = manager.load_nym("victim", "pw")
        assert not stain.detected(restored)


class TestExploits:
    def test_anonvm_compromise_learns_nothing_real(self, manager):
        nymbox = manager.create_nym(name="victim")
        findings = AnonVmCompromise(nymbox).run()
        assert findings.observed_ips == ["10.0.2.15"]
        assert findings.observed_macs == ["52:54:00:12:34:56"]
        assert not findings.knows_real_network_identity(manager.hypervisor.public_ip)

    def test_anonvm_probe_reaches_only_own_commvm(self, manager):
        nymbox = manager.create_nym(name="victim")
        manager.create_nym(name="other")
        findings = AnonVmCompromise(nymbox).run()
        assert findings.reachable_hosts == ["10.0.2.2"]

    def test_exfiltration_reveals_exit_only(self, manager):
        nymbox = manager.create_nym(name="victim")
        findings = AnonVmCompromise(nymbox).run()
        assert len(findings.exfiltration_paths) == 1
        assert "via-anonymizer" in findings.exfiltration_paths[0]
        assert str(manager.hypervisor.public_ip) not in findings.exfiltration_paths[0]

    def test_identical_findings_across_nyms(self, manager):
        """A compromised AnonVM cannot even tell *which* nym it is in."""
        a = AnonVmCompromise(manager.create_nym(name="a")).run()
        b = AnonVmCompromise(manager.create_nym(name="b")).run()
        assert a.observed_ips == b.observed_ips
        assert a.observed_macs == b.observed_macs
        assert a.hardware == b.hardware

    def test_commvm_compromise_leaks_public_ip_but_no_browser_state(self, manager):
        """§3.2: a compromised CommVM learns the public IP — and only that."""
        nymbox = manager.create_nym(name="victim")
        manager.timed_browse(nymbox, "twitter.com")
        nymbox.sign_in("twitter.com", "user", "pw")
        findings = CommVmCompromise(nymbox, manager.hypervisor.public_ip).run()
        assert findings.knows_real_network_identity(manager.hypervisor.public_ip)
        assert findings.stolen_files == []


class TestIntersection:
    def test_linkable_messages_converge(self):
        attack = IntersectionAttack(
            population=100, online_probability=0.5, rng=SeededRng(1)
        )
        epochs = attack.epochs_to_deanonymize()
        assert epochs is not None
        assert epochs <= 30

    def test_larger_population_takes_longer(self):
        small = IntersectionAttack(50, 0.5, SeededRng(2)).epochs_to_deanonymize()
        large = IntersectionAttack(5000, 0.5, SeededRng(2)).epochs_to_deanonymize()
        assert large >= small

    def test_unlinkable_nyms_never_converge(self):
        attack = IntersectionAttack(100, 0.5, SeededRng(3))
        assert attack.epochs_with_unlinkable_nyms() is None

    def test_analytic_candidate_decay(self):
        assert candidate_count_after_epochs(1000, 0.5, 10) == pytest.approx(0.9765625)

    def test_exit_linkage_heuristic(self):
        assert linkable_by_exit(["1.1.1.1"], ["1.1.1.1", "2.2.2.2"])
        assert not linkable_by_exit(["1.1.1.1"], ["3.3.3.3"])


class TestGuardExposure:
    def test_rotation_much_worse_than_persistence(self):
        """§3.5: frequent guard churn accelerates compromise."""
        model = GuardExposureModel(SeededRng(4), total_guards=40, adversary_guards=4)
        rotate = model.compromise_rate(sessions=30, rotate_every_session=True, trials=100)
        persist = model.compromise_rate(sessions=30, rotate_every_session=False, trials=100)
        assert rotate > persist * 1.5

    def test_persistent_guards_stay_small(self):
        model = GuardExposureModel(SeededRng(5))
        trace = model.simulate(sessions=50, rotate_every_session=False)
        assert len(trace.distinct_guards) == 3

    def test_rotation_accumulates_guards(self):
        model = GuardExposureModel(SeededRng(6))
        trace = model.simulate(sessions=50, rotate_every_session=True)
        assert len(trace.distinct_guards) > 10

    def test_no_adversary_no_compromise(self):
        model = GuardExposureModel(SeededRng(7), adversary_guards=0)
        trace = model.simulate(sessions=100, rotate_every_session=True)
        assert not trace.ever_compromised

    def test_bad_adversary_count(self):
        with pytest.raises(ValueError):
            GuardExposureModel(SeededRng(8), total_guards=10, adversary_guards=11)

    def test_compromise_rate_counts_its_trials_in_the_callers_sink(self):
        obs = Observability()
        model = GuardExposureModel(SeededRng(1), obs=obs)
        assert model.compromise_rate(5, True, trials=10) == 0.8
        snapshot = obs.metrics.snapshot()
        # Ten trials of five rotating sessions: five draws each.
        assert snapshot["attack.guard.draws"] == 50
        assert snapshot["attack.guard.compromises"] == 8
