"""Rejection accounting when an arrival wave is admitted through ``place``.

A wave is a run of arrivals admitted one ``Fleet.place`` call at a time,
the way ``run_tenants`` admits each of its waves.  The caller either skips
a rejected arrival and goes on (skip mode) or lets the first
``FleetCapacityError`` end the wave (raise mode).  In both modes the
``fleet.admission_rejected`` counter and the event journal must match the
same wave admitted through the frozen per-arrival walk
(``perfbench.legacy._seed_fleet_candidates``), and the fleet's cached
verdicts and memory snapshots must stay current, so later arrivals admit
normally.
"""

import pytest

from repro.errors import FleetCapacityError
from repro.fleet.fleet import Fleet
from repro.perfbench.legacy import _seed_fleet_candidates
from repro.sim.clock import Timeline
from repro.tenancy.policy import FleetPolicies

POLICIES = ["first-fit", "least-loaded", "ksm-aware"]


def build_fleet(policy, seed=1234, hosts=2):
    # high=1.0 disables evacuation so the hosts genuinely fill up.
    timeline = Timeline(seed=seed)
    policies = FleetPolicies(
        placement=policy, high_watermark=1.0, low_watermark=0.99
    )
    return timeline, Fleet(timeline, hosts=hosts, policies=policies)


def wave(n=80, images=2, prefix="nym"):
    return [(f"{prefix}-{i:03d}", f"img-{i % images}") for i in range(n)]


def admit(fleet, requests, on_reject):
    """Place each arrival in turn and return how many were rejected; in
    raise mode the first rejection propagates and ends the wave."""
    rejected = 0
    for name, image_id in requests:
        try:
            fleet.place(name, image_id)
        except FleetCapacityError:
            if on_reject == "raise":
                raise
            rejected += 1
    return rejected


class TestRejectionAccountingAudit:
    """skip vs raise must agree with the sequential reference, rejection
    by rejection — counters, journal bytes, and cached verdicts alike."""

    @staticmethod
    def _rejected_count(timeline):
        return timeline.obs.metrics.counter("fleet.admission_rejected").value

    @staticmethod
    def _assert_caches_current(fleet):
        for host in fleet.host_list():
            assert host.memory_snapshot() == host.hypervisor.memory_snapshot()
        assert [h.host_id for h in fleet._candidates()] == [
            h.host_id for h in _seed_fleet_candidates(fleet)
        ]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_skip_mode_counter_matches_sequential(self, policy, monkeypatch):
        tl_live, fleet_live = build_fleet(policy)
        rejected = admit(fleet_live, wave(), "skip")
        assert rejected > 0
        monkeypatch.setattr(Fleet, "_candidates", _seed_fleet_candidates)
        tl_ref, fleet_ref = build_fleet(policy)
        assert admit(fleet_ref, wave(), "skip") == rejected
        assert self._rejected_count(tl_live) == rejected
        assert self._rejected_count(tl_ref) == rejected
        assert tl_live.obs.journal.export_jsonl() == tl_ref.obs.journal.export_jsonl()

    @pytest.mark.parametrize("policy", POLICIES)
    def test_raise_mode_counter_matches_sequential(self, policy, monkeypatch):
        # Raise mode ends the wave at its first rejection: exactly one
        # rejection is counted, with the same error and the same journal
        # as the reference when it bailed.
        tl_live, fleet_live = build_fleet(policy)
        with pytest.raises(FleetCapacityError) as live:
            admit(fleet_live, wave(), "raise")
        monkeypatch.setattr(Fleet, "_candidates", _seed_fleet_candidates)
        tl_ref, fleet_ref = build_fleet(policy)
        with pytest.raises(FleetCapacityError) as ref:
            admit(fleet_ref, wave(), "raise")
        assert str(live.value) == str(ref.value)
        assert self._rejected_count(tl_live) == self._rejected_count(tl_ref) == 1
        assert tl_live.obs.journal.export_jsonl() == tl_ref.obs.journal.export_jsonl()
        assert sorted(fleet_live.nymboxes) == sorted(fleet_ref.nymboxes)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_mid_wave_capacity_error_leaves_caches_consistent(self, policy):
        # After a wave ends on a capacity error, and after a second wave
        # skips past more of them, the change-driven admission verdicts
        # and every host's memory-snapshot cache must match a fresh
        # recomputation from live hypervisor state.
        tl, fleet = build_fleet(policy)
        with pytest.raises(FleetCapacityError):
            admit(fleet, wave(), "raise")
        self._assert_caches_current(fleet)
        rejected = admit(fleet, wave(prefix="late"), "skip")
        assert rejected > 0
        assert self._rejected_count(tl) == 1 + rejected
        self._assert_caches_current(fleet)

    @pytest.mark.parametrize("on_reject", ["skip", "raise"])
    def test_fleet_survives_mid_wave_rejection(self, on_reject):
        # The fleet must keep working after a rejected wave: freeing
        # space admits the next arrival, in both modes and under every
        # policy.
        for policy in POLICIES:
            _, fleet = build_fleet(policy)
            if on_reject == "raise":
                with pytest.raises(FleetCapacityError):
                    admit(fleet, wave(), on_reject)
            else:
                assert admit(fleet, wave(), on_reject) > 0
            resident_before = len(fleet.nymboxes)
            fleet.remove(sorted(fleet.nymboxes)[0])
            self._assert_caches_current(fleet)
            fleet.place("late-arrival", "img-0")
            assert len(fleet.nymboxes) == resident_before
            with pytest.raises(FleetCapacityError):
                fleet.place("over-capacity", "img-0")
