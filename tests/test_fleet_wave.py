"""Wave-batched admission must be indistinguishable from sequential place().

`Fleet.place_many` plans a whole arrival wave against vectorized per-host
state and executes through the sequential machinery, verifying each
prediction as it lands.  These tests drive the same seeded workload
through `place()` one arrival at a time and through `place_many`, and
require byte-identical event journals, identical per-host residency, and
identical chosen hosts — for every policy, including waves that trip
pressure evacuation mid-stream and waves that exhaust capacity.
"""

import pytest

from repro.errors import FleetCapacityError, FleetError
from repro.fleet.fleet import Fleet, PlacementRequest
from repro.fleet.placement import PlacementPolicy
from repro.sim.clock import Timeline
from repro.tenancy.policy import FleetPolicies

POLICIES = ["first-fit", "least-loaded", "ksm-aware"]


def build_fleet(policy, seed=1234, hosts=4, high_watermark=0.90,
                low_watermark=0.80, **kwargs):
    timeline = Timeline(seed=seed)
    policies = FleetPolicies(
        placement=policy,
        high_watermark=high_watermark,
        low_watermark=low_watermark,
    )
    return timeline, Fleet(timeline, hosts=hosts, policies=policies, **kwargs)


def wave(n, images=3):
    return [(f"nym-{i:03d}", f"img-{i % images}") for i in range(n)]


def run_sequential(fleet, requests):
    boxes = []
    for name, image_id in requests:
        try:
            boxes.append(fleet.place(name, image_id))
        except FleetCapacityError:
            boxes.append(None)
    return boxes


def snapshot(timeline, fleet, boxes):
    return (
        timeline.obs.journal.export_jsonl(),
        {h.host_id: sorted(h.residents) for h in fleet.host_list()},
        [box.host_id if box else None for box in boxes],
    )


class TestWaveEquivalence:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_plain_wave_matches_sequential(self, policy):
        tl_a, fleet_a = build_fleet(policy)
        boxes_a = run_sequential(fleet_a, wave(24))
        tl_b, fleet_b = build_fleet(policy)
        boxes_b = fleet_b.place_many(wave(24), on_reject="skip")
        assert snapshot(tl_a, fleet_a, boxes_a) == snapshot(tl_b, fleet_b, boxes_b)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_wave_with_evacuations_matches_sequential(self, policy):
        # Overfill deliberately: placements trip the high watermark and
        # evacuate mid-wave, forcing the planner to replan from live state.
        tl_a, fleet_a = build_fleet(policy, hosts=2)
        boxes_a = run_sequential(fleet_a, wave(120))
        assert fleet_a.evacuations > 0  # the scenario must actually diverge
        tl_b, fleet_b = build_fleet(policy, hosts=2)
        boxes_b = fleet_b.place_many(wave(120), on_reject="skip")
        assert fleet_b.evacuations == fleet_a.evacuations
        assert snapshot(tl_a, fleet_a, boxes_a) == snapshot(tl_b, fleet_b, boxes_b)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_capacity_exhaustion_skip_mode(self, policy):
        # high=1.0 disables evacuation so the fleet genuinely fills up.
        marks = dict(high_watermark=1.0, low_watermark=0.99)
        tl_a, fleet_a = build_fleet(policy, hosts=2, **marks)
        boxes_a = run_sequential(fleet_a, wave(80, images=2))
        assert any(box is None for box in boxes_a)
        tl_b, fleet_b = build_fleet(policy, hosts=2, **marks)
        boxes_b = fleet_b.place_many(wave(80, images=2), on_reject="skip")
        assert snapshot(tl_a, fleet_a, boxes_a) == snapshot(tl_b, fleet_b, boxes_b)

    @pytest.mark.parametrize("policy", POLICIES)
    def test_capacity_exhaustion_raise_mode(self, policy):
        marks = dict(high_watermark=1.0, low_watermark=0.99)
        tl_a, fleet_a = build_fleet(policy, hosts=2, **marks)
        err_a = None
        try:
            for name, image_id in wave(80, images=2):
                fleet_a.place(name, image_id)
        except FleetCapacityError as exc:
            err_a = str(exc)
        assert err_a is not None
        tl_b, fleet_b = build_fleet(policy, hosts=2, **marks)
        with pytest.raises(FleetCapacityError) as excinfo:
            fleet_b.place_many(wave(80, images=2))
        assert str(excinfo.value) == err_a
        assert tl_a.obs.journal.export_jsonl() == tl_b.obs.journal.export_jsonl()
        assert {h.host_id: sorted(h.residents) for h in fleet_a.host_list()} == {
            h.host_id: sorted(h.residents) for h in fleet_b.host_list()
        }


class TestPlaceManyApi:
    def test_accepts_request_objects_and_arrival_shapes(self):
        _, fleet = build_fleet("first-fit")
        boxes = fleet.place_many(
            [PlacementRequest(name="a", image_id="img"), ("b", "img")]
        )
        assert [box.name for box in boxes] == ["a", "b"]
        assert set(fleet.nymboxes) == {"a", "b"}

    def test_duplicate_name_raises(self):
        _, fleet = build_fleet("first-fit")
        fleet.place("dup", "img")
        with pytest.raises(FleetError):
            fleet.place_many([("dup", "img")])

    def test_unknown_reject_mode_raises(self):
        _, fleet = build_fleet("first-fit")
        with pytest.raises(FleetError):
            fleet.place_many([("a", "img")], on_reject="ignore")

    def test_empty_wave_is_a_noop(self):
        _, fleet = build_fleet("first-fit")
        assert fleet.place_many([]) == []
        assert fleet.placements == 0

    def test_non_batch_policy_falls_back_to_sequential_planning(self):
        class Weird(PlacementPolicy):
            name = "weird"

            def choose(self, candidates, image_id):
                return candidates[-1] if candidates else None

        tl_a, fleet_a = build_fleet(Weird())
        boxes_a = run_sequential(fleet_a, wave(10))
        tl_b, fleet_b = build_fleet(Weird())
        boxes_b = fleet_b.place_many(wave(10), on_reject="skip")
        assert snapshot(tl_a, fleet_a, boxes_a) == snapshot(tl_b, fleet_b, boxes_b)

    def test_results_align_with_requests(self):
        marks = dict(high_watermark=1.0, low_watermark=0.99)
        _, fleet = build_fleet("first-fit", hosts=1, **marks)
        requests = wave(40, images=1)
        boxes = fleet.place_many(requests, on_reject="skip")
        assert len(boxes) == len(requests)
        for (name, _), box in zip(requests, boxes):
            if box is not None:
                assert box.name == name


class TestRejectionAccountingAudit:
    """skip vs raise must agree with the sequential reference, rejection
    by rejection — counters, journal bytes, and cached verdicts alike."""

    MARKS = dict(high_watermark=1.0, low_watermark=0.99)  # no evacuation

    @staticmethod
    def _rejected_count(timeline):
        return timeline.obs.metrics.counter("fleet.admission_rejected").value

    @pytest.mark.parametrize("policy", POLICIES)
    def test_skip_mode_counter_matches_sequential(self, policy):
        requests = wave(80, images=2)
        tl_a, fleet_a = build_fleet(policy, hosts=2, **self.MARKS)
        boxes_a = run_sequential(fleet_a, requests)
        rejected = sum(1 for box in boxes_a if box is None)
        assert rejected > 0
        tl_b, fleet_b = build_fleet(policy, hosts=2, **self.MARKS)
        fleet_b.place_many(requests, on_reject="skip")
        assert self._rejected_count(tl_a) == rejected
        assert self._rejected_count(tl_b) == rejected
        assert tl_a.obs.journal.export_jsonl() == tl_b.obs.journal.export_jsonl()

    @pytest.mark.parametrize("policy", POLICIES)
    def test_raise_mode_counter_matches_sequential(self, policy):
        # The sequential reference stops at the first rejection; raise
        # mode must have counted exactly as many rejections (one) and
        # recorded exactly the same journal when it bailed.
        requests = wave(80, images=2)
        tl_a, fleet_a = build_fleet(policy, hosts=2, **self.MARKS)
        with pytest.raises(FleetCapacityError):
            for name, image_id in requests:
                fleet_a.place(name, image_id)
        tl_b, fleet_b = build_fleet(policy, hosts=2, **self.MARKS)
        with pytest.raises(FleetCapacityError):
            fleet_b.place_many(requests, on_reject="raise")
        assert self._rejected_count(tl_a) == self._rejected_count(tl_b) == 1
        assert tl_a.obs.journal.export_jsonl() == tl_b.obs.journal.export_jsonl()

    @pytest.mark.parametrize("policy", POLICIES)
    def test_mid_wave_capacity_error_leaves_caches_consistent(self, policy):
        # After place_many raises mid-wave, the change-driven admission
        # verdicts and every host's memory-snapshot cache must match a
        # fresh recomputation from live hypervisor state.
        from repro.perfbench.legacy import _seed_fleet_candidates

        tl, fleet = build_fleet(policy, hosts=2, **self.MARKS)
        with pytest.raises(FleetCapacityError):
            fleet.place_many(wave(80, images=2), on_reject="raise")
        for host in fleet.host_list():
            assert host.memory_snapshot() == host.hypervisor.memory_snapshot()
        assert [h.host_id for h in fleet._candidates()] == [
            h.host_id for h in _seed_fleet_candidates(fleet)
        ]

    @pytest.mark.parametrize("on_reject", ["skip", "raise"])
    def test_fleet_survives_mid_wave_rejection(self, on_reject):
        # The fleet must keep working after a rejected wave: freeing
        # space admits the next arrival, identically in both modes.
        tl, fleet = build_fleet("first-fit", hosts=2, **self.MARKS)
        requests = wave(80, images=2)
        if on_reject == "raise":
            with pytest.raises(FleetCapacityError):
                fleet.place_many(requests, on_reject="raise")
        else:
            fleet.place_many(requests, on_reject="skip")
        resident_before = len(fleet.nymboxes)
        victim = sorted(fleet.nymboxes)[0]
        fleet.remove(victim)
        box = fleet.place("late-arrival", "img-0")
        assert box is not None
        assert len(fleet.nymboxes) == resident_before
        with pytest.raises(FleetCapacityError):
            fleet.place("over-capacity", "img-0")


class TestIncrementalResidency:
    def test_image_counts_track_place_and_remove(self):
        _, fleet = build_fleet("ksm-aware")
        fleet.place_many([("a", "img-0"), ("b", "img-0"), ("c", "img-1")])
        counts = {}
        for host in fleet.host_list():
            for image, count in host.image_counts().items():
                counts[image] = counts.get(image, 0) + count
        assert counts == {"img-0": 2, "img-1": 1}
        fleet.remove("a")
        fleet.remove("c")
        counts = {}
        for host in fleet.host_list():
            for image, count in host.image_counts().items():
                counts[image] = counts.get(image, 0) + count
        assert counts == {"img-0": 1}

    def test_host_images_derive_from_residents(self):
        _, fleet = build_fleet("ksm-aware")
        fleet.place_many([("a", "img-0"), ("b", "img-1")])
        for host in fleet.host_list():
            expected = {box.image_id for box in host.residents.values()}
            assert host.images() == expected
            for image in expected:
                assert host.image_count(image) >= 1
