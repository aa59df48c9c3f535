"""repro.fleet: placement policies, watermarks, evacuation, determinism."""

import json

import pytest

from repro.errors import FleetCapacityError, FleetError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, FaultSpec
from repro.fleet import Fleet, make_policy, run_fleet
from repro.fleet.placement import PLACEMENT_POLICIES
from repro.sim.clock import Timeline
from repro.tenancy.policy import FleetPolicies
from repro.vmm.hypervisor import HostSpec
from repro.vmm.vm import MIB

GIB = 1024 * MIB

#: Small hosts: RAM admits ~6 nymboxes, the 0.9 watermark ~4.
SMALL_HOST = HostSpec(ram_bytes=4 * GIB, host_base_ram_bytes=1 * GIB)


def make_fleet(hosts=3, policy="first-fit", host_spec=SMALL_HOST, seed=11,
               policies=None, **kw):
    if policies is None:
        policies = FleetPolicies(placement=policy)
    return Fleet(Timeline(seed=seed), hosts=hosts, policies=policies,
                 host_spec=host_spec, **kw)


class TestPolicies:
    def test_registry_and_unknown_policy(self):
        assert set(PLACEMENT_POLICIES) == {"first-fit", "least-loaded", "ksm-aware"}
        with pytest.raises(FleetError, match="unknown placement policy"):
            make_policy("round-robin")

    def test_first_fit_packs_the_front(self):
        fleet = make_fleet(policy="first-fit")
        for i, image in enumerate(["img-a", "img-b", "img-a"]):
            fleet.place(f"n{i}", image)
        assert {b.host_id for b in fleet.nymboxes.values()} == {"host-0"}

    def test_least_loaded_spreads(self):
        fleet = make_fleet(policy="least-loaded")
        for i in range(3):
            fleet.place(f"n{i}", "img-a")
        assert sorted(b.host_id for b in fleet.nymboxes.values()) == [
            "host-0", "host-1", "host-2",
        ]

    def test_ksm_aware_builds_image_colonies(self):
        fleet = make_fleet(hosts=4, policy="ksm-aware")
        for i, image in enumerate(["img-a", "img-a", "img-b", "img-b"]):
            fleet.place(f"n{i}", image)
        by_image = {}
        for box in fleet.nymboxes.values():
            by_image.setdefault(box.image_id, set()).add(box.host_id)
        # Each image sits on exactly one host, and the two differ.
        assert all(len(hosts) == 1 for hosts in by_image.values())
        assert by_image["img-a"] != by_image["img-b"]
        assert fleet.host_image_pairs() == 2

    def test_ksm_aware_saves_more_than_first_fit(self):
        """The acceptance property on a crafted 3-image interleaved mix."""

        def run(policy):
            fleet = make_fleet(hosts=3, policy=policy, seed=5)
            images = ["img-a", "img-b", "img-c"]
            for i in range(12):
                fleet.place(f"n{i}", images[i % 3])
            fleet.settle_ksm()
            return fleet

        aware = run("ksm-aware")
        first = run("first-fit")
        assert aware.stats().nyms_resident == first.stats().nyms_resident == 12
        assert aware.host_image_pairs() < first.host_image_pairs()
        assert aware.stats().ksm_saved_bytes > first.stats().ksm_saved_bytes


class TestAdmissionAndWatermarks:
    def test_admission_control_rejects_when_no_host_admits(self):
        fleet = make_fleet(hosts=1)
        fleet.place("n0", "img-a")
        fleet.crash_host("host-0")
        with pytest.raises(FleetCapacityError):
            fleet.place("n1", "img-a")
        assert fleet.timeline.obs.metrics.counter("fleet.admission_rejected").export() >= 1

    def test_overfull_fleet_parks_rather_than_overcommits(self):
        # One small host: placements beyond the watermark keep parking
        # the newest nym, so residency never overcommits the host.
        fleet = make_fleet(hosts=1)
        for i in range(12):
            fleet.place(f"n{i}", "img-a")
        assert fleet.parked
        assert len(fleet.nymboxes) + len(fleet.parked) == 12

    def test_pressure_evacuation_fires_on_an_overfull_host(self):
        # One host: the watermark breach has nowhere to evacuate to, so
        # the nym parks in storage after retries — deterministically.
        fleet = make_fleet(hosts=1)
        for i in range(6):
            fleet.place(f"n{i}", "img-a")
        assert fleet.evacuations >= 1
        assert fleet.parked  # no second host: evacuees end up stored
        events = [e.name for e in fleet.timeline.obs.journal.events]
        assert "fleet.pressure" in events
        assert "fleet.evacuate" in events
        assert "fleet.parked" in events

    def test_watermark_aware_placement_avoids_hot_hosts(self):
        # With a second host available, placements spill over instead of
        # pushing host-0 past the high watermark.
        fleet = make_fleet(hosts=2, policy="first-fit")
        for i in range(8):
            fleet.place(f"n{i}", "img-a")
        assert fleet.evacuations == 0
        assert all(
            h.pressure <= fleet.high_watermark for h in fleet.host_list()
        )
        assert len({b.host_id for b in fleet.nymboxes.values()}) == 2

    def test_invalid_watermarks_rejected(self):
        with pytest.raises(FleetError):
            make_fleet(policies=FleetPolicies(
                high_watermark=0.5, low_watermark=0.8))


class TestHostCrash:
    def test_crash_relaunches_residents_elsewhere(self):
        fleet = make_fleet(hosts=3, policy="least-loaded")
        for i in range(6):
            fleet.place(f"n{i}", "img-a")
        victims = sorted(fleet.hosts["host-1"].residents)
        assert victims
        crashed = fleet.crash_host("host-1")
        assert crashed == "host-1"
        assert fleet.hosts["host-1"].crashed
        assert fleet.hosts["host-1"].residents == {}
        for name in victims:
            box = fleet.nymboxes[name]
            assert box.host_id != "host-1"
            assert box.moves == 1
        assert len(fleet.nymboxes) == 6  # nobody lost

    def test_crash_carries_churned_state(self):
        fleet = make_fleet(hosts=2, policy="least-loaded")
        fleet.place("busy", "img-a")
        fleet.touch("busy", 32 * MIB)
        source = fleet.nymboxes["busy"].host_id
        fleet.crash_host(source)
        box = fleet.nymboxes["busy"]
        assert box.host_id != source
        assert box.extra_dirty_bytes == 32 * MIB

    def test_crash_empty_target_picks_fullest_host(self):
        fleet = make_fleet(hosts=2, policy="first-fit")
        for i in range(3):
            fleet.place(f"n{i}", "img-a")
        assert fleet.crash_host() == "host-0"

    def test_crash_all_hosts_parks_nyms(self):
        fleet = make_fleet(hosts=1)
        fleet.place("doomed", "img-a")
        fleet.crash_host("host-0")
        assert fleet.nymboxes == {}
        assert fleet.parked == ["doomed"]

    def test_host_crash_fault_kind_fires_through_injector(self):
        timeline = Timeline(seed=3)
        fleet = Fleet(timeline, hosts=2,
                      policies=FleetPolicies(placement="least-loaded"),
                      host_spec=SMALL_HOST)
        plan = FaultPlan([FaultSpec(at_s=5.0, kind="fleet.host_crash")])
        injector = FaultInjector(timeline, plan).arm(manager=fleet)
        fleet.place("n0", "img-a")
        fleet.place("n1", "img-a")
        timeline.sleep(30.0)
        assert fleet.crashes == 1
        assert injector.injected[0]["outcome"] == "host_crashed"
        assert len(fleet.nymboxes) == 2  # both survived or relocated

    def test_seeded_plan_can_include_host_crashes(self, rng):
        plan = FaultPlan.seeded(rng, duration_s=100.0, host_crashes=3)
        assert len(plan.by_kind("fleet.host_crash")) == 3


class TestScenario:
    def test_run_fleet_writes_report_and_is_deterministic(self, tmp_path):
        out = tmp_path / "BENCH_fleet.json"
        journals = []
        for tag in ("a", "b"):
            path = tmp_path / f"{tag}.jsonl"
            run_fleet(seed=7, hosts=4, nyms=16, policy="ksm-aware",
                      host_crashes=1, compare=False,
                      journal_path=str(path), out_path=str(out))
            journals.append(path.read_bytes())
        assert journals[0] == journals[1]
        payload = json.loads(out.read_text())
        assert payload["hosts"] == 4
        assert payload["results"][0]["policy"] == "ksm-aware"
        assert payload["results"][0]["nyms_resident"] == 16

    def test_run_fleet_compares_all_policies(self, tmp_path):
        # Enough nyms that no single host can hold a whole image colony:
        # only then does placement change what KSM can merge.
        out = tmp_path / "bench.json"
        report = run_fleet(seed=7, hosts=4, nyms=96, out_path=str(out))
        assert [r.policy for r in report.results] == [
            "ksm-aware", "first-fit", "least-loaded",
        ]
        # Identical workloads: every policy placed the same nym count.
        placed = {r.stats.placements for r in report.results}
        assert len(placed) == 1
        assert report.ksm_aware_beats_first_fit
