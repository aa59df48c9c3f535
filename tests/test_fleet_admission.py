"""Change-driven admission must admit exactly like the full host walk.

`Fleet._candidates` re-derives verdicts only for hosts that reported an
accounting change or that joined, crashed, or changed drain state.  These
tests drive fleets through crashes, drains, autoscale joins and
removals, saturation with parked nyms, and hypervisors mutated directly
behind the fleet's back, then require byte-identical journals against
the same runs admitting through the frozen per-arrival walk
(`perfbench.legacy._seed_fleet_candidates`).

Fleets start with eleven hosts so host ids keep one width (``host-00``
... ``host-10``, and joins from ``host-11``): the frozen walk's id-sorted
order then stays the fleet's join order.
"""

from dataclasses import replace

import pytest

from repro.errors import FleetCapacityError
from repro.fleet.fleet import Fleet
from repro.perfbench.legacy import _seed_fleet_candidates
from repro.sim.clock import Timeline
from repro.tenancy.policy import AutoscalePolicy, FleetPolicies
from repro.vmm.hypervisor import HostSpec
from repro.vmm.vm import MIB, VmSpec
from repro.workloads.fleet import fleet_workload

POLICIES = ["first-fit", "least-loaded", "ksm-aware"]
GIB = 1024 * MIB


def _behind_the_back(fleet):
    """Grab half the busiest host's free RAM and write to a rogue VM's
    tmpfs, straight on its hypervisor: the fleet is never told."""
    host = max(fleet.serving_hosts(), key=lambda h: (len(h.residents), h.host_id))
    hv = host.hypervisor
    hv.memory.allocate_guest("rogue", (host.total_bytes - host.used_bytes) // 2)
    vm = hv.create_vm(VmSpec.commvm(), name="rogue-vm")
    vm.fs.write("/rogue/cache", b"r" * (4 * MIB))
    return host, vm


def _release(host, vm):
    host.hypervisor.memory.release_guest("rogue")
    host.hypervisor.destroy_vm(vm)


def run_shape(shape, policy, seed=31):
    """Drive one fleet shape; returns (journal, residency, stats)."""
    timeline = Timeline(seed=seed)
    autoscale = None
    host_spec = None
    high, low = 0.90, 0.80
    nyms = 90
    if shape == "saturated":
        host_spec = HostSpec(ram_bytes=4 * GIB)
        high, low = 0.70, 0.60
        nyms = 160
    elif shape == "autoscale":
        host_spec = HostSpec(ram_bytes=4 * GIB)
        # Scale-down only after the arrivals (min_hosts is the starting
        # size): a scale-down tick firing inside a placement's boot may
        # remove the very host that placement is booting on.
        autoscale = AutoscalePolicy(
            min_hosts=11, max_hosts=24, scale_up_pressure=0.6,
            scale_down_pressure=0.3, step=2, interval_s=4.0,
        )
    fleet = Fleet(
        timeline,
        hosts=11,
        host_spec=host_spec,
        policies=FleetPolicies(
            placement=policy, high_watermark=high, low_watermark=low,
            autoscale=autoscale,
        ),
    )
    arrivals = fleet_workload(timeline.fork_rng("test.workload"), nyms)
    rogue = None
    drained = None
    for index, arrival in enumerate(arrivals):
        timeline.sleep(arrival.interarrival_s)
        try:
            fleet.place(arrival.name, arrival.image_id)
        except FleetCapacityError:
            pass
        else:
            # A saturated fleet may bounce the newest nym straight off.
            if arrival.churn_bytes and arrival.name in fleet.nymboxes:
                fleet.touch(arrival.name, arrival.churn_bytes)
        if index == nyms // 6:
            rogue = _behind_the_back(fleet)
        elif index == nyms // 4:
            fleet.crash_host()
        elif index == nyms // 3:
            drained = fleet.drain_host()
        elif index == nyms // 2:
            fleet.undrain_host(drained)
            if not rogue[0].crashed:
                _release(*rogue)
        elif index == 2 * nyms // 3 and fleet.autoscaler is None:
            fleet.add_hosts(2)
        elif index == 3 * nyms // 4 and fleet.autoscaler is None:
            for name in sorted(fleet.nymboxes)[::2]:
                fleet.remove(name)
        if index % 15 == 14:
            fleet.settle_ksm()
    if fleet.autoscaler is not None:
        for name in sorted(fleet.nymboxes)[::2]:
            fleet.remove(name)
        fleet.autoscaler.policy = replace(
            fleet.autoscaler.policy, min_hosts=4, scale_down_pressure=0.5
        )
        timeline.sleep(60.0)  # idle ticks: drain and remove hosts
        fleet.autoscaler.stop()
    fleet.settle_ksm()
    residency = {h.host_id: h.resident_names() for h in fleet.host_list()}
    return timeline.obs.journal.export_jsonl(), residency, fleet.stats().export()


class TestAdmissionMatchesFullWalk:
    @pytest.mark.parametrize("shape", ["churn", "saturated", "autoscale"])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_journals_match_frozen_walk(self, shape, policy, monkeypatch):
        live = run_shape(shape, policy)
        monkeypatch.setattr(Fleet, "_candidates", _seed_fleet_candidates)
        frozen = run_shape(shape, policy)
        assert live[1] == frozen[1]
        assert live[2] == frozen[2]
        assert live[0] == frozen[0]

    def test_shapes_reach_the_paths_they_claim(self):
        """Guard against the shapes going soft: the saturated one must
        park nyms and turn arrivals away, the autoscaled one must both
        join and remove hosts, and every shape must evacuate."""
        _, _, stats = run_shape("churn", "first-fit")
        assert stats["evacuations"] > 0 and stats["host_drains"] == 1
        _, _, stats = run_shape("saturated", "first-fit")
        assert stats["nyms_parked"] > 0 and stats["host_crashes"] == 1
        assert stats["placements"] < 160  # the rest were rejected
        journal, _, stats = run_shape("autoscale", "ksm-aware")
        assert '"fleet.host_join"' in journal and '"fleet.host_leave"' in journal
        assert stats["evacuations"] > 0


class TestChangeDrivenVerdicts:
    def test_tmpfs_write_behind_the_back_flips_calm(self):
        # The tmpfs delta listener is the only signal here: no guest
        # memory changes, only writable-FS bytes.
        def build(high):
            timeline = Timeline(seed=3)
            fleet = Fleet(
                timeline, hosts=2,
                policies=FleetPolicies(high_watermark=high, low_watermark=0.05),
            )
            host = fleet.hosts["host-0"]
            vm = host.hypervisor.create_vm(VmSpec.commvm(), name="rogue")
            return fleet, host, vm

        fleet, host, _ = build(0.9)
        margin = 2 * MIB
        high = (host.used_bytes + fleet.footprint_bytes + margin) / host.total_bytes
        fleet, host, vm = build(high)
        assert [h.host_id for h in fleet._candidates()] == ["host-0", "host-1"]
        vm.fs.write("/rogue/cache", b"r" * (2 * margin))
        assert "host-0" in fleet._stale_hosts
        assert [h.host_id for h in fleet._candidates()] == ["host-1"]
        assert [h.host_id for h in fleet._candidates()] == [
            h.host_id for h in _seed_fleet_candidates(fleet)
        ]

    def test_untouched_hosts_are_not_reevaluated(self):
        timeline = Timeline(seed=5)
        fleet = Fleet(timeline, hosts=8, policies=FleetPolicies())
        fleet.place("nym-a", "img")
        fleet._candidates()
        assert not fleet._stale_hosts
        fleet.place("nym-b", "img")
        # Only the host that took nym-b has changed since.
        assert list(fleet._stale_hosts) == [fleet.nymboxes["nym-b"].host_id]

    def test_removed_host_stops_reporting(self):
        timeline = Timeline(seed=5)
        fleet = Fleet(timeline, hosts=3, policies=FleetPolicies())
        host = fleet.hosts["host-2"]
        fleet.drain_host("host-2", remove=True)
        assert [h.host_id for h in fleet._candidates()] == ["host-0", "host-1"]
        host.hypervisor.memory.allocate_guest("late", 64 * MIB)
        assert "host-2" not in fleet._stale_hosts

    def test_checkpointed_fleet_keeps_reporting(self):
        # Checkpoints pickle the fleet with its hypervisors: their
        # listeners must still feed the unpickled fleet's stale set.
        import pickle

        timeline = Timeline(seed=5)
        fleet = Fleet(timeline, hosts=3, policies=FleetPolicies())
        fleet.place("nym-a", "img")
        fleet._candidates()
        fleet = pickle.loads(pickle.dumps(fleet))
        fleet.hosts["host-1"].hypervisor.memory.allocate_guest("late", 64 * MIB)
        assert list(fleet._stale_hosts) == ["host-1"]
