"""Tenancy enforced through the fleet: admission verdicts, journal
byte-equality, rolling drains, autoscaling, and the `repro tenants`
scenario.

The correctness oracle throughout is the event journal: tenancy that is
enabled but unlimited must be byte-invisible, and every enforcement
decision (quota, rate, reconciliation boundary, chaos drain) must land
identically on same-seed reruns.
"""

import filecmp
import json

import pytest

from repro.cli import main
from repro.errors import (
    FleetCapacityError,
    TenantQuotaError,
    TenantRateLimitError,
)
from repro.fleet import Fleet, FleetNymbox
from repro.sim.clock import Timeline
from repro.tenancy.autoscale import Autoscaler
from repro.tenancy.policy import (
    AutoscalePolicy,
    FleetPolicies,
    QuotaPolicy,
    RateLimitPolicy,
    TenantPolicy,
)
from repro.tenancy.scenario import run_tenants
from repro.vmm.hypervisor import HostSpec
from repro.vmm.vm import MIB
from repro.workloads.fleet import tenant_workload

GIB = 1024 * MIB

#: Small hosts: RAM admits ~6 nymboxes, the 0.9 watermark ~4.
SMALL_HOST = HostSpec(ram_bytes=4 * GIB, host_base_ram_bytes=1 * GIB)


def make_fleet(hosts=3, tenants=(), seed=11, **kw):
    timeline = Timeline(seed=seed)
    policies = FleetPolicies(tenants=tuple(tenants), **kw.pop("policy_kw", {}))
    fleet = Fleet(timeline, hosts=hosts, policies=policies,
                  host_spec=SMALL_HOST, **kw)
    return timeline, fleet


class TestTenantAdmission:
    def test_quota_rejection_is_typed_and_counted(self):
        _, fleet = make_fleet(
            tenants=[TenantPolicy("acme", quota=QuotaPolicy(max_nyms=1))]
        )
        fleet.place("a0", "img", tenant="acme")
        with pytest.raises(TenantQuotaError, match="acme"):
            fleet.place("a1", "img", tenant="acme")
        assert fleet.tenancy.account("acme").rejected_quota == 1
        # Other tenants and untenanted arrivals are unaffected.
        fleet.place("b0", "img", tenant="beta")
        fleet.place("free", "img")

    def test_rate_rejection_recovers_with_sim_time(self):
        timeline, fleet = make_fleet(
            tenants=[
                TenantPolicy(
                    "acme",
                    rate=RateLimitPolicy(launch_rate_per_s=0.1, launch_burst=1.0),
                )
            ]
        )
        fleet.place("a0", "img", tenant="acme")
        with pytest.raises(TenantRateLimitError, match="acme"):
            fleet.place("a1", "img", tenant="acme")
        timeline.sleep(10.0)  # one fresh launch token
        fleet.place("a1", "img", tenant="acme")
        assert fleet.tenancy.account("acme").rejected_rate == 1

    def test_removal_returns_quota_headroom(self):
        _, fleet = make_fleet(
            tenants=[TenantPolicy("acme", quota=QuotaPolicy(max_nyms=1))]
        )
        fleet.place("a0", "img", tenant="acme")
        fleet.remove("a0")
        fleet.place("a1", "img", tenant="acme")  # quota slot came back
        assert fleet.tenancy.account("acme").nyms == 1


class TestInterleavedRejections:
    """One arrival stream admitted through a ``place`` loop: each rejected
    arrival raises its own typed error, and the arrivals after it still
    get their own verdicts."""

    @staticmethod
    def admit(fleet, stream):
        """Place each arrival; map its name to its box or its error type."""
        outcomes = {}
        for name, image_id, tenant in stream:
            try:
                outcomes[name] = fleet.place(name, image_id, tenant=tenant)
            except FleetCapacityError as exc:
                outcomes[name] = type(exc)
        return outcomes

    def test_quota_rate_and_capacity_rejections_in_one_stream(self):
        timeline, fleet = make_fleet(
            hosts=1,
            tenants=[
                TenantPolicy("q", quota=QuotaPolicy(max_nyms=1)),
                TenantPolicy(
                    "r",
                    rate=RateLimitPolicy(launch_rate_per_s=0.001, launch_burst=1.0),
                ),
            ],
            policy_kw=dict(high_watermark=1.0, low_watermark=0.99),
        )
        stream = [
            (f"{tenant}{i}", "img", tenant)
            for i in range(5)
            for tenant in ("q", "r", "c")
        ]
        outcomes = self.admit(fleet, stream)
        assert isinstance(outcomes["q0"], FleetNymbox)
        assert isinstance(outcomes["r0"], FleetNymbox)
        # Tenant verdicts come before capacity: q and r keep getting
        # their own rejections after the single small host is full.
        assert [outcomes[f"q{i}"] for i in range(1, 5)] == [TenantQuotaError] * 4
        assert [outcomes[f"r{i}"] for i in range(1, 5)] == [TenantRateLimitError] * 4
        # The unlimited tenant c lands until the host fills, then gets
        # plain capacity rejections.
        c = [outcomes[f"c{i}"] for i in range(5)]
        placed = sum(isinstance(o, FleetNymbox) for o in c)
        assert 0 < placed < 5
        assert c[placed:] == [FleetCapacityError] * (5 - placed)
        account = fleet.tenancy.account
        assert (account("q").admitted, account("q").rejected_quota) == (1, 4)
        assert (account("r").admitted, account("r").rejected_rate) == (1, 4)
        assert (account("c").admitted, account("c").rejected_capacity) == (
            placed, 5 - placed,
        )
        rejected = timeline.obs.metrics.counter("fleet.admission_rejected")
        assert rejected.value == 5 - placed

    def test_quota_exhaustion_spares_other_tenants(self):
        _, fleet = make_fleet(
            hosts=2,
            tenants=[TenantPolicy("q", quota=QuotaPolicy(max_nyms=2))],
        )
        stream = [(f"n{i}", "img", "q" if i % 2 == 0 else "other") for i in range(8)]
        outcomes = self.admit(fleet, stream)
        # q fills its two slots, then every further q arrival bounces;
        # the interleaved other-tenant arrivals all land.
        admitted = [n for n, o in outcomes.items() if isinstance(o, FleetNymbox)]
        assert admitted == ["n0", "n1", "n2", "n3", "n5", "n7"]
        assert outcomes["n4"] is outcomes["n6"] is TenantQuotaError
        assert fleet.tenancy.account("q").rejected_quota == 2
        assert fleet.tenancy.account("other").admitted == 4


class TestJournalNeutrality:
    def test_enabled_but_unlimited_equals_disabled(self):
        def run(tenanted: bool) -> str:
            timeline = Timeline(seed=21)
            if tenanted:
                timeline.tenancy.apply_initial([TenantPolicy("ghost")])
            fleet = Fleet(timeline, hosts=2, policies=FleetPolicies(),
                          host_spec=SMALL_HOST)
            for i in range(6):
                fleet.place(
                    f"n{i}", f"img-{i % 2}",
                    tenant="ghost" if tenanted else "",
                )
            fleet.touch("n0", 8 * MIB)
            fleet.drain_host("host-0")
            fleet.settle_ksm()
            return timeline.obs.journal.export_jsonl()

        assert run(tenanted=False) == run(tenanted=True)

    def test_reconciliation_boundary_is_deterministic(self):
        def run() -> str:
            timeline, fleet = make_fleet(
                hosts=2,
                tenants=[TenantPolicy("q", quota=QuotaPolicy(max_nyms=1))],
            )
            registry = fleet.tenancy
            fleet.place("q0", "img", tenant="q")
            timeline.sleep(3.3)
            registry.commit(
                TenantPolicy("q", quota=QuotaPolicy(max_nyms=3))
            )
            with pytest.raises(TenantQuotaError):
                fleet.place("early", "img", tenant="q")  # old ceiling
            registry.wait_reconciled()
            fleet.place("late", "img", tenant="q")  # new ceiling
            return timeline.obs.journal.export_jsonl()

        assert run() == run()


class TestRollingDrain:
    def _loaded_fleet(self, hosts=4, nyms=10):
        timeline, fleet = make_fleet(hosts=hosts, tenants=[TenantPolicy("t")])
        for i in range(nyms):
            fleet.place(f"n{i}", f"img-{i % 2}", tenant="t")
        return timeline, fleet

    def test_drain_and_undrain_cycle(self):
        _, fleet = self._loaded_fleet()
        drained = fleet.drain_host("host-0")
        assert drained == "host-0"
        host = fleet.hosts["host-0"]
        assert host.draining and not host.residents
        assert fleet.stats().hosts_draining == 1
        # Nobody placed on a draining host.
        fleet.place("fresh", "img-0", tenant="t")
        assert fleet.nymboxes["fresh"].host_id != "host-0"
        fleet.undrain_host("host-0")
        assert not fleet.hosts["host-0"].draining
        assert fleet.stats().hosts_draining == 0

    def test_rolling_drain_loses_zero_nyms(self):
        timeline, fleet = self._loaded_fleet(hosts=4, nyms=10)
        before = sorted(fleet.nymboxes)
        report = fleet.rolling_drain(count=3, upgrade_s=5.0)
        assert report.lost == 0
        assert report.parked == 0
        assert report.evacuated == report.relaunched
        assert sorted(fleet.nymboxes) == before
        assert len(report.hosts) == 3
        # return_to_service=True: every drained host is serving again.
        assert fleet.stats().hosts_draining == 0
        assert fleet.stats().host_drains == 3
        assert fleet.tenancy.account("t").evacuations == report.evacuated

    def test_rolling_drain_without_return_keeps_hosts_out(self):
        _, fleet = self._loaded_fleet(hosts=4, nyms=6)
        report = fleet.rolling_drain(
            host_ids=["host-1", "host-2"], return_to_service=False
        )
        assert report.hosts == ("host-1", "host-2")
        assert report.lost == 0
        assert fleet.stats().hosts_draining == 2

    def test_rolling_drain_is_deterministic(self):
        def run() -> str:
            timeline, fleet = self._loaded_fleet(hosts=4, nyms=10)
            fleet.rolling_drain(count=3, upgrade_s=5.0)
            return timeline.obs.journal.export_jsonl()

        assert run() == run()


class TestAutoscaler:
    # Thresholds sit between measured utilization plateaus for SMALL_HOST:
    # one empty host idles at 0.25, three nyms push it to 0.625, and two
    # hosts holding one nym sit at 0.3125.
    POLICY = AutoscalePolicy(
        min_hosts=1, max_hosts=2, scale_up_pressure=0.6,
        scale_down_pressure=0.32, interval_s=10.0,
    )

    def _fleet(self):
        timeline = Timeline(seed=13)
        fleet = Fleet(
            timeline, hosts=1,
            policies=FleetPolicies(autoscale=self.POLICY),
            host_spec=SMALL_HOST,
        )
        return timeline, fleet

    def test_scale_up_then_down(self):
        timeline, fleet = self._fleet()
        assert isinstance(fleet.autoscaler, Autoscaler)
        # Drive decisions by hand: placements advance sim time past the
        # tick interval, so the periodic tick would otherwise act first.
        fleet.autoscaler.stop()
        for i in range(3):
            fleet.place(f"n{i}", "img")
        assert fleet.autoscaler.evaluate() == "up"
        assert len(fleet.serving_hosts()) == 2
        assert timeline.obs.journal.count("tenancy.scale_up") == 1
        for i in range(3):
            fleet.remove(f"n{i}")
        assert fleet.autoscaler.evaluate() == "down"
        assert len(fleet.serving_hosts()) == 1
        assert timeline.obs.journal.count("tenancy.scale_down") == 1
        assert (fleet.autoscaler.scale_ups, fleet.autoscaler.scale_downs) == (1, 1)

    def test_periodic_tick_scales_without_manual_calls(self):
        timeline, fleet = self._fleet()
        for i in range(3):
            fleet.place(f"n{i}", "img")
        timeline.sleep(self.POLICY.interval_s + 1.0)
        assert len(fleet.serving_hosts()) == 2
        fleet.autoscaler.stop()

    def test_scale_down_prefers_the_empty_host(self):
        timeline, fleet = self._fleet()
        fleet.autoscaler.stop()
        fleet.place("keeper", "img")
        fleet.add_hosts(1)
        assert fleet.autoscaler.evaluate() == "down"
        # The emptiest host went away; the resident never had to move.
        assert len(fleet.serving_hosts()) == 1
        assert fleet.nymboxes["keeper"].host_id == "host-0"

    def test_scale_down_spares_the_host_a_placement_is_booting_on(self):
        # The first tick fires inside n0's boot on the then-empty host-0.
        timeline = Timeline(seed=1)
        fleet = Fleet(
            timeline, hosts=4, host_spec=HostSpec(ram_bytes=4 * GIB),
            policies=FleetPolicies(
                placement="least-loaded",
                autoscale=AutoscalePolicy(
                    min_hosts=3, scale_down_pressure=0.5, interval_s=5.0
                ),
            ),
        )
        box = fleet.place("n0", "img-a")
        assert timeline.now > 5.0
        assert timeline.obs.journal.count("tenancy.scale_down") == 1
        assert box.host_id == "host-0"
        assert box.host_id in fleet.hosts
        assert fleet.hosts["host-0"].booting == 0
        fleet.remove("n0")
        fleet.autoscaler.stop()

    def test_no_autoscale_policy_means_no_scaler_no_events(self):
        timeline, fleet = make_fleet(hosts=1)
        assert fleet.autoscaler is None
        timeline.sleep(60.0)
        assert timeline.obs.journal.count("tenancy.scale_up") == 0


class TestTenantWorkload:
    def test_attribution_is_deterministic_and_weighted(self):
        a = tenant_workload(Timeline(seed=4).fork_rng("w"), 60, ["x", "y"])
        b = tenant_workload(Timeline(seed=4).fork_rng("w"), 60, ["x", "y"])
        assert a == b
        tenants = {arrival.tenant for arrival in a}
        assert tenants == {"x", "y"}


class TestRunTenantsScenario:
    QUICK = dict(hosts=8, nyms=48, drain_hosts=2)

    def test_report_covers_the_acceptance_story(self, tmp_path):
        report = run_tenants(
            seed=3, out_path=str(tmp_path / "bench.json"), **self.QUICK
        )
        alpha = report.tenant("alpha")
        beta = report.tenant("beta")
        assert alpha["rejected_quota"] > 0  # over its nym ceiling
        assert beta["rejected_rate"] > 0  # launch bucket ran dry
        assert beta["throttled"] > 0  # ingress debt became delay
        assert report.zero_lost
        assert report.drain.lost == 0
        assert len(report.drain.hosts) == 2
        assert report.reconciles == 1  # the mid-run quota doubling
        payload = json.loads((tmp_path / "bench.json").read_text())
        assert payload["bench"] == "tenants"
        assert payload["zero_lost"] is True
        assert {row["tenant"] for row in payload["tenants"]} == {"alpha", "beta"}

    def test_mid_run_update_doubles_the_quota(self, tmp_path):
        report = run_tenants(
            seed=3, out_path=str(tmp_path / "bench.json"), **self.QUICK
        )
        # Default alpha ceiling for 48 nyms is 4; the boundary doubled it,
        # so more than 4 alpha nyms were ultimately admitted.
        assert report.tenant("alpha")["admitted"] > 4

    @pytest.mark.parametrize("chaos", [False, True])
    def test_same_seed_journals_byte_identical(self, tmp_path, chaos):
        paths = []
        for tag in ("a", "b"):
            path = tmp_path / f"{tag}.jsonl"
            report = run_tenants(
                seed=7, chaos=chaos, journal_path=str(path),
                out_path=str(tmp_path / f"{tag}.json"), **self.QUICK
            )
            assert report.zero_lost
            paths.append(path)
        assert filecmp.cmp(*map(str, paths), shallow=False)

    def test_chaos_delivers_drain_during_crash(self, tmp_path):
        report = run_tenants(
            seed=7, chaos=True, out_path=str(tmp_path / "bench.json"),
            **self.QUICK
        )
        outcomes = {f["kind"]: f["outcome"] for f in report.faults}
        assert outcomes["tenancy.tenant_burst"] == "burst"
        assert outcomes["fleet.host_drain"] == "host_drained"
        assert outcomes["fleet.host_crash"] == "host_crashed"
        assert report.zero_lost


#: Config keys only ``repro tenants`` reads: its fleet takes them.
FLEET_ONLY_KEYS = {
    "high_watermark": 0.5, "low_watermark": 0.4,
    "autoscale": {"min_hosts": 1, "max_hosts": 4},
}


class TestTenantsCli:
    def test_tenants_quick_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["--seed", "3", "tenants", "--quick", "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["bench"] == "tenants"
        assert payload["zero_lost"] is True

    def test_tenant_config_drives_the_run(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "tenants.json"
        config.write_text(json.dumps({
            "tenants": [
                {"name": "acme", "quota": {"max_nyms": 2}, "qos": "bronze"},
                {"name": "globex", "qos": "gold"},
            ]
        }))
        code = main([
            "--seed", "3", "tenants", "--quick", "--json",
            "--tenant-config", str(config),
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert {row["tenant"] for row in payload["tenants"]} == {"acme", "globex"}

    def test_bad_tenant_config_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([
                "tenants", "--quick",
                "--tenant-config", str(tmp_path / "missing.json"),
            ])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "command, keys",
        [
            # --policy picks placement: no command reads it from the file.
            ("tenants", {"placement": "ksm-aware"}),
            ("chaos", {"placement": "ksm-aware"}),
            ("sweep", {"placement": "ksm-aware"}),
            # chaos and sweep read the tenants alone.
            ("chaos", FLEET_ONLY_KEYS),
            ("sweep", FLEET_ONLY_KEYS),
        ],
        ids=["tenants-placement", "chaos-placement", "sweep-placement",
             "chaos-fleet-keys", "sweep-fleet-keys"],
    )
    def test_a_key_the_command_does_not_read_exits_2_before_any_nym(
        self, tmp_path, capsys, monkeypatch, command, keys
    ):
        from repro.core.manager import NymManager

        def no_nym(*args, **kwargs):
            raise AssertionError("a nym was created")

        monkeypatch.setattr(NymManager, "create_nym", no_nym)
        config = tmp_path / "tenants.json"
        config.write_text(json.dumps({"tenants": [{"name": "acme"}], **keys}))
        journal = tmp_path / "journal.jsonl"
        with pytest.raises(SystemExit) as excinfo:
            main([
                command, "--quick", "--tenant-config", str(config),
                "--journal", str(journal),
            ])
        assert excinfo.value.code == 2
        assert f"unknown tenant-config keys: {sorted(keys)}" in capsys.readouterr().err
        assert not journal.exists()
