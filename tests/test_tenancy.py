"""repro.tenancy: policy objects, rate limiters, and the tenant registry.

The load-bearing properties: policies are frozen declarative values with
all validation at construction; the limiter primitives are pure functions
of (state, now, cost); and registry mutations reconcile at deterministic
sim-time boundaries so same-seed runs stay byte-identical.
"""

import pytest

from repro.api import NymixSession, TenantControl
from repro.core.config import NymixConfig
from repro.errors import TenancyError
from repro.sim.clock import Timeline
from repro.tenancy.limiter import PriorityLink, TokenBucket
from repro.tenancy.policy import (
    BRONZE,
    GOLD,
    QOS_CLASSES,
    SILVER,
    UNLIMITED,
    AutoscalePolicy,
    FleetPolicies,
    QosClass,
    QuotaPolicy,
    RateLimitPolicy,
    TenantPolicy,
    load_tenant_config,
    policies_from_dict,
    tenant_from_dict,
)
from repro.tenancy.registry import (
    NULL_TENANCY,
    REASON_QUOTA,
    REASON_RATE,
    TenantRegistry,
)

MIB = 1024 * 1024


class TestPolicyObjects:
    def test_builtin_qos_classes_are_strictly_ordered(self):
        assert GOLD.priority < SILVER.priority < BRONZE.priority
        assert set(QOS_CLASSES) == {"gold", "silver", "bronze"}

    def test_qos_validation(self):
        with pytest.raises(TenancyError):
            QosClass("", 0)
        with pytest.raises(TenancyError):
            QosClass("sub-zero", -1)

    def test_quota_validation_and_unlimited(self):
        assert QuotaPolicy().unlimited
        assert not QuotaPolicy(max_nyms=3).unlimited
        assert not QuotaPolicy(max_ram_bytes=MIB).unlimited
        with pytest.raises(TenancyError):
            QuotaPolicy(max_nyms=-1)
        with pytest.raises(TenancyError):
            QuotaPolicy(max_ram_bytes=-1)

    def test_rate_validation_and_unlimited(self):
        assert RateLimitPolicy().unlimited
        assert not RateLimitPolicy(launch_rate_per_s=1.0).unlimited
        assert not RateLimitPolicy(ingress_bytes_per_s=1.0).unlimited
        with pytest.raises(TenancyError):
            RateLimitPolicy(launch_rate_per_s=-1.0)
        # A launch rate with a sub-token burst could never admit anything.
        with pytest.raises(TenancyError):
            RateLimitPolicy(launch_rate_per_s=1.0, launch_burst=0.5)

    def test_unlimited_sentinel(self):
        assert UNLIMITED.name == ""
        assert UNLIMITED.unlimited
        assert not TenantPolicy("t", quota=QuotaPolicy(max_nyms=1)).unlimited

    def test_fleet_policies_reject_bad_tenant_sets(self):
        with pytest.raises(TenancyError, match="non-empty"):
            FleetPolicies(tenants=(UNLIMITED,))
        with pytest.raises(TenancyError, match="duplicate"):
            FleetPolicies(tenants=(TenantPolicy("a"), TenantPolicy("a")))

    def test_with_placement_replaces_only_placement(self):
        base = FleetPolicies(
            high_watermark=0.95, tenants=(TenantPolicy("a"),)
        )
        swapped = base.with_placement("ksm-aware")
        assert swapped.placement == "ksm-aware"
        assert swapped.high_watermark == 0.95
        assert swapped.tenants == base.tenants

    def test_autoscale_validation(self):
        AutoscalePolicy()  # defaults are self-consistent
        with pytest.raises(TenancyError):
            AutoscalePolicy(min_hosts=5, max_hosts=2)
        with pytest.raises(TenancyError):
            AutoscalePolicy(scale_up_pressure=0.3, scale_down_pressure=0.5)
        with pytest.raises(TenancyError):
            AutoscalePolicy(step=0)
        with pytest.raises(TenancyError):
            AutoscalePolicy(interval_s=0.0)


class TestJsonLoading:
    def test_tenant_from_dict_round_trip(self):
        policy = tenant_from_dict(
            {
                "name": "acme",
                "quota": {"max_nyms": 4, "max_ram_bytes": 64 * MIB},
                "rate": {"launch_rate_per_s": 0.5, "ingress_bytes_per_s": MIB},
                "qos": "gold",
            }
        )
        assert policy.name == "acme"
        assert policy.quota.max_nyms == 4
        assert policy.rate.launch_rate_per_s == 0.5
        assert policy.qos is GOLD

    def test_tenant_from_dict_rejects_nameless_and_unknown_qos(self):
        with pytest.raises(TenancyError, match="'name'"):
            tenant_from_dict({"quota": {"max_nyms": 1}})
        with pytest.raises(TenancyError, match="unknown qos"):
            tenant_from_dict({"name": "a", "qos": "platinum"})

    def test_policies_from_dict_rejects_unknown_keys(self):
        with pytest.raises(TenancyError, match="unknown tenant-config keys"):
            policies_from_dict({"tenants": [], "watermark": 0.9})

    def test_load_tenant_config(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(
            '{"placement": "least-loaded", "high_watermark": 0.85,'
            ' "tenants": [{"name": "acme", "qos": "bronze"}],'
            ' "autoscale": {"min_hosts": 2, "max_hosts": 8}}'
        )
        policies = load_tenant_config(str(path))
        assert policies.placement == "least-loaded"
        assert policies.high_watermark == 0.85
        assert policies.tenants[0].qos is BRONZE
        assert policies.autoscale.max_hosts == 8

    def test_load_tenant_config_failure_modes(self, tmp_path):
        with pytest.raises(TenancyError, match="cannot read"):
            load_tenant_config(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        bad.write_text("[1, 2]")
        with pytest.raises(TenancyError, match="JSON object"):
            load_tenant_config(str(bad))


class TestTokenBucket:
    def test_refill_caps_at_capacity(self):
        bucket = TokenBucket(rate=2.0, capacity=4.0, now=0.0)
        assert bucket.try_consume(0.0, 4.0)
        assert bucket.available(1.0) == 2.0
        assert bucket.available(100.0) == 4.0  # never above capacity

    def test_try_consume_rejects_when_dry(self):
        bucket = TokenBucket(rate=1.0, capacity=1.0, now=0.0)
        assert bucket.try_consume(0.0)
        assert not bucket.try_consume(0.0)
        assert bucket.try_consume(1.0)  # one second refilled one token

    def test_charge_goes_into_debt_and_deficit_wait_prices_it(self):
        bucket = TokenBucket(rate=10.0, capacity=10.0, now=0.0)
        bucket.charge(0.0, 30.0)  # 20 tokens of debt
        assert bucket.available(0.0) == -20.0
        assert bucket.deficit_wait(0.0) == pytest.approx(2.0)
        assert bucket.deficit_wait(2.0) == 0.0

    def test_answers_are_pure_functions_of_state_and_now(self):
        a = TokenBucket(rate=3.0, capacity=6.0, now=0.0)
        b = TokenBucket(rate=3.0, capacity=6.0, now=0.0)
        for t in (0.5, 1.25, 7.0):
            a.charge(t, 4.0)
            b.charge(t, 4.0)
            assert a.available(t) == b.available(t)
            assert a.deficit_wait(t) == b.deficit_wait(t)


class TestPriorityLink:
    def test_validation(self):
        with pytest.raises(ValueError):
            PriorityLink(0.0)
        with pytest.raises(ValueError):
            PriorityLink(1.0, classes=0)

    def test_strict_priority_never_delays_better_classes(self):
        link = PriorityLink(capacity_bps=100.0, classes=3)
        link.charge(0.0, 2, 500)  # bronze queues 5 s of backlog
        assert link.queue_delay(0.0, 0) == 0.0  # gold sails through
        assert link.queue_delay(0.0, 1) == 0.0
        assert link.queue_delay(0.0, 2) == pytest.approx(5.0)

    def test_worse_classes_wait_for_better_backlog(self):
        link = PriorityLink(capacity_bps=100.0, classes=2)
        link.charge(0.0, 0, 300)  # gold holds the link 3 s
        assert link.queue_delay(0.0, 1) == pytest.approx(3.0)
        assert link.queue_delay(3.0, 1) == 0.0

    def test_charge_returns_service_time_and_extends_backlog(self):
        link = PriorityLink(capacity_bps=100.0, classes=1)
        assert link.charge(0.0, 0, 100) == pytest.approx(1.0)
        assert link.charge(0.0, 0, 100) == pytest.approx(1.0)
        assert link.queue_delay(0.0, 0) == pytest.approx(2.0)


class TestRegistryLifecycle:
    def test_timeline_defaults_to_inactive_null_registry(self):
        timeline = Timeline(seed=1)
        assert timeline.tenancy is NULL_TENANCY
        assert not timeline.tenancy.active
        assert NULL_TENANCY.admission_reason("anyone", MIB) is None
        assert NULL_TENANCY.shape("anyone") == 0.0

    def test_attach_installs_on_timeline(self):
        timeline = Timeline(seed=1)
        registry = TenantRegistry(timeline).attach()
        assert timeline.tenancy is registry
        assert registry.active

    def test_apply_initial_takes_effect_immediately(self):
        timeline = Timeline(seed=1)
        registry = TenantRegistry(timeline)
        registry.apply_initial([TenantPolicy("a", quota=QuotaPolicy(max_nyms=1))])
        assert registry.policy_for("a").quota.max_nyms == 1
        assert registry.reconciled
        assert [e["action"] for e in registry.audit] == ["apply"]

    def test_commit_waits_for_the_boundary(self):
        timeline = Timeline(seed=1)
        registry = TenantRegistry(timeline, boundary_s=5.0)
        timeline.sleep(3.7)
        registry.commit(TenantPolicy("a", quota=QuotaPolicy(max_nyms=1)))
        # Staged, not applied: traffic before the boundary sees no policy.
        assert registry.policy_for("a") is UNLIMITED
        assert not registry.reconciled
        assert registry.next_boundary() == 5.0
        registry.wait_reconciled()
        assert timeline.now == 5.0
        assert registry.policy_for("a").quota.max_nyms == 1
        assert registry.reconciled

    def test_boundary_is_strictly_after_now(self):
        timeline = Timeline(seed=1)
        registry = TenantRegistry(timeline, boundary_s=5.0)
        timeline.sleep(5.0)
        registry.commit(TenantPolicy("a"))
        assert registry.next_boundary() == 10.0

    def test_reconcile_is_last_wins_per_tenant(self):
        timeline = Timeline(seed=1)
        registry = TenantRegistry(timeline, boundary_s=5.0)
        registry.commit(TenantPolicy("a", quota=QuotaPolicy(max_nyms=1)))
        registry.commit(TenantPolicy("a", quota=QuotaPolicy(max_nyms=9)))
        registry.commit(TenantPolicy("b"))
        registry.delete("b")
        registry.wait_reconciled()
        assert registry.policy_for("a").quota.max_nyms == 9
        assert "b" not in registry.policies
        # One boundary applied the whole batch.
        assert timeline.obs.metrics.counter("tenancy.reconciles").value == 1

    def test_reconcile_journals_one_event_with_counts(self):
        timeline = Timeline(seed=1)
        registry = TenantRegistry(timeline, boundary_s=2.0)
        registry.apply_initial([TenantPolicy("old")])
        registry.commit(TenantPolicy("new"))
        registry.delete("old")
        registry.wait_reconciled()
        events = [
            e for e in timeline.obs.journal.events if e.name == "tenancy.reconciled"
        ]
        assert len(events) == 1
        assert dict(events[0].fields) == {"applied": 1, "deleted": 1}

    def test_mutations_audit_but_never_journal(self):
        timeline = Timeline(seed=1)
        registry = TenantRegistry(timeline, boundary_s=5.0)
        baseline = timeline.obs.journal.export_jsonl()
        registry.commit(TenantPolicy("a"))
        # Staging is control-plane-only: the journal is untouched until
        # the boundary tick itself fires.
        assert timeline.obs.journal.export_jsonl() == baseline
        registry.wait_reconciled()
        assert [(e["action"], e["tenant"]) for e in registry.audit] == [
            ("commit", "a")
        ]

    def test_commit_rejects_non_policy(self):
        registry = TenantRegistry(Timeline(seed=1))
        with pytest.raises(TenancyError):
            registry.commit({"name": "a"})

    def test_invalid_boundary_rejected(self):
        with pytest.raises(TenancyError):
            TenantRegistry(Timeline(seed=1), boundary_s=0.0)

    def test_update_resets_the_tenants_buckets(self):
        timeline = Timeline(seed=1)
        registry = TenantRegistry(timeline, boundary_s=5.0)
        rate = RateLimitPolicy(launch_rate_per_s=0.1, launch_burst=1.0)
        registry.apply_initial([TenantPolicy("a", rate=rate)])
        registry.consume_launch("a")
        assert registry.admission_reason("a", 0) == REASON_RATE
        registry.commit(TenantPolicy("a", rate=rate))
        registry.wait_reconciled()
        # Fresh bucket at the boundary: the new policy starts with a full burst.
        assert registry.admission_reason("a", 0) is None


class TestRegistryEnforcement:
    def _registry(self, **kw):
        timeline = Timeline(seed=1)
        return timeline, TenantRegistry(timeline, **kw).attach()

    def test_untenanted_is_never_limited(self):
        _, registry = self._registry()
        assert registry.admission_reason("", MIB) is None
        registry.note_placed("", MIB)
        registry.note_rejected("", "capacity")
        assert registry.report() == []

    def test_admission_checks_quota_before_rate(self):
        _, registry = self._registry()
        registry.apply_initial([
            TenantPolicy(
                "a",
                quota=QuotaPolicy(max_nyms=0),
                rate=RateLimitPolicy(launch_rate_per_s=0.001, launch_burst=1.0),
            )
        ])
        registry.consume_launch("a")  # bucket dry too
        assert registry.admission_reason("a", MIB) == REASON_QUOTA

    def test_ram_quota_counts_resident_bytes(self):
        _, registry = self._registry()
        registry.apply_initial(
            [TenantPolicy("a", quota=QuotaPolicy(max_ram_bytes=10 * MIB))]
        )
        registry.note_placed("a", 8 * MIB)
        assert registry.admission_reason("a", MIB) is None
        assert registry.admission_reason("a", 4 * MIB) == REASON_QUOTA
        registry.note_removed("a", 8 * MIB)
        assert registry.admission_reason("a", 4 * MIB) is None

    def test_launch_bucket_refills_with_sim_time(self):
        timeline, registry = self._registry()
        registry.apply_initial([
            TenantPolicy(
                "a",
                rate=RateLimitPolicy(launch_rate_per_s=0.5, launch_burst=1.0),
            )
        ])
        assert registry.admission_reason("a", 0) is None
        registry.consume_launch("a")
        assert registry.admission_reason("a", 0) == REASON_RATE
        timeline.sleep(2.0)  # 0.5/s * 2 s = one fresh token
        assert registry.admission_reason("a", 0) is None

    def test_shape_is_silent_until_there_is_debt(self):
        timeline, registry = self._registry()
        registry.apply_initial([
            TenantPolicy(
                "a",
                rate=RateLimitPolicy(
                    ingress_bytes_per_s=MIB, ingress_burst_bytes=2 * MIB
                ),
            )
        ])
        assert registry.shape("a") == 0.0
        assert timeline.obs.journal.count("tenancy.throttle") == 0
        registry.record_sent("a", 4 * MIB)  # 2 MiB of debt past the burst
        delay = registry.shape("a")
        assert delay == pytest.approx(2.0)
        assert timeline.obs.journal.count("tenancy.throttle") == 1
        acct = registry.account("a")
        assert acct.throttled == 1
        assert acct.throttle_seconds == pytest.approx(delay)

    def test_shared_link_serves_strict_priority_across_tenants(self):
        _, registry = self._registry(ingress_capacity_bps=100.0)
        registry.apply_initial([
            TenantPolicy("gold", qos=GOLD),
            TenantPolicy("bronze", qos=BRONZE),
        ])
        registry.record_sent("bronze", 500)  # 5 s of bronze backlog
        assert registry.shape("gold") == 0.0
        assert registry.shape("bronze") == pytest.approx(5.0)

    def test_burst_needs_an_ingress_rate(self):
        timeline, registry = self._registry()
        registry.apply_initial([
            TenantPolicy("flat"),
            TenantPolicy(
                "metered", rate=RateLimitPolicy(ingress_bytes_per_s=MIB)
            ),
        ])
        assert not registry.burst("flat", 8 * MIB)
        assert timeline.obs.journal.count("tenancy.burst") == 0
        assert registry.burst("metered", 8 * MIB)
        assert timeline.obs.journal.count("tenancy.burst") == 1
        assert registry.shape("metered") > 0.0

    def test_report_rows_sorted_and_complete(self):
        _, registry = self._registry()
        registry.apply_initial([TenantPolicy("zeta"), TenantPolicy("alpha")])
        registry.note_admitted("zeta")
        registry.note_rejected("alpha", REASON_QUOTA)
        registry.note_rejected("alpha", REASON_RATE)
        rows = registry.report()
        assert [row["tenant"] for row in rows] == ["alpha", "zeta"]
        assert rows[0]["rejected_quota"] == 1
        assert rows[0]["rejected_rate"] == 1
        assert rows[1]["admitted"] == 1


class TestSessionFacade:
    def test_tenants_property_attaches_once(self):
        with NymixSession(NymixConfig(seed=3), cloud_providers=False) as nx:
            assert not nx.timeline.tenancy.active
            control = nx.tenants
            assert isinstance(control, TenantControl)
            assert nx.timeline.tenancy.active
            assert nx.tenants.registry is control.registry

    def test_register_and_delete_through_the_facade(self):
        with NymixSession(NymixConfig(seed=3), cloud_providers=False) as nx:
            nx.tenants.register(TenantPolicy("acme", quota=QuotaPolicy(max_nyms=2)))
            nx.tenants.wait_reconciled()
            assert "acme" in nx.tenants
            assert nx.tenants.policy_for("acme").quota.max_nyms == 2
            nx.tenants.delete("acme")
            nx.tenants.wait_reconciled()
            assert "acme" not in nx.tenants

    def test_create_nym_binds_tenant_to_the_ingress_path(self):
        with NymixSession(NymixConfig(seed=3), cloud_providers=False) as nx:
            nx.tenants.register(
                TenantPolicy(
                    "acme",
                    rate=RateLimitPolicy(
                        ingress_bytes_per_s=64 * 1024, ingress_burst_bytes=64 * 1024
                    ),
                )
            )
            nx.tenants.wait_reconciled()
            box = nx.create_nym(name="worker", tenant="acme")
            assert box.tenant == "acme"
            assert box.anonymizer.tenant == "acme"
            box.browse("bbc.co.uk")
            acct = nx.tenants.registry.account("acme")
            assert acct.sends == 1
            assert acct.bytes_sent > 0
            # The first send left debt; the next one pays it as throttle.
            box.browse("bbc.co.uk")
            assert acct.throttled >= 1
            assert acct.throttle_seconds > 0.0

    def test_untenanted_session_journal_unchanged_by_facade_access(self):
        def run(touch_facade: bool) -> str:
            with NymixSession(NymixConfig(seed=9), cloud_providers=False) as nx:
                if touch_facade:
                    nx.tenants  # attaches a live (empty) registry
                box = nx.create_nym(name="n")
                box.browse("bbc.co.uk")
                return nx.obs.journal.export_jsonl()

        assert run(touch_facade=False) == run(touch_facade=True)
