"""`run_tenants`: the multi-tenant control-plane scenario behind `repro tenants`.

Runs a two-tenant fleet through the whole control-plane story on one
seeded timeline: admission (one tenant is over quota, the other's launch
bucket runs dry), ingress shaping (the rate-limited tenant bursts past
its byte rate and absorbs the debt as strict-priority throttle delay), a
mid-run policy update reconciled at a deterministic boundary, and a
rolling drain of several hosts that must lose zero nyms.  Same seed,
same policy set → byte-identical journal; the per-tenant outcome table
is the BENCH_tenants.json payload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

from repro.errors import FleetCapacityError
from repro.faults.plan import FaultPlan, FaultSpec
from repro.fleet.fleet import DrainReport, Fleet, FleetStats
from repro.sim.clock import Timeline
from repro.tenancy.limiter import PriorityLink
from repro.tenancy.policy import (
    GOLD,
    BRONZE,
    FleetPolicies,
    QuotaPolicy,
    RateLimitPolicy,
    TenantPolicy,
)
from repro.vmm.vm import MIB
from repro.workloads.fleet import tenant_workload

#: Arrivals per wave: the scenario sleeps out a wave's interarrival gaps,
#: admits every arrival in it, then runs the admitted nyms' churn and sends.
WAVE_SIZE = 16
#: Shared ingress link capacity (bytes/s) strict-priority-shared by QoS class.
INGRESS_CAPACITY_BPS = 32 * MIB


def default_tenant_policies(nyms: int) -> FleetPolicies:
    """The acceptance policy set: ``alpha`` over quota, ``beta`` bursting.

    ``alpha`` (bronze) gets a nym quota well under its share of the
    arrival stream, so quota rejections are guaranteed; ``beta`` (gold)
    is unlimited in count but metered in launch rate and ingress bytes,
    so its bursts convert into rate rejections and throttle delay.
    """
    return FleetPolicies(
        tenants=(
            TenantPolicy(
                "alpha",
                quota=QuotaPolicy(max_nyms=max(2, nyms // 10)),
                qos=BRONZE,
            ),
            TenantPolicy(
                "beta",
                rate=RateLimitPolicy(
                    launch_rate_per_s=0.02,
                    launch_burst=2.0,
                    ingress_bytes_per_s=8 * MIB,
                    ingress_burst_bytes=16 * MIB,
                ),
                qos=GOLD,
            ),
        )
    )


@dataclass
class TenantsReport:
    """The BENCH_tenants.json payload: per-tenant outcomes plus the drain."""

    seed: int
    hosts: int
    nyms: int
    chaos: bool
    tenants: List[Dict[str, object]] = field(default_factory=list)
    drain: Optional[DrainReport] = None
    stats: Optional[FleetStats] = None
    sim_seconds: float = 0.0
    journal_events: int = 0
    reconciles: int = 0
    faults: List[Dict[str, object]] = field(default_factory=list)

    @property
    def zero_lost(self) -> bool:
        return self.drain is None or self.drain.lost == 0

    def tenant(self, name: str) -> Dict[str, object]:
        for row in self.tenants:
            if row["tenant"] == name:
                return row
        raise KeyError(name)

    def export(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "bench": "tenants",
            "seed": self.seed,
            "hosts": self.hosts,
            "nyms": self.nyms,
            "chaos": self.chaos,
            "sim_seconds": round(self.sim_seconds, 3),
            "journal_events": self.journal_events,
            "reconciles": self.reconciles,
            "zero_lost": self.zero_lost,
            "tenants": self.tenants,
        }
        if self.drain is not None:
            payload["drain"] = self.drain.export()
        if self.stats is not None:
            payload["fleet"] = self.stats.export()
        if self.faults:
            payload["faults"] = self.faults
        return payload

    def summary(self) -> str:
        lines = [
            f"tenants bench: {self.nyms} arrivals over {self.hosts} hosts "
            f"(seed {self.seed}{', chaos' if self.chaos else ''})",
            f"{'tenant':<10} {'nyms':>5} {'admit':>6} {'q-rej':>6} "
            f"{'r-rej':>6} {'c-rej':>6} {'thrtl':>6} {'thr s':>8} "
            f"{'evac':>5} {'sent MiB':>9}",
        ]
        for row in self.tenants:
            lines.append(
                f"{row['tenant']:<10} {row['nyms']:>5} {row['admitted']:>6} "
                f"{row['rejected_quota']:>6} {row['rejected_rate']:>6} "
                f"{row['rejected_capacity']:>6} {row['throttled']:>6} "
                f"{row['throttle_seconds']:>8.2f} {row['evacuations']:>5} "
                f"{row['bytes_sent'] / MIB:>9.1f}"
            )
        if self.drain is not None:
            d = self.drain
            lines.append(
                f"rolling drain: {len(d.hosts)} hosts, {d.evacuated} evacuated "
                f"({d.relaunched} relaunched, {d.parked} parked, {d.lost} lost)"
            )
        lines.append(f"zero nyms lost: {'yes' if self.zero_lost else 'NO'}")
        return "\n".join(lines)


def _chaos_plan(expected_s: float) -> FaultPlan:
    """Drain-during-crash plus a traffic burst, at fixed fractions of the
    expected run: the drain starts, its relaunch boots are still landing
    2 s later when a host crash rips through the same cluster."""
    return FaultPlan(
        [
            FaultSpec(at_s=0.25 * expected_s, kind="tenancy.tenant_burst",
                      param=32.0),
            FaultSpec(at_s=0.50 * expected_s, kind="fleet.host_drain"),
            FaultSpec(at_s=0.50 * expected_s + 2.0, kind="fleet.host_crash"),
        ]
    )


def run_tenants(
    seed: int = 0,
    hosts: int = 64,
    nyms: int = 240,
    drain_hosts: int = 8,
    placement: str = "first-fit",
    chaos: bool = False,
    journal_path: Optional[str] = None,
    out_path: Optional[str] = None,
    policies: Optional[FleetPolicies] = None,
    upgrade_s: float = 5.0,
) -> TenantsReport:
    """Run the multi-tenant acceptance scenario.

    ``policies`` (e.g. from ``--tenant-config``) replaces the default
    two-tenant set; its tenant names drive the workload's weighted
    attribution.  The mid-run policy update doubles the first quota-bearing
    tenant's nym ceiling and waits out the reconciliation boundary, so the
    journal records one deterministic ``tenancy.reconciled`` tick.
    """
    timeline = Timeline(seed=seed)
    base = policies if policies is not None else default_tenant_policies(nyms)
    if not base.tenants:
        base = replace(base, tenants=default_tenant_policies(nyms).tenants)
    registry = timeline.tenancy
    registry.link = PriorityLink(INGRESS_CAPACITY_BPS)
    fleet = Fleet(
        timeline, hosts=hosts, policies=base.with_placement(placement)
    )
    tenant_names = [t.name for t in base.tenants]
    arrivals = tenant_workload(
        timeline.fork_rng("tenants.workload"), nyms, tenant_names
    )

    if chaos:
        expected_s = max(60.0, nyms * 10.5)
        timeline.faults.arm(_chaos_plan(expected_s), manager=fleet)

    waves = [
        arrivals[i:i + WAVE_SIZE] for i in range(0, len(arrivals), WAVE_SIZE)
    ]
    update_after = len(waves) // 2
    for index, wave in enumerate(waves):
        # Left-to-right float adds, not sum(): Python 3.12's sum() uses
        # compensated summation, which can move the clock by an ulp and
        # with it every later journal timestamp.
        gap = 0.0
        for arrival in wave:
            gap += arrival.interarrival_s
        timeline.sleep(gap)
        # Place the whole wave before any of it churns or sends: the
        # sends sleep on the timeline, so interleaving them with the
        # placements would change the journal.
        admitted = []
        for arrival in wave:
            try:
                fleet.place(arrival.name, arrival.image_id, tenant=arrival.tenant)
            except FleetCapacityError:
                continue
            admitted.append(arrival)
        for arrival in admitted:
            if arrival.churn_bytes:
                fleet.touch(arrival.name, arrival.churn_bytes)
            # One send per admitted nym: shaping waits out bucket debt and
            # the strict-priority backlog, then the completed transfer is
            # charged (debt-based — the *next* send absorbs the overdraft).
            delay = registry.shape(arrival.tenant)
            if delay > 0.0:
                timeline.sleep(delay)
            registry.record_sent(
                arrival.tenant, max(MIB, arrival.churn_bytes)
            )
        if index + 1 == update_after:
            # Mid-run control-plane update: relax the first quota-bearing
            # tenant.  Staged now, applied at the next boundary — traffic
            # between here and the boundary still sees the old ceiling.
            for policy in base.tenants:
                if policy.quota.max_nyms is not None:
                    registry.commit(
                        replace(
                            policy,
                            quota=replace(
                                policy.quota,
                                max_nyms=policy.quota.max_nyms * 2,
                            ),
                        )
                    )
                    registry.wait_reconciled()
                    break

    drain_report = None
    if drain_hosts:
        drain_report = fleet.rolling_drain(count=drain_hosts, upgrade_s=upgrade_s)
    fleet.settle_ksm()
    stats = fleet.stats()
    timeline.obs.event(
        "tenants.run_complete",
        tenants=tenant_names,
        resident=stats.nyms_resident,
        lost=0 if drain_report is None else drain_report.lost,
    )
    report = TenantsReport(
        seed=seed,
        hosts=hosts,
        nyms=nyms,
        chaos=chaos,
        tenants=registry.report(),
        drain=drain_report,
        stats=stats,
        sim_seconds=timeline.now,
        journal_events=timeline.obs.journal.count(),
        reconciles=sum(1 for entry in registry.audit if entry["action"] == "commit"),
        faults=list(timeline.faults.injected),
    )
    if journal_path:
        timeline.obs.journal.write_jsonl(journal_path)
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(report.export(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report
