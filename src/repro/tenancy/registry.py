"""The tenant registry: policy lifecycle, accounting, and enforcement.

The registry is the control plane's live state.  Policies reach it two
ways:

* ``apply_initial(...)`` — construction-time application (the fleet's
  ``FleetPolicies.tenants``): takes effect immediately, before any
  traffic, so there is no reconciliation boundary to wait for.
* ``commit(policy)`` / ``delete(name)`` — the Kuadrant-style lifecycle:
  mutations are *staged* and applied together at the next multiple of
  ``boundary_s`` strictly after now.  Every same-seed run stages the same
  mutations at the same sim times, so the boundary — and therefore every
  enforcement decision downstream of it — is deterministic.

Control-plane mutations write an in-registry audit log and metrics, not
journal events; only *data-plane* effects (throttles, bursts, the
reconcile tick itself) reach the journal.  A registry whose policies are
all unlimited therefore produces a journal byte-identical to a run with
no registry at all.

``NULL_TENANCY`` is the shared no-op following the ``NULL_OBS`` /
``NULL_FAULTS`` idiom: ``timeline.tenancy`` always answers, and the
disabled answer is always "no limits, zero delay".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import TenancyError
from repro.tenancy.limiter import PriorityLink, TokenBucket
from repro.tenancy.policy import UNLIMITED, TenantPolicy

#: Rejection reason strings shared by fleet admission and reports.
REASON_CAPACITY = "capacity"
REASON_QUOTA = "quota"
REASON_RATE = "rate"


@dataclass
class TenantAccount:
    """Mutable per-tenant counters; the source of truth for reports."""

    name: str
    nyms: int = 0
    ram_bytes: int = 0
    admitted: int = 0
    rejected_capacity: int = 0
    rejected_quota: int = 0
    rejected_rate: int = 0
    throttled: int = 0
    throttle_seconds: float = 0.0
    evacuations: int = 0
    sends: int = 0
    bytes_sent: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "tenant": self.name,
            "nyms": self.nyms,
            "ram_bytes": self.ram_bytes,
            "admitted": self.admitted,
            "rejected_capacity": self.rejected_capacity,
            "rejected_quota": self.rejected_quota,
            "rejected_rate": self.rejected_rate,
            "throttled": self.throttled,
            "throttle_seconds": round(self.throttle_seconds, 6),
            "evacuations": self.evacuations,
            "sends": self.sends,
            "bytes_sent": self.bytes_sent,
        }


class NullTenancy:
    """Shared no-op registry: no limits, zero delay, nothing recorded."""

    active = False

    def admission_reason(self, tenant: str, need_ram_bytes: int) -> Optional[str]:
        return None

    def consume_launch(self, tenant: str) -> None:
        pass

    def note_placed(self, tenant: str, ram_bytes: int) -> None:
        pass

    def note_admitted(self, tenant: str) -> None:
        pass

    def note_removed(self, tenant: str, ram_bytes: int) -> None:
        pass

    def note_evacuated(self, tenant: str) -> None:
        pass

    def note_rejected(self, tenant: str, reason: str) -> None:
        pass

    def shape(self, tenant: str) -> float:
        return 0.0

    def record_sent(self, tenant: str, payload_bytes: int) -> None:
        pass


NULL_TENANCY = NullTenancy()


class TenantRegistry:
    """Live tenant policies plus the machinery that enforces them."""

    def __init__(
        self,
        timeline,
        boundary_s: float = 5.0,
        ingress_capacity_bps: Optional[float] = None,
        qos_classes: int = 3,
    ) -> None:
        if boundary_s <= 0:
            raise TenancyError(f"boundary_s must be > 0: {boundary_s}")
        self.timeline = timeline
        self.boundary_s = float(boundary_s)
        self.active = True
        self.policies: Dict[str, TenantPolicy] = {}
        self.accounts: Dict[str, TenantAccount] = {}
        #: audit log of control-plane mutations (never journalled)
        self.audit: List[Dict[str, Any]] = []
        self.link = (
            PriorityLink(ingress_capacity_bps, classes=qos_classes)
            if ingress_capacity_bps
            else None
        )
        self._launch_buckets: Dict[str, TokenBucket] = {}
        self._ingress_buckets: Dict[str, TokenBucket] = {}
        #: staged (action, payload) mutations awaiting the next boundary
        self._staged: List[Tuple[str, Any]] = []
        self._boundary_event = None

    # -- wiring ------------------------------------------------------------

    def attach(self) -> "TenantRegistry":
        """Install this registry as ``timeline.tenancy`` and return it."""
        self.timeline.tenancy = self
        return self

    # -- policy lifecycle --------------------------------------------------

    def apply_initial(self, policies: Iterable[TenantPolicy]) -> None:
        """Apply a policy set immediately (construction-time, pre-traffic)."""
        for policy in policies:
            self._apply(policy, action="apply")

    def commit(self, policy: TenantPolicy) -> None:
        """Stage a create-or-update; takes effect at the next boundary."""
        if not isinstance(policy, TenantPolicy):
            raise TenancyError(f"commit() wants a TenantPolicy, got {policy!r}")
        self._staged.append(("commit", policy))
        self._schedule_boundary()

    def delete(self, name: str) -> None:
        """Stage a deletion; the tenant reverts to unlimited at the boundary."""
        self._staged.append(("delete", name))
        self._schedule_boundary()

    @property
    def reconciled(self) -> bool:
        return not self._staged

    def next_boundary(self) -> float:
        """The sim time the next staged mutation set applies."""
        now = self.timeline.now
        return (math.floor(now / self.boundary_s) + 1) * self.boundary_s

    def wait_reconciled(self) -> None:
        """Sleep the timeline until every staged mutation has applied."""
        while self._staged:
            boundary = self._boundary_event.when if self._boundary_event else (
                self.next_boundary()
            )
            self.timeline.sleep(max(0.0, boundary - self.timeline.now) or 1e-9)

    def _schedule_boundary(self) -> None:
        if self._boundary_event is not None:
            return
        when = self.next_boundary()
        self._boundary_event = self.timeline.events.schedule_at(
            when, self._reconcile
        )

    def _reconcile(self) -> None:
        """Apply every staged mutation, sorted for determinism."""
        self._boundary_event = None
        staged, self._staged = self._staged, []
        applied = deleted = 0
        # Later stages win per tenant; apply in name order for determinism.
        final: Dict[str, Tuple[str, Any]] = {}
        for action, payload in staged:
            name = payload.name if action == "commit" else payload
            final[name] = (action, payload)
        for name in sorted(final):
            action, payload = final[name]
            if action == "commit":
                self._apply(payload, action="commit")
                applied += 1
            else:
                self._remove(name)
                deleted += 1
        self.timeline.obs.event(
            "tenancy.reconciled", applied=applied, deleted=deleted
        )
        self.timeline.obs.metrics.counter("tenancy.reconciles").inc()

    def _apply(self, policy: TenantPolicy, action: str) -> None:
        self.policies[policy.name] = policy
        self.accounts.setdefault(policy.name, TenantAccount(policy.name))
        # Fresh buckets at the boundary: new rates take effect cleanly.
        self._launch_buckets.pop(policy.name, None)
        self._ingress_buckets.pop(policy.name, None)
        self.audit.append(
            {"t": self.timeline.now, "action": action, "tenant": policy.name}
        )

    def _remove(self, name: str) -> None:
        self.policies.pop(name, None)
        self._launch_buckets.pop(name, None)
        self._ingress_buckets.pop(name, None)
        self.audit.append(
            {"t": self.timeline.now, "action": "delete", "tenant": name}
        )

    # -- lookups -----------------------------------------------------------

    def policy_for(self, tenant: str) -> TenantPolicy:
        return self.policies.get(tenant, UNLIMITED)

    def account(self, tenant: str) -> TenantAccount:
        acct = self.accounts.get(tenant)
        if acct is None:
            acct = self.accounts[tenant] = TenantAccount(tenant)
        return acct

    def _launch_bucket(self, tenant: str, policy: TenantPolicy) -> TokenBucket:
        bucket = self._launch_buckets.get(tenant)
        if bucket is None:
            bucket = self._launch_buckets[tenant] = TokenBucket(
                policy.rate.launch_rate_per_s,
                policy.rate.launch_burst,
                now=self.timeline.now,
            )
        return bucket

    def _ingress_bucket(self, tenant: str, policy: TenantPolicy) -> TokenBucket:
        bucket = self._ingress_buckets.get(tenant)
        if bucket is None:
            rate = policy.rate.ingress_bytes_per_s
            burst = policy.rate.ingress_burst_bytes or rate
            bucket = self._ingress_buckets[tenant] = TokenBucket(
                rate, burst, now=self.timeline.now
            )
        return bucket

    # -- admission (fleet side) --------------------------------------------

    def admission_reason(self, tenant: str, need_ram_bytes: int) -> Optional[str]:
        """Peek the quota/rate verdict for one more nym; mutates nothing."""
        if not tenant:
            return None
        policy = self.policy_for(tenant)
        if policy.unlimited:
            return None
        acct = self.account(tenant)
        quota = policy.quota
        if quota.max_nyms is not None and acct.nyms + 1 > quota.max_nyms:
            return REASON_QUOTA
        if (
            quota.max_ram_bytes is not None
            and acct.ram_bytes + need_ram_bytes > quota.max_ram_bytes
        ):
            return REASON_QUOTA
        if policy.rate.launch_rate_per_s:
            bucket = self._launch_bucket(tenant, policy)
            if bucket.available(self.timeline.now) < 1.0:
                return REASON_RATE
        return None

    def consume_launch(self, tenant: str) -> None:
        """Spend one launch token for an admission attempt that passed peek."""
        if not tenant:
            return
        policy = self.policy_for(tenant)
        if policy.rate.launch_rate_per_s:
            self._launch_bucket(tenant, policy).try_consume(self.timeline.now, 1.0)

    def note_placed(self, tenant: str, ram_bytes: int) -> None:
        """A nymbox became resident (new placement or evacuation relaunch)."""
        if not tenant:
            return
        acct = self.account(tenant)
        acct.nyms += 1
        acct.ram_bytes += ram_bytes

    def note_admitted(self, tenant: str) -> None:
        """A brand-new arrival passed admission (relaunches don't count)."""
        if not tenant:
            return
        self.account(tenant).admitted += 1
        self.timeline.obs.metrics.counter("tenancy.admitted").inc()

    def note_removed(self, tenant: str, ram_bytes: int) -> None:
        if not tenant:
            return
        acct = self.account(tenant)
        acct.nyms = max(0, acct.nyms - 1)
        acct.ram_bytes = max(0, acct.ram_bytes - ram_bytes)

    def note_evacuated(self, tenant: str) -> None:
        if not tenant:
            return
        self.account(tenant).evacuations += 1
        self.timeline.obs.metrics.counter("tenancy.evacuations").inc()

    def note_rejected(self, tenant: str, reason: str) -> None:
        if not tenant:
            return
        acct = self.account(tenant)
        if reason == REASON_QUOTA:
            acct.rejected_quota += 1
        elif reason == REASON_RATE:
            acct.rejected_rate += 1
        else:
            acct.rejected_capacity += 1
        self.timeline.obs.metrics.counter(f"tenancy.rejected.{reason}").inc()

    # -- ingress shaping (anonymizer side) ---------------------------------

    def shape(self, tenant: str) -> float:
        """Delay (seconds) this tenant's next send must wait before starting.

        Combines the tenant's ingress-bucket debt with the shared
        strict-priority link backlog.  Emits a ``tenancy.throttle`` journal
        event only when the delay is positive, so unlimited policies leave
        the journal untouched.
        """
        if not tenant:
            return 0.0
        policy = self.policy_for(tenant)
        now = self.timeline.now
        delay = 0.0
        if policy.rate.ingress_bytes_per_s:
            delay = self._ingress_bucket(tenant, policy).deficit_wait(now)
        if self.link is not None:
            delay = max(delay, self.link.queue_delay(now, policy.qos.priority))
        if delay > 0.0:
            acct = self.account(tenant)
            acct.throttled += 1
            acct.throttle_seconds += delay
            self.timeline.obs.metrics.counter("tenancy.throttled").inc()
            self.timeline.obs.metrics.histogram("tenancy.throttle_s").observe(delay)
            self.timeline.obs.event(
                "tenancy.throttle",
                tenant=tenant,
                qos=policy.qos.name,
                delay_s=round(delay, 6),
            )
        return delay

    def record_sent(self, tenant: str, payload_bytes: int) -> None:
        """Charge a completed send against the tenant's rate state."""
        if not tenant:
            return
        policy = self.policy_for(tenant)
        now = self.timeline.now
        acct = self.account(tenant)
        acct.sends += 1
        acct.bytes_sent += payload_bytes
        if policy.rate.ingress_bytes_per_s:
            self._ingress_bucket(tenant, policy).charge(now, payload_bytes)
        if self.link is not None:
            self.link.charge(now, policy.qos.priority, payload_bytes)

    # -- fault hooks -------------------------------------------------------

    def burst(self, tenant: str, debt_bytes: int) -> bool:
        """Inject ingress-bucket debt (a traffic burst) for ``tenant``.

        Returns True when the tenant has an ingress rate to burst past;
        unlimited tenants absorb the burst with no effect.
        """
        policy = self.policy_for(tenant)
        if not policy.rate.ingress_bytes_per_s:
            return False
        self._ingress_bucket(tenant, policy).charge(self.timeline.now, debt_bytes)
        self.timeline.obs.metrics.counter("tenancy.bursts").inc()
        self.timeline.obs.event(
            "tenancy.burst", tenant=tenant, debt_bytes=int(debt_bytes)
        )
        return True

    # -- reporting ---------------------------------------------------------

    def report(self) -> List[Dict[str, Any]]:
        """Per-tenant counter rows, sorted by tenant name."""
        return [
            self.accounts[name].as_dict() for name in sorted(self.accounts)
        ]
