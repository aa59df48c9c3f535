"""The fleet scheduler: N hypervisors, one timeline, deterministic placement.

The paper runs Nymix on a single i7/16 GB machine; the ROADMAP's
production north star needs many.  :class:`Fleet` owns a cluster of
:class:`Hypervisor` hosts sharing one base image (and one
:class:`Timeline`, so the whole cluster is bit-reproducible), admits
nymboxes against per-host RAM *and* per-tenant policy (quotas and launch
rate, via ``timeline.tenancy``), places them through a pluggable
:class:`PlacementPolicy`, and keeps hosts below memory-pressure
watermarks by evacuating nyms — the §3.5 quasi-persistence loop
(store-nym → relaunch elsewhere) driven by `repro.faults` retry
machinery.  Host crashes (the ``fleet.host_crash`` fault kind) and
rolling drains (``fleet.host_drain``) evacuate resident nyms the same
way, and hosts can join/leave after construction for autoscaling.

Construction takes one declarative :class:`FleetPolicies` value.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import (
    FleetCapacityError,
    FleetError,
    RetryExhaustedError,
    TenantQuotaError,
    TenantRateLimitError,
)
from repro.faults.retry import RetryPolicy, retry_call
from repro.fleet.host import HostHandle
from repro.fleet.placement import PlacementPolicy, make_policy
from repro.net.internet import Internet
from repro.runtime import register_process_cache
from repro.sim.clock import Timeline
from repro.tenancy.policy import FleetPolicies
from repro.tenancy.registry import REASON_CAPACITY, REASON_QUOTA, TenantRegistry
from repro.vmm.baseimage import build_base_layer, published_merkle_root
from repro.vmm.hypervisor import HostSpec, Hypervisor, NymboxTemplate
from repro.vmm.vm import MIB, VirtualMachine, VmSpec

#: Evacuation relaunch: a few quick attempts on simulated time; capacity
#: usually frees up as other evacuations land, not over long waits.
RELAUNCH_RETRY = RetryPolicy(max_attempts=4, base_backoff_s=2.0, max_backoff_s=16.0)
#: Crash recovery runs inside a timeline callback, where sleeping would
#: rewind the interrupted sleep's clock — so retries are immediate.
CRASH_RETRY = RetryPolicy(max_attempts=4, base_backoff_s=0.0, max_backoff_s=0.0)

#: The ``(admits, calm)`` verdict of a host that takes no placements.
_REFUSED = (False, False)


#: Process-wide (base layer, Merkle root) for the default Nymix image.
#: The layer is read-only, so sharing it across fleets is safe; the root
#: hash walk is the expensive part of fleet construction.  Registered
#: with the runtime cache registry so session teardown can release it.
_BASE_IMAGE_CACHE: List[tuple] = []


def _shared_base_image() -> tuple:
    if not _BASE_IMAGE_CACHE:
        layer = build_base_layer()
        _BASE_IMAGE_CACHE.append((layer, published_merkle_root(layer)))
    return _BASE_IMAGE_CACHE[0]


register_process_cache(
    "fleet.base_image", _BASE_IMAGE_CACHE.clear, _BASE_IMAGE_CACHE.__len__
)


@dataclass
class FleetNymbox:
    """One scheduled nymbox: the AnonVM/CommVM pair and where it lives."""

    name: str
    image_id: str
    host_id: str
    anonvm: VirtualMachine
    commvm: VirtualMachine
    seq: int
    tenant: str = ""
    extra_dirty_bytes: int = 0  # workload churn carried across relaunches
    moves: int = 0

    @property
    def ram_bytes(self) -> int:
        return self.anonvm.spec.ram_bytes + self.commvm.spec.ram_bytes


@dataclass(frozen=True)
class FleetStats:
    """Cluster-wide accounting for one instant."""

    hosts: int
    hosts_up: int
    nyms_resident: int
    nyms_parked: int
    placements: int
    evacuations: int
    host_crashes: int
    used_bytes: int
    total_bytes: int
    ksm_saved_bytes: int
    host_image_pairs: int
    hosts_draining: int = 0
    host_drains: int = 0

    def export(self) -> Dict[str, object]:
        return {
            "hosts": self.hosts,
            "hosts_up": self.hosts_up,
            "hosts_draining": self.hosts_draining,
            "nyms_resident": self.nyms_resident,
            "nyms_parked": self.nyms_parked,
            "placements": self.placements,
            "evacuations": self.evacuations,
            "host_crashes": self.host_crashes,
            "host_drains": self.host_drains,
            "used_bytes": self.used_bytes,
            "total_bytes": self.total_bytes,
            "ksm_saved_bytes": self.ksm_saved_bytes,
            "used_mib": round(self.used_bytes / MIB, 1),
            "ksm_saved_mib": round(self.ksm_saved_bytes / MIB, 1),
            "host_image_pairs": self.host_image_pairs,
        }


@dataclass(frozen=True)
class DrainReport:
    """Outcome of a rolling drain: where every evacuated nym ended up."""

    hosts: Tuple[str, ...]
    evacuated: int
    relaunched: int
    parked: int
    lost: int

    def export(self) -> Dict[str, object]:
        return {
            "hosts": list(self.hosts),
            "evacuated": self.evacuated,
            "relaunched": self.relaunched,
            "parked": self.parked,
            "lost": self.lost,
        }


class Fleet:
    """A deterministic multi-host nymbox scheduler.

    ``policies.high_watermark``/``low_watermark`` are fractions of host
    RAM: a placement that pushes a host past ``high`` triggers evacuation
    of its newest residents until the host drops below ``low`` (or no
    other host can take them).
    """

    def __init__(
        self,
        timeline: Timeline,
        internet: Optional[Internet] = None,
        hosts: int = 4,
        host_spec: Optional[HostSpec] = None,
        anon_spec: Optional[VmSpec] = None,
        comm_spec: Optional[VmSpec] = None,
        flash_clone: bool = True,
        policies: Optional[FleetPolicies] = None,
        tenancy: Optional[TenantRegistry] = None,
    ) -> None:
        if hosts < 1:
            raise FleetError(f"a fleet needs at least one host, got {hosts}")
        policies = policies if policies is not None else FleetPolicies()
        if not 0.0 < policies.low_watermark < policies.high_watermark <= 1.0:
            raise FleetError(
                f"watermarks must satisfy 0 < low < high <= 1: "
                f"low={policies.low_watermark}, high={policies.high_watermark}"
            )
        self.timeline = timeline
        self.internet = internet if internet is not None else Internet(timeline)
        self.policies = policies
        placement = policies.placement
        self.policy = (
            placement
            if isinstance(placement, PlacementPolicy)
            else make_policy(placement)
        )
        self.host_spec = host_spec or HostSpec()
        self.anon_spec = anon_spec or VmSpec.anonvm()
        self.comm_spec = comm_spec or VmSpec.commvm()
        self.high_watermark = policies.high_watermark
        self.low_watermark = policies.low_watermark
        self._flash_clone = flash_clone
        self.rng = timeline.fork_rng("fleet")

        # The tenant control plane: an explicit registry wins, then any
        # registry already attached to the timeline, then (only if the
        # policy set names tenants) a fresh one; otherwise the shared
        # no-op, so policy-free fleets pay and emit nothing.
        if tenancy is not None:
            self.tenancy = tenancy.attach()
        elif timeline.tenancy.active:
            self.tenancy = timeline.tenancy
        elif policies.tenants:
            self.tenancy = TenantRegistry(timeline).attach()
        else:
            self.tenancy = timeline.tenancy
        if policies.tenants:
            # Construction-time policies apply immediately, pre-traffic:
            # there is no boundary to reconcile against yet.
            self.tenancy.apply_initial(policies.tenants)

        # One base image for the whole cluster: built once, Merkle root
        # published once — exactly how a real fleet distributes it.  The
        # layer is read-only and identical for every fleet, so it is
        # memoized process-wide (rebuilding it re-hashes the whole tree).
        width = len(str(hosts - 1))
        self._id_width = width
        self._next_host_index = 0
        self.hosts: Dict[str, HostHandle] = {}
        # Host order is join order (initial hosts sort by id); hosts may
        # join (autoscale-up) or leave (drain + remove) after init.
        # Admission is change-driven: each hypervisor reports every
        # accounting change, and the fleet itself marks hosts that join,
        # crash or change drain state, so ``_candidates`` re-derives the
        # (admits, calm) verdict of just those hosts.  The host-ordered
        # admissible and calm lists are rebuilt only when a verdict flips.
        self._host_order: List[HostHandle] = []
        self._stale_hosts: Dict[str, HostHandle] = {}
        self._verdicts: Dict[str, Tuple[bool, bool]] = {}
        self._admissible: List[HostHandle] = []
        self._calm: List[HostHandle] = []
        self.add_hosts(hosts, announce=False)

        self.nymboxes: Dict[str, FleetNymbox] = {}
        self.parked: List[str] = []  # stored, awaiting capacity
        self.placements = 0
        self.evacuations = 0
        self.crashes = 0
        self.drains = 0
        self._seq = 0
        # One NymboxTemplate per image, shared by every host: the specs
        # are fixed per fleet, and a stable template object lets each
        # hypervisor reuse its per-template clone state across arrivals.
        self._templates: Dict[str, NymboxTemplate] = {}
        obs = timeline.obs
        obs.event("fleet.created", hosts=hosts, policy=self.policy.name)
        obs.metrics.gauge("fleet.hosts").set(hosts)

        # The autoscaler tick is only scheduled when asked for, so fleets
        # without an AutoscalePolicy keep byte-identical journals.
        self.autoscaler = None
        if policies.autoscale is not None:
            from repro.tenancy.autoscale import Autoscaler

            self.autoscaler = Autoscaler(self, policies.autoscale).start()

    # -- host membership -------------------------------------------------------

    def add_hosts(self, count: int = 1, announce: bool = True) -> List[HostHandle]:
        """Bring ``count`` fresh hosts into service (autoscale-up path)."""
        base_layer, merkle_root = _shared_base_image()
        added: List[HostHandle] = []
        for _ in range(count):
            index = self._next_host_index
            self._next_host_index += 1
            width = max(self._id_width, len(str(index)))
            host_id = f"host-{index:0{width}d}"
            hv = Hypervisor(
                self.timeline,
                self.internet,
                host=self.host_spec,
                base_layer=base_layer,
                merkle_root=merkle_root,
                zygote_cache=self._flash_clone,
            )
            handle = HostHandle(host_id, hv)
            # The listener fires on every guest mutation, so it is one
            # C-level dict store rather than a Python-level call.
            hv.set_accounting_listener(
                functools.partial(operator.setitem, self._stale_hosts, host_id, handle)
            )
            self.hosts[host_id] = handle
            self._host_order.append(handle)
            self._mark_stale(handle)
            added.append(handle)
        if announce:
            obs = self.timeline.obs
            obs.metrics.gauge("fleet.hosts").set(len(self.hosts))
            obs.event("fleet.host_join", hosts=[h.host_id for h in added])
        return added

    def remove_host(self, host_id: str) -> None:
        """Retire an empty host (autoscale-down / post-drain path)."""
        host = self.hosts.get(host_id)
        if host is None:
            return
        if host.residents:
            raise FleetError(
                f"cannot remove {host_id}: {len(host.residents)} residents"
            )
        del self.hosts[host_id]
        self._host_order = [h for h in self._host_order if h.host_id != host_id]
        host.hypervisor.set_accounting_listener(None)
        self._stale_hosts.pop(host_id, None)
        if self._verdicts.pop(host_id, _REFUSED)[0]:
            self._rebuild_candidate_lists()
        obs = self.timeline.obs
        obs.metrics.gauge("fleet.hosts").set(len(self.hosts))
        obs.event("fleet.host_leave", host=host_id)

    def serving_hosts(self) -> List[HostHandle]:
        """Hosts that are up and accepting placements, in host order."""
        return [h for h in self._host_order if h.serving]

    # -- admission + placement -------------------------------------------------

    @property
    def need_ram_bytes(self) -> int:
        return self.anon_spec.ram_bytes + self.comm_spec.ram_bytes

    def host_list(self) -> List[HostHandle]:
        return list(self._host_order)

    @property
    def footprint_bytes(self) -> int:
        """RAM + writable-FS cost of one nymbox (the pressure a placement adds)."""
        return (
            self.need_ram_bytes
            + self.anon_spec.writable_fs_bytes
            + self.comm_spec.writable_fs_bytes
        )

    def _mark_stale(self, host: HostHandle) -> None:
        """Queue ``host`` for a fresh admission verdict."""
        self._stale_hosts[host.host_id] = host

    def _verdict(self, host: HostHandle) -> Tuple[bool, bool]:
        """``(admits, calm)`` for one more nymbox on ``host``."""
        if not host.serving:
            return _REFUSED
        snap = host.memory_snapshot()
        used = snap.used_bytes
        admits = host.total_bytes - (used - snap.fs_bytes) >= self.need_ram_bytes
        calm = (
            admits
            and (used + self.footprint_bytes) / host.total_bytes
            <= self.high_watermark
        )
        return admits, calm

    def _rebuild_candidate_lists(self) -> None:
        # New list objects, never in-place edits: a list handed out by
        # ``_candidates`` stays valid while its caller walks it.
        verdicts = self._verdicts
        self._admissible = [
            h for h in self._host_order
            if verdicts.get(h.host_id, _REFUSED)[0]
        ]
        self._calm = [h for h in self._admissible if verdicts[h.host_id][1]]

    def _candidates(self, exclude: Optional[str] = None) -> List[HostHandle]:
        """Hosts that can admit one more nymbox, watermark-aware.

        Prefer hosts that stay under the high watermark after the
        placement (otherwise the newest nym would bounce straight back
        off); when the whole fleet is that full, fall back to anyone with
        raw RAM headroom and let evacuation rebalance.

        Only hosts marked stale since the last call (an accounting
        change, a join, a crash, a drain or undrain) get a fresh verdict,
        so an arrival costs O(hosts that changed), not O(hosts).
        """
        if self._stale_hosts:
            # Clear in place: every hypervisor's listener holds this dict.
            stale = list(self._stale_hosts.items())
            self._stale_hosts.clear()
            flipped = False
            for host_id, host in stale:
                verdict = self._verdict(host)
                if self._verdicts.get(host_id) != verdict:
                    self._verdicts[host_id] = verdict
                    flipped = True
            if flipped:
                self._rebuild_candidate_lists()
        if exclude is None:
            return self._calm or self._admissible
        calm = [h for h in self._calm if h.host_id != exclude]
        return calm or [h for h in self._admissible if h.host_id != exclude]

    def _note_rejected(self, name: str, tenant: str, reason: str) -> None:
        obs = self.timeline.obs
        if reason == REASON_CAPACITY:
            obs.metrics.counter("fleet.admission_rejected").inc()
        self.tenancy.note_rejected(tenant, reason)
        if tenant:
            obs.event("tenancy.reject", nym=name, tenant=tenant, reason=reason)

    def place(self, name: str, image_id: str, tenant: str = "") -> FleetNymbox:
        """Admit and place a new nymbox, or raise :class:`FleetCapacityError`.

        Tenant verdicts come first (quota, then launch rate), raising the
        :class:`TenantQuotaError` / :class:`TenantRateLimitError`
        subclasses; capacity is checked last.  This is the fleet's only
        admission path: a caller admitting a wave of arrivals calls it
        once per arrival and catches :class:`FleetCapacityError` for each
        one it may turn away.
        """
        if name in self.nymboxes:
            raise FleetError(f"nym {name!r} is already placed")
        reason = self.tenancy.admission_reason(tenant, self.need_ram_bytes)
        if reason is not None:
            self._note_rejected(name, tenant, reason)
            if reason == REASON_QUOTA:
                raise TenantQuotaError(
                    f"tenant {tenant!r} is over quota; rejected {name!r}"
                )
            raise TenantRateLimitError(
                f"tenant {tenant!r} launch bucket is dry; rejected {name!r}"
            )
        self.tenancy.consume_launch(tenant)
        host = self.policy.choose(self._candidates(), image_id)
        if host is None:
            self._note_rejected(name, tenant, REASON_CAPACITY)
            raise FleetCapacityError(
                f"no host can admit {name!r} ({self.need_ram_bytes // MIB} MiB)"
            )
        self._seq += 1
        box = self._materialize(
            name, image_id, host, seq=self._seq, advance=True, tenant=tenant
        )
        self.placements += 1
        self.tenancy.note_admitted(tenant)
        obs = self.timeline.obs
        obs.metrics.counter("fleet.placements").inc()
        obs.event("fleet.place", nym=name, host=host.host_id,
                  image=image_id, policy=self.policy.name)
        self._relieve_pressure(host)
        return box

    def _materialize(
        self, name: str, image_id: str, host: HostHandle, seq: int,
        advance: bool, extra_dirty_bytes: int = 0, moves: int = 0,
        tenant: str = "",
    ) -> FleetNymbox:
        """Create, wire, and boot the VM pair on ``host``.

        The pair launches through the host's zygote cache: one template
        per (spec, image) flavour per host, shared by every arrival and
        by evacuation relaunches (which therefore clone instead of
        cold-booting on the target host).
        """
        hv = host.hypervisor
        template = self._templates.get(image_id)
        if template is None:
            template = hv.nymbox_template(
                self.anon_spec, self.comm_spec, image_id=image_id
            )
            self._templates[image_id] = template
        anonvm, commvm, _wire = hv.flash_clone(template, name)
        # The pair boots in parallel, so it costs max(anon, comm) = anon.
        host.booting += 1
        try:
            anonvm.boot(jitter_rng=self.rng, advance=advance)
            commvm.boot(jitter_rng=self.rng, advance=False)
        finally:
            host.booting -= 1
        if extra_dirty_bytes:
            anonvm.touch_memory(extra_dirty_bytes)
        box = FleetNymbox(
            name=name, image_id=image_id, host_id=host.host_id,
            anonvm=anonvm, commvm=commvm, seq=seq, tenant=tenant,
            extra_dirty_bytes=extra_dirty_bytes, moves=moves,
        )
        self.nymboxes[name] = box
        host.add_resident(box)
        self.tenancy.note_placed(tenant, box.ram_bytes)
        self.timeline.obs.metrics.gauge("fleet.nyms_resident").set(len(self.nymboxes))
        return box

    def touch(self, name: str, dirty_bytes: int) -> None:
        """Workload churn: the nym's AnonVM dirties private pages."""
        box = self.nymboxes[name]
        box.anonvm.touch_memory(dirty_bytes)
        box.extra_dirty_bytes += dirty_bytes

    def remove(self, name: str) -> None:
        """Discard a nymbox entirely (the amnesia path)."""
        box = self.nymboxes.pop(name, None)
        if box is None:
            return
        host = self.hosts[box.host_id]
        host.pop_resident(name)
        self.tenancy.note_removed(box.tenant, box.ram_bytes)
        if not host.crashed:
            host.hypervisor.destroy_vm(box.anonvm)
            host.hypervisor.destroy_vm(box.commvm)
        self.timeline.obs.metrics.gauge("fleet.nyms_resident").set(len(self.nymboxes))

    # -- evacuation (§3.5 store → relaunch) -----------------------------------

    def _relieve_pressure(self, host: HostHandle) -> None:
        """Evacuate newest residents until ``host`` is below the low mark."""
        if host.pressure <= self.high_watermark:
            return
        obs = self.timeline.obs
        obs.event("fleet.pressure", host=host.host_id,
                  pressure=round(host.pressure, 4))
        while host.pressure > self.low_watermark and host.residents:
            victim = max(host.residents.values(), key=lambda b: b.seq)
            if not self._evacuate(victim, advance=True):
                break  # nowhere to go; stop rather than thrash

    def _evacuate(self, box: FleetNymbox, advance: bool) -> bool:
        """Store ``box`` off its host and relaunch it elsewhere.

        Returns False when every retry found no capacity — the nym stays
        parked in storage (still recoverable, just not resident).
        """
        source = self.hosts[box.host_id]
        obs = self.timeline.obs
        reason = (
            "crash" if source.crashed
            else "drain" if source.draining
            else "pressure"
        )
        obs.event("fleet.evacuate", nym=box.name, source=source.host_id,
                  reason=reason)
        # Store step: the quasi-persistent state (its churned pages) is
        # what the relaunch will carry over; then the source pair dies.
        carried_dirty = box.extra_dirty_bytes
        source.pop_resident(box.name)
        del self.nymboxes[box.name]
        self.tenancy.note_removed(box.tenant, box.ram_bytes)
        self.tenancy.note_evacuated(box.tenant)
        if not source.crashed:
            source.hypervisor.destroy_vm(box.anonvm)
            source.hypervisor.destroy_vm(box.commvm)
        self.evacuations += 1
        obs.metrics.counter("fleet.evacuations").inc()

        def relaunch() -> FleetNymbox:
            target = self.policy.choose(
                self._candidates(exclude=source.host_id), box.image_id
            )
            if target is None:
                raise FleetCapacityError(
                    f"no host can take evacuated nym {box.name!r}"
                )
            return self._materialize(
                box.name, box.image_id, target, seq=box.seq, advance=advance,
                extra_dirty_bytes=carried_dirty, moves=box.moves + 1,
                tenant=box.tenant,
            )

        try:
            relocated = retry_call(
                self.timeline, relaunch,
                policy=RELAUNCH_RETRY if advance else CRASH_RETRY,
                retryable=FleetCapacityError,
                site="fleet.relaunch",
            )
        except RetryExhaustedError:
            self.parked.append(box.name)
            obs.metrics.counter("fleet.nyms_parked").inc()
            obs.event("fleet.parked", nym=box.name)
            return False
        obs.event("fleet.relaunched", nym=box.name, source=source.host_id,
                  target=relocated.host_id, moves=relocated.moves)
        return True

    # -- host failure ----------------------------------------------------------

    def crash_host(self, host_id: str = "") -> Optional[str]:
        """A host dies; every resident nym evacuates (fault kind
        ``fleet.host_crash``).  Empty ``host_id`` picks the live host with
        the most residents (maximum blast radius), deterministically.
        """
        if host_id:
            host = self.hosts.get(host_id)
        else:
            live = [h for h in self.host_list() if not h.crashed]
            host = max(live, key=lambda h: (len(h.residents), h.host_id)) if live else None
        if host is None or host.crashed:
            return None
        host.crashed = True
        self._mark_stale(host)
        self.crashes += 1
        obs = self.timeline.obs
        obs.metrics.counter("fleet.host_crashes").inc()
        obs.event("fleet.host_crash", host=host.host_id,
                  residents=len(host.residents))
        # RAM is gone with the power; account it off without secure erase.
        for vm in list(host.hypervisor.vms()):
            if vm.state.value in ("running", "paused"):
                vm.crash()
        # Evacuate survivors' stored state oldest-first; relaunch boots
        # overlap (advance=False) — the cluster restarts them in parallel.
        for box in sorted(host.residents.values(), key=lambda b: b.seq):
            self._evacuate(box, advance=False)
        return host.host_id

    # -- rolling drain / upgrade ----------------------------------------------

    def drain_host(
        self, host_id: str = "", advance: bool = True, remove: bool = False
    ) -> Optional[str]:
        """Take one host out of service, live-evacuating its residents.

        The drain reuses the §3.5 store→relaunch machinery: each resident
        is stored and relaunched on a serving host (oldest first), with
        the draining host excluded from candidacy.  ``advance=False`` is
        the timeline-callback-safe variant (fault kind
        ``fleet.host_drain``, autoscale scale-down): relaunch boots
        overlap instead of sleeping.  Empty ``host_id`` picks the serving
        host with the most residents, deterministically.  Returns the
        drained host id, or ``None`` if no host was eligible.
        """
        if host_id:
            host = self.hosts.get(host_id)
        else:
            serving = self.serving_hosts()
            host = (
                max(serving, key=lambda h: (len(h.residents), h.host_id))
                if serving
                else None
            )
        if host is None or host.crashed or host.draining:
            return None
        host.draining = True
        self._mark_stale(host)
        self.drains += 1
        obs = self.timeline.obs
        obs.metrics.counter("fleet.host_drains").inc()
        obs.event("fleet.host_drain", host=host.host_id,
                  residents=len(host.residents))
        # Snapshot first: evacuations mutate ``residents``, and a host
        # crash firing mid-drain (boots advance time) may beat us to
        # some of them — the identity check skips anything already moved.
        for box in sorted(host.residents.values(), key=lambda b: b.seq):
            if self.nymboxes.get(box.name) is not box:
                continue
            self._evacuate(box, advance=advance)
        if remove:
            self.remove_host(host.host_id)
        return host.host_id

    def undrain_host(self, host_id: str) -> None:
        """Return a drained host to service (post-upgrade)."""
        host = self.hosts.get(host_id)
        if host is None or not host.draining:
            return
        host.draining = False
        self._mark_stale(host)
        self.timeline.obs.event("fleet.host_undrain", host=host_id)

    def rolling_drain(
        self,
        host_ids: Optional[Sequence[str]] = None,
        count: int = 0,
        upgrade_s: float = 0.0,
        return_to_service: bool = True,
    ) -> DrainReport:
        """Drain hosts one at a time (the rolling-upgrade loop).

        Each host is drained, held out of service for ``upgrade_s``
        simulated seconds (the upgrade window), then returned to service
        before the next host starts — so cluster capacity only ever dips
        by one host.  ``host_ids=None`` picks the first ``count`` serving
        hosts in host order.  The report accounts for every evacuated
        nym: relaunched elsewhere, parked (stored, awaiting capacity), or
        lost — which the machinery guarantees never happens (evacuation
        always stores before the source dies).
        """
        if host_ids is None:
            serving = [h.host_id for h in self.serving_hosts()]
            host_ids = serving[: count or len(serving)]
        evacuated = relaunched = parked = lost = 0
        drained: List[str] = []
        for host_id in host_ids:
            host = self.hosts.get(host_id)
            if host is None or not host.serving:
                continue
            names = [
                b.name
                for b in sorted(host.residents.values(), key=lambda b: b.seq)
            ]
            if self.drain_host(host_id, advance=True) is None:
                continue
            drained.append(host_id)
            evacuated += len(names)
            for name in names:
                if name in self.nymboxes:
                    relaunched += 1
                elif name in self.parked:
                    parked += 1
                else:
                    lost += 1
            if upgrade_s > 0:
                self.timeline.sleep(upgrade_s)
            if return_to_service:
                self.undrain_host(host_id)
        report = DrainReport(
            hosts=tuple(drained), evacuated=evacuated,
            relaunched=relaunched, parked=parked, lost=lost,
        )
        self.timeline.obs.event(
            "fleet.drain_complete",
            hosts=list(report.hosts),
            evacuated=report.evacuated,
            relaunched=report.relaunched,
            parked=report.parked,
            lost=report.lost,
        )
        return report

    # -- accounting -------------------------------------------------------------

    def settle_ksm(self) -> None:
        """Run every host's KSM scanner to convergence (for measurement)."""
        for host in self.host_list():
            if not host.crashed:
                host.hypervisor.ksm.run_to_completion()

    def host_image_pairs(self) -> int:
        """How many (host, image) colonies exist — the KSM cost driver."""
        return sum(len(h.images()) for h in self.host_list() if not h.crashed)

    def stats(self) -> FleetStats:
        live = [h for h in self.host_list() if not h.crashed]
        used = sum(h.used_bytes for h in live)
        saved = sum(h.ksm_saved_bytes for h in live)
        stats = FleetStats(
            hosts=len(self.hosts),
            hosts_up=len(live),
            nyms_resident=len(self.nymboxes),
            nyms_parked=len(self.parked),
            placements=self.placements,
            evacuations=self.evacuations,
            host_crashes=self.crashes,
            used_bytes=used,
            total_bytes=sum(h.total_bytes for h in live),
            ksm_saved_bytes=saved,
            host_image_pairs=self.host_image_pairs(),
            hosts_draining=sum(1 for h in live if h.draining),
            host_drains=self.drains,
        )
        obs = self.timeline.obs
        obs.metrics.gauge("fleet.used_bytes").set(used)
        obs.metrics.gauge("fleet.ksm_saved_bytes").set(saved)
        return stats

    def __repr__(self) -> str:
        return (
            f"Fleet(hosts={len(self.hosts)}, policy={self.policy.name}, "
            f"resident={len(self.nymboxes)}, parked={len(self.parked)})"
        )
