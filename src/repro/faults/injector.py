"""The fault injector: delivers a :class:`FaultPlan` into a live simulation.

Every :class:`~repro.sim.clock.Timeline` builds one injector, unarmed, as
``timeline.faults``, where the operation paths consult it.  Arming it
with a plan schedules the plan's faults onto the timeline:

* timed faults mutate the world when their moment arrives — the injector
  reaches the victim through the manager (directory, nymboxes, wires);
* inline faults sit in per-site queues until the matching operation asks
  ``maybe_fail(site)`` and gets the planned transient error thrown at it.

An unarmed injector has no queued faults, so every consultation misses.
The injector itself imports nothing from core or the anonymizers
(avoiding cycles); victims are reached by duck typing.
"""

from __future__ import annotations

import weakref
from typing import Dict, List, Optional

from repro.errors import CircuitError, SimulationError, TransientCloudError
from repro.faults.plan import FaultPlan, FaultSpec

#: Error class thrown by ``maybe_fail`` for each inline site.
_SITE_ERRORS = {
    "cloud.upload": TransientCloudError,
    "cloud.download": TransientCloudError,
    "tor.circuit_build": CircuitError,
}


class FaultInjector:
    """One timeline's injector: delivers the :class:`FaultPlan` it is armed with."""

    def __init__(self, timeline) -> None:
        # The clock, sink and tenant registry, and the queue only weakly,
        # not the timeline that owns this injector: a back-reference would
        # make every timeline a cycle, and a strong queue reference would
        # close one through an armed fault's callback.
        self._clock = timeline.clock
        self._events = weakref.ref(timeline.events)
        self._obs = timeline.obs
        self._tenancy = timeline.tenancy
        self.plan = FaultPlan(())
        self._manager: Optional[weakref.ref] = None
        self.injected: List[dict] = []
        self._inline: Dict[str, List[FaultSpec]] = {}
        self.armed = False

    # -- arming ---------------------------------------------------------------

    @property
    def manager(self):
        """The handle timed faults find victims through, or ``None``.

        Held weakly: the manager holds its timeline, which holds this
        injector, so a strong reference would make an armed manager a
        reference cycle.  Whoever arms the plan keeps the manager alive.
        """
        return None if self._manager is None else self._manager()

    def arm(self, plan: FaultPlan, manager=None) -> "FaultInjector":
        """Schedule ``plan`` (times relative to now).  ``manager`` is the
        handle timed faults use to find victims; inline-only plans can arm
        without one."""
        if self.armed:
            raise SimulationError("fault injector is already armed")
        self.armed = True
        self.plan = plan
        if manager is not None:
            self._manager = weakref.ref(manager)
        events = self._events()
        for spec in plan:
            events.schedule_in(spec.at_s, lambda s=spec: self._fire(s))
        self._obs.event("faults.armed", count=len(plan))
        return self

    # -- consultation by the operation paths ----------------------------------

    def take(self, site: str) -> Optional[FaultSpec]:
        """Pop the oldest armed inline fault for ``site``, if any."""
        queue = self._inline.get(site)
        if not queue:
            return None
        spec = queue.pop(0)
        self._obs.event("faults.consumed", kind=spec.kind, site=site)
        return spec

    def maybe_fail(self, site: str) -> None:
        """Raise the planned transient error if an inline fault is armed."""
        spec = self.take(site)
        if spec is None:
            return
        error_cls = _SITE_ERRORS.get(site, TransientCloudError)
        raise error_cls(f"injected fault at {site}")

    # -- firing ---------------------------------------------------------------

    def _fire(self, spec: FaultSpec) -> None:
        if not spec.timed:
            self._inline.setdefault(spec.kind, []).append(spec)
            self._record(spec, outcome="armed")
            return
        handler = {
            "tor.relay_churn": self._fire_tor_relay_churn,
            "tor.circuit_teardown": self._fire_tor_circuit_teardown,
            "net.link_flap": self._fire_net_link_flap,
            "vmm.crash": self._fire_vmm_crash,
            "fleet.host_crash": self._fire_fleet_host_crash,
            "fleet.host_drain": self._fire_fleet_host_drain,
            "mixnet.node_crash": self._fire_mixnet_node_crash,
            "tenancy.tenant_burst": self._fire_tenancy_tenant_burst,
        }[spec.kind]
        handler(spec)

    def _live_nymboxes(self) -> List:
        boxes = getattr(self.manager, "nymboxes", None)
        if not boxes:
            return []
        return [boxes[name] for name in sorted(boxes)]

    def _victim_nymbox(self, target: str):
        """The named nymbox, or the first live one in name order."""
        boxes = self._live_nymboxes()
        if target:
            for box in boxes:
                if box.nym.name == target:
                    return box
            return None
        return boxes[0] if boxes else None

    def _tor_clients(self) -> List:
        """Live anonymizers that look like Tor clients (duck-typed)."""
        return [
            box.anonymizer
            for box in self._live_nymboxes()
            if hasattr(box.anonymizer, "circuits")
            and getattr(box.anonymizer, "started", False)
        ]

    def _fire_tor_relay_churn(self, spec: FaultSpec) -> None:
        directory = getattr(self.manager, "directory", None)
        if directory is None:
            self._record(spec, outcome="no_directory")
            return
        nickname = spec.target
        if not nickname:
            # Prefer a relay some live circuit actually uses, so the churn
            # forces a rebuild rather than disappearing into the consensus.
            for client in self._tor_clients():
                current = getattr(client, "_current", None)
                if current is not None and current.built:
                    nickname = current.exit.descriptor.nickname
                    break
        if not nickname:
            consensus = directory.consensus(self._clock.now)
            exits = consensus.exits()
            if not exits:
                self._record(spec, outcome="no_exits")
                return
            nickname = exits[-1].nickname
        directory.churn_relay(nickname)
        self._record(spec, outcome="churned", target=nickname)

    def _fire_tor_circuit_teardown(self, spec: FaultSpec) -> None:
        for client in self._tor_clients():
            current = getattr(client, "_current", None)
            if current is not None and current.built:
                current.destroy()
                self._record(spec, outcome="torn_down")
                return
        self._record(spec, outcome="no_circuit")

    def _fire_net_link_flap(self, spec: FaultSpec) -> None:
        box = self._victim_nymbox(spec.target)
        if box is None or getattr(box, "destroyed", False):
            self._record(spec, outcome="no_target")
            return
        down_for = spec.param if spec.param > 0 else 5.0
        box.wire.flap(down_for)
        self._record(spec, outcome="flapped", target=box.nym.name)

    def _fire_vmm_crash(self, spec: FaultSpec) -> None:
        box = self._victim_nymbox(spec.target)
        if box is None or getattr(box, "destroyed", False):
            self._record(spec, outcome="no_target")
            return
        box.crash()
        self._record(spec, outcome="crashed", target=box.nym.name)

    def _fire_fleet_host_crash(self, spec: FaultSpec) -> None:
        # Armed with a Fleet (or anything exposing crash_host) as the
        # manager handle; an empty target lets the fleet pick the live
        # host with the most residents.
        crash_host = getattr(self.manager, "crash_host", None)
        if crash_host is None:
            self._record(spec, outcome="no_fleet")
            return
        host_id = crash_host(spec.target)
        if host_id is None:
            self._record(spec, outcome="no_target")
            return
        self._record(spec, outcome="host_crashed", target=host_id)

    def _fire_fleet_host_drain(self, spec: FaultSpec) -> None:
        # A surprise rolling-upgrade drain.  advance=False: this runs
        # inside a timeline callback, where evacuation boots must overlap
        # rather than sleep (the same constraint as crash recovery).  An
        # empty target drains the serving host with the most residents.
        drain_host = getattr(self.manager, "drain_host", None)
        if drain_host is None:
            self._record(spec, outcome="no_fleet")
            return
        host_id = drain_host(spec.target, advance=False)
        if host_id is None:
            self._record(spec, outcome="no_target")
            return
        self._record(spec, outcome="host_drained", target=host_id)

    def _fire_tenancy_tenant_burst(self, spec: FaultSpec) -> None:
        # Inject ingress-bucket debt: the tenant's traffic surges past
        # its rate limit and subsequent sends absorb the debt as delay.
        # ``param`` is the burst size in MiB; the victim is the named
        # tenant, or the first rate-limited tenant in name order.
        registry = self._tenancy
        tenants = [spec.target] if spec.target else sorted(registry.policies)
        debt_bytes = int((spec.param if spec.param > 0 else 16.0) * 1024 * 1024)
        for tenant in tenants:
            if registry.burst(tenant, debt_bytes):
                self._record(spec, outcome="burst", target=tenant)
                return
        self._record(spec, outcome="no_target")

    def _fire_mixnet_node_crash(self, spec: FaultSpec) -> None:
        # Reached through the manager's lazy accessor with create=False:
        # a run that never launched a mixnet nym has no topology, and the
        # fault must not conjure one just to break it.
        topology_of = getattr(self.manager, "mixnet_topology", None)
        topology = topology_of(create=False) if callable(topology_of) else None
        if topology is None:
            self._record(spec, outcome="no_mixnet")
            return
        crashed = topology.crash_node(spec.target)
        if crashed is None:
            self._record(spec, outcome="no_target")
            return
        self._record(spec, outcome="node_crashed", target=crashed)

    # -- bookkeeping -----------------------------------------------------------

    def _record(self, spec: FaultSpec, outcome: str, target: str = "") -> None:
        entry = dict(spec.export(), outcome=outcome)
        if target:
            entry["target"] = target
        self.injected.append(entry)
        self._obs.metrics.counter("faults.injected").inc()
        self._obs.event(
            "faults.injected",
            kind=spec.kind,
            target=entry["target"],
            outcome=outcome,
        )

    def __repr__(self) -> str:
        return (
            f"FaultInjector(planned={len(self.plan)}, "
            f"delivered={len(self.injected)}, armed={self.armed})"
        )
