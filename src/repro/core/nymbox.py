"""NymBoxes: the AnonVM + CommVM isolation container for one nym."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.anonymizers.base import Anonymizer
from repro.core.nym import Nym
from repro.errors import CircuitError, NymStateError, UnreachableError
from repro.faults.retry import RetryPolicy, retry_call
from repro.guest.browser import Browser, FetchOutcome, PageLoad
from repro.net.frame import Ipv4Packet, UdpDatagram
from repro.net.link import VirtualWire
from repro.net.nat import MasqueradeNat
from repro.sim.clock import Timeline
from repro.vmm.virtfs import SharedFolder
from repro.vmm.vm import VirtualMachine, VmState

#: Fetch retries under chaos: backoff long enough to outlast a link flap
#: (2-8 s injected outages) before the attempt budget runs out.
_CHAOS_FETCH_POLICY = RetryPolicy(
    max_attempts=6, base_backoff_s=1.0, backoff_factor=2.0, max_backoff_s=20.0
)


@dataclass
class StartupPhases:
    """Figure 7's phase breakdown for one nym startup."""

    boot_vm_s: float = 0.0
    start_anonymizer_s: float = 0.0
    load_page_s: float = 0.0
    ephemeral_nym_s: float = 0.0

    @property
    def total_s(self) -> float:
        return (
            self.boot_vm_s
            + self.start_anonymizer_s
            + self.load_page_s
            + self.ephemeral_nym_s
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "Boot VM": self.boot_vm_s,
            "Start Tor": self.start_anonymizer_s,
            "Load webpage": self.load_page_s,
            "Ephemeral Nym": self.ephemeral_nym_s,
        }


class AnonymizedFetcher:
    """The browser's only network path: SOCKS into the CommVM's anonymizer.

    Every request first crosses the private AnonVM->CommVM wire (visible
    to wire taps as guest traffic) and then rides the anonymizer.  DNS is
    resolved by the anonymizer (§4.1), never by the AnonVM.
    """

    def __init__(
        self,
        timeline: Timeline,
        anonymizer: Anonymizer,
        anonvm: VirtualMachine,
        commvm: VirtualMachine,
    ) -> None:
        self.timeline = timeline
        self.anonymizer = anonymizer
        self.anonvm = anonvm
        self.commvm = commvm
        self.requests = 0

    def _cross_wire(self, hostname: str) -> None:
        """Send the request over the AnonVM->CommVM virtual wire."""
        packet = Ipv4Packet(
            src=self.anonvm.primary_nic.ip,
            dst=self.commvm.primary_nic.ip,
            transport=UdpDatagram(
                src_port=40000 + (self.requests % 20000),
                dst_port=9050,
                payload=f"SOCKS {hostname}".encode(),
                label="socks",
            ),
        )
        delivered = self.anonvm.primary_nic.send_packet(
            packet, dst_mac=self.commvm.primary_nic.mac
        )
        if not delivered:
            raise UnreachableError(
                f"{self.anonvm.vm_id}: wire to CommVM is down; no other path exists"
            )

    def fetch(self, hostname: str, client_token: str) -> FetchOutcome:
        self.requests += 1

        def attempt() -> FetchOutcome:
            self._cross_wire(hostname)
            self.anonymizer.resolve(hostname)
            result = self.anonymizer.fetch(hostname, path=client_token)
            return FetchOutcome(response=result.response, duration_s=result.duration_s)

        if not self.timeline.faults.armed:
            # No injector armed: fail loudly and immediately, the seed
            # contract (a downed wire IS teardown outside of chaos).
            return attempt()
        return retry_call(
            self.timeline,
            attempt,
            policy=_CHAOS_FETCH_POLICY,
            retryable=(UnreachableError, CircuitError),
            site="net.fetch",
            reraise=True,
        )


class NymBox:
    """One nym's container: two VMs, a wire, a NAT, an anonymizer, a browser."""

    def __init__(
        self,
        timeline: Timeline,
        nym: Nym,
        anonvm: VirtualMachine,
        commvm: VirtualMachine,
        wire: VirtualWire,
        nat: MasqueradeNat,
        anonymizer: Anonymizer,
        rng,
        extra_commvms: Optional[List[VirtualMachine]] = None,
    ) -> None:
        self.timeline = timeline
        self.nym = nym
        self.anonvm = anonvm
        self.commvm = commvm
        # Further CommVMs in a §3.3 serial chain (closest-to-Internet last).
        self.extra_commvms: List[VirtualMachine] = list(extra_commvms or [])
        self.wire = wire
        self.nat = nat
        self.anonymizer = anonymizer
        self.rng = rng
        self.fetcher = AnonymizedFetcher(timeline, anonymizer, anonvm, commvm)
        self._browser: Optional[Browser] = None
        self.inbox = SharedFolder(f"{anonvm.vm_id}-incoming")
        anonvm.mount_shared(self.inbox)
        self.startup = StartupPhases()
        self.page_loads: List[PageLoad] = []
        self.destroyed = False

    # -- browser ------------------------------------------------------------------

    @property
    def browser(self) -> Browser:
        if self._browser is None:
            self._browser = Browser(
                vm=self.anonvm,
                fetcher=self.fetcher,
                rng=self.rng.fork("browser"),
                profile_token=f"profile:{self.nym.name}",
            )
        return self._browser

    def reset_browser_index(self) -> None:
        """Rebuild the browser's in-memory view from VM state (after restore)."""
        self._browser = None

    def browse(self, hostname: str) -> PageLoad:
        """Load a page as the user would (the Figure 7 "Load webpage" phase)."""
        self._require_alive()
        obs = self.timeline.obs
        with obs.span("nymbox.browse", nym=self.nym.name, host=hostname):
            load = self.browser.visit(hostname)
        self.page_loads.append(load)
        obs.metrics.counter("nymbox.page_loads").inc()
        obs.metrics.histogram("nymbox.page_load_s").observe(load.duration_s)
        obs.event(
            "nymbox.page_load",
            nym=self.nym.name,
            host=hostname,
            seconds=round(load.duration_s, 6),
        )
        return load

    def sign_in(self, hostname: str, username: str, password: str) -> None:
        """Log in to a pseudonymous account, binding it to this nym."""
        self._require_alive()
        self.browser.login(hostname, username, password, remember=True)
        self.nym.bind_account(hostname, username)

    # -- lifecycle helpers ---------------------------------------------------------

    def _require_alive(self) -> None:
        if self.destroyed:
            raise NymStateError(f"nymbox for {self.nym.name!r} has been destroyed")
        if not self.anonvm.running:
            raise NymStateError(f"AnonVM of {self.nym.name!r} is not running")

    @property
    def all_vms(self) -> List[VirtualMachine]:
        return [self.anonvm, self.commvm] + self.extra_commvms

    def pause(self) -> None:
        """Pause all VMs (the snapshot-consistency step of the §3.5 workflow)."""
        for vm in self.all_vms:
            vm.pause()

    def resume(self) -> None:
        for vm in self.all_vms:
            vm.resume()

    @property
    def running(self) -> bool:
        return not self.destroyed and self.anonvm.running and self.commvm.running

    @property
    def crashed(self) -> bool:
        return any(vm.state is VmState.CRASHED for vm in self.all_vms)

    def crash(self) -> None:
        """Fault injection: every live guest dies at once (host-level fault).

        The wreck stays registered with the manager until
        ``recover_nym``/``discard_nym`` clears it — crashing is not amnesia.
        """
        if self.destroyed:
            raise NymStateError(f"nymbox for {self.nym.name!r} has been destroyed")
        for vm in self.all_vms:
            if vm.state in (VmState.RUNNING, VmState.PAUSED):
                vm.crash()
        self.timeline.obs.event("nymbox.crashed", nym=self.nym.name)

    # -- accounting -----------------------------------------------------------------

    def state_bytes(self) -> int:
        """Writable-layer footprint of all VMs (what a snapshot captures)."""
        return sum(vm.fs_ram_bytes for vm in self.all_vms)

    def memory_bytes(self) -> int:
        return sum(vm.spec.ram_bytes for vm in self.all_vms) + self.state_bytes()

    def __repr__(self) -> str:
        return f"NymBox({self.nym.name!r}, {self.nym.anonymizer_kind}, running={self.running})"
